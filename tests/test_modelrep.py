import csv

import numpy as np
import pytest

from geoperiods.hypgeom import GroupElement, diagonal, orbit_from_spec
from geoperiods.modelrep import (BUMP_SQ_INTEGRAL, C1_NORM_SLOPE,
                                 DegenerateCircleError, ModelVector,
                                 SpectralParam, bump, check_regime_envelopes,
                                 circle_edge_constant, circle_log_jacobian,
                                 density_b, density_c, density_c_grid,
                                 density_to_csv, fit_regime_constants,
                                 k_fixed_functional, model_functional,
                                 vector_norm_sq)
from geoperiods.modelrep import test_vector as make_test_vector
from geoperiods import modelrep, quad, verify
from geoperiods.periods import ACCEPTANCE_CURVES, MODEL_CIRCLE_ELEMENT
from geoperiods.quad import integrate_adaptive
from geoperiods.specfun import DomainError, log_gamma

from oracles import (analyze_phase, box_functionals, conical_legendre,
                     fd_edge_constant, index_symmetric, k_fixed_vector,
                     periodic_fourier_regrid, pi_action, regime_constants_loop,
                     regime_tag, rotation)

RNG = np.random.default_rng(11)


def closed_b(lam, s):
    return complex(np.exp(log_gamma((1 - lam + s) / 4)
                          + log_gamma((1 - lam - s) / 4)
                          - log_gamma((1 - lam) / 2)))


def dilated(v, a):
    """pi(diag(a, 1/a)) v as a ModelVector: the support scales by a^2."""
    lo, hi = v.support
    return ModelVector(param=v.param,
                       evaluator=pi_action(v.param, diagonal(a), v),
                       support=(a * a * lo, a * a * hi))


# --------------------------------------------------------- spectral param

def test_spectral_param():
    p = SpectralParam(lam=10j)
    assert p.mu == (1.0 - (10j) ** 2) / 4.0 == 25.25
    assert p.is_principal
    assert not SpectralParam(lam=0.5).is_principal
    pr = SpectralParam.from_r(9.5)
    assert pr.lam == 19j
    assert abs(pr.mu - (0.25 + 9.5 ** 2)) < 1e-12


# -------------------------------------------------------------- K vector

def test_k_fixed_vector_even_and_unit():
    par = SpectralParam(lam=10j)
    e0 = k_fixed_vector(par)
    x = RNG.uniform(-8, 8, 64)
    assert np.max(np.abs(e0(x) - e0(-x))) < 1e-12
    # (1/pi) int_R |e0|^2 dx, after x = tan(theta)
    r = integrate_adaptive(lambda th: np.abs(e0(np.tan(th))) ** 2
                           / np.cos(th) ** 2, -np.pi / 2, np.pi / 2)
    assert abs(r.value / np.pi - 1.0) < 1e-9


def test_k_fixed_vector_magnitude():
    # |e0(x)| = (1+x^2)^{-1/2}: the oscillatory exponent is unimodular
    e0 = k_fixed_vector(SpectralParam(lam=10j))
    x = np.linspace(-5, 5, 33)
    assert np.max(np.abs(np.abs(e0(x)) - (1 + x * x) ** -0.5)) < 1e-14


def test_k_fixed_vector_rotation_invariance():
    par = SpectralParam(lam=6j)
    e0 = k_fixed_vector(par)
    x = np.linspace(-4.0, 4.0, 32)
    for phi in (0.3, 1.0, 2.2, np.pi / 2, 2.8):
        moved = pi_action(par, rotation(phi), e0)
        assert np.max(np.abs(moved(x) - e0(x))) < 1e-9


def test_k_fixed_vector_requires_principal():
    with pytest.raises(DomainError):
        k_fixed_vector(SpectralParam(lam=0.3))


# -------------------------------------------------------------- pi action

def test_pi_action_identity_and_diagonal():
    par = SpectralParam(lam=4j)
    e0 = k_fixed_vector(par)
    x = np.linspace(-3, 3, 17)
    same = pi_action(par, GroupElement(np.eye(2)), e0)
    assert np.max(np.abs(same(x) - e0(x))) < 1e-14
    lam = par.lam
    moved = pi_action(par, diagonal(2.0), e0)
    expect = np.exp((lam - 1) * np.log(2.0)) \
        * np.exp(0.5 * (lam - 1) * np.log1p((x / 4.0) ** 2))
    assert np.max(np.abs(moved(x) - expect)) < 1e-13


def test_pi_action_composition():
    par = SpectralParam(lam=8j)
    e0 = k_fixed_vector(par)
    x = np.linspace(-2.5, 2.5, 64)
    for _ in range(8):
        m1 = RNG.normal(size=(2, 2))
        m2 = RNG.normal(size=(2, 2))
        if abs(np.linalg.det(m1)) < 0.2 or abs(np.linalg.det(m2)) < 0.2:
            continue
        g1, g2 = GroupElement(m1), GroupElement(m2)
        lhs = pi_action(par, g1 @ g2, e0)(x)
        rhs = pi_action(par, g1, pi_action(par, g2, e0))(x)
        ok = np.isfinite(lhs) & np.isfinite(rhs)
        assert np.max(np.abs(lhs[ok] - rhs[ok])) < 1e-9


# -------------------------------------------------------- model functional

def test_functional_on_k_vector_closed_form():
    # s = 0 value: Gamma((1-lam)/4)^2 / Gamma((1-lam)/2)
    for lam in (2j, 10j, 40j):
        d = k_fixed_functional(SpectralParam(lam=lam), 0.0, [0])[0]
        assert abs(d - closed_b(lam, 0.0)) < 1e-10 * abs(closed_b(lam, 0.0))


def test_functional_kills_odd_part():
    par = SpectralParam(lam=5j)

    def odd(x):
        return np.sign(x) * bump(np.abs(x) - 1.0) + 0.0j

    odd_vec = ModelVector(param=par, evaluator=odd, support=(0.9, 1.1))
    d = model_functional(par, 2j, odd_vec)
    assert abs(d) < 1e-10


def test_functional_matches_table_oracle():
    # s = 2i, lam = 5i on the rotation-invariant vector
    lam, s = 5j, 2j
    d = k_fixed_functional(SpectralParam(lam=lam), s.imag, [1])[0]
    ref = closed_b(lam, s)
    assert abs(d - ref) < 1e-9 * abs(ref)


def test_functional_diagonal_equivariance():
    # d(pi(a) v) = |a|^s d(v)
    par = SpectralParam(lam=12j)
    vt = make_test_vector(4.0, par)
    for s in (0.0, 3j, -5j):
        base = model_functional(par, s, vt)
        for a in (2.0, 0.5, 3.7):
            lhs = model_functional(par, s, dilated(vt, a))
            chi = np.exp(complex(s) * np.log(abs(a)))
            assert abs(lhs - chi * base) < 1e-7 * abs(base)


def test_functional_lattice_trivial_on_generator():
    # with the default lattice step 2 pi q, the character is trivial on
    # diag(a, 1/a): the functional value is unchanged by that translation
    a = 2.0
    q = 1.0 / np.log(a)
    par = SpectralParam(lam=12j)
    vt = make_test_vector(4.0, par)
    for n in (1, 3):
        s = 2j * np.pi * q * n
        base = model_functional(par, s, vt)
        moved = model_functional(par, s, dilated(vt, a))
        assert abs(moved - base) < 1e-7 * abs(base)


def test_functional_rejects_nonunitary():
    par = SpectralParam(lam=5j)
    for s in (0.5, np.array([1j, 0.5 + 2j])):     # one row of a batch too
        with pytest.raises(DomainError):
            model_functional(par, s, make_test_vector(1.0, par))


# ------------------------------------------------------ k-fixed functional

@pytest.mark.parametrize("lam_abs, step, n", [
    (10.0, 1.0, 0), (80.0, 1.0, 0),          # sigma = 0
    (20.0, -np.pi, 3),                       # sigma < 0
    (0.0, 1.0, 5),                           # lam = 0
    (40.0, 41.0, 1),                         # sigma near |lam|
    (20.0, 0.01, 3),                         # short step: no folding
    (12.0, -37.3, 1),                        # deep tail, below the floor
])
def test_k_fixed_functional_against_mpmath(lam_abs, step, n):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        lam = mpmath.mpc(0, lam_abs)
        sig = mpmath.mpf(step) * n
        ref = complex(mpmath.gamma((1 - lam + 1j * sig) / 4)
                      * mpmath.gamma((1 - lam - 1j * sig) / 4)
                      / mpmath.gamma((1 - lam) / 2))
    d = k_fixed_functional(SpectralParam(lam=1j * lam_abs), step, [n])[0]
    if abs(ref) >= 3e-8:
        assert abs(d - ref) <= 1e-12 * abs(ref)
    else:
        assert abs(d - ref) <= 1e-15


def test_k_fixed_functional_symmetric_in_n():
    ns = np.arange(-200, 201)
    vals = k_fixed_functional(SpectralParam(lam=40j), 2 * np.pi / np.log(2), ns)
    assert np.max(np.abs(vals - vals[::-1])) <= 1e-15


def test_k_fixed_functional_one_point_matches_lattice():
    par = SpectralParam(lam=20j)
    step = 2 * np.pi * 0.5
    full = k_fixed_functional(par, step, np.arange(0, 60))
    # the grids differ with the lattice's band, so the two sums agree to
    # the rounding floor of the integrand scale, not bit for bit
    for n in (0, 1, 7, 13, 40):
        one = k_fixed_functional(par, step, [n])[0]
        assert abs(one - full[n]) <= 1e-14


def test_gamma_check_needs_no_oscillatory_panels(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("criterion 01 left the batch kernel")

    monkeypatch.setattr(quad, "oscillatory_integral", refuse)
    res = verify.check_gamma_formula()
    assert res.passed, res.details


# ---------------------------------------------------------------- density b

def test_density_b_central_identity():
    """Gamma closed form vs the quadrature of the functional on the
    rotation-invariant vector (the full grid runs in the acceptance
    suite)."""
    for lam_abs in (10.0, 80.0):
        par = SpectralParam(lam=1j * lam_abs)
        table = density_b(par, 1.0 / np.log(2.0), (-30, 30))
        step = table.meta["lattice_step"]
        for n in range(0, 31, 3):
            closed = table.entry(n)
            if abs(closed) < 3e-8:
                continue
            d = k_fixed_functional(par, step, [n])[0]
            assert abs(closed - d) < 1e-6 * abs(closed), (lam_abs, n)


def test_density_b_symmetry_and_regimes():
    par = SpectralParam(lam=20j)
    table = density_b(par, 0.5, (-50, 50))
    assert index_symmetric(table, 1e-12)
    assert table.regime[50] == "bulk"            # n = 0
    tail_n = int(np.ceil(1.2 * 20.0 / (2 * np.pi * 0.5)))
    assert table.regime[50 + tail_n] == "tail"


def test_density_b_default_lattice_override():
    par = SpectralParam(lam=20j)
    table = density_b(par, 0.5, (0, 5))
    assert table.meta["lattice_step"] == pytest.approx(np.pi)
    assert abs(table.entry(3) - closed_b(20j, 3j * np.pi)) < 1e-12


def test_density_b_envelopes_fit_and_check():
    q = 1.0 / np.log(2.0)
    fit = fit_regime_constants(density_b(SpectralParam(lam=80j), q, (-250, 250)))
    res = check_regime_envelopes(density_b(SpectralParam(lam=160j), q,
                                           (-250, 250)), fit, slack=2.0)
    assert res["passed"]


def test_envelope_constants_match_the_entry_loop():
    q = 1.0 / np.log(2.0)
    fit_table = density_b(SpectralParam(lam=80j), q, (-250, 250))
    table = density_b(SpectralParam(lam=160j), q, (-250, 250))
    fit = fit_regime_constants(fit_table)
    ref = regime_constants_loop(fit_table)
    assert fit == ref and all(type(v) is np.float64 for v in fit.values())
    worst = check_regime_envelopes(table, fit)["worst_log_excess"]
    assert worst == regime_constants_loop(table, fit)
    # a table with no transition entries keeps that regime at -inf
    bare = density_b(SpectralParam(lam=80j), q, (0, 5))
    assert fit_regime_constants(bare) == regime_constants_loop(bare)
    assert fit_regime_constants(bare)["transition"] == -np.inf


def test_regime_tags_follow_the_scalar_rule_at_the_boundaries():
    edge = 2 * np.pi * np.sinh(1.6) * 320.0
    lo, hi = (1.0 - 0.1) * edge, (1.0 + 0.1) * edge
    sig = np.array([0.0, np.nextafter(lo, 0.0), lo, np.nextafter(lo, np.inf),
                    np.nextafter(hi, 0.0), hi, np.nextafter(hi, np.inf),
                    np.inf, np.nan])
    tags = modelrep._regime_tags(sig, edge)
    assert tags == [regime_tag(x, edge) for x in sig]
    assert tags[2] == "bulk" and tags[5] == "tail" and tags[-1] == "tail"
    assert all(type(t) is str for t in tags)


# ---------------------------------------------------------------- density c

def test_density_c_fourier_sums_equal_full_regrids_at_lam_320():
    g = GroupElement(MODEL_CIRCLE_ELEMENT)
    par = SpectralParam(lam=320j)
    n_max = int(np.ceil(2.6 * circle_edge_constant(g) * 320.0 / (2 * np.pi))) + 8
    table = density_c(par, g, (0, n_max))
    W = circle_log_jacobian(g)
    ref, err, sizes = periodic_fourier_regrid(
        lambda th: np.exp(0.5 * (par.lam - 1.0) * np.log(W(th))), n_max,
        n_start=density_c_grid(par.abs_lam, g, (0, n_max)))
    assert np.array_equal(table.entries, ref[n_max:])
    assert table.meta["fourier_error"] == err
    assert table.meta["evaluations"] == sizes[0] + sum(sizes[:-1])


def test_density_c_odd_vanish_and_symmetry():
    par = SpectralParam(lam=30j)
    g = GroupElement([[2.0, 0.0], [0.0, 0.5]])
    table = density_c(par, g, (-20, 20))
    for n in range(-19, 20, 2):
        assert abs(table.entry(n)) < 1e-10
    assert index_symmetric(table, 1e-9)


def test_density_c_small_radius_limit():
    par = SpectralParam(lam=10j)
    g = diagonal(np.exp(0.005))         # radius 0.01
    table = density_c(par, g, (-4, 4))
    assert abs(table.entry(0) - 1.0) < 1e-3


def test_density_c_zonal_identity():
    """c_0 equals the conical Legendre value P_{-1/2 + iR}(cosh r): the
    independent cross-check of the circle pipeline at order zero."""
    for (r_spec, lam_abs) in ((2 * np.log(2.0), 19.06739), (0.8, 10.0)):
        par = SpectralParam(lam=1j * lam_abs)
        g = diagonal(np.exp(r_spec / 2.0))
        table = density_c(par, g, (-2, 2))
        ref = conical_legendre(lam_abs / 2.0, 0, np.cosh(r_spec))
        assert abs(table.entry(0) - ref) < 1e-8


def test_density_c_ratio_constant_in_radius():
    """c_m(r) / P^{-m/2}_{-1/2+iR}(cosh r) is independent of r: separation
    of variables puts all the r dependence in the radial factor, whose
    angular order is m/2 because the theta-loop covers the circle twice."""
    lam_abs = 14.0
    par = SpectralParam(lam=1j * lam_abs)
    for m in (2, 4, 6):
        ratios = []
        for r in (0.6, 0.9, 1.3):
            g = diagonal(np.exp(r / 2.0))
            table = density_c(par, g, (-8, 8))
            leg = conical_legendre(lam_abs / 2.0, m // 2, np.cosh(r))
            ratios.append(table.entry(m) / leg)
        spread = max(abs(ratios[i] - ratios[0]) for i in (1, 2))
        assert spread < 1e-9 * abs(ratios[0])


def test_density_c_edge_constant_matches_sinh():
    # for diag(e^{r/2}, e^{-r/2}) the edge is 2 pi sinh r
    for r in (0.7, 2 * np.log(2.0)):
        g = diagonal(np.exp(r / 2.0))
        assert circle_edge_constant(g) == pytest.approx(2 * np.pi * np.sinh(r),
                                                        rel=1e-6)


@pytest.mark.parametrize("g", [
    GroupElement([[1.3, 0.4], [0.2, 0.9]]),
    orbit_from_spec(ACCEPTANCE_CURVES[1]).g,
], ids=["general", "acceptance-circle"])
def test_circle_edge_constant_matches_finite_differences(g):
    # the closed form against the measured max of |d/dtheta log W| / 2,
    # also where g is neither diagonal nor symmetric
    assert circle_edge_constant(g) == pytest.approx(fd_edge_constant(g),
                                                    rel=1e-6)


def test_density_c_tail_octave_drop():
    par = SpectralParam(lam=40j)
    g = GroupElement([[2.0, 0.0], [0.0, 0.5]])
    c_edge = circle_edge_constant(g)
    n0 = int(np.ceil(1.1 * c_edge * 40.0 / (2 * np.pi))) + 2
    n0 += n0 % 2
    table = density_c(par, g, (0, 2 * n0))
    drop = abs(table.entry(n0)) ** 2 / max(abs(table.entry(2 * n0)) ** 2, 1e-300)
    assert drop >= 1e3


def test_density_c_regime_tags_match_phase_analysis():
    lam_abs = 60.0
    par = SpectralParam(lam=1j * lam_abs)
    g = GroupElement([[2.0, 0.0], [0.0, 0.5]])
    table = density_c(par, g, (0, 300))
    c_edge = table.meta["c_edge"]
    W = lambda th: 2.125 - 1.875 * np.cos(4 * np.pi * th)
    for n in (2, 8, int(0.5 * c_edge * lam_abs / (2 * np.pi))):
        assert table.regime[n] == "bulk"
        rep = analyze_phase(
            lambda th, n=n: 0.5 * lam_abs * np.log(W(th)) - 2 * np.pi * n * th,
            (0.0, 1.0))
        assert rep.regime == "nondegenerate"
    n_tail = int(np.ceil(1.15 * c_edge * lam_abs / (2 * np.pi))) + 1
    assert table.regime[n_tail] == "tail"
    rep = analyze_phase(
        lambda th: 0.5 * lam_abs * np.log(W(th)) - 2 * np.pi * n_tail * th,
        (0.0, 1.0))
    assert rep.regime == "no-critical-point"


def test_density_c_rejects_degenerate():
    par = SpectralParam(lam=10j)
    with pytest.raises(DegenerateCircleError):
        density_c(par, rotation(0.4), (-2, 2))


# --------------------------------------------------------------- test vector

def test_bump_normalization():
    r = integrate_adaptive(lambda x: bump(x), -0.1, 0.1, rel_tol=1e-12)
    assert abs(r.value - 1.0) < 1e-11
    r2 = integrate_adaptive(lambda x: bump(x) ** 2, -0.1, 0.1, rel_tol=1e-12)
    assert abs(r2.value - BUMP_SQ_INTEGRAL) < 1e-10
    assert C1_NORM_SLOPE == pytest.approx(2.0 / np.pi * BUMP_SQ_INTEGRAL,
                                          rel=1e-14)


def test_test_vector_support_and_norm():
    par = SpectralParam(lam=10j)
    for T in (1.0, 10.0, 100.0):
        vt = make_test_vector(T, par)
        lo, hi = vt.support
        assert lo == pytest.approx(1.0 - 0.1 / T)
        assert hi == pytest.approx(1.0 + 0.1 / T)
        x = np.linspace(-2, 2, 401)
        vals = np.abs(vt(x))
        assert np.all(vals[(np.abs(x) < lo - 0.01) | (np.abs(x) > hi + 0.01)] == 0)
        ns = vector_norm_sq(vt)
        assert abs(ns - C1_NORM_SLOPE * T) < 1e-10 * C1_NORM_SLOPE * T


def test_test_vector_kernel_phase_variation():
    # |Im(s - lam)/2| * ln(hi/lo) < 1/2 whenever |sigma|, |lam| <= T
    for T in (10.0, 100.0):
        vt = make_test_vector(T, SpectralParam(lam=1j * T))
        lo, hi = vt.support
        beta_max = T       # (sigma + |lam|)/2 at sigma = |lam| = T
        assert beta_max * np.log(hi / lo) < 0.5


def test_test_vector_functional_lower_bound():
    par = SpectralParam(lam=40j)
    vt = make_test_vector(100.0, par)
    for sig in (0.0, 40.0, 100.0):
        d = model_functional(par, 1j * sig, vt)
        assert abs(d) ** 2 > 3.5


def test_batched_functionals_equal_scalar_calls_bit_for_bit():
    # criterion 10's box: 18 calls of 11 sigma each, every row at the
    # 4-panel floor, against 198 scalar calls
    batched = []
    for T in (10.0, 50.0, 100.0):
        for lam_abs in np.linspace(0.0, min(T, 40.0), 6):
            par = SpectralParam(lam=1j * lam_abs)
            d = model_functional(par, 1j * np.linspace(0.0, T, 11),
                                 make_test_vector(T, par))
            assert d.shape == (11,)
            batched.extend(d)
    assert np.array_equal(np.array(batched), box_functionals())
    c2 = 0.995 * min(abs(x) ** 2 for x in box_functionals((10.0,)))
    assert verify.check_test_vector_constants().extras["c2"] == c2


def test_test_vector_requires_t_geq_one():
    with pytest.raises(ValueError):
        make_test_vector(0.5, SpectralParam(lam=1j))


@pytest.mark.parametrize("support", [None, (0.0, 1.0), (-0.5, 1.0),
                                     (1.0, 1.0), (1.1, 0.9)])
def test_model_vector_requires_compact_support(support):
    with pytest.raises(ValueError, match="0 < lo < hi"):
        ModelVector(param=SpectralParam(lam=1j), evaluator=bump,
                    support=support)


# ------------------------------------------------------------------- csv

def test_density_csv_columns(tmp_path):
    # integer n, every float cell parses back to the float64 it came from
    par = SpectralParam(lam=10j)
    table = density_b(par, 1.0, (-3, 3))
    path = tmp_path / "density.csv"
    density_to_csv(table, path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["n", "Re", "Im", "abs2", "regime"]
    assert [row[0] for row in rows] == [str(n) for n in range(-3, 4)]
    for row, e, tag in zip(rows, table.entries, table.regime):
        assert [float(c) for c in row[1:4]] == [e.real, e.imag, abs(e) ** 2]
        assert row[4] == tag in ("bulk", "transition", "tail")


def test_density_entry_out_of_range():
    table = density_b(SpectralParam(lam=10j), 1.0, (-3, 3))
    with pytest.raises(KeyError):
        table.entry(10)
