import dataclasses
import glob
import json
import logging
import math
import os
import warnings

import numpy as np
import pytest

from geoperiods import eigen, verify
from geoperiods.eigen import (CacheRecordError, NoEigenvalueError,
                              ReductionError, evaluate, laplace_residual,
                              pullback, sphere_harmonic, torus_mode)
from geoperiods.hypgeom import orbit_from_spec
from geoperiods.periods import ACCEPTANCE_CURVES, TABLE_GRID
from geoperiods.quad import periodic_fourier
from geoperiods.specfun import bessel_k_imag, bessel_k_imag_grid

from conftest import CACHE_DIR
from oracles import maass_value_termwise

RNG = np.random.default_rng(13)

COMMITTED_RECORDS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "form_cache", "maass_*.json")))


# ------------------------------------------------------------------ sphere

def test_sphere_constant_mode():
    y00 = sphere_harmonic(0, 0)
    pts = np.stack([RNG.uniform(0.1, np.pi - 0.1, 8),
                    RNG.uniform(0, 2 * np.pi, 8)], axis=-1)
    assert np.max(np.abs(evaluate(y00, pts) - 1 / np.sqrt(4 * np.pi))) < 1e-14
    assert y00.mu == 0.0


def test_sphere_rejects_bad_order():
    with pytest.raises(ValueError):
        sphere_harmonic(3, 4)


@pytest.mark.parametrize("n,m", [(0, 0), (1, 1), (10, 10), (50, 50),
                                 (120, 120), (200, 200), (20, 13), (60, 7),
                                 (150, 149), (200, 100)])
def test_norm_legendre_matches_mpmath(n, m):
    """Against P_n^m(x) = (-1)^m (2m-1)!! (1-x^2)^{m/2} C_{n-m}^{(m+1/2)}(x)
    in 30 digits, at four x and at x = cos 0.05, near the pole, where sin
    theta is passed as computed from theta.  (mpmath's legenp at
    zeroprec=200 returns false zeros for sectoral degrees and for (20, 13)
    and (150, 149) away from x = 0, after up to 13 s a case.)"""
    mpmath = pytest.importorskip("mpmath")
    xs = np.array([0.0, 0.3, -0.7, 0.95, np.cos(0.05)])
    sins = np.append(np.sqrt(1.0 - xs[:-1] ** 2), np.sin(0.05))
    got = eigen._norm_legendre(n, m, xs, sins)
    with mpmath.workdps(30):
        norm = mpmath.sqrt((2 * n + 1) / (4 * mpmath.pi)
                           * mpmath.factorial(n - m) / mpmath.factorial(n + m))
        exact_xs = [mpmath.mpf(x) for x in xs[:-1]] + [
            mpmath.cos(mpmath.mpf(0.05))]
        for x, value in zip(exact_xs, got):
            if x == 0 and (n - m) % 2:
                assert value == 0        # P_n^m is odd when n - m is
                continue
            want = (norm * (-1) ** m * mpmath.fac2(2 * m - 1)
                    * (1 - x * x) ** (mpmath.mpf(m) / 2)
                    * mpmath.gegenbauer(n - m, m + mpmath.mpf(1) / 2, x))
            assert abs((value - want) / want) < 1e-13, (x, value, want)


def sphere_norm_sq(phi, n_theta=200, n_phi=256):
    gx, gw = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(gx)
    phis = 2 * np.pi * np.arange(n_phi) / n_phi
    tt, pp = np.meshgrid(theta, phis, indexing="ij")
    vals = evaluate(phi, np.stack([tt.ravel(), pp.ravel()], axis=-1))
    vals = vals.reshape(tt.shape)
    return float(np.sum(gw[:, None] * vals ** 2) * 2 * np.pi / n_phi)


@pytest.mark.parametrize("n,m", [(1, 1), (5, 3), (20, 20), (40, 0)])
def test_sphere_unit_norm(n, m):
    assert sphere_norm_sq(sphere_harmonic(n, m)) == pytest.approx(1.0, abs=1e-9)


def equator_norm_sq(phi):
    """int |phi|^2 over the equator, by the periodic FFT mean."""
    mean = periodic_fourier(lambda th: evaluate(
        phi, np.stack([np.full_like(th, np.pi / 2), 2 * np.pi * th],
                      axis=-1)) ** 2, 0)[0][0]
    return 2 * np.pi * mean.real


def test_sectoral_constants_equal_their_products_in_any_order():
    # the kept products grow on demand; each C_m is the product's double
    for m in (300, 0, 7, 150, 301, 1, 40):
        prod = math.prod(-math.sqrt((2.0 * k + 1.0) / (2.0 * k))
                         for k in range(1, m + 1))
        assert eigen._sectoral_constant(m) == prod / math.sqrt(4.0 * math.pi)


def test_sectoral_legendre_reads_no_cosine():
    sins = np.sin(np.array([0.05, 0.7, np.pi / 2]))
    got = eigen._norm_legendre(9, 9, None, sins)
    assert np.array_equal(got, eigen._sectoral_constant(9) * sins ** 9)


def test_sphere_equator_y11_norm():
    # restriction-norm of Y(1,1) over the full equator equals 3/4
    assert abs(equator_norm_sq(sphere_harmonic(1, 1)) - 0.75) < 1e-12


def test_sphere_equator_closed_form():
    # int |Y(n,n)|^2 over the equator: (2n+1)/2 * (2n-1)!!/(2n)!!
    n = 6
    ratio = 1.0
    for k in range(1, n + 1):
        ratio *= (2 * k - 1) / (2 * k)
    expect = (2 * n + 1) / 2.0 * ratio
    assert abs(equator_norm_sq(sphere_harmonic(n, n)) - expect) < 1e-10


def test_sphere_highest_weight_quarter_power():
    """p(Y(n,n)) tracks c mu^{1/4}: fit c on degrees 10..40, then the
    degree-50 value lands within 5%."""
    def p_eq(n):
        return equator_norm_sq(sphere_harmonic(n, n))

    cs = [p_eq(n) / (n * (n + 1)) ** 0.25 for n in range(10, 41, 5)]
    c_fit = np.mean(cs)
    p50 = p_eq(50)
    assert abs(p50 - c_fit * (50 * 51) ** 0.25) < 0.05 * p50


def test_sphere_laplace_residual():
    pts = np.stack([RNG.uniform(0.4, np.pi - 0.4, 10),
                    RNG.uniform(0, 2 * np.pi, 10)], axis=-1)
    assert laplace_residual(sphere_harmonic(7, 4), pts) < 1e-4
    assert laplace_residual(sphere_harmonic(50, 50), pts) < 1e-4


# ------------------------------------------------------------------- torus

def test_torus_closed_forms():
    t10 = torus_mode((1, 0))
    pts = np.array([[0.25, 0.7], [0.1, 0.2]])
    assert abs(evaluate(t10, pts)[0]) < 1e-14          # cosine zero
    assert t10.mu == pytest.approx(4 * np.pi ** 2)
    t00 = torus_mode((0, 0))
    assert np.all(evaluate(t00, pts) == 1.0)


def test_torus_unit_norm_and_laplace():
    t34 = torus_mode((3, 4))
    xs = np.arange(64) / 64.0
    xx, yy = np.meshgrid(xs, xs)
    vals = evaluate(t34, np.stack([xx.ravel(), yy.ravel()], axis=-1))
    assert abs(np.mean(vals ** 2) - 1.0) < 1e-12
    pts = RNG.uniform(0, 1, (10, 2))
    assert laplace_residual(t34, pts) < 1e-4


# ----------------------------------------------------------------- modular

def test_pullback_fundamental_domain():
    for _ in range(50):
        z = complex(RNG.uniform(-3, 3), RNG.uniform(0.05, 2.0))
        w = pullback(z)
        assert abs(w.real) <= 0.5 + 1e-12
        assert abs(w) >= 1.0 - 1e-12
        assert w.imag >= np.sqrt(3) / 2 - 1e-9


def test_pullback_gives_up_after_max_steps():
    with pytest.raises(ReductionError):
        pullback(0.1 + 0.1j, max_steps=1)
    # the failure is not memoised: the point reduces with the default
    # steps, and one step fails again after that
    assert pullback(0.1 + 0.1j) == pullback.__wrapped__(0.1 + 0.1j)
    with pytest.raises(ReductionError):
        pullback(0.1 + 0.1j, max_steps=1)


def _bits(w):
    return np.float64(w.real).tobytes() + np.float64(w.imag).tobytes()


def test_pullback_memo_is_exact_on_the_acceptance_curves():
    # both curves at the grid of ``restrict`` and its double, 12,288
    # points; the second call of each point is a memo hit
    for spec in ACCEPTANCE_CURVES:
        curve = orbit_from_spec(spec)
        for grid in (TABLE_GRID, 2 * TABLE_GRID):
            for z in curve.points(np.arange(grid) / grid):
                want = _bits(pullback.__wrapped__(z))
                assert _bits(pullback(z)) == want
                assert _bits(pullback(z)) == want


@pytest.mark.parametrize("z", [0.3 + 0j, 0.3 - 1j])
def test_pullback_refuses_the_lower_half_plane_every_time(z):
    for _ in range(2):
        with pytest.raises(ValueError):
            pullback(z)


def test_pullback_memo_is_bounded():
    bound = eigen._PULLBACK_MEMO
    assert pullback.cache_info().maxsize == bound
    for x in np.linspace(-0.5, 0.5, bound + 1000):
        pullback(complex(x, 2.0))
    assert pullback.cache_info().currsize <= bound


@pytest.mark.parametrize("record", COMMITTED_RECORDS, ids=os.path.basename)
def test_kappa_table_matches_direct_series(record):
    # the K_iR table against the Fourier-Bessel series summed with
    # bessel_k_imag itself, at the same pulled-back points
    form = eigen.load_form(record)
    rng = np.random.default_rng(20260810)
    z = rng.uniform(-0.5, 0.5, 40) + 1j * rng.uniform(0.87, 3.0, 40)
    w = np.array([pullback(p) for p in z])
    n = np.arange(1, len(form.coefficients) + 1)
    osc = np.cos if form.parity == "even" else np.sin
    terms = (bessel_k_imag(form.R, 2 * np.pi * np.outer(w.imag, n))
             * osc(2 * np.pi * np.outer(w.real, n)))
    direct = form.l2_scale * np.sqrt(w.imag) * (terms @ form.coefficients)
    err = np.max(np.abs(form.value(z) - direct))
    assert err <= 1e-9 * np.max(np.abs(direct))


def test_kappa_table_matches_bessel_across_R():
    # a form's K_iR table against bessel_k_imag itself over its whole
    # range, from the lowest committed R up to the solver's range
    bounds = {9.53: 1e-11, 13.78: 1e-11, 25.0: 1e-10, 39.9: 1e-9}
    rng = np.random.default_rng(20261018)
    errors = {}
    for R, bound in bounds.items():
        table = eigen._KappaTable(R)
        u = np.exp(rng.uniform(table.lo, table.hi, 4000))
        direct = bessel_k_imag(R, u)
        err = np.max(np.abs(table(u) - direct))
        errors[R] = err / np.max(np.abs(direct))
    assert all(errors[R] <= bound for R, bound in bounds.items()), errors


def test_kappa_table_build_is_traced(caplog):
    # one DEBUG line per form, however often the form is evaluated
    forms = [eigen.load_form(r) for r in COMMITTED_RECORDS]
    z = np.array([0.1 + 1.0j, -0.3 + 2.0j])
    with caplog.at_level(logging.DEBUG, logger="geoperiods.eigen"):
        for form in forms:
            form.value(z)
            form.value(z)
    lines = [r for r in caplog.records if "exact Bessel points" in r.getMessage()]
    assert len(lines) == len(COMMITTED_RECORDS) == 3
    assert {r.levelno for r in lines} == {logging.DEBUG}
    for form, line in zip(forms, lines):
        message = line.getMessage()
        assert f"R={form.R:.6f}" in message
        for part in ("560 exact Bessel points", "40 panels x 14 nodes",
                     f"u in [5.4414, {60 + 2 * form.R:.4f}]",
                     "of the largest sample"):
            assert part in message
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="geoperiods.eigen"):
        eigen.load_form(COMMITTED_RECORDS[0]).value(z)
    assert not caplog.records


def test_chebyshev_helper_matches_chebval():
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(24)
    x = rng.uniform(-1.0, 1.0, 500)
    ref = np.polynomial.chebyshev.chebval(x, coeffs)
    assert np.max(np.abs(eigen._clenshaw(coeffs, x) - ref)) <= 1e-14 * np.max(
        np.abs(ref))
    # fitting the values at the nodes gives the coefficients back
    t = eigen._cheb_nodes(24)
    fit, tail = eigen._cheb_fit(t, np.polynomial.chebyshev.chebval(t, coeffs))
    assert np.max(np.abs(fit - coeffs)) <= 1e-14 * np.max(np.abs(coeffs))
    # a column that underflowed to zero (a kernel far past its turning
    # point) adds nothing to the tail
    values = np.polynomial.chebyshev.chebval(t, coeffs)
    _, tail_0 = eigen._cheb_fit(t, np.column_stack([values, 0.0 * values]))
    assert tail_0 == pytest.approx(tail, rel=1e-12)
    # per-point coefficient columns: each x evaluates its own column
    table = rng.standard_normal((24, 3))
    cols = rng.integers(0, 3, x.size)
    ref = np.array([np.polynomial.chebyshev.chebval(xi, table[:, c])
                    for xi, c in zip(x, cols)])
    assert np.max(np.abs(eigen._clenshaw(table, x, cols) - ref)) <= 1e-13


def test_chebyshev_helper_is_exact_on_degree_23():
    # 24 nodes interpolate a degree-23 polynomial exactly, to rounding
    poly = np.polynomial.Polynomial(np.random.default_rng(8).standard_normal(24))
    t = eigen._cheb_nodes(24)
    x = np.linspace(-1.0, 1.0, 301)
    got = eigen._clenshaw(eigen._cheb_fit(t, poly(t))[0], x)
    assert np.max(np.abs(got - poly(x))) <= 1e-12 * np.max(np.abs(poly(x)))


def test_collocation_table_matches_vandermonde_fit():
    # the acceptance scan table of (13.5, 14.2) against the Vandermonde
    # fit and evaluation written out in full, of the same samples (the
    # kernel itself is tested in test_specfun.py)
    coll = eigen._Collocation(0.40, 26, 14, "even")
    rs = np.arange(13.5, 14.2 + 0.005, 0.01)
    table, tail = coll.table(rs[0], rs[-1])
    nodes = eigen._CHEB_NODES
    t = np.cos(np.pi * (np.arange(nodes) + 0.5) / nodes)
    u = coll.u.ravel()
    lo, hi = rs[0], rs[-1]
    samples = bessel_k_imag_grid(0.5 * (hi + lo) + 0.5 * (hi - lo) * t, u)
    vander = np.polynomial.chebyshev.chebvander
    coeffs = (2.0 / nodes) * vander(t, nodes - 1).T @ samples
    coeffs[0] *= 0.5
    ref = vander((2.0 * rs - (hi + lo)) / (hi - lo), nodes - 1) @ coeffs
    # the kernels at each R laid out as coll.u, flattened
    got = table(rs).reshape(len(rs), -1)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    ref_tail = np.max(np.sum(np.abs(coeffs[-2:]), axis=0)
                      / np.max(np.abs(samples), axis=0))
    assert tail == pytest.approx(ref_tail, rel=1e-12)


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("bracket", [(9.0, 10.0), (13.5, 14.2), (38.0, 40.0)])
def test_matrix_table_is_the_system_of_the_kernel_table(bracket, parity):
    # system is linear, so the matrix table made from the kernel tables'
    # coefficients is system of the tabled kernels, to rounding, at each
    # R of the grid relative to that matrix's largest entry (a matrix row
    # whose entries are all small sees the projection's rounding: 1.9e-13
    # of its own largest entry on (13.5, 14.2))
    loc = eigen._Locator(14, parity, 0.40, 0.35)
    rs = np.arange(bracket[0], bracket[1] + 0.005, 0.01)
    table, _, built = loc._matrix_table(rs[0], rs[-1])
    got = table(rs)
    assert built == 2 and got.shape == (len(rs), 2, 14, 14)
    for height, coll in enumerate((loc.coll1, loc.coll2)):
        kernels, _ = loc.tables[(coll.u_y.tobytes(), rs[0], rs[-1])]
        ref = coll.system(kernels(rs))
        err = np.abs(got[:, height] - ref)
        assert np.max(err / np.max(np.abs(ref), axis=(1, 2),
                                   keepdims=True)) <= 1e-14


def _check_stacked_solve(loc, rs):
    """Assert that the a_2 mismatch over ``rs`` from one stacked solve of
    the locator's tabled systems agrees with one np.linalg.lstsq per
    system (the loop the stacked solve replaced) to 1e-10 of its largest
    value, and in sign; return the smallest ratio of singular values
    met."""
    systems = loc._matrix_table(rs[0], rs[-1])[0](rs)
    coeffs, _ = eigen._least_squares(systems)
    ref = np.array([[np.linalg.lstsq(a[:, 1:], -a[:, 0],
                                     rcond=eigen._RCOND)[0][0] for a in pair]
                    for pair in systems])
    g, g_ref = coeffs[:, 0, 1] - coeffs[:, 1, 1], ref[:, 0] - ref[:, 1]
    assert np.max(np.abs(g - g_ref)) <= 1e-10 * np.max(np.abs(g_ref))
    assert np.array_equal(np.sign(g), np.sign(g_ref))
    sv = np.linalg.svd(systems[..., 1:], compute_uv=False)
    return np.min(sv[..., -1] / sv[..., 0])


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("bracket", [(9.0, 10.0), (12.0, 12.7), (13.5, 14.2)])
def test_stacked_scan_solve_matches_lstsq(bracket, parity):
    # every system of (9, 10) at the lower height is rank-deficient
    # (singular values down to 4.6e-11 of the largest)
    ratio = _check_stacked_solve(eigen._Locator(14, parity, 0.40, 0.35),
                                 np.arange(bracket[0], bracket[1] + 0.005,
                                           0.01))
    if bracket == (9.0, 10.0):
        assert ratio <= eigen._RCOND


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("record", COMMITTED_RECORDS, ids=os.path.basename)
def test_stacked_window_solve_matches_lstsq(record, parity):
    # the M0+8 window around each committed form's R, where the systems
    # are rank-deficient at both heights
    R = eigen.load_form(record).R
    window = np.linspace(R - eigen._WINDOW, R + eigen._WINDOW, 9)
    assert _check_stacked_solve(eigen._Locator(22, parity, 0.35, 0.28),
                                window) <= eigen._RCOND


def test_stacked_solve_gives_the_minimum_norm_solution():
    # a duplicated column leaves one direction without weight: lstsq's
    # cutoff drops it, which splits the weight evenly between the twins
    a = np.random.default_rng(29).standard_normal((2, 14, 14))
    a[:, :, 5] = a[:, :, 4]
    coeffs, resid = eigen._least_squares(a)
    assert coeffs.shape == (2, 14) and resid.shape == (2,)
    for a_k, c in zip(a, coeffs):
        ref = np.linalg.lstsq(a_k[:, 1:], -a_k[:, 0], rcond=eigen._RCOND)[0]
        assert c[0] == 1.0
        assert np.max(np.abs(c[1:] - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert c[4] == pytest.approx(c[5], rel=1e-12)
    # one system gives one solution and residual
    c, r = eigen._least_squares(a[0])
    assert c.shape == (14,) and r.shape == ()
    assert np.allclose(c, coeffs[0], rtol=1e-14, atol=0)
    with pytest.raises(eigen.ConditioningError, match="singular"):
        eigen._least_squares(np.zeros((14, 14)))


def test_find_form_prefers_highest_m0(tmp_path, first_form):
    # the same form under two truncations, its coefficients zero-padded
    for m0 in (first_form.M0, first_form.M0 + 8):
        padded = dataclasses.replace(first_form, M0=m0, coefficients=np.pad(
            first_form.coefficients, (0, m0 - first_form.M0)))
        assert eigen.save_form(padded, tmp_path) == eigen.cache_path(
            tmp_path, first_form.bracket, first_form.parity, m0)
    found = eigen.find_form(str(tmp_path), first_form.bracket)
    assert found.M0 == first_form.M0 + 8
    assert found.R == first_form.R
    assert eigen.find_form(str(tmp_path), (11.0, 11.5)) is None


def test_first_form_eigenvalue_window(first_form):
    assert 9.5336 <= first_form.R <= 9.5338
    assert first_form.r_stability < 1e-6
    assert first_form.residual < 1e-8
    assert first_form.height_agreement < 1e-6


def test_first_form_is_odd(first_form):
    # the lowest cusp form carries the sine expansion; the cosine search
    # over the same bracket finds nothing
    assert first_form.parity == "odd"


def test_automorphy(first_eigenfunction):
    phi = first_eigenfunction
    vals = []
    for _ in range(50):
        z = complex(RNG.uniform(-0.45, 0.45), RNG.uniform(0.9, 1.9))
        vals.append(max(abs(evaluate(phi, z) - evaluate(phi, z + 1)),
                        abs(evaluate(phi, z) - evaluate(phi, -1 / z))))
    scale = max(abs(evaluate(phi, complex(x, 1.1)))
                for x in np.linspace(-0.4, 0.4, 17))
    assert max(vals) < 1e-6 * scale


def test_modular_laplace_residual(first_eigenfunction):
    pts = [complex(RNG.uniform(-0.45, 0.45), RNG.uniform(0.9, 1.7))
           for _ in range(20)]
    assert laplace_residual(first_eigenfunction, pts) < 1e-4


# (eigenfunction, sample points); the modular case uses the first form
_rng = np.random.default_rng(20261018)
LAPLACE_CASES = {
    "sphere": (sphere_harmonic(7, 4),
               np.stack([_rng.uniform(0.4, np.pi - 0.4, 10),
                         _rng.uniform(0, 2 * np.pi, 10)], axis=-1)),
    "torus": (torus_mode((3, 4)), _rng.uniform(0, 1, (10, 2))),
    "modular": (None, _rng.uniform(-0.45, 0.45, 20)
                + 1j * _rng.uniform(0.9, 1.7, 20)),
}


@pytest.mark.parametrize("surface", sorted(LAPLACE_CASES))
def test_laplace_residual_sees_a_wrong_eigenvalue(surface, first_eigenfunction):
    phi, pts = LAPLACE_CASES[surface]
    phi = phi or first_eigenfunction
    assert laplace_residual(phi, pts) < 1e-4
    off = dataclasses.replace(phi, mu=1.01 * phi.mu)
    assert laplace_residual(off, pts) > 1e-3


@pytest.mark.parametrize("surface", sorted(LAPLACE_CASES))
def test_laplace_residual_fails_on_nan(surface, first_form):
    phi, pts = LAPLACE_CASES[surface]
    if phi is None:
        coeffs = first_form.coefficients.copy()
        coeffs[3] = np.nan
        phi = eigen.as_eigenfunction(
            dataclasses.replace(first_form, coefficients=coeffs))
    else:
        phi = dataclasses.replace(
            phi, evaluator=lambda p: np.full(np.shape(p)[:-1], np.nan))
    assert not laplace_residual(phi, pts) < 1e-4


@pytest.mark.parametrize("phi", [sphere_harmonic(0, 0), torus_mode((0, 0))],
                         ids=lambda phi: phi.label)
def test_laplace_residual_of_a_constant_mode(phi):
    # mu = 0: the residual is scaled by max(mu, 1), like the stencil step
    pts = LAPLACE_CASES[phi.surface][1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert laplace_residual(phi, pts) < 1e-4


def test_modular_unit_norm(first_form):
    # independent, finer fundamental-domain grid than the normalizer's
    pts, wts = eigen._fundamental_domain_grid(nx=96, ny=72, y_cut=5.0)
    vals = first_form.value(pts)
    assert abs(np.sum(wts * np.abs(vals) ** 2) - 1.0) < 1e-3


def test_modular_series_tail(first_form):
    # last retained coefficient contributes < 1e-9 of the peak at y >= 0.8
    from geoperiods.specfun import bessel_k_imag
    n = first_form.M0
    tail = abs(first_form.coefficients[-1]) \
        * bessel_k_imag(first_form.R, 2 * np.pi * n * 0.8) * np.sqrt(0.8) \
        * first_form.l2_scale
    scale = max(abs(first_form.value(complex(x, 1.0)))
                for x in np.linspace(-0.4, 0.4, 9))
    assert tail < 1e-9 * scale


def test_modular_coefficient_stability(first_form):
    """Coefficients a_n (n <= 10) stable under deeper truncation and a 5%
    sampling-height change."""
    R = first_form.R
    base = eigen._Collocation(0.40, 40, 14, first_form.parity).solve(R)[0]
    deeper = eigen._Collocation(0.40, 48, 22, first_form.parity).solve(R)[0]
    shifted = eigen._Collocation(0.38, 40, 14, first_form.parity).solve(R)[0]
    assert np.max(np.abs(base[:10] - deeper[:10])) < 1e-6
    assert np.max(np.abs(base[:10] - shifted[:10])) < 1e-6


def test_modular_cache_roundtrip(tmp_path, first_form):
    path = eigen.save_form(first_form, tmp_path)
    assert path == eigen.cache_path(tmp_path, first_form.bracket,
                                    first_form.parity, first_form.M0)
    loaded = eigen.load_form(path)
    assert loaded.R == first_form.R
    assert loaded.parity == first_form.parity
    z = 0.17 + 1.23j
    assert loaded.value(z) == pytest.approx(first_form.value(z), rel=1e-12)


@pytest.mark.parametrize("record", COMMITTED_RECORDS, ids=os.path.basename)
def test_committed_record_roundtrips_byte_for_byte(tmp_path, record):
    path = eigen.save_form(eigen.load_form(record), tmp_path)
    assert os.path.basename(path) == os.path.basename(record)
    with open(path, "rb") as saved, open(record, "rb") as committed:
        assert saved.read() == committed.read()


def test_replaced_form_evaluates_with_its_own_table():
    # the K_iR table is derived from R: a form replaced with another R,
    # after the original built its table, builds its own
    form = eigen.load_form(COMMITTED_RECORDS[0])
    z = np.array([0.1 + 1.0j, -0.3 + 2.0j, 0.45 + 0.9j])
    form.value(z)
    moved = dataclasses.replace(form, R=form.R + 1.0)
    w = np.array([pullback(p) for p in z])
    n = np.arange(1, len(form.coefficients) + 1)
    osc = np.cos if form.parity == "even" else np.sin
    direct = form.l2_scale * np.sqrt(w.imag) * (
        (bessel_k_imag(moved.R, 2 * np.pi * np.outer(w.imag, n))
         * osc(2 * np.pi * np.outer(w.real, n))) @ form.coefficients)
    assert np.max(np.abs(moved.value(z) - direct)) <= 1e-9 * np.max(
        np.abs(direct))
    # every way of making a form gives the same field types
    listed = dataclasses.replace(form, coefficients=[1, 0], bracket=[9, 10])
    assert listed.coefficients.dtype == float
    assert listed.bracket == (9, 10)


@pytest.mark.parametrize("key,default", [("height_agreement", np.nan),
                                         ("bracket", ())])
def test_record_without_an_optional_key_loads(tmp_path, key, default):
    path = tmp_path / "record.json"
    record = _write_record(path)
    del record[key]
    path.write_text(json.dumps(record))
    form = eigen.load_form(path)
    assert form.R == record["R"]
    assert np.array_equal(getattr(form, key), default, equal_nan=True)


def _write_record(path, **changes):
    """The first committed record, with ``changes`` applied, at ``path``."""
    with open(COMMITTED_RECORDS[0]) as fh:
        record = json.load(fh)
    record.update(changes)
    path.write_text(json.dumps(record))
    return record


@pytest.mark.parametrize("change,problem", [
    ("truncated", "JSONDecodeError"),
    ("nan_coefficient", "non-finite"),
    ("infinite_l2_scale", "non-finite"),
    ("short", "21 coefficients for M0 = 22"),
    ("outside_bracket", "outside the bracket"),
    ("unknown_parity", "parity 'both'"),
    ("residual_above_tolerance", "residual 1.00e-07 above 1e-08"),
    ("unstable", "r_stability 2.00e-06 above 1e-06"),
])
def test_bad_cache_record_is_refused(tmp_path, change, problem):
    path = tmp_path / "record.json"
    good = _write_record(path)
    coeffs = good["coefficients"]
    changes = {
        "nan_coefficient": {"coefficients": coeffs[:5] + [np.nan] + coeffs[6:]},
        "infinite_l2_scale": {"l2_scale": np.inf},
        "short": {"coefficients": coeffs[:-1]},
        "outside_bracket": {"R": good["bracket"][1] + 0.5},
        "unknown_parity": {"parity": "both"},
        "residual_above_tolerance": {"residual": 1e-7},
        "unstable": {"r_stability": 2e-6},
    }
    if change == "truncated":
        path.write_text(path.read_text()[:200])
    else:
        _write_record(path, **changes[change])
    with pytest.raises(CacheRecordError) as err:
        eigen.load_form(path)
    assert str(path) in str(err.value)
    assert problem in str(err.value)


@pytest.mark.parametrize("record", COMMITTED_RECORDS, ids=os.path.basename)
def test_value_stops_the_series_exactly(record):
    # against every term summed, at the lowest height pullback gives
    # (where the table's end still cuts the series: the last terms are
    # dead), well inside, and at y = 40, where every term is dead
    form = eigen.load_form(record)
    x = np.linspace(-0.5, 0.5, 64)
    low = np.sqrt(3.0) / 2.0 + 1e-9
    assert (np.log(2.0 * np.pi * len(form.coefficients) * low)
            > form._kappa.hi)
    for y in (low, 1.2, 40.0):
        z = x + 1j * y
        assert form.value(z).tobytes() == maass_value_termwise(form,
                                                               z).tobytes()
    assert (form.value(x + 40j).tobytes()
            == np.zeros(len(x)).tobytes())


def test_value_of_an_empty_batch(first_form):
    v = first_form.value(np.array([], dtype=complex))
    assert v.shape == (0,) and v.dtype == float


def test_value_at_a_nan_height_is_nan(first_form):
    # a NaN point is past no table end: the series runs on, and it
    # alone reads NaN, as in the whole sum
    z = np.array([0.1 + 40j, complex(0.1, np.nan)])
    assert np.array_equal(np.isnan(first_form.value(z)), [False, True])


def test_modular_value_far_below_the_fundamental_domain(first_form):
    # pullback lands at height >= sqrt(3)/2, so a point this low is
    # evaluated at its image without loss
    z = 0.3 + 0.01j
    v = first_form.value(z)
    assert np.isfinite(v)
    assert v == first_form.value(pullback(z))


def test_no_eigenvalue_bracket(monkeypatch):
    with pytest.raises(NoEigenvalueError):
        eigen.hejhal_solve((5.0, 5.5), parity="even")
    # the parity fallback reports why each parity found nothing
    with pytest.raises(NoEigenvalueError) as err:
        eigen.hejhal_solve((5.0, 5.5), parity="auto")
    assert "even: " in str(err.value)
    assert "odd: " in str(err.value)
    # a bracket narrower than half a scan step is a one-point grid: it has
    # no sign change and builds no table (one over [9.5, 9.5] would divide
    # by its zero width)
    monkeypatch.setattr(eigen._Collocation, "table", None)
    with pytest.raises(NoEigenvalueError,
                       match="odd: no sign change of the locator$"):
        eigen.hejhal_solve((9.5, 9.503), parity="odd")


def test_cold_solve_matches_committed_record(caplog):
    """A cold solve reproduces the committed (13.5, 14.2) record's R, and
    the final collocation system (M0 + 8 at the deep height) at the
    record's R reproduces its coefficients a_1..a_12.  They are compared
    at the record's R because the solver's R is reproducible only to a
    few 1e-12 and a_12 moves by about 9e3 dR; a_13..a_17 are poorly
    determined at this truncation and differ between solver versions by
    up to 3e-5.  The solver's trace goes to the ``geoperiods.eigen``
    logger at DEBUG."""
    with open(os.path.join(os.path.dirname(__file__), "..", "form_cache",
                           "maass_even_13.5000_14.2000_M22.json")) as fh:
        record = json.load(fh)
    with caplog.at_level(logging.DEBUG, logger="geoperiods.eigen"):
        form = eigen.hejhal_solve((13.5, 14.2), parity="auto")
    assert form.parity == record["parity"]
    assert abs(form.R - record["R"]) < 1e-9
    coeffs, _ = eigen._Collocation(0.35, 34, 22, record["parity"]).solve(
        record["R"])
    assert np.max(np.abs(coeffs[:12] - record["coefficients"][:12])) < 1e-8
    assert max(d for k, d in eigen.hecke_defects(form).items()
               if k <= 10) < 1e-6
    trace = "\n".join(r.getMessage() for r in caplog.records)
    for step in ("scan of 71 points", "Chebyshev tail", "sign flip in",
                 "table indicator calls; exact screen",
                 "M0+8 confirmation of R=", "scan of 2 points",
                 "rejected: even: candidate"):
        assert step in trace
    assert {r.levelno for r in caplog.records} == {logging.DEBUG}


def test_parities_share_one_pair_of_scan_tables(monkeypatch, caplog):
    # with parity="auto" the even scan of (9, 10) finds nothing and the odd
    # scan reuses its tables: one table per collocation height, not two;
    # the odd candidate's M0+8 window builds its own pair
    built = []
    table = eigen._Collocation.table
    monkeypatch.setattr(eigen._Collocation, "table", lambda self, lo, hi:
                        built.append((lo, hi)) or table(self, lo, hi))
    with caplog.at_level(logging.DEBUG, logger="geoperiods.eigen"):
        form = eigen.hejhal_solve((9.0, 10.0), parity="auto")
    assert len(built) == 4
    assert np.allclose(built[:2], [(9.0, 10.0)] * 2, rtol=0, atol=1e-12)
    assert np.allclose([hi - lo for lo, hi in built[2:]],
                       [2 * eigen._WINDOW] * 2, rtol=1e-9, atol=0)
    scans = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("scan of")]
    assert ["(2 built)" in m for m in scans] == [True, False, True]
    assert "(0 built)" in scans[1]
    assert [m.split(" over ")[0] for m in scans] == [
        "scan of 101 points", "scan of 101 points", "scan of 2 points"]
    with open(os.path.join(os.path.dirname(__file__), "..", "form_cache",
                           "maass_odd_9.0000_10.0000_M22.json")) as fh:
        record = json.load(fh)
    assert form.parity == record["parity"] == "odd"
    assert abs(form.R - record["R"]) < 1e-9


@pytest.mark.parametrize("record", COMMITTED_RECORDS, ids=os.path.basename)
def test_committed_records_satisfy_hecke_relations(record):
    # a_mn = a_m a_n (m, n coprime) and a_{p^2} = a_p^2 - 1, through mn = 10
    defects = eigen.hecke_defects(eigen.load_form(record))
    assert sorted(k for k in defects if k <= 10) == [4, 6, 9, 10]
    assert max(defects[k] for k in (4, 6, 9, 10)) < 1e-6


def test_hecke_defects_locate_a_broken_relation():
    # multiplicative coefficients from a_2, a_3, a_5, a_7 and the prime
    # power recursion a_{p^(k+1)} = a_p a_{p^k} - a_{p^(k-1)}: no defect,
    # until a_6 alone is moved
    a = np.zeros(13)
    a[1], a[2], a[3], a[5], a[7], a[11] = 1.0, -0.7, 1.3, 0.4, -1.1, 0.9
    a[4], a[9] = a[2] ** 2 - 1, a[3] ** 2 - 1
    a[8] = a[2] * a[4] - a[2]
    a[6], a[10], a[12] = a[2] * a[3], a[2] * a[5], a[3] * a[4]
    form = eigen.MaassForm(R=9.5, parity="odd", M0=12, y0=0.4,
                           coefficients=a[1:])
    defects = eigen.hecke_defects(form)
    assert sorted(defects) == [4, 6, 9, 10, 12]
    assert max(defects.values()) < 1e-15
    a[6] += 1e-3
    defects = eigen.hecke_defects(dataclasses.replace(form, coefficients=a[1:]))
    assert defects[6] == pytest.approx(1e-3, rel=1e-9)
    assert max(d for k, d in defects.items() if k != 6) < 1e-15


def test_criterion_06_requires_the_hecke_relations(monkeypatch):
    # the Parseval defects pass; a Hecke defect of 2e-6 at index 4 fails
    # the check, and one beyond mn = 10 is not read
    monkeypatch.setattr(eigen, "hecke_defects",
                        lambda form: {4: 2e-6, 6: 0.0, 12: 1.0})
    [res] = verify.run_checks(names=["plancherel-identity"],
                              cache_dir=CACHE_DIR, solve_missing=False)
    assert not res.skipped and not res.passed
    assert "Hecke mn <= 10: worst defect 2.00e-06 (< 1e-06)" in res.details


def test_table_flip_without_exact_flip_is_rejected(monkeypatch):
    # a scan table that (wrongly) changes sign at 5.095: the exact
    # indicator at the table root is far from zero, so it is no candidate
    monkeypatch.setattr(eigen._Locator, "_table_scan", lambda self, rs:
                        (list(5.095 - rs), lambda r: (5.095 - r,)))
    with pytest.raises(NoEigenvalueError) as err:
        eigen.hejhal_solve((5.0, 5.5), parity="even")
    assert ("even: sign flip in [5.090000, 5.100000] not confirmed by the "
            "exact kernel") in str(err.value)


def _count_exact_indicator_calls(monkeypatch):
    # (locator, R) of every exact indicator call
    calls = []
    indicator = eigen._Locator.indicator

    def counted(self, R, systems=None):
        if systems is None:
            calls.append((id(self), R))
        return indicator(self, R, systems)

    monkeypatch.setattr(eigen._Locator, "indicator", counted)
    return calls


@pytest.mark.parametrize("bracket", [(9.0, 10.0), (12.0, 12.7), (13.5, 14.2)])
def test_table_roots_match_exact_roots(monkeypatch, bracket):
    # each sign flip of an acceptance bracket's tabled scan, either parity:
    # one exact indicator call, at the table root, which is the exact
    # Illinois root to 1e-11
    calls = _count_exact_indicator_calls(monkeypatch)
    tables, flips = {}, 0
    for parity in ("even", "odd"):
        loc = eigen._Locator(14, parity, 0.40, 0.35, tables=tables)
        rs = np.arange(bracket[0], bracket[1] + 0.005, 0.01)
        for a, b, r, screen in loc.roots(rs):
            flips += 1
            assert calls == [(id(loc), r)]
            assert screen == loc.indicator(r)
            r_exact, _ = loc.refine(loc.indicator, a, b,
                                    (loc.indicator(a)[0], loc.indicator(b)[0]))
            assert abs(r - r_exact) < 1e-11
            calls.clear()
    assert flips >= 1


@pytest.mark.parametrize("record", COMMITTED_RECORDS, ids=os.path.basename)
def test_window_table_roots_match_exact_roots(monkeypatch, record):
    # the M0+8 confirmation around each committed form's R: one sign flip
    # over the window R +- _WINDOW, refined on the window's tables, with
    # one exact indicator call, at the table root, which is the exact
    # Illinois root to 1e-11
    form = eigen.load_form(record)
    calls = _count_exact_indicator_calls(monkeypatch)
    deep = eigen._Locator(22, form.parity, 0.35, 0.28)
    window = np.array([form.R - eigen._WINDOW, form.R + eigen._WINDOW])
    [(a, b, r, screen)] = deep.roots(window)
    assert calls == [(id(deep), r)]
    assert screen == deep.indicator(r)
    r_exact, _ = deep.refine(deep.indicator, a, b,
                             (deep.indicator(a)[0], deep.indicator(b)[0]))
    assert abs(r - r_exact) < 1e-11


def test_cold_solve_evaluates_no_exact_kernel_twice(monkeypatch):
    # every exact kernel call of a cold solve is at a new R or new
    # arguments: the final solve reuses the M0+8 screen's kernels, and
    # gives what a fresh collocation at the form's R gives
    seen = []
    kernel = eigen.bessel_k_imag
    monkeypatch.setattr(eigen, "bessel_k_imag", lambda R, u: seen.append(
        (R, np.asarray(u).tobytes())) or kernel(R, u))
    form = eigen.hejhal_solve((9.0, 10.0), parity="auto")
    assert len(set(seen)) == len(seen)
    coeffs, resid = eigen._Collocation(0.35, 34, 22, form.parity).solve(
        form.R)
    assert np.array_equal(form.coefficients, coeffs)
    assert form.residual == resid


def test_narrow_bracket_evaluates_no_exact_point_twice(monkeypatch):
    # a bracket of 18 grid points is scanned on tables like any other: one
    # per collocation height over the bracket, then the M0+8 window's pair;
    # the only exact indicator calls are the screens of the table roots
    calls = _count_exact_indicator_calls(monkeypatch)
    built, screened = [], []
    table, roots = eigen._Collocation.table, eigen._Locator.roots
    monkeypatch.setattr(eigen._Collocation, "table", lambda self, lo, hi:
                        built.append((lo, hi)) or table(self, lo, hi))

    def recorded(self, rs):
        for found in roots(self, rs):
            screened.append((id(self), found[2]))
            yield found

    monkeypatch.setattr(eigen._Locator, "roots", recorded)
    form = eigen.hejhal_solve((9.45, 9.62), parity="odd")
    assert abs(form.R - 9.533695261345919) < 1e-9
    assert len(built) == 4
    assert np.allclose(built[:2], [(9.45, 9.62)] * 2, rtol=0, atol=1e-12)
    assert calls == screened


@pytest.mark.parametrize("setting, reason", [
    ("_WINDOW", "candidate R=9.533695 not confirmed at M0+8"),
    ("_STABILITY_TOL", "candidate R=9.533695 unstable under deeper "
                       "truncation"),
], ids=["window", "stability"])
def test_deeper_truncation_rejections(monkeypatch, setting, reason):
    # a confirming window too narrow to hold the M0+8 root, or a stability
    # bound below its move, rejects the one odd candidate of (9, 10)
    monkeypatch.setattr(eigen, setting, 1e-14)
    with pytest.raises(NoEigenvalueError) as err:
        eigen.hejhal_solve((9.0, 10.0), parity="odd")
    assert f"odd: {reason}" in str(err.value)


def test_window_root_the_exact_kernel_does_not_show_is_rejected(monkeypatch):
    # a window table (wrongly) changing sign 30% into the window, 4e-5
    # below the candidate: the exact indicator at the table root is far
    # from zero, so the one odd candidate of (9, 10) is not confirmed
    scan = eigen._Locator._table_scan

    def shifted(self, rs):
        if len(rs) > 2:
            return scan(self, rs)
        root = rs[0] + 0.3 * (rs[1] - rs[0])
        return list(rs - root), lambda r: (r - root,)

    monkeypatch.setattr(eigen._Locator, "_table_scan", shifted)
    with pytest.raises(NoEigenvalueError) as err:
        eigen.hejhal_solve((9.0, 10.0), parity="odd")
    assert ("odd: candidate R=9.533695 not confirmed by the exact kernel at "
            "M0+8 (indicator ") in str(err.value)


def test_illinois_refinement_reaches_the_root_width():
    # a flat cubic root, the slow case for regula falsi; bisection from a
    # width-1 bracket would need 41 steps, counting the two end values;
    # given the end values, it evaluates neither end
    root = 0.3 + 1 / 7
    f = lambda r: (r - root) ** 3 + 1e-6 * (r - root)
    calls = []
    r, n = eigen._Locator.refine(lambda r: calls.append(r) or (f(r),),
                                 0.0, 1.0, (f(0.0), f(1.0)))
    assert abs(r - root) < eigen._ROOT_WIDTH
    assert n == len(calls) < np.log2(1.0 / eigen._ROOT_WIDTH) - 2
    assert 0.0 not in calls and 1.0 not in calls
    # no sign change: no root, and no indicator call
    assert eigen._Locator.refine(lambda r: calls.append(r) or (f(r),),
                                 0.5, 1.0, (f(0.5), f(1.0))) == (None, 0)


def test_solver_input_validation():
    with pytest.raises(ValueError):
        eigen.hejhal_solve((10.0, 9.0))
    with pytest.raises(ValueError):
        eigen.hejhal_solve((9.0, 12.0))
    with pytest.raises(ValueError):
        eigen.hejhal_solve((9.0, 9.5), y0=0.9)
    with pytest.raises(ValueError):
        eigen.hejhal_solve((9.0, 9.5), parity="mixed")
    with pytest.raises(ValueError):
        eigen.hejhal_solve((9.0, 9.5), M0=1)
    with pytest.raises(ValueError):
        eigen.hejhal_solve((39.5, 40.0))


def test_solver_range_stays_within_the_kernel_range():
    # for the highest bracket end check_solve allows, the scan grid of
    # hejhal_solve plus the confirming window stays within bessel_k_imag's
    # range, wherever the bracket starts
    hi = eigen._R_MAX
    for lo in np.linspace(hi - 2.0, hi - 0.001, 97):
        rs = np.arange(lo, hi + eigen._SCAN_STEP / 2, eigen._SCAN_STEP)
        assert rs[-1] + eigen._WINDOW <= eigen._BESSEL_R_MAX
    eigen.check_solve([(39.0, eigen._R_MAX)], "auto", 14, 0.40)
    with pytest.raises(ValueError):
        eigen.check_solve([(39.0, np.nextafter(eigen._R_MAX, 41.0))],
                          "auto", 14, 0.40)
