import json
import logging

import numpy as np
import pytest

from geoperiods import eigen, quad
from geoperiods.specfun import (_NODE_LADDER, _TILT_R_MIN, DomainError,
                                PoleError, UnsupportedRangeError,
                                _kappa_contour, bessel_k_imag,
                                bessel_k_imag_grid, log_gamma, table_integral)

from oracles import conical_legendre

RNG = np.random.default_rng(42)


# ------------------------------------------------------------- log_gamma

def test_log_gamma_special_values():
    assert abs(log_gamma(1.0)) < 1e-15
    assert abs(log_gamma(0.5) - 0.5 * np.log(np.pi)) < 1e-15


def test_log_gamma_recursion():
    worst = 0.0
    for _ in range(300):
        z = complex(RNG.uniform(0.05, 90.0), RNG.uniform(-90.0, 90.0))
        d = log_gamma(z + 1) - log_gamma(z) - np.log(z)
        worst = max(worst, abs(np.exp(d) - 1.0))
    assert worst < 1e-12


def test_log_gamma_reflection():
    # Gamma(z) Gamma(1-z) sin(pi z) = pi, checked multiplicatively
    for _ in range(100):
        z = complex(RNG.uniform(-20.0, 20.0), RNG.uniform(0.1, 20.0))
        val = np.exp(log_gamma(z) + log_gamma(1.0 - z)) * np.sin(np.pi * z)
        assert abs(val - np.pi) < 1e-10 * max(1.0, abs(val))


def test_log_gamma_high_precision_point():
    # reference computed with 40-digit arithmetic
    ref = complex(-11.36562039464652867728103, -7.220462821847431999464249)
    val = log_gamma((1.0 - 30.0j) / 4.0)
    assert abs(val - ref) / abs(ref) < 1e-10


def test_log_gamma_poles():
    with pytest.raises(PoleError):
        log_gamma(0.0)
    with pytest.raises(PoleError) as exc:
        log_gamma(-3.0 + 1e-14j)
    assert exc.value.pole == -3.0


def test_log_gamma_vectorized():
    zs = np.array([1.0, 0.5 + 2j, -1.5 + 3j, 10 - 40j])
    vec = log_gamma(zs)
    for i, z in enumerate(zs):
        assert vec[i] == log_gamma(z)


def test_log_gamma_matches_mpmath():
    """Against mpmath's principal branch where no reflection is used
    (Re z >= 1/2); below, the reflection formula's value agrees modulo
    2 pi i, which is all that exp and the real part see."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = np.random.default_rng(5)
    zs = rng.uniform(-30.0, 90.0, 400) + 1j * rng.uniform(-90.0, 90.0, 400)
    ref = np.array([complex(mpmath.loggamma(z)) for z in zs])
    diff = log_gamma(zs) - ref
    diff[zs.real < 0.5] -= 2j * np.pi * np.round(
        diff[zs.real < 0.5].imag / (2 * np.pi))
    assert np.max(np.abs(diff) / np.maximum(1.0, np.abs(ref))) < 1e-13


# --------------------------------------------------------- table_integral

def test_table_integral_pi():
    assert abs(table_integral(0.0, -1.0) - np.pi) < 1e-13


def test_table_integral_divergence_boundary():
    with pytest.raises(DomainError):
        table_integral(0.0, -0.5)
    with pytest.raises(DomainError):
        table_integral(-1.0, -2.0)


def test_table_integral_arrays_equal_scalar_calls():
    rng = np.random.default_rng(11)
    s = rng.uniform(-0.9, 2.0, (3, 4)) + 1j * rng.uniform(-5.0, 5.0, (3, 4))
    t = (rng.uniform(-4.0, -(s.real + 1.0) / 2.0 - 0.25)
         + 1j * rng.uniform(-5.0, 5.0, (3, 4)))
    out = table_integral(s, t)
    assert out.shape == (3, 4)
    assert out.tolist() == [[table_integral(complex(a), complex(b))
                             for a, b in zip(ra, rb)] for ra, rb in zip(s, t)]
    assert type(table_integral(0.5, -2.0)) is complex


def test_table_integral_array_domain_error_names_the_pair():
    with pytest.raises(DomainError, match=r"diverges at infinity at s=0j, "
                                          r"t=\(-0.5\+0j\)"):
        table_integral(np.zeros(2), [-1.0, -0.5])
    with pytest.raises(DomainError, match=r"diverges at 0 at s=\(-1\+0j\)"):
        table_integral([0.0, -1.0], -3.0)


def test_table_integral_oscillatory_vs_quadrature():
    s, t = 3.0j, -1.0

    def f(x):
        return np.exp(s * np.log(x) + t * np.log1p(x * x))

    r1 = quad.integrate_adaptive(f, 0.0, 1.0, singular_exponent=0.0,
                                 rel_tol=1e-12)

    def finf(u):
        return np.exp((-s - 2.0 - 2.0 * t) * np.log(u) + t * np.log1p(u * u))

    r2 = quad.integrate_adaptive(finf, 0.0, 1.0,
                                 singular_exponent=0.0,
                                 rel_tol=1e-12)
    ref = 2.0 * (r1.value + r2.value)
    assert abs(table_integral(s, t) - ref) < 1e-9 * abs(ref)


# ---------------------------------------------------------- bessel_k_imag

def k0_series(u):
    """Power-series oracle for K_0, small u."""
    euler = 0.5772156649015328606
    term = 1.0
    i0 = 1.0
    ksum = 0.0
    h = 0.0
    for k in range(1, 30):
        term *= (u * u / 4.0) / (k * k)
        h += 1.0 / k
        i0 += term
        ksum += term * h
    return -(np.log(u / 2.0) + euler) * i0 + ksum


def test_bessel_k0():
    for u in (0.3, 1.0, 2.0):
        assert abs(bessel_k_imag(0.0, u) - k0_series(u)) < 1e-12


def test_bessel_deep_decay():
    assert abs(bessel_k_imag(9.533695, 60.0)) < 1e-15


def test_bessel_ode_residual():
    """u^2 y'' + u y' - (u^2 - R^2) y = 0, residual scaled by the largest
    term, via five-point central differences."""
    for R in (0.0, 5.0, 9.533695, 20.0, 40.0):
        for u in (0.1, 0.7, 3.0, 9.0, 25.0, 50.0):
            freq = max(np.sqrt(abs(R * R - u * u)) / u,
                       0.5 * max(R, 1.0) ** (1.0 / 3.0), 3.0 / u)
            h = 0.056 / freq
            uu = u + h * np.arange(-2, 3)
            if np.any(uu <= 0):
                continue
            y = bessel_k_imag(R, uu)
            # 4th-order stencils
            d1 = (-y[4] + 8 * y[3] - 8 * y[1] + y[0]) / (12 * h)
            d2 = (-y[4] + 16 * y[3] - 30 * y[2] + 16 * y[1] - y[0]) / (12 * h * h)
            resid = u * u * d2 + u * d1 - (u * u - R * R) * y[2]
            scale = (abs(u * u * d2) + abs(u * d1)
                     + abs((u * u - R * R) * y[2]) + 1e-300)
            if abs(y[2]) < 1e-13:   # deep-decay tail carries no information
                continue
            assert abs(resid) / scale < 1e-6, (R, u, abs(resid) / scale)


def test_bessel_monotone_decay_past_turning_point():
    for R in (0.0, 9.533695, 20.0):
        us = np.linspace(max(R, 1e-6) + 1.0, max(R, 1e-6) + 15.0, 30)
        vals = bessel_k_imag(R, us)
        assert np.all(np.diff(np.abs(vals)) < 0)


def test_bessel_continuity_in_r():
    # oscillatory region u < R
    for (R, u) in ((12.0, 3.0), (25.0, 10.0)):
        v1 = bessel_k_imag(R, u)
        v2 = bessel_k_imag(R + 1e-4, u)
        assert abs(v2 - v1) < 1e-2 * abs(v1)


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_k_imag(5.0, 0.0)
    with pytest.raises(DomainError):
        bessel_k_imag(5.0, np.array([1.0, -2.0]))
    with pytest.raises(UnsupportedRangeError):
        bessel_k_imag(41.0, 1.0)
    with pytest.raises(DomainError):
        bessel_k_imag(-1.0, 1.0)


def test_bessel_array_matches_scalar():
    # batched and scalar paths may sum in different BLAS orders; they agree
    # to the documented accuracy, not bitwise
    us = np.array([0.5, 2.0, 9.0, 31.0])
    arr = bessel_k_imag(9.5, us)
    for i, u in enumerate(us):
        assert arr[i] == pytest.approx(bessel_k_imag(9.5, float(u)), rel=5e-9)


@pytest.mark.parametrize("R", [0.5, 9.5, 40.0])
def test_node_counts_are_ladder_rungs(R):
    # each node count is the smallest rung at or above the raw budget
    # theta / 3 + 6 smax (1 + sqrt(rate)) + 16 (capped at 3e5), looked up
    # one element at a time
    u = np.logspace(-3, 3, 400)
    delta, sd, cd, rate, smax, n = _kappa_contour(R, u)
    theta = u * sd * np.sinh(smax) + R * smax
    raw = np.minimum(3e5, theta / 3 + 6 * smax * (1 + np.sqrt(rate)) + 16)
    ladder = [int(r) for r in _NODE_LADDER]
    ref = [next((r for r in ladder if r >= v), ladder[-1]) for v in raw]
    assert n.tolist() == ref


@pytest.mark.parametrize("R", [0.0, 0.5, 3.0, 9.5, 13.8, 20.0, 39.9])
def test_bessel_matches_mpmath(R):
    """Against mpmath's K_iR: below the turning point u < R (where the
    function oscillates, so the error is scaled by its largest value
    there), through the turning zone u ~ R, and on the real-axis branch
    u >= 1.6 R (each value relative to itself)."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    us = (np.array([0.05, 0.5, 1.0, 3.0, 10.0]) if R == 0.0 else R * np.array(
        [0.1, 0.3, 0.6, 0.9, 0.97, 1.0, 1.03, 1.1, 1.3, 1.6, 2.0, 3.0]))
    ref = np.array([float(mpmath.re(mpmath.besselk(1j * R, u)
                                    * mpmath.exp(mpmath.pi * R / 2)))
                    for u in us])
    below = us < R
    scale = np.where(below, np.max(np.abs(ref), where=below, initial=0.0),
                     np.abs(ref))
    err = np.abs(bessel_k_imag(R, us) - ref) / scale
    assert np.max(err) < 1e-9, us[np.argmax(err)]


@pytest.mark.parametrize("R", [0.0, 0.5, 2.0, _TILT_R_MIN, 9.5, 13.8, 25.0,
                               39.9, 40.0])
def test_bessel_matches_mpmath_on_a_dense_grid(R):
    """Against mpmath's K_iR at 25 log-spaced u over [0.3, 700], which
    covers the solver's arguments and every form table's domain
    [2 pi 0.28, 60 + 2R]; scaled as in ``test_bessel_matches_mpmath``."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    us = np.logspace(np.log10(0.3), np.log10(700.0), 25)
    ref = np.array([float(mpmath.re(mpmath.besselk(1j * R, u)
                                    * mpmath.exp(mpmath.pi * R / 2)))
                    for u in us])
    below = us < R
    scale = np.where(below, np.max(np.abs(ref), where=below, initial=0.0),
                     np.abs(ref))
    err = np.abs(bessel_k_imag(R, us) - ref) / scale
    assert np.max(err) < 1e-9, us[np.argmax(err)]


@pytest.mark.parametrize("bracket", [(9.0, 10.0), (20.0, 22.0), (38.0, 40.0)])
def test_chebyshev_scan_table_matches_kernel(bracket):
    # the solver's scan table against the exact kernel between its nodes,
    # relative to each argument's largest value over the bracket
    coll = eigen._Collocation(0.40, 26, 14, "even")
    rs = np.linspace(*bracket, 41)
    table, tail = coll.table(rs[0], rs[-1])
    got = table(rs[1::4]).reshape(len(rs[1::4]), -1)
    exact = np.array([coll.kernels(r).ravel() for r in rs[1::4]])
    assert np.max(np.abs(got - exact) / np.max(np.abs(exact), axis=0)) < 1e-9
    assert tail < 1e-9


# Twice the exact kernel's documented error against mpmath (2e-11 at
# R = 9.53 and 13.8, 6e-11 at 25, 2e-10 at 40; 3e-14 at R <= 2 becomes 6e-14
# up to R = 2.5): the grid and the exact kernel each err by at most that,
# so they differ by at most twice it.  (5.9, 7.9) straddles _TILT_R_MIN,
# where the exact kernel starts to tilt its contour and the grid tilts
# it for every R of the bracket.
GRID_BRACKETS = [((0.5, 2.5), 6e-14), ((5.9, 7.9), 4e-11), ((9.0, 10.0), 4e-11),
                 ((13.5, 14.2), 4e-11), ((20.0, 22.0), 1.2e-10),
                 ((37.89, 39.89), 4e-10)]


@pytest.mark.parametrize("bracket, bound", GRID_BRACKETS,
                         ids=[str(b) for b, _ in GRID_BRACKETS])
def test_bessel_grid_matches_exact_kernel(bracket, bound, caplog):
    """On the solver's arguments at the M0 and M0+8 heights, relative to
    each argument's largest value over the bracket.  Its Gauss rungs
    (logged at DEBUG) stay at or below 256 nodes, where leggauss's
    weights are accurate."""
    rs = np.linspace(*bracket, 7)
    for y, q, m0 in [(0.40, 26, 14), (0.35, 26, 14), (0.35, 34, 22),
                     (0.28, 34, 22)]:
        coll = eigen._Collocation(y, q, m0, "even")
        u = coll.u.ravel()
        with caplog.at_level(logging.DEBUG, logger="geoperiods.specfun"):
            got = bessel_k_imag_grid(rs, u)
        rungs = caplog.records[-1].getMessage().partition("Gauss rungs ")[2]
        assert 0 < max(json.loads(rungs)) <= 256
        exact = np.array([bessel_k_imag(r, u) for r in rs])
        assert got.shape == exact.shape
        err = np.abs(got - exact) / np.max(np.abs(exact), axis=0)
        assert np.max(err) < bound, (y, rs[np.argmax(np.max(err, axis=1))])


@pytest.mark.parametrize("bracket, bound", [((9.0, 10.0), 2e-11),
                                            ((13.5, 14.2), 2e-11),
                                            ((37.89, 39.89), 2e-10)])
def test_bessel_grid_matches_mpmath(bracket, bound):
    """At both ends and the middle of a bracket, below, at and above the
    turning point u = R, within the exact kernel's documented error
    there; scaled as in ``test_bessel_matches_mpmath``."""
    mpmath = pytest.importorskip("mpmath")
    rs = np.array([bracket[0], 0.5 * sum(bracket), bracket[1]])
    lo, hi = bracket
    us = np.array([0.3, 0.5 * lo, 0.9 * lo, lo, 1.2 * hi, 2.0 * hi, 60.0])
    got = bessel_k_imag_grid(rs, us)
    with mpmath.workdps(30):
        for R, row in zip(rs, got):
            ref = np.array([float(mpmath.re(mpmath.besselk(1j * R, u)
                                            * mpmath.exp(mpmath.pi * R / 2)))
                            for u in us])
            below = us < R
            scale = np.where(below, np.max(np.abs(ref), where=below,
                                           initial=0.0), np.abs(ref))
            assert np.max(np.abs(row - ref) / scale) < bound, R


def test_bessel_grid_domain_errors():
    with pytest.raises(DomainError):
        bessel_k_imag_grid([-1.0, 2.0], 1.0)
    with pytest.raises(DomainError):
        bessel_k_imag_grid([2.0], [1.0, 0.0])
    with pytest.raises(UnsupportedRangeError):
        bessel_k_imag_grid([39.0, 41.0], 1.0)


def test_coarse_scan_table_raises(monkeypatch):
    # 16 nodes on (38, 40) leave a Chebyshev tail of about 4e-8 of the
    # largest sample, above the table's 1e-9
    monkeypatch.setattr(eigen, "_CHEB_NODES", 16)
    coll = eigen._Collocation(0.40, 26, 14, "even")
    with pytest.raises(eigen.ConditioningError,
                       match=r"K_iR table over \[38.000000, 40.000000\]: "
                             r"Chebyshev tail .* above 1e-09"):
        coll.table(38.0, 40.0)


# ------------------------------------------------------- conical_legendre

def test_conical_center_values():
    assert conical_legendre(3.0, 0, 1.0) == 1.0
    assert conical_legendre(3.0, 1, 1.0) == 0.0
    assert conical_legendre(3.0, 4, 1.0) == 0.0


def test_conical_t0_quadrature_oracle():
    # P_{-1/2}(cosh 1) by the averaged-power representation
    x = np.cosh(1.0)
    mean = quad.periodic_fourier(
        lambda th: (x + np.sqrt(x * x - 1) * np.cos(2 * np.pi * th)) ** -0.5,
        0)[0][0]
    assert abs(conical_legendre(0.0, 0, x) - mean.real) < 1e-10


def test_conical_ode_residual():
    # (1-x^2) y'' - 2x y' + (nu(nu+1) - n^2/(1-x^2)) y = 0, nu = -1/2 + it
    for (t, n, x) in ((4.0, 0, 1.4), (9.5, 2, 1.8), (2.5, 1, 2.2)):
        h = 1e-4
        y = [conical_legendre(t, n, x + k * h) for k in (-2, -1, 0, 1, 2)]
        d1 = (-y[4] + 8 * y[3] - 8 * y[1] + y[0]) / (12 * h)
        d2 = (-y[4] + 16 * y[3] - 30 * y[2] + 16 * y[1] - y[0]) / (12 * h * h)
        nu_term = (-0.5 + 1j * t) * (0.5 + 1j * t)
        resid = ((1 - x * x) * d2 - 2 * x * d1
                 + (nu_term.real - n * n / (1 - x * x)) * y[2])
        scale = (abs((1 - x * x) * d2) + abs(2 * x * d1)
                 + abs((nu_term.real - n * n / (1 - x * x)) * y[2]))
        assert abs(resid) / scale < 1e-6


def test_conical_order_recurrence():
    # P^{-(n-1)} - 2n x (x^2-1)^{-1/2} P^{-n} - (nu+n+1)(nu-n) P^{-(n+1)} = 0
    for (t, x) in ((4.7, 1.8), (9.5, 1.3)):
        nu = complex(-0.5, t)
        for n in (1, 2, 3):
            p_m = conical_legendre(t, n - 1, x)
            p_0 = conical_legendre(t, n, x)
            p_p = conical_legendre(t, n + 1, x)
            coeff = ((nu + n + 1) * (nu - n)).real
            lhs = p_m - 2 * n * x / np.sqrt(x * x - 1) * p_0 - coeff * p_p
            scale = max(abs(p_m), abs(p_0), abs(p_p))
            if scale > 1e-12:
                assert abs(lhs) / scale < 1e-8


def test_conical_matches_mpmath():
    """Against mpmath's legenp(-1/2+it, -n, x, type=3), relative to the
    value or, where cancellation leaves it tiny, to the float64 floor."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for t in (0.0, 0.5, 3.0, 9.5, 20.0, 40.0):
        for n in (0, 1, 2, 5):
            for x in (1.001, 1.01, 1.3, 2.0, 5.0, 20.0):
                ref = float(mpmath.re(mpmath.legenp(-0.5 + 1j * t, -n, x,
                                                    type=3)))
                err = abs(conical_legendre(t, n, x) - ref)
                assert err <= 1e-8 * abs(ref) + 1e-15, (t, n, x)


def test_conical_domain():
    with pytest.raises(DomainError):
        conical_legendre(1.0, 0, 0.5)
    with pytest.raises(DomainError):
        conical_legendre(1.0, -2, 1.5)
