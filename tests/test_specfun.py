import numpy as np
import pytest

from geoperiods import quad
from geoperiods.specfun import (_NODE_LADDER, DomainError, PoleError,
                                UnsupportedRangeError, _kappa_contour,
                                bessel_k_imag, conical_legendre, log_gamma,
                                table_integral)

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


# --------------------------------------------------------- table_integral

def test_table_integral_pi():
    assert abs(table_integral(0.0, -1.0) - np.pi) < 1e-13


def test_table_integral_divergence_boundary():
    with pytest.raises(DomainError):
        table_integral(0.0, -0.5)
    with pytest.raises(DomainError):
        table_integral(-1.0, -2.0)


def test_table_integral_oscillatory_vs_quadrature():
    s, t = 3.0j, -1.0

    def f(x):
        return np.exp(s * np.log(x) + t * np.log1p(x * x))

    r1 = quad.integrate_adaptive(f, 0.0, 1.0, singular_exponent_at=(0.0, 0.0),
                                 rel_tol=1e-12)

    def finf(u):
        return np.exp((-s - 2.0 - 2.0 * t) * np.log(u) + t * np.log1p(u * u))

    r2 = quad.integrate_adaptive(finf, 0.0, 1.0,
                                 singular_exponent_at=(0.0, 0.0),
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
            y = bessel_k_imag(R, uu, node_scale=1.5)
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
    # 0.9 theta + 128 (clipped to [256, 3e5]), looked up one element at a time
    u = np.logspace(-3, 3, 400)
    delta, sd, cd, rate, smax, n = _kappa_contour(R, u)
    theta = u * sd * np.sinh(smax) + R * smax
    raw = np.minimum(3e5, np.maximum(256, 0.9 * theta + 128))
    ladder = [int(r) for r in _NODE_LADDER]
    ref = [next((r for r in ladder if r >= v), ladder[-1]) for v in raw]
    assert n.tolist() == ref


# ------------------------------------------------------- conical_legendre

def test_conical_center_values():
    assert conical_legendre(3.0, 0, 1.0) == 1.0
    assert conical_legendre(3.0, 1, 1.0) == 0.0
    assert conical_legendre(3.0, 4, 1.0) == 0.0


def test_conical_t0_quadrature_oracle():
    # P_{-1/2}(cosh 1) by the averaged-power representation
    x = np.cosh(1.0)
    res = quad.integrate_periodic(
        lambda th: (x + np.sqrt(x * x - 1) * np.cos(2 * np.pi * th)) ** -0.5)
    assert abs(conical_legendre(0.0, 0, x) - res.value.real) < 1e-10


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


def test_conical_domain():
    with pytest.raises(DomainError):
        conical_legendre(1.0, 0, 0.5)
    with pytest.raises(DomainError):
        conical_legendre(1.0, -2, 1.5)
