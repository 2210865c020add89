"""Special functions used by the model densities.

Complex log-gamma (Lanczos), the Beta-type integral
``int |x|^s (1+x^2)^t dx``, the modified Bessel function of purely
imaginary order in the scaled form ``e^{pi R/2} K_{iR}(u)``, and conical
(associated Legendre) functions ``P^{-n}_{-1/2+it}(x)`` for ``x >= 1``.

Everything here is plain float64 numerics; arbitrary-precision checks
live in the test suite only.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SpecFunError",
    "PoleError",
    "DomainError",
    "UnsupportedRangeError",
    "log_gamma",
    "table_integral",
    "bessel_k_imag",
    "conical_legendre",
]


class SpecFunError(Exception):
    pass


class PoleError(SpecFunError):
    """Evaluation at (or numerically on top of) a pole."""

    def __init__(self, message, pole=None):
        super().__init__(message)
        self.pole = pole


class DomainError(SpecFunError):
    pass


class UnsupportedRangeError(SpecFunError):
    pass


# ---------------------------------------------------------------------------
# complex log-gamma: Lanczos with g = 607/128, 15 terms, reflection for
# Re z < 1/2.  Relative accuracy ~1e-15 over the tested range |z| <= 1e3.

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517, -59.597960355475491248, 14.136097974741747174,
    -0.49191381609762019978, 0.33994649984811888699e-4,
    0.46523628927048575665e-4, -0.98374475304879564677e-4,
    0.15808870322491248884e-3, -0.21026444172410488319e-3,
    0.21743961811521264320e-3, -0.16431810653676389022e-3,
    0.84418223983852743293e-4, -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])
_LOG_SQRT_2PI = 0.91893853320467274178032973640562


def _log_sin_pi(z):
    """log(sin(pi z)), stable for large |Im z|."""
    z = np.atleast_1d(z)
    out = np.empty(z.shape, dtype=complex)
    big = np.abs(z.imag) > 20.0
    out[~big] = np.log(np.sin(np.pi * z[~big]))
    if big.any():
        zb = z[big]
        sgn = np.sign(zb.imag)
        # sin(pi z) = (i sgn/2) e^{-i sgn pi z} (1 - e^{2 i sgn pi z})
        out[big] = (np.log(0.5j * sgn) - 1j * np.pi * zb * sgn
                    + np.log1p(-np.exp(2j * np.pi * zb * sgn)))
    return out


def log_gamma(z):
    """Principal-branch log Gamma for complex scalar or array input.

    Raises PoleError when z sits within 1e-10 of a nonpositive integer.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if not np.all(np.isfinite(z)):
        raise DomainError("log_gamma: non-finite argument")
    near_int = np.abs(z - np.round(z.real)) < 1e-10
    at_pole = near_int & (np.round(z.real) <= 0)
    if at_pole.any():
        loc = float(np.round(z[at_pole][0].real))
        raise PoleError(f"log_gamma: pole at z={loc:g}", pole=loc)

    refl = z.real < 0.5
    zz = np.where(refl, 1.0 - z, z)
    s = np.full(zz.shape, _LANCZOS_C[0], dtype=complex)
    for k in range(1, len(_LANCZOS_C)):
        s = s + _LANCZOS_C[k] / (zz + (k - 1.0))
    t = zz + (_LANCZOS_G + 0.5) - 1.0
    lg = _LOG_SQRT_2PI + (zz - 0.5) * np.log(t) - t + np.log(s)
    if refl.any():
        lg[refl] = np.log(np.pi) - _log_sin_pi(z[refl]) - lg[refl]
    return lg[0] if scalar else lg


def table_integral(s, t):
    """Closed form of ``int_R |x|^s (1+x^2)^t dx``.

    Equals ``Gamma((s+1)/2) Gamma(-t-(s+1)/2) / Gamma(-t)`` on the
    absolutely convergent region Re s > -1, Re t + (Re s + 1)/2 < 0.
    """
    s = complex(s)
    t = complex(t)
    if s.real <= -1.0:
        raise DomainError(f"table_integral: Re s = {s.real:g} <= -1 diverges at 0")
    if t.real + (s.real + 1.0) / 2.0 >= 0.0:
        raise DomainError(
            "table_integral: Re t + (Re s + 1)/2 = "
            f"{t.real + (s.real + 1.0) / 2.0:g} >= 0 diverges at infinity")
    lg = (log_gamma((s + 1.0) / 2.0) + log_gamma(-t - (s + 1.0) / 2.0)
          - log_gamma(-t))
    return complex(np.exp(lg))


# ---------------------------------------------------------------------------
# e^{pi R/2} K_{iR}(u) through the contour-shifted cosh integral
#   K_{iR}(u) = (1/2) int_R exp(-u cosh t) exp(-iRt) dt,  t = s - i*delta.
# The tilt delta is chosen so the integrand's size matches the value
# (numerical steepest descent); on the real axis the integral cancels down
# by e^{pi R/2}, which is hopeless in doubles once R is large.

_BESSEL_R_MAX = 40.0
# contour-tilt log-budget: the computed integral is e^{budget} times the
# roundoff floor in the worst (u << R) case
_TILT_BUDGET = 10.5
_TILT_R_MIN = _TILT_BUDGET / (np.pi / 2)
_gauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# node counts quantized to a geometric ladder so leggauss is generated a
# bounded number of times over any workload
_NODE_LADDER = np.unique(np.concatenate(
    [np.array([64, 96]),
     ((2 ** np.arange(7, 19, dtype=np.int64))[:, None]
      * np.array([1.0, 1.25, 1.5, 1.75])).astype(np.int64).ravel()]))


def _round_nodes(n):
    """Smallest ladder rung >= n, elementwise (capped at the top rung)."""
    return _NODE_LADDER[np.searchsorted(_NODE_LADDER,
                                        np.minimum(n, _NODE_LADDER[-1]))]


def _gauss(n):
    if n not in _gauss_cache:
        _gauss_cache[n] = np.polynomial.legendre.leggauss(n)
    return _gauss_cache[n]


def _kappa_contour(R, u):
    """Tilt angle, decay rate, truncation and node count (vectorized in u)."""
    u = np.asarray(u, dtype=float)
    below = u < R
    if R > _TILT_R_MIN:
        # transition zone: steepest descent through the saddle (Airy floor
        # keeps the decay rate positive at u ~ R); the far field u >= 1.6 R
        # is cancellation-safe on the real axis and much cheaper there
        sd_above = np.minimum(0.999, np.maximum(
            np.sqrt(np.maximum(u * u - R * R, 0.0)) / u,
            np.minimum(1.0, 3.2 * max(R, 1.0) ** (1.0 / 3.0) / u)))
        delta_above = np.where(u >= 1.6 * R, 0.0, np.arcsin(sd_above))
    else:
        delta_above = np.zeros_like(u)
    delta_below = np.pi / 2 - min(np.pi / 2, _TILT_BUDGET / max(R, 1.0))
    delta = np.where(below, delta_below, delta_above)
    sd, cd = np.sin(delta), np.cos(delta)
    rate = u * cd
    smax = np.arccosh(1.0 + 48.0 / np.maximum(rate, 1e-300))
    theta = u * sd * np.sinh(smax) + R * smax
    n = _round_nodes(np.minimum(3e5, np.maximum(256, 0.9 * theta + 128)))
    return delta, sd, cd, rate, smax, n


def bessel_k_imag(R, u, node_scale=1.0):
    """Scaled modified Bessel function ``e^{pi R/2} K_{iR}(u)``.

    ``u`` may be a scalar or an array of positive reals; ``0 <= R <= 40``.
    ``node_scale`` multiplies the quadrature node budget (used by accuracy
    studies; the default is already good to ~1e-9 relative where the value
    is not vanishingly small).
    """
    R = float(R)
    if R < 0.0:
        raise DomainError("bessel_k_imag: R must be nonnegative")
    if R > _BESSEL_R_MAX:
        raise UnsupportedRangeError(
            f"bessel_k_imag: R = {R:g} beyond supported range {_BESSEL_R_MAX:g}")
    uu = np.asarray(u, dtype=float)
    scalar = uu.ndim == 0
    uu = np.atleast_1d(uu).ravel()
    if np.any(uu <= 0.0):
        raise DomainError("bessel_k_imag: u must be positive")
    out = np.empty(uu.shape)
    delta, sd, cd, rate, smax, nn = _kappa_contour(R, uu)
    if node_scale != 1.0:
        nn = _round_nodes(nn * node_scale)
    pref = np.exp(R * (np.pi / 2 - delta) - rate)
    # one vectorized pass per distinct node count (grids differ via smax)
    for n in np.unique(nn):
        sel = np.where(nn == n)[0]
        x, w = _gauss(int(n))
        for k in range(0, len(sel), 512):
            idx = sel[k:k + 512]
            s = smax[idx, None] * x[None, :]
            amp = np.exp(-rate[idx, None] * (np.cosh(s) - 1.0))
            ph = (uu[idx] * sd[idx])[:, None] * np.sinh(s) - R * s
            out[idx] = 0.5 * smax[idx] * ((amp * np.cos(ph)) @ w)
    out *= pref
    if scalar:
        return float(out[0])
    return out.reshape(np.shape(u))


# ---------------------------------------------------------------------------
# conical Legendre functions P^{-n}_{-1/2+it}(x), x >= 1, via the
# Gegenbauer-type integral
#   P^{-n}_nu(x) = (x^2-1)^{n/2} / (2^n sqrt(pi) Gamma(n+1/2))
#                  * int_0^pi (x + sqrt(x^2-1) cos psi)^{nu-n} sin(psi)^{2n} dpsi


def conical_legendre(t, n, x, nodes=512):
    """Legendre function P^{-n}_{-1/2+it}(x) for integer n >= 0 and x >= 1.

    Real for real t and x >= 1 (the imaginary part of the integral cancels);
    the real part is returned.
    """
    if n < 0 or int(n) != n:
        raise DomainError("conical_legendre: order n must be a nonnegative integer")
    n = int(n)
    x = float(x)
    t = float(t)
    if x < 1.0:
        raise DomainError(f"conical_legendre: x = {x:g} < 1 outside the hyperbolic range")
    if x == 1.0:
        return 1.0 if n == 0 else 0.0
    xs, w = _gauss(nodes)
    psi = 0.5 * np.pi * (xs + 1.0)
    wp = 0.5 * np.pi * w
    base = x + np.sqrt(x * x - 1.0) * np.cos(psi)
    nu = complex(-0.5, t)
    integral = np.sum(wp * np.sin(psi) ** (2 * n)
                      * np.exp((nu - n) * np.log(base)))
    pref = ((x * x - 1.0) ** (n / 2.0) / (2.0 ** n * np.sqrt(np.pi))
            * np.exp(-float(log_gamma(n + 0.5).real)))
    return float((pref * integral).real)
