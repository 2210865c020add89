"""Special functions used by the model densities.

Complex log-gamma (Lanczos), the Beta-type integral
``int |x|^s (1+x^2)^t dx``, the modified Bessel function of purely
imaginary order in the scaled form ``e^{pi R/2} K_{iR}(u)``, at one R or
at many R in one pass.

Everything here is plain float64 numerics; arbitrary-precision checks
live in the test suite only.
"""

from __future__ import annotations

import functools
import logging

import numpy as np

__all__ = [
    "SpecFunError",
    "PoleError",
    "DomainError",
    "UnsupportedRangeError",
    "log_gamma",
    "table_integral",
    "bessel_k_imag",
    "bessel_k_imag_grid",
]


_log = logging.getLogger(__name__)


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
    """log Gamma for complex scalar or array input: the principal branch
    for Re z >= 1/2, and below it the reflection formula's value, which
    can differ from the principal branch by a multiple of 2 pi i.

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
    ``s`` and ``t`` may be arrays (broadcast together); a scalar pair
    gives a complex, and a pair outside the region raises DomainError
    naming it.
    """
    s, t = np.broadcast_arrays(np.asarray(s, dtype=complex),
                               np.asarray(t, dtype=complex))
    margin = t.real + (s.real + 1.0) / 2.0
    for bad, why in (
            (s.real <= -1.0, "Re s = {0.real:g} <= -1 diverges at 0"),
            (margin >= 0.0, "Re t + (Re s + 1)/2 = {2:g} >= 0 diverges at "
                            "infinity")):
        if bad.any():
            where = [v.ravel()[np.argmax(bad)] for v in (s, t, margin)]
            if s.ndim:
                why += " at s={0}, t={1}"
            raise DomainError("table_integral: " + why.format(*where))
    lg = (log_gamma((s + 1.0) / 2.0) + log_gamma(-t - (s + 1.0) / 2.0)
          - log_gamma(-t))
    return np.exp(lg) if s.ndim else complex(np.exp(lg))


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

# node counts quantized to a geometric ladder so leggauss is generated a
# bounded number of times over any workload; the rungs come out strictly
# increasing
_NODE_LADDER = np.concatenate(
    [np.array([64, 96]),
     ((2 ** np.arange(7, 19, dtype=np.int64))[:, None]
      * np.array([1.0, 1.25, 1.5, 1.75])).astype(np.int64).ravel()])


def _round_nodes(n):
    """Smallest ladder rung >= n, elementwise (capped at the top rung)."""
    return _NODE_LADDER[np.searchsorted(_NODE_LADDER,
                                        np.minimum(n, _NODE_LADDER[-1]))]


@functools.cache
def _gauss(n):
    """The x > 0 half of the n-point Gauss-Legendre rule (every rung is
    even, so its nodes pair as +-x with equal weights), weights doubled:
    the rule's sum for an even integrand over [-1, 1].

    ``leggauss``'s weights drift from the exact ones already at the rungs
    the solver uses: against a 40-digit Newton iteration the relative
    error is 1.8e-13 at 96 nodes, 4.2e-11 at 192 and 2.3e-10 at 320.  A
    better rule was measured to leave ``bessel_k_imag``'s error against
    mpmath where it is."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x[n // 2:], 2.0 * w[n // 2:]


def _kappa_contour(R, u):
    """Tilt angle, decay rate, truncation and node count (vectorized in u)."""
    u = np.asarray(u, dtype=float)
    below = u < R
    if R > _TILT_R_MIN:
        # transition zone: steepest descent through the saddle (Airy floor
        # keeps the decay rate positive at u ~ R).  The far field u >= 1.6 R
        # stays on the real axis: it still cancels by about e^12 at R = 39.9,
        # an error of 1.1e-10 (the mpmath test allows 1e-9), but a tilt there
        # was measured to break the far field
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
    n = _round_nodes(np.minimum(3e5, _node_budget(theta, smax, rate)))
    return delta, sd, cd, rate, smax, n


def _node_budget(theta, smax, rate):
    """Gauss-Legendre nodes for the contour integral over [-smax, smax]:
    one per 3 radians of the phase count ``theta``, 6 per unit of s and
    per Gaussian width ``1/sqrt(rate)`` (the amplitude's peak and, when
    rate is small, its double-exponential ends), and 16 more.

    Without the 16 the count is 8 or more above the smallest that reaches
    5e-14 of the amplitude's integral, against mpmath in extended
    precision over R in [0, 40] and u in [1e-4, 1e4] (the coefficients are
    rounded from a linear-programming fit to those counts); the 16 take
    the error to a few times the rounding floor (6e-15 at most)."""
    return theta / 3.0 + 6.0 * smax * (1.0 + np.sqrt(rate)) + 16.0


def _check_domain(name, r_lo, r_hi, u):
    """Raise unless 0 <= r_lo, r_hi <= ``_BESSEL_R_MAX`` and every u > 0."""
    if r_lo < 0.0:
        raise DomainError(f"{name}: R must be nonnegative")
    if r_hi > _BESSEL_R_MAX:
        raise UnsupportedRangeError(
            f"{name}: R = {r_hi:g} beyond supported range {_BESSEL_R_MAX:g}")
    if np.any(u <= 0.0):
        raise DomainError(f"{name}: u must be positive")


def bessel_k_imag(R, u):
    """Scaled modified Bessel function ``e^{pi R/2} K_{iR}(u)``.

    ``u`` may be a scalar or an array of positive reals; ``0 <= R <= 40``.
    Against mpmath at 90 log-spaced u in [0.3, 700], the worst error
    (relative to max|K| below the turning point u = R, to the value above
    it) is 4e-15 at R = 0, 3e-14 at R <= 2, 2e-11 at R = 9.53 and 13.8,
    6e-11 at 25 and 2e-10 at 40.
    """
    R = float(R)
    uu = np.asarray(u, dtype=float)
    scalar = uu.ndim == 0
    uu = np.atleast_1d(uu).ravel()
    _check_domain("bessel_k_imag", R, R, uu)
    out = np.empty(uu.shape)
    delta, sd, cd, rate, smax, nn = _kappa_contour(R, uu)
    pref = np.exp(R * (np.pi / 2 - delta) - rate)
    # one vectorized pass per distinct node count (grids differ via smax);
    # amp is even and ph odd in s, so the half rule of _gauss suffices
    for n in sorted(set(nn.tolist())):
        sel = np.where(nn == n)[0]
        x, w = _gauss(int(n))
        for k in range(0, len(sel), 512):
            idx = sel[k:k + 512]
            s = smax[idx, None] * x[None, :]
            # cosh s - 1 = 2 sinh^2(s/2), without the cancellation near 0
            amp = np.exp(-2.0 * rate[idx, None] * np.sinh(0.5 * s) ** 2)
            ph = (uu[idx] * sd[idx])[:, None] * np.sinh(s) - R * s
            out[idx] = 0.5 * smax[idx] * ((amp * np.cos(ph)) @ w)
    out *= pref
    if scalar:
        return float(out[0])
    return out.reshape(np.shape(u))


# arguments whose truncations smax lie within this ratio share one Gauss
# rule on [0, S], S the largest of them: an argument then spends up to
# S/smax times its own node count, and the sorted solver arguments fall
# into a handful of groups
_GRID_SMAX_RATIO = 1.3


def bessel_k_imag_grid(rs, u):
    """``bessel_k_imag(r, u)`` for every r in ``rs`` (rows) at every u
    (columns, flattened), in one pass.

    Each u takes the contour of ``max(rs)``: its tilt and truncation hold
    for every smaller R (the tilt keeps the integrand within e^{budget}
    of the value), and so does its node count (the phase count grows with
    R).  With one rule shared by a group of arguments, the R dependence of
    the integrand is the factor exp(-i s R): the sum is
    ``Re(exp(-i R s^T) @ (w amp exp(i u sin(delta) sinh s))^T)``, one complex
    exponential per (argument, node) in place of a cosine per (R,
    argument, node).  Agrees with ``bessel_k_imag`` to its own error
    (relative to each argument's largest value over ``rs``)."""
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    uu = np.atleast_1d(np.asarray(u, dtype=float)).ravel()
    R = float(np.max(rs))
    _check_domain("bessel_k_imag_grid", np.min(rs), R, uu)
    out = np.empty((rs.size, uu.size))
    delta, sd, cd, rate, smax, nn = _kappa_contour(R, uu)
    order = np.argsort(smax, kind="stable")
    edges = np.searchsorted(smax[order], smax[order] * _GRID_SMAX_RATIO,
                            side="right")
    start, rungs = 0, []
    while start < uu.size:
        idx = order[start:edges[start]]
        S = smax[idx[-1]]
        rungs.append(int(_round_nodes(np.max(nn[idx] * (S / smax[idx])))))
        x, w = _gauss(rungs[-1])
        s = S * x
        amp = np.exp(-2.0 * rate[idx, None] * np.sinh(0.5 * s) ** 2)
        m = (w * amp) * np.exp(1j * (uu[idx] * sd[idx])[:, None] * np.sinh(s))
        out[:, idx] = 0.5 * S * (np.exp(-1j * np.outer(rs, s)) @ m.T).real
        start = edges[start]
    out *= np.exp(np.outer(rs, np.pi / 2 - delta) - rate)
    _log.debug("K_iR grid: %d R in [%.6f, %.6f] x %d arguments in %d groups, "
               "Gauss rungs %s", rs.size, np.min(rs), R, uu.size, len(rungs),
               rungs)
    return out

