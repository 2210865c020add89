"""Quadrature engines.

One engine per job: adaptive Gauss-Kronrod on (possibly infinite)
intervals with declared algebraic endpoint/interior singularities, an FFT
trapezoid rule with doubling for the Fourier coefficients of a smooth
1-periodic integrand on [0, 1) (the mean is coefficient 0,
``periodic_fourier(f, 0)[0][0]``), and a composite oscillatory integrator
on uniform 32-point Gauss panels, as many as the caller's bound
``freq_max`` on the phase frequency needs for 8 points per cycle.
``modelrep.model_functional`` uses the oscillatory integrator for
compactly supported vectors and for generic vectors after x = e^u; the
rotation-invariant vector has its own kernel,
``modelrep.k_fixed_functional``, a trapezoid sum folded into one FFT.

Integrands must accept numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureResult",
    "ConvergenceError",
    "integrate_adaptive",
    "periodic_fourier",
    "FOURIER_MAX_GRID",
    "oscillatory_integral",
]


class ConvergenceError(Exception):
    """Raised when an integrator exhausts its budget; carries the best value."""

    def __init__(self, message, best=None, error_estimate=None):
        super().__init__(message)
        self.best = best
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int


# --- Gauss-Kronrod 7-15 nodes/weights (standard pair on [-1, 1]) ----------

_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_GK_X = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 nodes ascending
_GK_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GK_WG = np.zeros(15)
_GK_WG[1:15:2] = np.concatenate([_WG[:-1], _WG[::-1]])     # gauss subset


def _gk_panel(f, a, b):
    """15-point Kronrod value, embedded 7-point Gauss error estimate."""
    h = 0.5 * (b - a)
    m = 0.5 * (a + b)
    x = m + h * _GK_X
    y = np.asarray(f(x), dtype=complex)
    vk = h * np.sum(_GK_WK * y)
    vg = h * np.sum(_GK_WG * y)
    return vk, abs(vk - vg), 15


_ABS_TOL = 1e-14


def integrate_adaptive(f, a, b, singular_exponent_at=None,
                       rel_tol=1e-10, budget=200_000):
    """Adaptive Gauss-Kronrod integration of ``f`` on [a, b].

    ``singular_exponent_at = (point, alpha)`` declares an algebraic
    singularity ``|x - point|^alpha`` (alpha > -1) that is removed by the
    substitution x = point +- u^{1/(1+alpha)} before subdividing.  The
    endpoints may be ``+-inf`` (mapped rationally).  Returns a
    QuadratureResult; raises ConvergenceError carrying the best estimate
    when the evaluation budget runs out.
    """
    pieces = _split_for_singularity(f, a, b, singular_exponent_at)
    total = 0.0 + 0.0j
    err = 0.0
    neval = 0
    for g, lo, hi in pieces:
        v, e, n = _adaptive_core(g, lo, hi, rel_tol, budget - neval)
        total += v
        err += e
        neval += n
    return QuadratureResult(value=total, error_estimate=err, evaluations=neval)


def _split_for_singularity(f, a, b, spec):
    if spec is None:
        return _map_infinite(f, a, b)
    point, alpha = spec
    if alpha <= -1.0:
        raise ValueError(f"singular exponent {alpha:g} <= -1 is not integrable")
    if not (a <= point <= b):
        raise ValueError("declared singularity lies outside the interval")
    p = 1.0 / (1.0 + alpha)

    def side(sign, length):
        # int over x = point + sign * u^p, u in [0, length^{1/p}]
        def h(u):
            return f(point + sign * u ** p) * p * u ** (p - 1.0)
        return h, 0.0, length ** (1.0 / p)

    out = []
    for sign, end in ((-1.0, a), (1.0, b)):
        length = sign * (end - point)
        if length <= 0:
            continue
        if np.isinf(length):
            # transform the unit piece next to the point, map the rest
            out.append(side(sign, 1.0))
            out.extend(_map_infinite(f, *sorted((point + sign, end))))
        else:
            out.append(side(sign, length))
    return out


def _map_infinite(f, a, b):
    """Map infinite endpoints to finite intervals (rational substitution)."""
    if np.isinf(a) and np.isinf(b):
        # x = u/(1-u^2), u in (-1, 1)
        def g(u):
            d = 1.0 - u * u
            return f(u / d) * (1.0 + u * u) / (d * d)
        return [(g, -1.0 + 1e-14, 1.0 - 1e-14)]
    if np.isinf(a):
        # (-inf, b] is the mirror of [-b, inf)
        return _map_infinite(lambda x: f(-x), -b, np.inf)
    if np.isinf(b):
        # x = a + u/(1-u), u in [0, 1)
        def g(u):
            d = 1.0 - u
            return f(a + u / d) / (d * d)
        return [(g, 0.0, 1.0 - 1e-14)]
    return [(f, float(a), float(b))]


def _adaptive_core(f, a, b, rel_tol, budget):
    v, e, n = _gk_panel(f, a, b)
    stack = [(a, b, v, e)]
    total_v, total_e, neval = v, e, n
    while True:
        tol = max(_ABS_TOL, rel_tol * abs(total_v))
        if total_e <= tol or not stack:
            break
        if neval >= budget:
            raise ConvergenceError(
                f"integrate_adaptive: budget {budget} exhausted "
                f"(error estimate {total_e:.2e})",
                best=total_v, error_estimate=total_e)
        stack.sort(key=lambda t: t[3])
        lo, hi, pv, pe = stack.pop()
        mid = 0.5 * (lo + hi)
        v1, e1, n1 = _gk_panel(f, lo, mid)
        v2, e2, n2 = _gk_panel(f, mid, hi)
        total_v += v1 + v2 - pv
        total_e += e1 + e2 - pe
        neval += n1 + n2
        stack.append((lo, mid, v1, e1))
        stack.append((mid, hi, v2, e2))
    return total_v, total_e, neval


# ---------------------------------------------------------------------------

_FOURIER_REL_TOL = 1e-11
_FOURIER_MAX_DOUBLINGS = 12
FOURIER_MAX_GRID = 1 << 20      # 16 MiB per complex sample array


def periodic_fourier(f, n_max, n_start=None):
    """Fourier coefficients ``int_0^1 f(theta) e^{-2 pi i n theta} dtheta``
    for |n| <= n_max of a smooth 1-periodic ``f``, by FFT trapezoid sums
    on n_start, 2 n_start, ... points until two successive spectra agree
    to 1e-11 of their largest entry.

    Returns (coefficients indexed n = -n_max..n_max, error_estimate, evals),
    the estimate being the last doubling's change.  Raises
    ConvergenceError if the spectrum has not settled after 12 grids, or
    before a grid above ``FOURIER_MAX_GRID`` points would be sampled.
    """
    n = n_start or max(256, 1 << int(np.ceil(np.log2(8 * max(n_max, 1)))))
    prev = None
    neval = 0
    for _ in range(_FOURIER_MAX_DOUBLINGS):
        if n > FOURIER_MAX_GRID:
            raise ConvergenceError(
                f"periodic_fourier: a grid of {n} points is above the cap "
                f"of {FOURIER_MAX_GRID}", best=prev)
        theta = np.arange(n) / n
        vals = np.asarray(f(theta), dtype=complex)
        c = np.fft.fft(vals) / n
        idx = np.concatenate([np.arange(-n_max, 0) + n, np.arange(0, n_max + 1)])
        cur = c[idx]
        neval += n
        if prev is not None:
            change = float(np.max(np.abs(cur - prev)))
            scale = float(np.max(np.abs(cur))) + 1e-300
            if change <= _FOURIER_REL_TOL * scale + 1e-15:
                return cur, change, neval
        prev = cur
        n *= 2
    raise ConvergenceError(
        "periodic_fourier: spectrum did not settle", best=prev)


# ---------------------------------------------------------------------------

_gl32 = np.polynomial.legendre.leggauss(32)


def oscillatory_integral(amplitude_phase, a, b, freq_max):
    """``int_a^b A(u) e^{i phi(u)} du`` by composite 32-point Gauss panels.

    ``amplitude_phase(u) -> (A, phi)`` evaluates amplitude and phase on an
    array; ``freq_max`` bounds |phi'|/(2 pi) so panels resolve the fastest
    oscillation at 8 points per cycle.  One refinement pass (x1.5 panels)
    supplies the error estimate.
    """
    x32, w32 = _gl32

    def run(scale):
        npan = int(max(4, np.ceil((b - a) * max(freq_max, 0.25)
                                  * 8.0 * scale / 32.0)))
        edges = np.linspace(a, b, npan + 1)
        h = 0.5 * np.diff(edges)
        m = 0.5 * (edges[1:] + edges[:-1])
        u = (m[:, None] + h[:, None] * x32[None, :]).ravel()
        amp, ph = amplitude_phase(u)
        f = (np.asarray(amp, dtype=complex)
             * np.exp(1j * np.asarray(ph))).reshape(npan, 32)
        return np.sum(h * (f @ w32)), npan * 32

    v1, n1 = run(1.0)
    v2, n2 = run(1.5)
    return QuadratureResult(value=v2, error_estimate=abs(v2 - v1),
                            evaluations=n1 + n2)

