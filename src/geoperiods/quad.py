"""Quadrature engines.

One engine per job: a tanh-sinh (double-exponential) rule on a finite
interval, which integrates an algebraic singularity as it is at an end
where x = 0 (a caller shifts the variable to put it there, and splits
the interval at an interior one), for one integrand or a batch of them
on the same interval, an FFT
trapezoid rule with doubling for the Fourier coefficients of a smooth
1-periodic integrand on [0, 1) (the mean is coefficient 0,
``periodic_fourier(f, 0)[0][0]``), and a composite oscillatory integrator
on uniform 32-point Gauss panels for one complex integrand or rows of
them, as many panels as the caller's bound ``freq_max`` on the phase
frequency needs for 8 points per cycle.
``modelrep.model_functional`` runs the oscillatory integrator in u = ln x
over the support of a compactly supported vector.

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


_ABS_TOL = 1e-14
_T_MAX = 6.6            # tanh-sinh nodes t run over [-6.6, 6.6]
_MAX_HALVINGS = 12


def _level(k):
    """The nodes t >= 0 that level k (step h = 2^-k) adds, as
    ``e = exp(-pi sinh t)`` and ``h pi cosh t``; level 0 holds t = 0."""
    h = 2.0 ** -k
    t = np.arange(0.0, _T_MAX, 1.0) if k == 0 else np.arange(h, _T_MAX, 2 * h)
    return np.exp(-np.pi * np.sinh(t)), h * np.pi * np.cosh(t)


def _nodes(lo, hi, e, c):
    """Nodes and weights of one level on [lo, hi].

    The node pair +-t sits at distance d = e/(1+e) (in units of the
    length) from the ends; the node t = 0 (e = 1) goes to the left end
    alone.  A node whose x would round onto its end is dropped, by the
    cutoff of that end.
    """
    ulp_lo, ulp_hi = abs(np.spacing(lo)), abs(np.spacing(hi))
    length = hi - lo
    d = e / (1.0 + e)
    w = length * c * d / (1.0 + e)          # du/dt = pi cosh t d (1 - d)
    near = abs(length) * d > ulp_lo
    far = (e < 1.0) & (abs(length) * d > ulp_hi)
    return (np.concatenate([lo + length * d[near], hi - length * d[far]]),
            np.concatenate([w[near], w[far]]))


def _cabs(z):
    """|z| as the scalar ``abs`` gives it: numpy's array ``abs`` of complex
    numbers takes a vector path that can differ in the last bit."""
    return np.hypot(z.real, z.imag)


def integrate_adaptive(f, a, b, singular_exponent=None,
                       rel_tol=1e-10, budget=200_000, batch=None):
    """Tanh-sinh (double-exponential) integration of ``f`` on [a, b].

    The trapezoid rule in t of x = (1 + tanh(pi/2 sinh t))/2 on [0, 1],
    scaled to [a, b], on |t| <= 6.6: the step halves from 1 until two
    levels agree to ``rel_tol`` (or to 1e-14 absolutely), up to 12
    halvings, and the last change is the error estimate (Takahasi and
    Mori 1974; Mori and Sugihara 2001).  Nodes crowd at both ends, and
    only a node whose x would round onto its end is dropped.

    ``singular_exponent = alpha`` declares a singularity |x|^alpha at
    x = 0, which must be ``a`` or ``b``: it checks that alpha > -1 and
    changes no node or weight.  A singularity elsewhere is the caller's
    to shift to 0 and split at.  The ends must be finite.  Returns a
    QuadratureResult; raises ConvergenceError carrying the best estimate
    when the evaluation budget or the halvings run out, or when the sum
    is not finite.

    ``batch = m`` integrates m integrands over [a, b] at once: ``f(x,
    rows)`` returns a (len(rows), len(x)) array, the integrands of the
    rows (indices into range(m)) still refining, and each row stops at
    the level where it alone converges, with the value and error estimate
    its own scalar call gives, to the bit.  ``singular_exponent`` may
    hold one exponent per row.  The budget, the halvings and the
    finiteness hold per row: the first row to break one raises, named in
    the message, and the error carries every row's best estimate.  The
    result's value and error estimate are then arrays of m, and
    ``evaluations`` the total over the rows.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError(f"integrate_adaptive: a non-finite end in [{a}, {b}]")
    if singular_exponent is not None:
        if 0.0 not in (a, b):
            raise ValueError(f"a declared singularity is at x = 0, which is "
                             f"not an end of [{a}, {b}]")
        if np.any(np.asarray(singular_exponent) <= -1.0):
            worst = float(np.min(singular_exponent))
            raise ValueError(f"singular exponent {worst:g} <= -1 is not integrable")
    scalar = batch is None
    if scalar:
        fn, batch = f, 1

        def f(x, rows):
            return fn(x)
    s = np.zeros(batch, dtype=complex)
    change = np.full(batch, np.inf)
    neval = np.zeros(batch, dtype=np.int64)
    live = np.arange(batch)

    def out(rows):          # a scalar call's rows are its one value
        return rows[0] if scalar else rows

    def fail(row, message):
        where = "" if scalar else f"row {row}: "
        raise ConvergenceError(f"integrate_adaptive: {where}{message}",
                               best=out(s), error_estimate=out(change))

    for k in range(_MAX_HALVINGS + 1):
        x, w = _nodes(a, b, *_level(k))
        over = neval[live] + x.size > budget
        if over.any():
            row = live[np.argmax(over)]
            fail(row, f"budget {budget} exhausted (error estimate "
                 f"{change[row]:.2e})")
        vals = np.broadcast_to(np.asarray(f(x, live), dtype=complex),
                               (live.size, x.size))
        part = np.sum(w * vals, axis=1)
        neval[live] += x.size
        bad = ~np.isfinite(part)
        if bad.any():
            row = live[np.argmax(bad)]
            fail(row, f"the sum is not finite at level {k} after "
                 f"{neval[row]} evaluations (error estimate "
                 f"{change[row]:.2e} at the level before)")
        change[live] = _cabs(part - 0.5 * s[live])    # level k less k - 1
        s[live] = 0.5 * s[live] + part
        if k:
            live = live[change[live] > np.maximum(
                _ABS_TOL, rel_tol * _cabs(s[live]))]
            if not live.size:
                break
    else:
        fail(live[0], f"no agreement to {rel_tol:g} after {_MAX_HALVINGS} "
             f"halvings (error estimate {change[live[0]]:.2e})")
    return QuadratureResult(value=out(s), error_estimate=out(change),
                            evaluations=int(neval.sum()))


# ---------------------------------------------------------------------------

_FOURIER_REL_TOL = 1e-11
_FOURIER_MAX_DOUBLINGS = 12
FOURIER_MAX_GRID = 1 << 20      # 16 MiB per complex sample array


def periodic_fourier(f, n_max, n_start=None):
    """Fourier coefficients ``int_0^1 f(theta) e^{-2 pi i n theta} dtheta``
    for |n| <= n_max of a smooth 1-periodic ``f``, by FFT trapezoid sums
    on n_start, 2 n_start, ... points until two successive spectra agree
    to 1e-11 of their largest entry.

    Each doubling samples only the new points between the previous
    grid's.  Returns (coefficients indexed n = -n_max..n_max,
    error_estimate, evals), the estimate being the last doubling's change
    and ``evals`` the number of points sampled.  Raises
    ConvergenceError if the spectrum has not settled after 12 grids, or
    before a grid above ``FOURIER_MAX_GRID`` points would be sampled.
    """
    n = n_start or max(256, 1 << int(np.ceil(np.log2(8 * max(n_max, 1)))))
    prev = vals = None
    neval = 0
    for _ in range(_FOURIER_MAX_DOUBLINGS):
        if n > FOURIER_MAX_GRID:
            raise ConvergenceError(
                f"periodic_fourier: a grid of {n} points is above the cap "
                f"of {FOURIER_MAX_GRID}", best=prev)
        if vals is None:
            vals = np.asarray(f(np.arange(n) / n), dtype=complex)
            neval += n
        else:
            # 2k/n is k/(n/2) to the bit: sample only the points (2k+1)/n
            full = np.empty(n, dtype=complex)
            full[::2] = vals
            vals = full             # frees the coarse array before sampling
            vals[1::2] = f((2 * np.arange(n // 2) + 1) / n)
            neval += n // 2
        cur = (np.fft.fft(vals) / n)[np.arange(-n_max, n_max + 1) % n]
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


def oscillatory_integral(f, a, b, freq_max):
    """``int_a^b f(u) du`` of an oscillating ``f`` by composite 32-point
    Gauss panels.

    ``f(u)`` evaluates the (complex) integrand on an array; ``freq_max``
    bounds its phase frequency |phi'|/(2 pi) so panels resolve the
    fastest oscillation at 8 points per cycle.  One refinement pass
    (x1.5 panels) supplies the error estimate; at the floor of 4 panels
    both passes take the same panels, so it is exactly 0 there.  ``f``
    may return m integrands as an (m, len(u)) array: the value and error
    estimate are then arrays of m, and ``evaluations`` the total.
    """
    x32, w32 = _gl32

    def run(scale):
        npan = int(max(4, np.ceil((b - a) * max(freq_max, 0.25)
                                  * 8.0 * scale / 32.0)))
        edges = np.linspace(a, b, npan + 1)
        h = 0.5 * np.diff(edges)
        m = 0.5 * (edges[1:] + edges[:-1])
        u = (m[:, None] + h[:, None] * x32[None, :]).ravel()
        vals = np.asarray(f(u), dtype=complex)
        panels = (vals.reshape(-1, 32) @ w32).reshape(*vals.shape[:-1], npan)
        return np.sum(h * panels, axis=-1), vals.size

    v1, n1 = run(1.0)
    v2, n2 = run(1.5)
    return QuadratureResult(value=v2, error_estimate=_cabs(v2 - v1),
                            evaluations=n1 + n2)
