"""Eigenfunction providers on three surfaces.

Round sphere and flat torus modes come in closed form (they serve as
sharpness oracles); Laplace eigenfunctions on the modular surface are
produced by an automorphy-collocation solver: a truncated Fourier-Bessel
expansion is sampled on a low horocycle, pulled back into the fundamental
domain, and the implied linear system is closed by regularized least
squares.  Eigenvalues are zeros of a two-height coefficient mismatch.
The grid scan of a bracket reads K_iR from a Chebyshev table in R per
collocation (its arguments are fixed, only R varies; every node of a
table comes from one ``bessel_k_imag_grid`` pass).  The collocation
matrices are linear in the kernels, so their table follows from it, and
the scan solves the systems of its whole grid, both heights, in one
stacked SVD.  Each of its sign changes is refined on those tables.  The exact
kernel screens the table's root with one call (residual and two-height
agreement, which bounds the exact mismatch there).  A candidate is
confirmed by a sign change in the window around it at deeper
truncation, refined and screened the same way on the window's own
tables.  One Illinois regula
falsi routine serves every refinement.
``NoEigenvalueError`` gives every rejected candidate's reason; the
``geoperiods.eigen`` logger traces the scans, sign changes, refinements
and rejections at DEBUG.
"""

from __future__ import annotations

import csv
import functools
import glob
import io
import json
import logging
import math
import os
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .specfun import _BESSEL_R_MAX, bessel_k_imag, bessel_k_imag_grid

__all__ = [
    "Eigenfunction",
    "MaassForm",
    "NoEigenvalueError",
    "CacheRecordError",
    "ConditioningError",
    "ReductionError",
    "sphere_harmonic",
    "torus_mode",
    "hejhal_solve",
    "check_solve",
    "hecke_defects",
    "as_eigenfunction",
    "evaluate",
    "pullback",
    "laplace_residual",
    "save_form",
    "load_form",
    "cache_path",
    "find_form",
    "resolve_cache_dir",
]


_log = logging.getLogger(__name__)

CACHE_ENV_VAR = "GEOPERIODS_CACHE"
_CACHE_FORMAT_VERSION = 1
_OPTIONAL = ("height_agreement", "bracket")   # record keys that may be missing


def resolve_cache_dir(*candidates) -> str:
    """The first non-empty candidate, else $GEOPERIODS_CACHE, else
    ``form_cache`` (relative to the working directory)."""
    for c in candidates:
        if c:
            return c
    return os.environ.get(CACHE_ENV_VAR) or "form_cache"


class NoEigenvalueError(Exception):
    pass


class ConditioningError(Exception):
    pass


class CacheRecordError(ValueError):
    """A cache record that is unreadable or not a solved form."""


class ReductionError(Exception):
    """``pullback`` did not reach the fundamental domain within its steps."""


@dataclass(frozen=True)
class Eigenfunction:
    """An evaluatable unit-norm eigenfunction.

    ``surface`` is sphere / torus / modular; ``mu`` the eigenvalue of the
    (geometer's, nonnegative) Laplacian; ``spectral_r`` satisfies
    mu = 1/4 + r^2 on hyperbolic surfaces and is None otherwise.
    ``evaluator`` takes surface points (see ``evaluate``).
    """

    surface: str
    mu: float
    spectral_r: Optional[float]
    evaluator: Callable
    label: str = ""


# ---------------------------------------------------------------------------
# sphere: real orthonormal spherical harmonics through the fully
# normalized Legendre recurrence (stable to high degree, no factorials)


_SECTORAL_PRODUCTS = [1.0]     # prod_{k=1..m} -sqrt((2k+1)/(2k)) at index m


def _sectoral_constant(m):
    """C_m = prod_{k=1..m} -sqrt((2k+1)/(2k)) / sqrt(4pi).  The products are
    kept and extended on demand, multiplied in ``math.prod``'s order, so
    each C_m is the same double as that product's."""
    prods = _SECTORAL_PRODUCTS
    for k in range(len(prods), m + 1):
        prods.append(prods[-1] * -math.sqrt((2.0 * k + 1.0) / (2.0 * k)))
    return prods[m] / math.sqrt(4.0 * math.pi)


def _norm_legendre(n, m, costh, sinth):
    """N_n^m P_n^m(cos theta), N_n^m = sqrt((2n+1)/(4pi) (n-m)!/(n+m)!), from
    the closed form N_m^m P_m^m = C_m sin^m theta (see
    ``_sectoral_constant``); recurs only for n > m.  Takes sin theta as
    well as cos theta: near the poles sqrt(1 - cos^2) would lose relative
    accuracy of about eps / theta^2, m times over in sin^m."""
    q_mm = _sectoral_constant(m) * np.asarray(sinth, dtype=float) ** m
    if n == m:
        return q_mm
    costh = np.asarray(costh, dtype=float)
    q_prev = q_mm
    q_cur = np.sqrt(2.0 * m + 3.0) * costh * q_mm
    for k in range(m + 2, n + 1):
        a = np.sqrt((4.0 * k * k - 1.0) / (k * k - m * m))
        b = np.sqrt(((k - 1.0) ** 2 - m * m) / (4.0 * (k - 1.0) ** 2 - 1.0))
        q_cur, q_prev = a * (costh * q_cur - b * q_prev), q_cur
    return q_cur


def sphere_harmonic(n: int, m: int) -> Eigenfunction:
    """Real unit-norm spherical harmonic of degree n, order m.

    Points are (colatitude, longitude) pairs; orders m > 0 carry
    sqrt(2) cos(m phi), m < 0 carry sqrt(2) sin(|m| phi).
    """
    if abs(m) > n:
        raise ValueError(f"sphere_harmonic: |m| = {abs(m)} exceeds degree {n}")
    n = int(n)
    m_abs = abs(int(m))
    sign_m = int(np.sign(m))

    def ev(points):
        pts = np.asarray(points, dtype=float)
        theta, phi = pts[..., 0], pts[..., 1]
        costh = np.cos(theta) if n > m_abs else None    # sectoral: unread
        leg = _norm_legendre(n, m_abs, costh, np.sin(theta))
        if sign_m > 0:
            return np.sqrt(2.0) * leg * np.cos(m_abs * phi)
        if sign_m < 0:
            return np.sqrt(2.0) * leg * np.sin(m_abs * phi)
        return leg * np.ones_like(phi)

    return Eigenfunction(surface="sphere", mu=float(n * (n + 1)),
                         spectral_r=None, evaluator=ev,
                         label=f"Y({n},{m})")


def torus_mode(k) -> Eigenfunction:
    """Cosine mode sqrt(2) cos(2 pi <k, x>) on the unit-square torus
    (constant 1 for k = (0,0)); eigenvalue 4 pi^2 |k|^2."""
    k = tuple(int(v) for v in k)

    def ev(points):
        pts = np.asarray(points, dtype=float)
        phase = 2.0 * np.pi * (k[0] * pts[..., 0] + k[1] * pts[..., 1])
        if k == (0, 0):
            return np.ones_like(phase)
        return np.sqrt(2.0) * np.cos(phase)

    mu = 4.0 * np.pi ** 2 * float(k[0] ** 2 + k[1] ** 2)
    return Eigenfunction(surface="torus", mu=mu, spectral_r=None,
                         evaluator=ev, label=f"torus{k}")


# ---------------------------------------------------------------------------
# modular surface


# Bound of ``pullback``'s memo.  A default sweep reduces 8,035 distinct
# points (36,864 calls: its three forms are evaluated on the same curve
# points, and ``restrict``'s grid points are the even-indexed points of
# its double grid); one curve at 2 * TABLE_GRID has 4,096.
_PULLBACK_MEMO = 1 << 14


@functools.lru_cache(maxsize=_PULLBACK_MEMO)
def pullback(z: complex, max_steps=200) -> complex:
    """Reduce z into the standard fundamental domain {|z|>=1, |Re z|<=1/2}.

    Raises ReductionError if ``max_steps`` translate-and-invert steps do
    not get there.  Results are memoised (``_PULLBACK_MEMO`` of them, least
    recently used out first; errors are not kept), so a point reduced
    again costs a lookup.  0.0 and -0.0 are equal keys: a point whose real
    part is an exact signed zero may come back with the zero's sign from
    an earlier call.
    """
    z0 = z = complex(z)
    if z.imag <= 0:
        raise ValueError("pullback: point must have Im z > 0")
    for _ in range(max_steps):
        z = complex(z.real - round(z.real), z.imag)
        if abs(z) < 1.0 - 1e-15:
            z = -1.0 / z
        else:
            return z
    raise ReductionError(f"pullback: {z0} not reduced in {max_steps} steps")


def _cheb_nodes(n):
    """The n first-kind Chebyshev points cos(pi (k + 1/2) / n) of [-1, 1]."""
    return np.cos(np.pi * (np.arange(n) + 0.5) / n)


def _cheb_fit(t, samples):
    """Chebyshev coefficients (along axis 0) of the interpolant through
    ``samples`` (along axis 0) at the first-kind points ``t``, and its
    tail: the last two coefficients relative to the largest sample of
    each column, at worst."""
    n = len(t)
    coeffs = ((2.0 / n) * np.polynomial.chebyshev.chebvander(t, n - 1).T
              @ samples)
    coeffs[0] *= 0.5
    # a column that underflows to zero has a zero tail
    tail = float(np.max(np.sum(np.abs(coeffs[-2:]), axis=0)
                        / np.maximum(np.max(np.abs(samples), axis=0),
                                     np.finfo(float).tiny)))
    return coeffs, tail


def _clenshaw(coeffs, x, columns=...):
    """sum_k coeffs[k][columns] T_k(x) by Clenshaw's recurrence.

    ``columns`` picks each x its own column of coefficients (a panel
    index per point), one degree at a time, so no len(x) x degree array
    is formed."""
    b1 = b2 = 0.0
    for c in coeffs[:0:-1]:
        b1, b2 = c[columns] + 2.0 * x * b1 - b2, b1
    return coeffs[0][columns] + x * b1 - b2


class _ChebTable:
    """A Chebyshev series in R over [lo, hi]: ``coeffs`` holds one
    coefficient per degree along axis 0, of any shape after it.  The
    form's K_iR table, one panel per point, takes ``_clenshaw`` instead:
    4.1 ms on 16 x 4096 points against 13.3 ms for a cosine product."""

    def __init__(self, lo, hi, coeffs):
        self.lo, self.hi, self.coeffs = lo, hi, coeffs

    def __call__(self, rs):
        """The series at R (a scalar, or an array of R stacked on the
        leading axis), R in [lo, hi]."""
        # T_k(cos theta) = cos(k theta): a quarter of chebvander's time
        # for one R, which each step of a table refinement reads; the
        # clip keeps a grid end that rounds past +-1 in arccos's domain
        theta = np.arccos(np.clip(
            (2.0 * np.asarray(rs) - (self.hi + self.lo)) / (self.hi - self.lo),
            -1.0, 1.0))
        n = len(self.coeffs)
        values = (np.cos(theta[..., None] * np.arange(n))
                  @ self.coeffs.reshape(n, -1))
        return values.reshape(np.shape(rs) + self.coeffs.shape[1:])


class _KappaTable:
    """u -> e^{pi R/2} K_{iR}(u) on the range ``MaassForm.value`` reads,
    [2 pi sqrt(3)/2, 60 + 2R] (0 above it): Chebyshev interpolants on
    ``_KAPPA_PANELS`` equal panels in log u, each through ``_KAPPA_NODES``
    exact ``bessel_k_imag`` samples, summed by Clenshaw on each point's
    own panel."""

    def __init__(self, R):
        u_lo, u_hi = 2.0 * np.pi * np.sqrt(3.0) / 2.0, 60.0 + 2.0 * R
        self.lo, self.hi = np.log(u_lo), np.log(u_hi)
        self.width = (self.hi - self.lo) / _KAPPA_PANELS
        t = _cheb_nodes(_KAPPA_NODES)
        mids = self.lo + self.width * (np.arange(_KAPPA_PANELS) + 0.5)
        samples = bessel_k_imag(R, np.exp(mids + 0.5 * self.width * t[:, None]))
        self.coeffs, _ = _cheb_fit(t, samples)
        tail = (np.max(np.sum(np.abs(self.coeffs[-2:]), axis=0))
                / np.max(np.abs(samples)))
        _log.debug("K_iR table at R=%.6f: %d exact Bessel points (%d panels "
                   "x %d nodes) over u in [%.4f, %.4f], Chebyshev tail %.1e "
                   "of the largest sample", R, samples.size, _KAPPA_PANELS,
                   _KAPPA_NODES, u_lo, u_hi, tail)

    def __call__(self, u):
        log_u = np.log(np.asarray(u, dtype=float))
        out = np.zeros(log_u.shape)
        live = log_u < self.hi
        # pullback leaves y a rounding sliver below sqrt(3)/2: the first
        # panel's interpolant takes it
        s = (log_u[live] - self.lo) / self.width
        panel = np.clip(s.astype(int), 0, _KAPPA_PANELS - 1)
        out[live] = _clenshaw(self.coeffs, 2.0 * (s - panel) - 1.0, panel)
        return out


@dataclass
class MaassForm:
    """Cuspidal eigenfunction data on the modular surface; its fields are
    the layout of a cache record (see ``save_form``).

    ``coefficients[n-1]`` is the n-th Fourier-Bessel coefficient in the
    a_1 = 1 normalization; ``l2_scale`` rescales to unit L^2 norm with
    respect to the hyperbolic area measure.  Evaluation at z uses
    sum_n a_n kappa(2 pi n y) sqrt(y) {cos|sin}(2 pi n x) after pullback.
    """

    R: float
    parity: str
    M0: int
    y0: float
    coefficients: np.ndarray
    l2_scale: float = 1.0
    residual: float = np.nan
    r_stability: float = np.nan
    height_agreement: float = np.nan
    bracket: tuple = ()

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        self.bracket = tuple(self.bracket)

    @property
    def mu(self) -> float:
        return 0.25 + self.R * self.R

    @functools.cached_property
    def _kappa(self):
        """The K_iR table of this form's R, built on first use."""
        return _KappaTable(self.R)

    def value(self, z):
        """Evaluate at complex z (scalar or array), pulling back first.

        The K_iR kernel comes from the Chebyshev table ``_kappa``; the
        series stops at the first n past the table's end at every point.
        """
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        pts = np.array([pullback(w) for w in zz.ravel()])
        x = pts.real
        y = pts.imag
        osc = np.cos if self.parity == "even" else np.sin
        total = np.zeros(x.shape)
        sy = np.sqrt(y)
        for n, a in enumerate(self.coefficients, start=1):
            u = 2.0 * np.pi * n * y
            # the table reads 0 for log u >= hi, and u grows with n: once
            # no point is below hi, every later term is an exact zero (a
            # NaN point keeps the sum going, so it stays NaN)
            if np.all(np.log(u) >= self._kappa.hi):
                break
            total += a * self._kappa(u) * sy * osc(2.0 * np.pi * n * x)
        total *= self.l2_scale
        total = total.reshape(np.shape(z)) if np.ndim(z) else float(total[0])
        return total


def _least_squares(systems):
    """Least-squares coefficients (a_1 = 1) of M0 x M0 collocation
    systems stacked on any leading axes, and their residuals, stacked the
    same way, from one SVD call.  It keeps ``lstsq``'s cutoff: singular
    values at or below ``_RCOND`` times the largest count as zero, which
    gives the minimum-norm solution."""
    b = systems[..., 0]
    u, s, vt = np.linalg.svd(systems[..., 1:], full_matrices=False)
    if not (s[..., 0] > 0).all():
        raise ConditioningError("collocation system is singular")
    # x = V diag(1/s) U^T (-b), as row vectors; a direction whose singular
    # value is cut is divided by inf
    s_kept = np.where(s > _RCOND * s[..., :1], s, np.inf)
    x = (((-b[..., None, :] @ u) / s_kept[..., None, :]) @ vt)[..., 0, :]
    if not np.isfinite(x).all():
        raise ConditioningError("collocation system is singular")
    coeffs = np.ones(systems.shape[:-1])
    coeffs[..., 1:] = x
    a_c = (systems @ coeffs[..., None])[..., 0]
    resid = np.sqrt((a_c * a_c).sum(-1) / ((systems * systems).sum((-2, -1))
                                          * (coeffs * coeffs).sum(-1)))
    return coeffs, resid


class _Collocation:
    """The collocation system at one horocycle height ``Y``: Q points
    pulled back into the fundamental domain, and every factor of the
    M0 x M0 system that does not depend on R, built once.  Its kernel
    arguments ``u`` are one row per pulled-back point and a last row for
    the horocycle (``u_y``); kernels are laid out the same way."""

    def __init__(self, Y, Q, M0, parity):
        xj = (np.arange(1, Q + 1) - 0.5) / (2.0 * Q)
        zs = np.array([pullback(complex(x, Y)) for x in xj])
        ns = np.arange(1, M0 + 1)
        osc = np.cos if parity == "even" else np.sin
        self.u = np.vstack([2.0 * np.pi * np.outer(zs.imag, ns),
                            2.0 * np.pi * ns * Y])
        self.u_y = self.u[-1]
        self.sqrt_Y = np.sqrt(Y)
        self.sqrt_ys = np.sqrt(zs.imag)[:, None]
        self.osc_pull = osc(2.0 * np.pi * np.outer(zs.real, ns))
        self.projection = (2.0 / Q) * osc(2.0 * np.pi * np.outer(xj, ns)).T
        self._last = (None, None)

    def kernels(self, R):
        """The exact kernels at R, e^{pi R/2} K_iR at ``u``, from one
        ``bessel_k_imag`` call.  The last R's are kept, so a second solve
        at the same R evaluates nothing."""
        if self._last[0] != R:
            self._last = (R, bessel_k_imag(R, self.u))
        return self._last[1]

    def system(self, kernels):
        """The M0 x M0 collocation matrix of kernels laid out as ``u``, or
        a stack of them for kernels stacked on leading axes:
        projection @ (k_pull sqrt(y) osc) - diag(k_y sqrt(Y)).  It is
        linear in the kernels, so it maps the Chebyshev coefficients of a
        kernel table to those of the matrix."""
        a_mat = self.projection @ (kernels[..., :-1, :] * self.sqrt_ys
                                   * self.osc_pull)
        diag = np.arange(a_mat.shape[-1])
        a_mat[..., diag, diag] -= kernels[..., -1, :] * self.sqrt_Y
        return a_mat

    def table(self, lo, hi):
        """The kernels as a ``_ChebTable`` over R in [lo, hi], interpolated
        from ``_CHEB_NODES`` samples at Chebyshev points of [lo, hi] (the
        arguments are fixed, only R varies), all taken in one pass of
        ``bessel_k_imag_grid``, and the table's tail (see ``_cheb_fit``),
        worst over the arguments.  Raises ConditioningError when the tail
        is above ``_TABLE_TAIL_TOL``."""
        t = _cheb_nodes(_CHEB_NODES)
        samples = bessel_k_imag_grid(0.5 * (hi + lo) + 0.5 * (hi - lo) * t,
                                     self.u)
        coeffs, tail = _cheb_fit(t, samples)
        if not tail <= _TABLE_TAIL_TOL:
            raise ConditioningError(
                f"K_iR table over [{lo:.6f}, {hi:.6f}]: Chebyshev tail "
                f"{tail:.1e} above {_TABLE_TAIL_TOL:g}")
        return _ChebTable(lo, hi, coeffs.reshape(-1, *self.u.shape)), tail

    def solve(self, R):
        """Least-squares coefficients (a_1 = 1) of the exact system at R
        and their residual."""
        coeffs, resid = _least_squares(self.system(self.kernels(R)))
        return coeffs, float(resid)


class _Locator:
    """Sign of the a_2 mismatch between two collocation heights.

    ``tables`` holds the kernel tables of ``_matrix_table`` by horocycle
    arguments and bracket; the kernel arguments do not depend on parity,
    so ``hejhal_solve`` hands the locators of both parities one dict.
    The collocation matrices do, so each locator makes its own."""

    def __init__(self, M0, parity, y1, y2, tables=None):
        self.coll1 = _Collocation(y1, M0 + 12, M0, parity)
        self.coll2 = _Collocation(y2, M0 + 12, M0, parity)
        self.tables = {} if tables is None else tables

    def indicator(self, R, systems=None):
        """The a_2 mismatch at R, the two-height agreement of a_1..a_8 and
        the worse residual, from the given collocation matrices of the
        two heights or else exact, solved in one stack."""
        if systems is None:
            systems = np.stack([c.system(c.kernels(R))
                                for c in (self.coll1, self.coll2)])
        (c1, c2), resid = _least_squares(systems)
        return (float(c1[1] - c2[1]), float(np.max(np.abs(c1[:8] - c2[:8]))),
                float(resid.max()))

    def _matrix_table(self, lo, hi):
        """The collocation matrices of both heights over R in [lo, hi], one
        ``_ChebTable`` of (height, M0, M0) per R: ``system`` of the kernel
        tables' Chebyshev coefficients, exact because ``system`` is
        linear.  Also the worse kernel-table tail, and how many kernel
        tables were built (those ``tables`` did not have)."""
        coeffs, tails, built = [], [], 0
        for coll in (self.coll1, self.coll2):
            key = (coll.u_y.tobytes(), lo, hi)
            if key not in self.tables:
                self.tables[key] = coll.table(lo, hi)
                built += 1
            kernels, tail = self.tables[key]
            coeffs.append(coll.system(kernels.coeffs))
            tails.append(tail)
        return _ChebTable(lo, hi, np.stack(coeffs, axis=1)), max(tails), built

    def _table_scan(self, rs):
        """The indicator's values over the grid ``rs``, from one stacked
        solve of both heights' systems at every point, and the indicator
        itself at any R in [rs[0], rs[-1]], both from ``_matrix_table``."""
        table, tail, built = self._matrix_table(rs[0], rs[-1])
        _log.debug("scan of %d points over [%.6f, %.6f] from %d-node "
                   "tables (%d built), Chebyshev tail %.1e, one stacked "
                   "solve of %d systems", len(rs), rs[0], rs[-1],
                   _CHEB_NODES, built, tail, 2 * len(rs))
        coeffs, _ = _least_squares(table(rs))
        return (coeffs[:, 0, 1] - coeffs[:, 1, 1],
                lambda r: self.indicator(r, table(r)))

    @staticmethod
    def refine(indicator, a, b, ends):
        """The zero in [a, b] of ``indicator(R)[0]`` by Illinois regula
        falsi (Dowell-Jarratt 1971) down to ``_ROOT_WIDTH``, or None when
        the signs at a and b do not differ, and the number of indicator
        calls made.  ``ends`` are the values at a and b.  A step bisects
        when the last three did not halve the bracket: at most 4x
        bisection's steps."""
        calls = 0
        ga, gb = ends
        if not ga * gb < 0:
            return None, calls
        side, widths = 0, [np.inf] * 3
        while b - a > _ROOT_WIDTH:
            c = (a * gb - b * ga) / (gb - ga)
            if not a < c < b or b - a > 0.5 * widths[-3]:
                c = 0.5 * (a + b)
            widths.append(b - a)
            gc = indicator(c)[0]
            calls += 1
            if gc == 0.0:
                a = b = c
            elif np.sign(gc) == np.sign(ga):
                a, ga = c, gc
                gb, side = (0.5 * gb if side < 0 else gb), -1
            else:
                b, gb = c, gc
                ga, side = (0.5 * ga if side > 0 else ga), 1
        return 0.5 * (a + b), calls

    def roots(self, rs):
        """(a, b, R, screen) for each sign change [a, b] of the indicator
        over the grid ``rs``, in grid order, computed when it is reached:
        R is refined on the scan's Chebyshev tables from its values at a
        and b, and ``screen`` is the exact ``indicator(R)``, the one exact
        call per sign change.  A grid of fewer than two points has no
        sign change and builds no table."""
        if len(rs) < 2:
            return
        gs, indicator = self._table_scan(rs)
        for i in np.where(np.sign(gs[:-1]) * np.sign(gs[1:]) < 0)[0]:
            a, b = rs[i], rs[i + 1]
            _log.debug("sign flip in [%.6f, %.6f]", a, b)
            r, calls = self.refine(indicator, a, b, (gs[i], gs[i + 1]))
            screen = self.indicator(r)
            _log.debug("table refinement to R=%.12f in %d table indicator "
                       "calls; exact screen: indicator %.1e, height "
                       "agreement %.2e, residual %.2e", r, calls, *screen)
            yield a, b, r, screen


# locator scan step, half width of the confirming window, Chebyshev nodes
# of a scan or window table and the largest tail it may have (24 nodes
# stay below it by more than 100x up to R = 40), root bracket width
# and least-squares cutoff; acceptance bounds on residual, height
# agreement and movement under deeper truncation; a form's K_iR table:
# panels in log u and Chebyshev nodes per panel, the fewest exact points
# that keep its error at the integral's own for R = 9.53 to 39.9
_SCAN_STEP = 0.01
_WINDOW = 1e-4
_CHEB_NODES = 24
_TABLE_TAIL_TOL = 1e-9
_ROOT_WIDTH = 5e-13
_RCOND = 1e-9
_RESIDUAL_TOL = 1e-8
_AGREEMENT_TOL = 1e-6
_STABILITY_TOL = 1e-6
_KAPPA_PANELS = 40
_KAPPA_NODES = 14
# the solver evaluates R below hi + (_SCAN_STEP / 2 + _WINDOW)
_R_MAX = _BESSEL_R_MAX - (_SCAN_STEP / 2 + _WINDOW)


def check_solve(r_brackets, parity, M0, y0):
    """Raise ValueError unless ``hejhal_solve`` takes every bracket of
    ``r_brackets`` with these settings: 0 < lo < hi <= ``_R_MAX``,
    hi - lo <= 2, an integer M0 >= 2, 0 < y0 < sqrt(3)/2, a known parity."""
    if parity not in ("auto", "even", "odd"):
        raise ValueError(f"unknown parity {parity!r}")
    if not isinstance(M0, (int, np.integer)) or M0 < 2:
        raise ValueError(f"M0 = {M0!r} must be an integer >= 2")
    if not 0 < y0 < np.sqrt(3.0) / 2.0:
        raise ValueError(f"y0 = {y0!r} must lie in (0, sqrt(3)/2)")
    for b in r_brackets:
        if len(b) != 2 or not (0 < b[0] < b[1] <= _R_MAX
                               and b[1] - b[0] <= 2.0):
            raise ValueError(f"bad bracket {list(b)}: need 0 < lo < hi <= "
                             f"{_R_MAX:g} and hi - lo <= 2 (split it)")


def hejhal_solve(r_bracket, parity="even", M0=14, y0=0.40) -> MaassForm:
    """Locate one cusp eigenvalue in ``r_bracket`` and return the form.

    parity "even"/"odd" selects the cosine/sine expansion; "auto" tries
    even, then odd.  Each sign change of the scan is refined on the
    scan's table and screened by the exact indicator at that root:
    candidates whose full-system residual or two-height coefficient
    agreement fail the tolerances are rejected, a sign change the exact
    kernel does not show among them.  The returned R is confirmed by an
    independent relocation at truncation M0+8: a sign change over the
    window R +- ``_WINDOW``, refined on the window's tables from its ends
    and screened by the exact mismatch there (its move is recorded in
    ``r_stability``).  If nothing survives,
    NoEigenvalueError carries the reason of every parity and candidate.
    """
    check_solve([r_bracket], parity, M0, y0)
    lo, hi = float(r_bracket[0]), float(r_bracket[1])

    reasons = []
    tables = {}     # the scan tables, shared by both parities

    def reject(reason):
        _log.debug("rejected: %s", reason)
        reasons.append(reason)

    for par in ("even", "odd") if parity == "auto" else (parity,):
        locator = _Locator(M0, par, y1=y0, y2=max(0.28, y0 - 0.05),
                           tables=tables)
        n_reasons = len(reasons)
        for a, b, r_loc, (g, agree, resid) in locator.roots(
                np.arange(lo, hi + _SCAN_STEP / 2, _SCAN_STEP)):
            # the agreement bounds |g|: a flip the exact kernel shows has
            # |g| near rounding at R, one it does not show fails here
            if abs(g) > _AGREEMENT_TOL:
                reject(f"{par}: sign flip in [{a:.6f}, {b:.6f}] not "
                       f"confirmed by the exact kernel (indicator {g:.2e} "
                       f"at R={r_loc:.6f})")
                continue
            cand = f"{par}: candidate R={r_loc:.6f}"
            if resid > _RESIDUAL_TOL or agree > _AGREEMENT_TOL:
                reject(f"{cand} rejected: residual={resid:.2e}, "
                       f"height agreement={agree:.2e}")
                continue
            # confirm at deeper truncation: a sign change over the window,
            # refined on its tables and screened by the exact kernel
            deep = _Locator(M0 + 8, par, y1=min(y0, 0.35), y2=0.28)
            _log.debug("M0+8 confirmation of R=%.12f", r_loc)
            found = next(deep.roots(np.array([r_loc - _WINDOW,
                                              r_loc + _WINDOW])), None)
            if found is None:
                reject(f"{cand} not confirmed at M0+8")
                continue
            r_deep, g_deep = found[2], found[3][0]
            if abs(g_deep) > _AGREEMENT_TOL:
                reject(f"{cand} not confirmed by the exact kernel at M0+8 "
                       f"(indicator {g_deep:.2e} at R={r_deep:.6f})")
                continue
            if abs(r_deep - r_loc) > _STABILITY_TOL:
                reject(f"{cand} unstable under deeper truncation "
                       f"(moved {abs(r_deep - r_loc):.2e})")
                continue
            # the exact screen at r_deep left its kernels in deep.coll1
            coeffs, resid_f = deep.coll1.solve(r_deep)
            form = MaassForm(R=float(r_deep), parity=par, M0=M0 + 8, y0=y0,
                             coefficients=coeffs, residual=resid_f,
                             r_stability=float(abs(r_deep - r_loc)),
                             height_agreement=agree, bracket=(lo, hi))
            pts, wts = _fundamental_domain_grid()
            form.l2_scale = 1.0 / np.sqrt(
                float(np.sum(wts * np.abs(form.value(pts)) ** 2)))
            return form
        if len(reasons) == n_reasons:
            reject(f"{par}: no sign change of the locator")
    raise NoEigenvalueError(f"no verified eigenvalue in [{lo:g}, {hi:g}]: "
                            + "; ".join(reasons))


def hecke_defects(form: MaassForm) -> dict:
    """The worst defect of the Hecke relations at each index k <= M0 that
    one reaches: |a_k - a_m a_n| for k = mn with coprime m, n > 1, and
    |a_k - (a_p^2 - 1)| for k = p^2 with p prime.  A Hecke eigenform has
    every defect 0 (Booker, Strombergsson and Venkatesh 2006 use them to
    certify computed forms); ``{k: defect}`` in increasing k."""
    a = np.concatenate([[np.nan], form.coefficients])       # a[n], a[1] = 1
    out = {}
    for k in range(4, len(a)):
        root = math.isqrt(k)
        defects = [abs(a[k] - a[m] * a[k // m]) for m in range(2, root + 1)
                   if k % m == 0 and math.gcd(m, k // m) == 1]
        if root * root == k and all(root % q for q in range(2, root)):
            defects.append(abs(a[k] - (a[root] ** 2 - 1.0)))
        if defects:
            out[k] = float(max(defects))
    return out


@functools.cache
def _fundamental_domain_grid(nx=64, ny=48, y_cut=4.5):
    """Gauss product grid over the fundamental domain with d(mu) weights."""
    gx, wx = np.polynomial.legendre.leggauss(nx)
    gy, wy = np.polynomial.legendre.leggauss(ny)
    x = 0.5 * gx[:, None]               # [-1/2, 1/2]
    y_lo = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    y = 0.5 * (y_cut - y_lo) * gy + 0.5 * (y_cut + y_lo)
    w = 0.5 * wx[:, None] * (0.5 * (y_cut - y_lo) * wy) / (y * y)
    return (x + 1j * y).ravel(), w.ravel()


# ---------------------------------------------------------------------------


def evaluate(phi: Eigenfunction, point):
    """Evaluate an eigenfunction at a surface point (or batch).

    sphere: (colatitude, longitude); torus: (x1, x2); modular: complex z,
    pulled into the fundamental domain first.
    """
    return phi.evaluator(point)


def _d1_d2(y, h):
    """Value and fourth-order first and second derivatives from 5-point
    stencils: ``y[k + 2]`` is the value displaced by k*h, k in -2..2."""
    d1 = (-y[4] + 8 * y[3] - 8 * y[1] + y[0]) / (12 * h)
    d2 = (-y[4] + 16 * y[3] - 30 * y[2] + 16 * y[1] - y[0]) / (12 * h * h)
    return y[2], d1, d2


def laplace_residual(phi: Eigenfunction, points) -> float:
    """Max relative finite-difference Laplace residual over sample points.

    Five-point fourth-order stencils along each coordinate of the surface
    (colatitude and longitude, torus coordinates, x and y after pullback),
    one ``evaluate`` batch per axis; the residual is scaled by the largest
    term of the eigenvalue equation, with mu floored at 1 (as the step is)
    so a constant mode has a residual too.  A NaN value gives a NaN
    residual.
    """
    h = min(1e-3, 0.05 / np.sqrt(max(phi.mu, 1.0)))
    k = np.arange(-2, 3)[:, None]
    if phi.surface == "modular":
        z = np.array([pullback(complex(p)) for p in points])
        a, b, h = z.real, z.imag, h * z.imag
        at = lambda a_, b_: a_ + 1j * b_
    else:
        a, b = np.asarray(points, dtype=float).T
        at = lambda a_, b_: np.stack(np.broadcast_arrays(a_, b_), axis=-1)
    f0, fa, faa = _d1_d2(evaluate(phi, at(a + k * h, b)), h)
    _, _, fbb = _d1_d2(evaluate(phi, at(a, b + k * h)), h)
    if phi.surface == "sphere":
        lap = faa + fa / np.tan(a) + fbb / np.sin(a) ** 2
    elif phi.surface == "torus":
        lap = faa + fbb
    else:
        lap = b ** 2 * (faa + fbb)
    num = np.abs(-lap - phi.mu * f0)
    den = max(abs(phi.mu), 1.0) * np.maximum(np.abs(f0), 1e-3)
    return float(np.max(num / den))


# ---------------------------------------------------------------------------
# cache files: one JSON record per solved form


def cache_path(cache_dir, bracket, parity, M0):
    name = (f"maass_{parity}_{bracket[0]:.4f}_{bracket[1]:.4f}_M{M0}.json")
    return os.path.join(cache_dir, name)


def find_form(cache_dir, bracket) -> Optional[MaassForm]:
    """The cached form for ``bracket``: either parity, any truncation M0;
    the record with the highest M0 wins.  None when there is none."""
    found = []
    for parity in ("even", "odd"):
        pattern = cache_path(glob.escape(cache_dir), bracket, parity, "*")
        for path in glob.glob(pattern):
            m0 = os.path.basename(path)[:-len(".json")].rpartition("_M")[2]
            if m0.isdigit():
                found.append((int(m0), path))
    if not found:
        return None
    return load_form(max(found, key=lambda f: f[0])[1])


def _atomic_write(path, text):
    """Write ``text`` to ``path`` through a temporary file and a rename.

    The file is created with mode 0o666 less the umask, as ``open`` would.
    """
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _json_text(doc) -> str:
    """The layout of every JSON file the package writes."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _write_json(path, doc):
    _atomic_write(path, _json_text(doc))


def _write_csv(path, header, rows):
    """Write ``header`` and ``rows`` as CSV through ``_atomic_write``:
    floats in round-trip ``.17g`` form, None as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([format(v, ".17g") if isinstance(v, float) else v
                      for v in row] for row in rows)
    _atomic_write(path, buf.getvalue())


def save_form(form: MaassForm, cache_dir) -> str:
    """Write the record of ``form`` into ``cache_dir`` under its
    ``cache_path`` (from its bracket, parity and M0) and return the path.
    The record has one key per ``MaassForm`` field, plus ``format_version``
    and ``surface``."""
    record = {f.name: getattr(form, f.name) for f in fields(MaassForm)}
    record.update(format_version=_CACHE_FORMAT_VERSION, surface="modular",
                  coefficients=form.coefficients.tolist())
    path = cache_path(cache_dir, form.bracket, form.parity, form.M0)
    _write_json(path, record)
    return path


def load_form(path) -> MaassForm:
    """The form of a cache record; CacheRecordError, naming the file, when
    the record is unreadable, not a solved form, or outside the solver's
    residual and stability tolerances."""
    try:
        with open(path) as fh:
            record = json.load(fh)
        form = MaassForm(**{f.name: record[f.name] for f in fields(MaassForm)
                            if f.name in record or f.name not in _OPTIONAL})
        lo, hi = form.bracket or (-np.inf, np.inf)
        problems = [message for ok, message in [
            (record.get("format_version") == _CACHE_FORMAT_VERSION,
             f"format_version {record.get('format_version')!r}"),
            (form.parity in ("even", "odd"), f"parity {form.parity!r}"),
            (np.all(np.isfinite([form.R, form.l2_scale, *form.coefficients])),
             "non-finite R, l2_scale or coefficient"),
            (len(form.coefficients) == form.M0,
             f"{len(form.coefficients)} coefficients for M0 = {form.M0}"),
            (lo <= form.R <= hi, f"R outside the bracket {list(form.bracket)}"),
            (form.residual <= _RESIDUAL_TOL,
             f"residual {form.residual:.2e} above {_RESIDUAL_TOL:g}"),
            (form.r_stability <= _STABILITY_TOL,
             f"r_stability {form.r_stability:.2e} above {_STABILITY_TOL:g}"),
        ] if not ok]
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"{type(exc).__name__}: {exc}"]
    if problems:
        raise CacheRecordError(f"bad cache record {path}: " + "; ".join(problems))
    return form


def as_eigenfunction(form: MaassForm) -> Eigenfunction:
    return Eigenfunction(surface="modular", mu=form.mu, spectral_r=form.R,
                         evaluator=form.value,
                         label=f"maass(R={form.R:.6f},{form.parity})")
