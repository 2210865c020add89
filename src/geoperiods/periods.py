"""Restrictions of eigenfunctions to closed curves and their periods.

A restriction profile samples phi along a mass-one parametrization
t(theta), theta in [0,1).  Fourier coefficients come in two scalings:
``fourier[n] = int_0^1 phi(t(theta)) e^{-2 pi i n theta} dtheta`` (the
mass-one pairing used for coefficient extraction) and
``p[n] = length * fourier[n]`` (the line-element pairing whose n = 0
entry is the plain period).  Parseval ties sum |fourier|^2 to the
mass-one mean square exactly; both scalings are carried so either
convention can be reported.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .eigen import (Eigenfunction, _write_csv, _write_json, evaluate,
                    sphere_harmonic)
from .hypgeom import CircleOrbit, GeodesicOrbit
from .modelrep import DensityTable, SpectralParam, density_b, density_c

__all__ = [
    "SphereEquator",
    "TorusGeodesic",
    "RestrictionProfile",
    "restrict",
    "PeriodTable",
    "periods",
    "extract_coefficients",
    "coefficient_table",
    "coefficient_family",
    "check_band",
    "check_curve",
    "check_t_grid",
    "equator_degrees",
    "equator_norms",
    "StructuralInconsistencyError",
    "AverageBoundReport",
    "AVERAGE_BOUND_LIMIT",
    "check_average_bound",
    "fit_restriction_exponent",
    "period_table_to_csv",
    "report_to_json",
]

_MIN_CIRCLE_RADIUS = 1e-3
_MIN_GEODESIC_LENGTH = 1e-2
_ODD_CONSISTENCY_TOL = 1e-8     # odd circle periods, relative to max|fourier|
TABLE_GRID = 2048               # restriction grid of ``coefficient_table``
EXTRACT_THRESHOLD = 1e-10       # near-zero density cut, x max|density|

# The acceptance inputs.  The averaged-bound geodesic must be long (so the
# measurable coefficient band covers the whole T sweep) AND low-lying (its
# axis tops out near y = 1.6, where cusp forms still have mass; axes that
# climb toward the cusp make every period exponentially small).  The element
# is the word A^4 B^4 in [[2,1],[1,1]] and its transpose: trace 1766, length
# ~14.95.  The circle radius 1.6 plays the same role.
ACCEPTANCE_CURVES = (
    {"kind": "geodesic", "matrix": ((883.0, 1428.0), (546.0, 883.0))},
    {"kind": "circle", "center": (0.2, 1.1), "radius": 1.6})
ACCEPTANCE_BRACKETS = ((9.0, 10.0), (12.0, 12.7), (13.5, 14.2))
ACCEPTANCE_T_GRID = (8, 16, 32, 64)
ACCEPTANCE_SPHERE_DEGREES = (10, 200)           # Y(n, n) for n = 10..200
ACCEPTANCE_LAMBDAS = (40.0, 80.0, 160.0, 320.0)  # |lam| of the density sweeps
ACCEPTANCE_Q_VALUES = (0.5, 1.0 / np.log(2.0), 2.0)
MODEL_CIRCLE_ELEMENT = ((2.0, 0.0), (0.0, 0.5))   # model circle densities


def acceptance_band(t_grid):
    """The coefficient band |n| <= 1.3 max(T) for a T sweep."""
    n_max = int(1.3 * max(t_grid))
    return (-n_max, n_max)


ACCEPTANCE_N_RANGE = acceptance_band(ACCEPTANCE_T_GRID)


class StructuralInconsistencyError(Exception):
    pass


@dataclass(frozen=True)
class SphereEquator:
    """The colatitude pi/2 great circle, parametrized by longitude."""

    surface: ClassVar[str] = "sphere"
    length: ClassVar[float] = 2.0 * np.pi

    def points(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return np.stack([np.full(theta.shape, np.pi / 2.0),
                         2.0 * np.pi * theta], axis=-1)

    def curve_id(self) -> str:
        return "sphere-equator"


@dataclass(frozen=True)
class TorusGeodesic:
    """Coordinate line x2 = offset (axis=0) or x1 = offset (axis=1)."""

    axis: int = 0
    offset: float = 0.0
    surface: ClassVar[str] = "torus"
    length: ClassVar[float] = 1.0

    def points(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        off = np.full(theta.shape, self.offset)
        cols = (theta, off) if self.axis == 0 else (off, theta)
        return np.stack(cols, axis=-1)

    def curve_id(self) -> str:
        return f"torus-line(axis={self.axis}, offset={self.offset:g})"


@dataclass(frozen=True)
class RestrictionProfile:
    """Samples of phi along t(theta) on a uniform power-of-two grid."""

    samples: np.ndarray
    length: float
    resample_change: float
    mu: float
    spectral_r: Optional[float]
    curve_id: str

    @property
    def grid(self) -> int:
        return len(self.samples)

    def mean_square(self) -> float:
        """Mass-one mean of |phi|^2 along the curve."""
        return float(np.mean(np.abs(self.samples) ** 2))

    def norm_restriction(self) -> float:
        """Line-element squared restriction norm: int |phi|^2 d(curve)."""
        return self.length * self.mean_square()

    @classmethod
    def from_samples(cls, samples, length, curve_id="synthetic", mu=np.nan,
                     spectral_r=None):
        samples = np.asarray(samples, dtype=complex)
        n = len(samples)
        if n < 256 or (n & (n - 1)) != 0:
            raise ValueError("profile grid must be a power of two >= 256")
        return cls(samples=samples, length=float(length), resample_change=0.0,
                   mu=mu, spectral_r=spectral_r, curve_id=curve_id)


def check_curve(curve):
    """Raise ValueError for a circle or a geodesic below the size floor
    ``restrict`` supports."""
    if isinstance(curve, CircleOrbit) and curve.radius < _MIN_CIRCLE_RADIUS:
        raise ValueError(f"circle radius {curve.radius:g} below the "
                         f"supported floor {_MIN_CIRCLE_RADIUS:g}")
    if isinstance(curve, GeodesicOrbit) and curve.length < _MIN_GEODESIC_LENGTH:
        raise ValueError(f"geodesic length {curve.length:g} below the "
                         f"supported floor {_MIN_GEODESIC_LENGTH:g}")


def restrict(phi: Eigenfunction, curve, grid=1024) -> RestrictionProfile:
    """Sample phi along the curve's mass-one parametrization.

    The grid is a power of two >= 256.  The profile is also sampled at
    double density, and the relative change of the restriction norm
    between the two grids is recorded as ``resample_change``, not checked.
    """
    if grid < 256 or (grid & (grid - 1)) != 0:
        raise ValueError("grid must be a power of two >= 256")
    if curve.surface != phi.surface:
        raise ValueError(f"curve lives on {curve.surface}, "
                         f"eigenfunction on {phi.surface}")
    check_curve(curve)

    def sample(n):
        theta = np.arange(n) / n
        return np.asarray(evaluate(phi, curve.points(theta)), dtype=complex)

    s1 = sample(grid)
    s2 = sample(2 * grid)
    p1 = np.mean(np.abs(s1) ** 2)
    p2 = np.mean(np.abs(s2) ** 2)
    change = abs(p2 - p1) / max(abs(p2), 1e-300)
    return RestrictionProfile(
        samples=s2, length=float(curve.length), resample_change=float(change),
        mu=phi.mu, spectral_r=phi.spectral_r, curve_id=curve.curve_id())


@dataclass
class PeriodTable:
    """Fourier periods of one restriction, plus extracted coefficients.

    ``p[n] = length * fourier[n]``.  ``a`` is filled by
    ``extract_coefficients`` only where the model density is above
    threshold; skipped indices are recorded in ``flags`` rather than
    silently zeroed.
    """

    curve_id: str
    mu: float
    spectral_r: Optional[float]
    length: float
    n_values: np.ndarray
    fourier: np.ndarray
    p: np.ndarray
    mean_square: float
    density: Optional[DensityTable] = None
    a: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)

    def plancherel_defect(self) -> float:
        """Relative defect of sum |fourier|^2 against the mass-one mean
        square (the two sides of the orbit Parseval identity)."""
        total = float(np.sum(np.abs(self.fourier) ** 2))
        return abs(total - self.mean_square) / max(self.mean_square, 1e-300)

    def partial_sum(self, T) -> float:
        return float(sum(abs(v) ** 2 for n, v in self.a.items()
                         if abs(n) <= T))


def check_band(n_range, grid=TABLE_GRID):
    """Raise ValueError unless ``grid`` oversamples ``n_range`` 4x."""
    n_max = max(abs(int(n_range[0])), abs(int(n_range[1])))
    if grid < 4 * max(n_max, 1):
        raise ValueError(f"profile grid {grid} too coarse for |n| <= {n_max}")


def periods(profile: RestrictionProfile, n_range) -> PeriodTable:
    """Fourier coefficients of the profile for n in ``n_range``.

    Uses the FFT of the stored samples; the grid must oversample the
    requested range by at least 4x.
    """
    n = profile.grid
    check_band(n_range, n)
    c = np.fft.fft(profile.samples) / n
    ns = np.arange(int(n_range[0]), int(n_range[1]) + 1)
    fourier = c[np.mod(ns, n)]
    return PeriodTable(curve_id=profile.curve_id, mu=profile.mu,
                       spectral_r=profile.spectral_r, length=profile.length,
                       n_values=ns, fourier=fourier,
                       p=profile.length * fourier,
                       mean_square=profile.mean_square())


def extract_coefficients(table: PeriodTable,
                         density: DensityTable) -> PeriodTable:
    """Divide mass-one periods by model-density entries.

    Entries with |density| below ``EXTRACT_THRESHOLD`` x max|density| are
    flagged "near-zero model density" and skipped.  For circle densities
    the odd periods must vanish along with the odd density entries; a
    violation raises StructuralInconsistencyError.
    """
    if table.spectral_r is not None:
        lam_table = 2.0 * table.spectral_r
        if abs(abs(density.param.lam) - lam_table) > 1e-9 * max(1.0, lam_table):
            raise ValueError(
                f"density parameter |lam|={abs(density.param.lam):g} does not "
                f"match the restriction's spectral parameter {lam_table:g}")
    cut = EXTRACT_THRESHOLD * density.max_abs()
    scale = float(np.max(np.abs(table.fourier))) + 1e-300
    a = {}
    flags = {}
    for i, n in enumerate(table.n_values):
        n = int(n)
        try:
            d = density.entry(n)
        except KeyError:
            flags[n] = "outside density table"
            continue
        f = table.fourier[i]
        if density.kind == "circle-c" and n % 2 != 0:
            if abs(f) > _ODD_CONSISTENCY_TOL * scale:
                raise StructuralInconsistencyError(
                    f"odd period p_{n} = {abs(f):.3e} does not vanish while "
                    "the circle density does")
            flags[n] = "odd index (structurally zero)"
            continue
        if abs(d) < cut:
            flags[n] = "near-zero model density"
            continue
        a[n] = f / d
    table.density = density
    table.a = a
    table.flags = flags
    return table


def coefficient_table(phi: Eigenfunction, curve, n_range) -> PeriodTable:
    """Periods of a modular eigenfunction along a closed geodesic or a
    circle, with coefficients extracted against the curve's model density.

    The one chain from (form, curve) to a coefficient table: ``restrict``
    at ``TABLE_GRID``, ``periods`` over ``n_range``, then ``density_b`` at
    q = 1/ln a for a GeodesicOrbit or ``density_c`` of the radius element
    for a CircleOrbit, and ``extract_coefficients``.
    """
    if not isinstance(curve, (GeodesicOrbit, CircleOrbit)):
        raise ValueError(f"no model density for curve {curve.curve_id()}")
    table = periods(restrict(phi, curve, grid=TABLE_GRID), n_range)
    par = SpectralParam.from_r(phi.spectral_r)
    if isinstance(curve, GeodesicOrbit):
        density = density_b(par, curve.q, n_range)
    else:
        density = density_c(par, curve.g, n_range)
    return extract_coefficients(table, density)


@dataclass(frozen=True)
class AverageBoundReport:
    t_grid: tuple
    ratios: dict          # label -> {T: ratio}
    empirical_constant: float
    max_growth_t: float
    max_growth_forms: float
    passed: bool


AVERAGE_BOUND_LIMIT = 3.0   # largest max/min of the ratios that passes


def check_t_grid(t_grid, n_range):
    """Raise ValueError unless ``check_average_bound`` can grade ``t_grid``
    on coefficients over ``n_range``: the partial sums up to |n| <= T
    need the whole of [-T, T] inside the band."""
    if len(t_grid) < 3:
        raise ValueError("need at least three T values")
    if any(t <= 0 for t in t_grid):
        raise ValueError(f"T values {list(t_grid)} must be positive")
    reach = min(-int(n_range[0]), int(n_range[1]))
    if max(t_grid) > reach:
        raise ValueError(f"T = {max(t_grid):g} reaches past the coefficient "
                         f"band |n| <= {reach} of n_range {list(n_range)}")


def check_average_bound(tables, t_grid, growth_limit=AVERAGE_BOUND_LIMIT):
    """Ratios sum_{|n|<=T} |a_n|^2 / max(T, sqrt(mu)) across a family.

    ``max_growth_t`` is the largest max/min of one form's positive ratios
    along T, ``max_growth_forms`` the largest max/min across forms at one
    T.  Fails (passed=False) when either exceeds ``growth_limit``: a
    spread of that size signals a normalization error upstream.
    """
    tables = list(tables)
    if len(tables) < 2:
        raise ValueError("need at least two period tables")
    ratios = {}
    for tb in tables:
        check_t_grid(t_grid, (tb.n_values[0], tb.n_values[-1]))
        label = f"{tb.curve_id}|mu={tb.mu:.4g}"
        row = {}
        for t in t_grid:
            row[float(t)] = tb.partial_sum(t) / max(float(t), np.sqrt(tb.mu))
        ratios[label] = row

    def spread(seq):
        seq = [s for s in seq if s > 0]
        return max(seq) / min(seq) if seq else 1.0

    rows = list(ratios.values())
    g_t = max(spread(row.values()) for row in rows)
    g_f = max(spread(row[t] for row in rows) for t in map(float, t_grid))
    all_vals = [v for row in rows for v in row.values() if v > 0]
    return AverageBoundReport(
        t_grid=tuple(float(t) for t in t_grid), ratios=ratios,
        empirical_constant=max(all_vals) if all_vals else np.nan,
        max_growth_t=g_t, max_growth_forms=g_f,
        passed=bool(g_t <= growth_limit and g_f <= growth_limit))


def coefficient_family(phis, curves, n_range, t_grid,
                       growth_limit=AVERAGE_BOUND_LIMIT):
    """``coefficient_table`` of every (curve, form) pair and the
    ``check_average_bound`` report of each curve with two or more tables.
    Returns ``(tables, reports)``: tables curve by curve, forms in order;
    reports keyed by curve id."""
    tables = [coefficient_table(phi, curve, n_range)
              for curve in curves for phi in phis]
    by_curve = {}
    for tb in tables:
        by_curve.setdefault(tb.curve_id, []).append(tb)
    reports = {cid: check_average_bound(tbs, t_grid, growth_limit)
               for cid, tbs in by_curve.items() if len(tbs) >= 2}
    return tables, reports


def equator_degrees(degrees):
    """The degrees n = ``degrees[0]`` .. ``degrees[1]`` of ``equator_norms``;
    ValueError unless their Y(n, n) give ``fit_restriction_exponent`` the
    points it needs."""
    ns = range(int(degrees[0]), int(degrees[1]) + 1)
    _check_fit_span([sphere_harmonic(n, n).mu for n in ns])
    return ns


def equator_norms(degrees):
    """Rows (n, mu, squared equator norm) of Y(n, n) over ``equator_degrees``,
    and their ``fit_restriction_exponent``."""
    equator = SphereEquator()
    rows = []
    for n in equator_degrees(degrees):
        phi = sphere_harmonic(n, n)
        rows.append((n, phi.mu,
                     restrict(phi, equator, grid=1024).norm_restriction()))
    return rows, fit_restriction_exponent([(mu, p) for _, mu, p in rows])


def _check_fit_span(mus):
    """Raise ValueError unless ``mus`` has five or more positive values
    spanning a factor of 10, as ``fit_restriction_exponent`` needs."""
    if len(mus) < 5:
        raise ValueError("need at least five positive (mu, p) pairs")
    if not np.min(mus) > 0 or np.max(mus) / np.min(mus) < 10.0:
        raise ValueError("mu values must be positive and span a factor of 10")


def fit_restriction_exponent(pairs):
    """Least-squares slope of log p against log mu.

    ``pairs`` is a list of (mu, p); needs >= 5 points spanning a factor
    >= 10 in mu.  Returns (exponent, constant, residual) with constant =
    exp(intercept) and residual the max absolute log-misfit.
    """
    pairs = [(float(m), float(p)) for m, p in pairs if p > 0]
    mus = np.array([m for m, _ in pairs])
    ps = np.array([p for _, p in pairs])
    _check_fit_span(mus)
    lx = np.log(mus)
    ly = np.log(ps)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return float(slope), float(np.exp(intercept)), resid


# ---------------------------------------------------------------------------


def period_table_to_csv(table: PeriodTable, path):
    rows = []
    for n, p, f in zip(table.n_values.tolist(), table.p, table.fourier):
        an = table.a.get(n)
        a = (None,) * 3 if an is None else (an.real, an.imag, abs(an) ** 2)
        rows.append([n, p.real, p.imag, f.real, f.imag, *a,
                     table.flags.get(n, "")])
    _write_csv(path, ["n", "p_re", "p_im", "fourier_re", "fourier_im",
                      "a_re", "a_im", "abs_a2", "flag"], rows)


def report_to_json(path, surface, tables, reports=None, extra=None):
    """Structured JSON summary of a sweep; ``reports`` maps a curve id to
    its ``AverageBoundReport``."""
    doc = {
        "surface": surface,
        "tables": [
            {
                "curve": tb.curve_id,
                "mu": tb.mu,
                "spectral_r": tb.spectral_r,
                "length": tb.length,
                "restriction_norm": tb.length * tb.mean_square,
                "p0": [tb.p[list(tb.n_values).index(0)].real,
                       tb.p[list(tb.n_values).index(0)].imag]
                if 0 in tb.n_values else None,
                "extracted": sorted(int(n) for n in tb.a),
            }
            for tb in tables
        ],
    }
    if reports is not None:
        doc["reports"] = {cid: asdict(r) for cid, r in reports.items()}
    if extra:
        doc.update(extra)
    _write_json(path, doc)
