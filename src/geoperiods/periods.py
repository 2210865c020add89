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

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .eigen import Eigenfunction, _atomic_write, evaluate
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
    "StructuralInconsistencyError",
    "AverageBoundReport",
    "check_average_bound",
    "fit_restriction_exponent",
    "period_table_to_csv",
    "report_to_json",
]

_MIN_CIRCLE_RADIUS = 1e-3
_MIN_GEODESIC_LENGTH = 1e-2


class StructuralInconsistencyError(Exception):
    pass


@dataclass(frozen=True)
class SphereEquator:
    """The colatitude pi/2 great circle, parametrized by longitude."""

    surface: str = "sphere"
    length: float = 2.0 * np.pi

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
    surface: str = "torus"
    length: float = 1.0

    def points(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        off = np.full(theta.shape, self.offset)
        cols = (theta, off) if self.axis == 0 else (off, theta)
        return np.stack(cols, axis=-1)

    def curve_id(self) -> str:
        return f"torus-line(axis={self.axis}, offset={self.offset:g})"


def _curve_surface(curve) -> str:
    if isinstance(curve, (GeodesicOrbit, CircleOrbit)):
        return "modular"
    return curve.surface


@dataclass(frozen=True)
class RestrictionProfile:
    """Samples of phi along t(theta) on a uniform power-of-two grid."""

    curve: object
    phi: Optional[Eigenfunction]
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
        return cls(curve=None, phi=None, samples=samples, length=float(length),
                   resample_change=0.0, mu=mu, spectral_r=spectral_r,
                   curve_id=curve_id)


def restrict(phi: Eigenfunction, curve, grid=1024) -> RestrictionProfile:
    """Sample phi along the curve's mass-one parametrization.

    The grid is a power of two >= 256; the profile is also sampled at
    double density and the change of the restriction norm recorded
    (stability < 1e-6 relative is asserted downstream, not here).
    """
    if grid < 256 or (grid & (grid - 1)) != 0:
        raise ValueError("grid must be a power of two >= 256")
    if _curve_surface(curve) != phi.surface:
        raise ValueError(f"curve lives on {_curve_surface(curve)}, "
                         f"eigenfunction on {phi.surface}")
    if isinstance(curve, CircleOrbit) and curve.radius < _MIN_CIRCLE_RADIUS:
        raise ValueError("circle radius below the supported floor")
    if isinstance(curve, GeodesicOrbit) and curve.length < _MIN_GEODESIC_LENGTH:
        raise ValueError("geodesic length below the supported floor")

    def sample(n):
        theta = np.arange(n) / n
        return np.asarray(evaluate(phi, curve.points(theta)), dtype=complex)

    s1 = sample(grid)
    s2 = sample(2 * grid)
    p1 = np.mean(np.abs(s1) ** 2)
    p2 = np.mean(np.abs(s2) ** 2)
    change = abs(p2 - p1) / max(abs(p2), 1e-300)
    return RestrictionProfile(
        curve=curve, phi=phi, samples=s2, length=float(curve.length),
        resample_change=float(change), mu=phi.mu,
        spectral_r=phi.spectral_r,
        curve_id=curve.curve_id() if hasattr(curve, "curve_id") else str(curve))


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


def periods(profile: RestrictionProfile, n_range) -> PeriodTable:
    """Fourier coefficients of the profile for n in ``n_range``.

    Uses the FFT of the stored samples; the grid must oversample the
    requested range by at least 4x.
    """
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    n_max = max(abs(n_lo), abs(n_hi))
    n = profile.grid
    if n < 4 * max(n_max, 1):
        raise ValueError(f"profile grid {n} too coarse for |n| <= {n_max}")
    c = np.fft.fft(profile.samples) / n
    ns = np.arange(n_lo, n_hi + 1)
    fourier = c[np.mod(ns, n)]
    return PeriodTable(curve_id=profile.curve_id, mu=profile.mu,
                       spectral_r=profile.spectral_r, length=profile.length,
                       n_values=ns, fourier=fourier,
                       p=profile.length * fourier,
                       mean_square=profile.mean_square())


def extract_coefficients(table: PeriodTable, density: DensityTable,
                         threshold=1e-12, odd_consistency_tol=1e-8) -> PeriodTable:
    """Divide mass-one periods by model-density entries.

    Entries with |density| below ``threshold`` x max|density| are flagged
    "near-zero model density" and skipped.  For circle densities the odd
    periods must vanish along with the odd density entries; a violation
    raises StructuralInconsistencyError.
    """
    if table.spectral_r is not None:
        lam_table = 2.0 * table.spectral_r
        if abs(abs(density.param.lam) - lam_table) > 1e-9 * max(1.0, lam_table):
            raise ValueError(
                f"density parameter |lam|={abs(density.param.lam):g} does not "
                f"match the restriction's spectral parameter {lam_table:g}")
    cut = threshold * density.max_abs()
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
            if abs(f) > odd_consistency_tol * scale:
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


def coefficient_table(phi: Eigenfunction, curve, n_range,
                      threshold=1e-10) -> PeriodTable:
    """Periods of a modular eigenfunction along a closed geodesic or a
    circle, with coefficients extracted against the curve's model density.

    The one chain from (form, curve) to a coefficient table: ``restrict``
    at grid 2048, ``periods`` over ``n_range``, then ``density_b`` at
    q = 1/ln a for a GeodesicOrbit or ``density_c`` of the radius element
    for a CircleOrbit, and ``extract_coefficients``.
    """
    if not isinstance(curve, (GeodesicOrbit, CircleOrbit)):
        raise ValueError(f"no model density for curve {curve.curve_id()}")
    table = periods(restrict(phi, curve, grid=2048), n_range)
    par = SpectralParam.from_r(phi.spectral_r)
    if isinstance(curve, GeodesicOrbit):
        density = density_b(par, curve.q, n_range)
    else:
        density = density_c(par, curve.g, n_range)
    return extract_coefficients(table, density, threshold=threshold)


@dataclass(frozen=True)
class AverageBoundReport:
    t_grid: tuple
    ratios: dict          # label -> {T: ratio}
    empirical_constant: float
    max_growth_t: float
    max_growth_forms: float
    variation_t: float
    passed: bool

    def summary_lines(self):
        lines = [f"empirical constant sup ratio = {self.empirical_constant:.4g}",
                 f"max growth along T: {self.max_growth_t:.3g}x, across "
                 f"forms: {self.max_growth_forms:.3g}x"]
        for label, row in self.ratios.items():
            cells = ", ".join(f"T={t:g}: {r:.4g}" for t, r in row.items())
            lines.append(f"  {label}: {cells}")
        return lines


def check_average_bound(tables, t_grid, growth_limit=3.0) -> AverageBoundReport:
    """Ratios sum_{|n|<=T} |a_n|^2 / max(T, sqrt(mu)) across a family.

    Fails (passed=False) when the ratio grows by more than
    ``growth_limit`` along the T-axis of any form or across forms at any
    fixed T: growth of that size signals a normalization error upstream.
    """
    tables = list(tables)
    if len(tables) < 2:
        raise ValueError("need at least two period tables")
    if len(t_grid) < 3:
        raise ValueError("need at least three T values")
    ratios = {}
    for tb in tables:
        label = f"{tb.curve_id}|mu={tb.mu:.4g}"
        row = {}
        for t in t_grid:
            row[float(t)] = tb.partial_sum(t) / max(float(t), np.sqrt(tb.mu))
        ratios[label] = row

    def growth(seq):
        seq = [s for s in seq if s > 0]
        if len(seq) < 2:
            return 1.0
        g = 1.0
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                g = max(g, seq[j] / seq[i])
        return g

    g_t = max(growth(list(row.values())) for row in ratios.values())
    rows = list(ratios.values())
    g_f = 1.0
    for t in map(float, t_grid):
        col = [row[t] for row in rows if row[t] > 0]
        if len(col) >= 2:
            g_f = max(g_f, max(col) / min(col))
    all_vals = [v for row in ratios.values() for v in row.values() if v > 0]
    var_t = max((max(row.values()) / min(v for v in row.values() if v > 0))
                for row in ratios.values())
    return AverageBoundReport(
        t_grid=tuple(float(t) for t in t_grid), ratios=ratios,
        empirical_constant=max(all_vals) if all_vals else np.nan,
        max_growth_t=g_t, max_growth_forms=g_f,
        variation_t=var_t,
        passed=(g_t <= growth_limit and g_f <= growth_limit))


def fit_restriction_exponent(pairs):
    """Least-squares slope of log p against log mu.

    ``pairs`` is a list of (mu, p); needs >= 5 points spanning a factor
    >= 10 in mu.  Returns (exponent, constant, residual) with constant =
    exp(intercept) and residual the max absolute log-misfit.
    """
    pairs = [(float(m), float(p)) for m, p in pairs if p > 0]
    if len(pairs) < 5:
        raise ValueError("need at least five positive (mu, p) pairs")
    mus = np.array([m for m, _ in pairs])
    ps = np.array([p for _, p in pairs])
    if np.max(mus) / np.min(mus) < 10.0:
        raise ValueError("mu values must span at least a factor of 10")
    lx = np.log(mus)
    ly = np.log(ps)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return float(slope), float(np.exp(intercept)), resid


# ---------------------------------------------------------------------------


def period_table_to_csv(table: PeriodTable, path):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["n", "p_re", "p_im", "fourier_re", "fourier_im",
                "a_re", "a_im", "abs_a2", "flag"])
    for i, n in enumerate(table.n_values):
        n = int(n)
        an = table.a.get(n)
        w.writerow([
            n,
            format(table.p[i].real, ".17g"), format(table.p[i].imag, ".17g"),
            format(table.fourier[i].real, ".17g"),
            format(table.fourier[i].imag, ".17g"),
            "" if an is None else format(an.real, ".17g"),
            "" if an is None else format(an.imag, ".17g"),
            "" if an is None else format(abs(an) ** 2, ".17g"),
            table.flags.get(n, ""),
        ])
    _atomic_write(path, buf.getvalue())


def report_to_json(path, surface, tables, report: AverageBoundReport = None,
                   fits=None, extra=None):
    """Structured JSON summary of a sweep."""
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
    if report is not None:
        doc["t_grid"] = list(report.t_grid)
        doc["ratios"] = {k: {str(t): v for t, v in row.items()}
                         for k, row in report.ratios.items()}
        doc["empirical_constant"] = report.empirical_constant
        doc["max_growth_t"] = report.max_growth_t
        doc["max_growth_forms"] = report.max_growth_forms
    if fits:
        doc["fits"] = fits
    if extra:
        doc.update(extra)
    _atomic_write(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")
