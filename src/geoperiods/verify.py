"""The acceptance checks, as callables shared by pytest and the CLI.

Each check returns a CheckResult with a pass flag, timing against its
budget, and a detail string.  Checks that need solved cusp forms take a
cache directory; with ``solve_missing=False`` they are skipped (not
failed) when the cache is absent.  The acceptance inputs live in
``periods``, so ``solve`` and ``sweep`` load this module only to check
the checks or tolerances that a config names.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

from . import eigen, quad
from .hypgeom import GroupElement, orbit_from_spec
from .modelrep import (C1_NORM_SLOPE, SpectralParam, check_regime_envelopes,
                       circle_edge_constant, density_b, density_c,
                       fit_regime_constants, k_fixed_functional,
                       model_functional, test_vector, vector_norm_sq)
from .specfun import table_integral
from .periods import (ACCEPTANCE_BRACKETS, ACCEPTANCE_CURVES,
                      ACCEPTANCE_LAMBDAS, ACCEPTANCE_Q_VALUES,
                      ACCEPTANCE_SPHERE_DEGREES, ACCEPTANCE_T_GRID,
                      AVERAGE_BOUND_LIMIT, MODEL_CIRCLE_ELEMENT, TABLE_GRID,
                      RestrictionProfile, SphereEquator, TorusGeodesic,
                      acceptance_band, coefficient_family, equator_norms,
                      extract_coefficients, periods as fourier_periods,
                      restrict)

__all__ = ["CheckResult", "ALL_CHECKS", "run_checks", "overrides"]

# criterion 06's bound on the Hecke defects through index mn = 10: the
# committed forms meet it by a factor of 17 or more
HECKE_TOL = 1e-6


@dataclass
class CheckResult:
    name: str
    passed: bool
    skipped: bool = False
    elapsed: float = 0.0
    budget: float = np.inf
    details: str = ""
    extras: dict = field(default_factory=dict)

    def line(self) -> str:
        if self.skipped:
            status = "SKIP"
        else:
            status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name} ({self.elapsed:.1f}s / "
                f"budget {self.budget:.0f}s) {self.details}")


ALL_CHECKS = []     # (name, check, needs_cache), in definition order


def _check(name, budget, brackets=None):
    """Register a check with its default time ``budget``; a pass that
    overruns the budget fails, and so does a check that raises.  The
    function returns ``(passed, details, extras)``, or None to be skipped.
    With ``brackets`` it gets ``forms`` (None if one is missing and
    ``solve_missing`` is false) in place of ``cache_dir`` and
    ``solve_missing``."""
    def register(fn):
        @functools.wraps(fn)
        def check(*, budget=budget, **kwargs):
            t0 = time.perf_counter()
            try:
                if brackets is not None:
                    kwargs["forms"] = eigen.cached_forms(
                        kwargs.pop("cache_dir", None), brackets,
                        kwargs.pop("solve_missing", True))
                out = fn(**kwargs)
            except Exception as exc:  # a crashed check fails; the run goes on
                out = False, f"crashed: {type(exc).__name__}: {exc}", {}
            elapsed = time.perf_counter() - t0
            passed, details, extras = out or (
                True, "no cached forms and solving disabled", {})
            if passed and elapsed > budget:
                passed = False
                details += f"; OVER BUDGET ({elapsed:.1f}s > {budget:.0f}s)"
            return CheckResult(name=name, passed=passed, skipped=out is None,
                               elapsed=elapsed, budget=budget, details=details,
                               extras=extras)

        ALL_CHECKS.append((name, check, brackets is not None))
        return check
    return register


# --------------------------------------------------------------- check 1

@_check("gamma-formula-vs-quadrature", 120.0)
def check_gamma_formula(rel_tol=1e-6, floor=3e-8):
    """Closed Gamma form of the geodesic density against direct quadrature
    of the functional on the rotation-invariant vector, one
    ``k_fixed_functional`` lattice per table.

    Entries whose closed-form magnitude sits below ``floor`` cannot be
    checked relatively in double precision (the quadrature's attainable
    absolute accuracy is ~1e-14 of the integrand scale); those entries
    are required to quadrature out below 1e-7 in absolute value instead.
    """
    worst_rel = 0.0
    worst_at = None
    floor_bad = 0
    n_rel = n_floor = 0
    for lam_abs in (10.0, 20.0, 40.0, 80.0):
        par = SpectralParam(lam=1j * lam_abs)
        for q in ACCEPTANCE_Q_VALUES:
            table = density_b(par, q, (0, 200))
            direct = k_fixed_functional(par, table.meta["lattice_step"],
                                        table.n_values)
            for n, closed, d in zip(table.n_values, table.entries, direct):
                if abs(closed) >= floor:
                    rel = abs(closed - d) / abs(closed)
                    n_rel += 1
                    if rel > worst_rel:
                        worst_rel, worst_at = rel, (lam_abs, q, int(n))
                else:
                    # below the double-precision floor: checked absolutely
                    n_floor += 1
                    if abs(d) > 1e-7:
                        floor_bad += 1
    passed = worst_rel <= rel_tol and floor_bad == 0
    details = (f"{n_rel} entries checked at rel {rel_tol:g} "
               f"(worst {worst_rel:.2e} at {worst_at}), {n_floor} below the "
               f"double-precision floor checked absolutely"
               + ("" if floor_bad == 0 else f", {floor_bad} floor violations"))
    return passed, details, {"worst_rel": worst_rel}


# --------------------------------------------------------------- check 2

def _table_integral_quadrature(s, t):
    """Independent oracle: int_R |x|^s (1+x^2)^t dx for arrays of pairs,
    by the tanh-sinh rule on [0, 1] and, after x = 1/u, on [1, inf), each
    half-line one batch over the pairs."""
    p = -s - 2.0 - 2.0 * t      # x = 1/u: integrand u^p (1+u^2)^t

    def f01(x, rows):
        return np.exp(s[rows, None] * np.log(x)
                      + t[rows, None] * np.log1p(x * x))

    def finf(u, rows):
        return np.exp(p[rows, None] * np.log(u)
                      + t[rows, None] * np.log1p(u * u))

    r1 = quad.integrate_adaptive(f01, 0.0, 1.0, singular_exponent=s.real,
                                 rel_tol=1e-11, batch=s.size)
    r2 = quad.integrate_adaptive(finf, 0.0, 1.0, singular_exponent=p.real,
                                 rel_tol=1e-11, batch=s.size)
    return 2.0 * (r1.value + r2.value)


@_check("table-integral-identity", 30.0)
def check_table_integral(n_samples=100, seed=20260810, rel_tol=1e-8):
    """The closed form of ``table_integral`` at s = 0, t = -1 against pi,
    and at ``n_samples`` random pairs against the tanh-sinh oracle, all
    pairs in one closed-form call and one oracle batch per half-line."""
    exact = table_integral(0.0, -1.0)
    worst = abs(exact - np.pi) / np.pi
    worst_at = "s=0,t=-1"
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_samples):
        s = complex(rng.uniform(-0.9, 2.0), rng.uniform(-5.0, 5.0))
        t = complex(rng.uniform(-4.0, -(s.real + 1.0) / 2.0 - 0.25),
                    rng.uniform(-5.0, 5.0))
        pairs.append((s, t))
    s_and_t = np.array(pairs, dtype=complex).reshape(-1, 2).T
    closed = table_integral(*s_and_t)
    ref = _table_integral_quadrature(*s_and_t)
    for (s, t), c, r in zip(pairs, closed, ref):
        rel = abs(c - r) / abs(r)
        if rel > worst:
            worst, worst_at = rel, f"s={s:.3f},t={t:.3f}"
    details = f"{len(pairs) + 1} pairs, worst rel {worst:.2e} at {worst_at}"
    return worst <= rel_tol, details, {"worst_rel": worst}


# --------------------------------------------------------------- check 3

@_check("geodesic-three-regime-envelopes", 60.0)
def check_geodesic_envelopes(slack=2.0):
    """Bulk 1/|lam|, transition 1/sqrt|lam|, tail e^{-sigma/10} envelope
    constants fitted at |lam| = 80 must cover |lam| = 160 within 2x."""
    worst = -np.inf
    details = []
    for q in ACCEPTANCE_Q_VALUES:
        n_max = max(400, int(2.2 * 160.0 / (2.0 * np.pi * q)) + 50)
        fit = fit_regime_constants(
            density_b(SpectralParam(lam=80j), q, (-n_max, n_max)))
        chk = check_regime_envelopes(
            density_b(SpectralParam(lam=160j), q, (-n_max, n_max)), fit,
            slack=slack)
        w = max(chk["worst_log_excess"].values())
        worst = max(worst, w)
        details.append(f"q={q:.3g}: slack used {np.exp(w):.2f}x")
    passed = worst <= np.log(slack)
    return passed, "; ".join(details), {"worst_log_excess": worst}


# --------------------------------------------------------------- check 4

def _median(a):
    """``np.median(a)``, the same double, without the ``numpy.ma`` import
    that ``np.median`` makes."""
    a = np.sort(a)
    h = a.size // 2
    return a[h] if a.size % 2 else (a[h - 1] + a[h]) / 2


@_check("circle-regime-exponents", 300.0)
def check_circle_regimes():
    """Circle density: bulk |c|^2 slope -1 +- 0.1 in |lam|, transition
    plateau slope -2/3 +- 0.15, and >= 1e3 drop per octave past the edge."""
    g = GroupElement(MODEL_CIRCLE_ELEMENT)
    c_edge = circle_edge_constant(g)
    lams = ACCEPTANCE_LAMBDAS
    bulk_med, trans_max, drops = [], [], []
    for lam_abs in lams:
        n_edge = c_edge * lam_abs / (2.0 * np.pi)
        n_max = int(np.ceil(2.6 * n_edge)) + 8
        table = density_c(SpectralParam(lam=1j * lam_abs), g, (0, n_max))
        a2 = np.abs(table.entries) ** 2
        nb = int(0.8 * n_edge)
        bulk_med.append(_median(a2[2:nb:2]))
        lo, hi = int(0.9 * n_edge), int(np.ceil(1.1 * n_edge))
        trans_max.append(np.max(a2[lo:hi + 1]))
        n0 = int(np.ceil(1.1 * n_edge)) + 2
        n0 += n0 % 2
        drops.append(a2[n0] / max(a2[2 * n0], 1e-300))
    s_bulk = float(np.polyfit(np.log(lams), np.log(bulk_med), 1)[0])
    s_trans = float(np.polyfit(np.log(lams), np.log(trans_max), 1)[0])
    min_drop = min(drops)
    passed = (abs(s_bulk + 1.0) <= 0.1 and abs(s_trans + 2.0 / 3.0) <= 0.15
              and min_drop >= 1e3)
    details = (f"bulk slope {s_bulk:.3f} (want -1+-0.1), transition slope "
               f"{s_trans:.3f} (want -0.667+-0.15), min octave drop "
               f"{min_drop:.1e} (want >= 1e3)")
    return passed, details, {"bulk_slope": s_bulk, "transition_slope": s_trans}


# --------------------------------------------------------------- check 5

@_check("sphere-equator-sharpness", 60.0)
def check_sphere_sharpness():
    _, (slope, const, resid) = equator_norms(ACCEPTANCE_SPHERE_DEGREES)
    passed = abs(slope - 0.25) <= 0.02
    details = (f"log p vs log mu slope {slope:.4f} (want 0.25+-0.02), "
               f"constant {const:.3g}, max log-misfit {resid:.2e}")
    return passed, details, {"slope": slope}


# --------------------------------------------------------------- check 6

@_check("plancherel-identity", 120.0, ACCEPTANCE_BRACKETS[:1])
def check_plancherel(forms, tol=1e-6):
    """Parseval along torus, sphere and (when the form is cached) modular
    curves, and the form's Hecke relations at indices mn <= 10; without
    the form only the modular part is skipped."""
    profiles = [
        ("torus(3,4)", restrict(eigen.torus_mode((3, 4)), TorusGeodesic())),
        ("sphere Y(20,13)", restrict(eigen.sphere_harmonic(20, 13),
                                     SphereEquator())),
    ]
    if forms is not None:
        phi = eigen.as_eigenfunction(forms[0])
        geo, circ = map(orbit_from_spec, ACCEPTANCE_CURVES)
        profiles += [("modular geodesic", restrict(phi, geo, grid=TABLE_GRID)),
                     ("modular circle", restrict(phi, circ, grid=TABLE_GRID))]
    worst = 0.0
    rows = []
    for label, prof in profiles:
        table = fourier_periods(prof, (-prof.grid // 4, prof.grid // 4))
        defect = table.plancherel_defect()
        worst = max(worst, defect)
        rows.append(f"{label}: defect {defect:.2e}")
    if forms is None:
        rows.append("modular part skipped (no cache)")
        return worst <= tol, "; ".join(rows), {"worst_defect": worst}
    hecke = max(d for k, d in eigen.hecke_defects(forms[0]).items() if k <= 10)
    rows.append(f"Hecke mn <= 10: worst defect {hecke:.2e} (< {HECKE_TOL:g})")
    return (worst <= tol and hecke < HECKE_TOL, "; ".join(rows),
            {"worst_defect": worst, "worst_hecke_defect": hecke})


# --------------------------------------------------------------- check 7

def planted_basis(rng, dens, n_plants):
    """Criterion 07's plants on the band where dividing out d_n amplifies
    roundoff by at most 1e4: indices n, coefficients r1 cos(phi1) + i r2
    sin(phi2) drawn in that order per plant and index, and the basis rows
    d_n e^{2 pi i n k / 1024}; plant p samples as ``coeffs[p] @ basis``."""
    keep = np.abs(dens.entries) >= 1e-4 * dens.max_abs()
    ns = dens.n_values[keep]
    draws = rng.uniform((0.5, 0.0, 0.5, 0.0), (2.0, 2 * np.pi, 2.0, 2 * np.pi),
                        size=(n_plants, len(ns), 4))
    coeffs = (draws[..., 0] * np.cos(draws[..., 1])
              + 1j * (draws[..., 2] * np.sin(draws[..., 3])))
    return ns, coeffs, dens.entries[keep, None] * np.exp(
        2j * np.pi * ns[:, None] * (np.arange(1024) / 1024))


@_check("planted-coefficient-roundtrip", 60.0)
def check_planted_roundtrip(n_plants=100, seed=20260810, tol=1e-8):
    rng = np.random.default_rng(seed)
    par = SpectralParam(lam=60j)
    densities = [
        ("geodesic", density_b(par, ACCEPTANCE_Q_VALUES[1], (-40, 40))),
        ("circle", density_c(par, GroupElement(MODEL_CIRCLE_ELEMENT),
                             (-40, 40))),
    ]
    worst = 0.0
    count = 0
    for kind, dens in densities:
        ns, coeffs, basis = planted_basis(rng, dens, n_plants // 2)
        for planted in coeffs:
            prof = RestrictionProfile.from_samples(planted @ basis, length=1.7,
                                                   curve_id=f"planted-{kind}")
            table = fourier_periods(prof, (-40, 40))
            extract_coefficients(table, dens)
            count += 1
            for n, a in zip(ns.tolist(), planted):
                if n in table.a:
                    worst = max(worst, abs(table.a[n] - a))
    details = (f"{count} plants over both density kinds, worst coefficient "
               f"error {worst:.2e}")
    return count > 0 and worst <= tol, details, {"worst_err": worst}


# --------------------------------------------------------------- check 8

@_check("maass-solver-self-consistency", 300.0, ACCEPTANCE_BRACKETS[:1])
def check_maass_self_consistency(forms, seed=20260810):
    if forms is None:
        return None
    form = forms[0]
    phi = eigen.as_eigenfunction(form)
    rng = np.random.default_rng(seed)
    pts = np.array([complex(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 2.0))
                    for _ in range(20)])
    lap = eigen.laplace_residual(phi, pts)
    vals = eigen.evaluate(phi, pts)
    scale = float(np.max(np.abs(vals)))
    auto = float(np.max(np.abs(vals - eigen.evaluate(phi, -1.0 / pts))))
    in_window = 9.5336 <= form.R <= 9.5338
    checks = {
        "R in [9.5336, 9.5338]": in_window,
        "R stability (M0+8) < 1e-6": form.r_stability < 1e-6,
        "system residual < 1e-8": form.residual < 1e-8,
        "laplace residual < 1e-4": lap < 1e-4,
        "automorphy < 1e-6 * max": auto < 1e-6 * scale,
    }
    passed = all(checks.values())
    details = (f"R={form.R:.9f} ({form.parity}); "
               + "; ".join(f"{k}: {'ok' if v else 'VIOLATED'}"
                           for k, v in checks.items())
               + f"; laplace {lap:.1e}, automorphy {auto / scale:.1e}")
    return passed, details, {"R": form.R, "parity": form.parity}


# --------------------------------------------------------------- check 9

@_check("average-bound-boundedness", 900.0, ACCEPTANCE_BRACKETS)
def check_average_bound_maass(forms, t_grid=ACCEPTANCE_T_GRID,
                              variation_limit=AVERAGE_BOUND_LIMIT):
    if forms is None:
        return None
    phis = [eigen.as_eigenfunction(form) for form in forms]
    tables, reports = coefficient_family(
        phis, list(map(orbit_from_spec, ACCEPTANCE_CURVES)),
        acceptance_band(t_grid), t_grid, growth_limit=variation_limit)
    geo_tables, circ_tables = tables[:len(phis)], tables[len(phis):]
    rep_g, rep_c = reports.values()
    # restriction-norm power laws with single fitted constants
    c_geo = max(tb.length * tb.mean_square / tb.mu ** 0.25
                for tb in geo_tables)
    c_cir = max(tb.length * tb.mean_square / tb.mu ** (1.0 / 6.0)
                for tb in circ_tables)
    c_unif = max(abs(tb.p[list(tb.n_values).index(0)]) for tb in tables)
    const_ok = all(np.isfinite([c_geo, c_cir, c_unif]))
    passed = rep_g.passed and rep_c.passed and const_ok
    details = (f"geodesic ratio variation: T-axis {rep_g.max_growth_t:.2f}x, "
               f"forms {rep_g.max_growth_forms:.2f}x; circle: "
               f"T-axis {rep_c.max_growth_t:.2f}x, forms "
               f"{rep_c.max_growth_forms:.2f}x (limit {variation_limit}x); "
               f"fitted constants: p<=C mu^(1/4) C={c_geo:.3g}, "
               f"p<=C mu^(1/6) C={c_cir:.3g}, |p0|<=C'' C''={c_unif:.3g}")
    return passed, details, {"geodesic": rep_g, "circle": rep_c}


# --------------------------------------------------------------- check 10

@_check("test-vector-constants", 120.0)
def check_test_vector_constants(t_values=(10.0, 50.0, 100.0)):
    norm_bad = 0.0
    c2_at = {}
    for T in t_values:
        par = SpectralParam(lam=1j * min(T, 40.0))
        vt = test_vector(T, par)
        ns = vector_norm_sq(vt)
        norm_bad = max(norm_bad, abs(ns - C1_NORM_SLOPE * T) / (C1_NORM_SLOPE * T))
        # functional lower bound over the covered frequency box
        best = np.inf
        for lam_abs in np.linspace(0.0, min(T, 40.0), 6):
            parl = SpectralParam(lam=1j * lam_abs)
            vtl = test_vector(T, parl)
            d = model_functional(parl, 1j * np.linspace(0.0, T, 11), vtl)
            # scalar abs: numpy's array abs of complex can differ in the last bit
            best = min(best, *(abs(x) ** 2 for x in d))
        c2_at[T] = best
    c2 = 0.995 * c2_at[t_values[0]]
    lower_ok = all(v >= c2 for v in c2_at.values())
    passed = norm_bad <= 1e-10 and lower_ok
    details = (f"norm slope misfit {norm_bad:.2e} (want <= 1e-10); "
               f"c2 fixed at {c2:.4f} from T={t_values[0]:g}; box minima "
               + ", ".join(f"T={t:g}: {v:.4f}" for t, v in c2_at.items()))
    return passed, details, {"c2": c2}


# ---------------------------------------------------------------------------

def overrides(names, tolerances):
    """The ``{check: {keyword: value}}`` that the ``"check-name.keyword"``
    keys of ``tolerances`` set.  ValueError for a name in ``names`` or a key
    that names no check, or a keyword other than ``budget`` that the check
    does not take."""
    known = {name: fn for name, fn, _ in ALL_CHECKS}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; known: {list(known)}")
    out = {}
    for key, val in tolerances.items():
        name, dot, kw = key.partition(".")
        if not dot or name not in known:
            raise ValueError(f"tolerance {key!r} names no check")
        params = set(inspect.signature(known[name]).parameters) - {"forms"}
        if kw not in params | {"budget"}:
            raise ValueError(f"tolerance {key!r}: {name} takes no {kw!r}")
        out.setdefault(name, {})[kw] = val
    return out


def run_checks(names=None, cache_dir=None, solve_missing=True, tolerances=None):
    """Run the acceptance suite (or a named subset); yields CheckResults.
    ``tolerances`` holds ``"check-name.keyword"`` overrides, see
    ``overrides``."""
    kwargs_of = overrides(names or (), tolerances or {})
    for name, fn, needs_cache in ALL_CHECKS:
        if names and name not in names:
            continue
        kwargs = dict(kwargs_of.get(name, {}))
        if needs_cache:
            kwargs.setdefault("cache_dir", cache_dir)
            kwargs.setdefault("solve_missing", solve_missing)
        yield fn(**kwargs)
