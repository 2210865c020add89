"""Batch driver: solve cusp forms, run restriction sweeps, verify bounds.

Subcommands: solve, sweep, verify.  Configuration is a JSON file with the
RunConfig fields; outputs are plot-ready long-format CSVs and a JSON
summary, written atomically.  Exit status: 0 success, 1 verification
failure, 2 usage/config errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

from . import eigen, verify
from .eigen import _atomic_write
from .hypgeom import GroupElement, circle_orbit, geodesic_orbit_from_matrix
from .modelrep import (SpectralParam, density_b, density_c, density_to_csv)
from .periods import (SphereEquator, check_average_bound,
                      extract_coefficients, fit_restriction_exponent,
                      period_table_to_csv, periods as fourier_periods,
                      report_to_json, restrict)


@dataclass
class RunConfig:
    recipe: str = "maass-restriction"
    surface: str = "modular"
    brackets: list = field(default_factory=lambda: [[9.0, 10.0], [12.0, 12.7],
                                                    [13.5, 14.2]])
    parity: str = "auto"
    M0: int = 14
    y0: float = 0.40
    curves: list = field(default_factory=lambda: [
        {"kind": "geodesic", "matrix": [[883.0, 1428.0], [546.0, 883.0]]},
        {"kind": "circle", "center": [0.2, 1.1], "radius": 1.6},
    ])
    t_grid: list = field(default_factory=lambda: [8, 16, 32, 64])
    n_range: list = field(default_factory=lambda: [-83, 83])
    sphere_degrees: list = field(default_factory=lambda: [10, 200])
    lambdas: list = field(default_factory=lambda: [40.0, 80.0, 160.0, 320.0])
    q_values: list = field(default_factory=lambda: [0.5, 1.4426950408889634, 2.0])
    out_dir: str = "out"
    cache_dir: str = ""
    tolerances: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    jobs: int = 1

    def validate(self):
        if any(t <= 0 for t in self.tolerances.values()):
            raise ValueError("tolerances must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        for b in self.brackets:
            if len(b) != 2 or not (0 < b[0] < b[1]):
                raise ValueError(f"bad bracket {b}")
        return self

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data).validate()


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return RunConfig.from_json(fh.read())


def _cache_dir(cfg: RunConfig, args) -> str:
    return eigen.resolve_cache_dir(args.cache, cfg.cache_dir)


def _build_curve(spec):
    if spec["kind"] == "geodesic":
        return geodesic_orbit_from_matrix(GroupElement(spec["matrix"]))
    if spec["kind"] == "circle":
        cx, cy = spec["center"]
        return circle_orbit(complex(cx, cy), spec["radius"])
    raise ValueError(f"unknown curve kind {spec['kind']!r}")


def cmd_solve(cfg: RunConfig, args) -> int:
    cache = _cache_dir(cfg, args)
    if not cfg.brackets:
        print("solve: no brackets configured; nothing to do", file=sys.stderr)
        return 0
    os.makedirs(cache, exist_ok=True)
    summary = []
    for bracket in cfg.brackets:
        form = eigen.hejhal_solve(tuple(bracket), parity=cfg.parity,
                                  M0=cfg.M0, y0=cfg.y0)
        path = eigen.cache_path(cache, bracket, form.parity, form.M0)
        eigen.save_form(form, path)
        summary.append((bracket, form))
        print(f"solved [{bracket[0]:g}, {bracket[1]:g}]: R={form.R:.9f} "
              f"({form.parity}), residual {form.residual:.2e}, "
              f"R-stability {form.r_stability:.2e} -> {path}")
    return 0


def _load_cached_forms(cfg: RunConfig, cache) -> list:
    forms = []
    for bracket in cfg.brackets:
        found = eigen.find_form(cache, bracket)
        if found is None:
            raise FileNotFoundError(
                f"no cached form for bracket {bracket}; run "
                f"`geoperiods solve --config ...` first (cache dir: {cache})")
        forms.append(found)
    return forms


def _sweep_maass(cfg: RunConfig, cache, out):
    forms = _load_cached_forms(cfg, cache)
    curves = [_build_curve(spec) for spec in cfg.curves]
    threshold = cfg.tolerances.get("extract_threshold", 1e-10)

    def pipeline(job):
        form, curve = job
        phi = eigen.as_eigenfunction(form)
        par = SpectralParam.from_r(form.R)
        prof = restrict(phi, curve, grid=2048)
        table = fourier_periods(prof, tuple(cfg.n_range))
        if hasattr(curve, "q"):
            dens = density_b(par, curve.q, tuple(cfg.n_range))
        else:
            dens = density_c(par, curve.g, tuple(cfg.n_range))
        extract_coefficients(table, dens, threshold=threshold)
        return table

    jobs = [(f, c) for c in curves for f in forms]
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            tables = list(pool.map(pipeline, jobs))
    else:
        tables = [pipeline(j) for j in jobs]

    by_curve = {}
    for (form, curve), tb in zip(jobs, tables):
        by_curve.setdefault(curve.curve_id(), []).append(tb)
        name = (f"periods_{curve.curve_id().split('(')[0]}"
                f"_R{form.R:.4f}.csv")
        period_table_to_csv(tb, os.path.join(out, name))
    reports = {}
    for cid, tbs in by_curve.items():
        if len(tbs) >= 2:          # the averaged bound needs a family
            reports[cid] = check_average_bound(tbs, cfg.t_grid)
    report_to_json(os.path.join(out, "summary.json"), "modular", tables,
                   report=next(iter(reports.values()), None) if reports else None,
                   extra={"per_curve_growth": {
                       cid: [r.max_growth_t, r.max_growth_forms]
                       for cid, r in reports.items()}})
    ok = all(r.passed for r in reports.values())
    for cid, r in reports.items():
        print(f"{cid}: growth T-axis {r.max_growth_t:.2f}x, forms "
              f"{r.max_growth_forms:.2f}x -> {'ok' if r.passed else 'FAIL'}")
    if not reports:
        print(f"period tables for {len(tables)} (form, curve) pairs written "
              f"to {out} (single form: averaged-bound family check skipped)")
    return 0 if ok else 1


def _sweep_sphere(cfg: RunConfig, out):
    lo, hi = cfg.sphere_degrees
    equator = SphereEquator()
    rows = []
    for n in range(int(lo), int(hi) + 1):
        phi = eigen.sphere_harmonic(n, n)
        prof = restrict(phi, equator, grid=1024)
        rows.append((n, phi.mu, prof.norm_restriction()))
    slope, const, resid = fit_restriction_exponent(
        [(mu, p) for _, mu, p in rows])
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["degree", "mu", "restriction_norm", "fitted_slope"])
    for n, mu, p in rows:
        w.writerow([n, format(mu, ".17g"), format(p, ".17g"),
                    format(slope, ".17g")])
    _atomic_write(os.path.join(out, "sphere_sharpness.csv"), buf.getvalue())
    report_to_json(os.path.join(out, "summary.json"), "sphere", [],
                   fits={"equator_exponent": slope, "constant": const,
                         "max_log_misfit": resid})
    print(f"sphere equator exponent: {slope:.4f} (constant {const:.4g})")
    return 0


def _sweep_densities(cfg: RunConfig, out):
    for lam_abs in cfg.lambdas:
        par = SpectralParam(lam=1j * float(lam_abs))
        for q in cfg.q_values:
            tb = density_b(par, float(q),
                           (cfg.n_range[0], cfg.n_range[1]))
            density_to_csv(tb, os.path.join(
                out, f"density_b_lam{lam_abs:g}_q{q:g}.csv"))
    g = GroupElement([[2.0, 0.0], [0.0, 0.5]])
    for lam_abs in cfg.lambdas:
        par = SpectralParam(lam=1j * float(lam_abs))
        tb = density_c(par, g, (cfg.n_range[0], cfg.n_range[1]))
        density_to_csv(tb, os.path.join(out, f"density_c_lam{lam_abs:g}.csv"))
    report_to_json(os.path.join(out, "summary.json"), "model", [],
                   extra={"lambdas": list(cfg.lambdas),
                          "q_values": list(cfg.q_values)})
    print(f"density tables written to {out}")
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    out = args.out or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    cache = _cache_dir(cfg, args)
    if cfg.recipe == "sphere-sharpness":
        return _sweep_sphere(cfg, out)
    if cfg.recipe == "density-regimes":
        return _sweep_densities(cfg, out)
    if cfg.recipe == "maass-restriction":
        return _sweep_maass(cfg, cache, out)
    print(f"unknown recipe {cfg.recipe!r}", file=sys.stderr)
    return 2


def cmd_verify(cfg: RunConfig, args) -> int:
    cache = _cache_dir(cfg, args)
    overrides = {}
    for key, val in cfg.tolerances.items():
        if "." in key:
            check, kw = key.split(".", 1)
            overrides.setdefault(check, {})[kw] = val
    failures = 0
    skipped = 0
    names = cfg.checks or None
    for res in verify.run_checks(names=names, cache_dir=cache,
                                 solve_missing=args.solve_missing,
                                 overrides=overrides):
        print(res.line())
        if res.skipped:
            skipped += 1
        elif not res.passed:
            failures += 1
    if skipped:
        print(f"{skipped} check(s) skipped (no cached forms; rerun with "
              f"--solve-missing or run `geoperiods solve` first)")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="geoperiods",
        description="periods of eigenfunction restrictions: solve, sweep, verify")
    parser.add_argument("--config", help="JSON config file (RunConfig fields)")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--cache", help="form cache directory")
    parser.add_argument("--jobs", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", help="locate cusp forms and cache them")
    sub.add_parser("sweep", help="run the configured sweep recipe")
    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    p_verify.add_argument("--solve-missing", action="store_true",
                          help="solve forms not found in the cache")
    args = parser.parse_args(argv)
    if not hasattr(args, "solve_missing"):
        args.solve_missing = False

    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.jobs:
            cfg.jobs = args.jobs
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "solve":
            return cmd_solve(cfg, args)
        if args.command == "sweep":
            return cmd_sweep(cfg, args)
        if args.command == "verify":
            return cmd_verify(cfg, args)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except eigen.NoEigenvalueError as exc:
        print(f"solver: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
