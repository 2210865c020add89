"""Batch driver: solve cusp forms, run restriction sweeps, verify bounds.

Subcommands: solve, sweep, verify.  Configuration is a JSON file with the
RunConfig fields; outputs are plot-ready long-format CSVs and a JSON
summary, written atomically once a sweep has computed them all.  Exit
status: 0 success, 1 verification failure, 2 usage/config errors.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import logging
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields

from . import eigen, quad, verify
from .eigen import _json_text, _write_csv
from .hypgeom import GroupElement, orbit_from_spec
from .modelrep import (SpectralParam, density_b, density_c, density_c_grid,
                       density_to_csv)
from .periods import (check_band, check_curve, check_t_grid,
                      coefficient_family, equator_degrees, equator_norms,
                      period_table_to_csv, report_to_json)

_log = logging.getLogger(__name__)


def _default(value):
    """A dataclass default: a fresh JSON-shaped copy of an acceptance input."""
    return field(default_factory=lambda: json.loads(json.dumps(value)))


@dataclass
class RunConfig:
    """Run settings; the defaults are the acceptance inputs of ``verify``."""

    recipe: str = "maass-restriction"
    brackets: list = _default(verify.ACCEPTANCE_BRACKETS)
    parity: str = "auto"
    M0: int = 14
    y0: float = 0.40
    curves: list = _default(verify.ACCEPTANCE_CURVES)
    t_grid: list = _default(verify.ACCEPTANCE_T_GRID)
    n_range: list = _default(verify.ACCEPTANCE_N_RANGE)
    sphere_degrees: list = _default(verify.ACCEPTANCE_SPHERE_DEGREES)
    lambdas: list = _default(verify.ACCEPTANCE_LAMBDAS)
    q_values: list = _default(verify.ACCEPTANCE_Q_VALUES)
    out_dir: str = "out"
    cache_dir: str = ""
    tolerances: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def validate(self):
        for f in fields(self):      # each field has its default's JSON type
            default = f.default_factory() if f.default is MISSING else f.default
            value, kind = getattr(self, f.name), type(default)
            if isinstance(value, bool) or not isinstance(
                    value, (int, float) if kind is float else kind):
                raise ValueError(f"{f.name} must have its default's type "
                                 f"{kind.__name__}, not {value!r}")
        if self.recipe not in RECIPES:
            raise ValueError(f"unknown recipe {self.recipe!r}")
        for key, val in self.tolerances.items():
            _check_positive(f"tolerance {key!r}",
                            val if isinstance(val, list) else [val])
        verify.overrides(self.checks, self.tolerances)
        eigen.check_solve(self.brackets, self.parity, self.M0, self.y0)
        if len(self.n_range) != 2 or self.n_range[0] > self.n_range[1]:
            raise ValueError(f"n_range {self.n_range} is not an ascending pair")
        if self.recipe == "maass-restriction":
            check_band(self.n_range)
            if len(self.brackets) >= 2:     # the averaged bound needs a family
                check_t_grid(self.t_grid, self.n_range)
        if self.recipe == "sphere-sharpness":
            equator_degrees(self.sphere_degrees)
        if self.recipe == "density-regimes":
            _check_positive("q_values", self.q_values)
            _check_positive("lambdas", self.lambdas)
            g = GroupElement(verify.MODEL_CIRCLE_ELEMENT)
            grid = density_c_grid(max(self.lambdas, default=0.0), g,
                                  self.n_range)
            if 2 * grid > quad.FOURIER_MAX_GRID:   # one doubling must fit
                raise ValueError(
                    f"lambdas {self.lambdas} start the circle density on a "
                    f"grid of {grid} points, whose doubling is above the cap "
                    f"of {quad.FOURIER_MAX_GRID}")
        for orbit in self.orbits:   # builds every curve, raising on a bad spec
            check_curve(orbit)
        return self

    @functools.cached_property
    def orbits(self) -> list:
        """The configured curves as orbit descriptors, built once."""
        return [orbit_from_spec(spec) for spec in self.curves]

    def to_json(self) -> str:
        return _json_text(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data).validate()


def _check_positive(name, values):
    """ValueError unless each of ``values`` is a finite positive number."""
    for v in values:
        if not isinstance(v, (int, float)) or not 0 < v < math.inf:
            raise ValueError(f"{name} {values} must be finite positive "
                             "numbers")


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return RunConfig.from_json(fh.read())


def cmd_solve(cfg: RunConfig) -> int:
    if not cfg.brackets:
        print("solve: no brackets configured; nothing to do", file=sys.stderr)
        return 0
    for bracket in cfg.brackets:
        form = eigen.hejhal_solve(tuple(bracket), parity=cfg.parity,
                                  M0=cfg.M0, y0=cfg.y0)
        path = eigen.save_form(form, cfg.cache_dir)
        print(f"solved [{bracket[0]:g}, {bracket[1]:g}]: R={form.R:.9f} "
              f"({form.parity}), residual {form.residual:.2e}, "
              f"R-stability {form.r_stability:.2e} -> {path}")
    return 0


# A recipe computes a sweep and does no I/O.  It returns ``(files, lines,
# status)``: a one-argument writer, called with the path, for each output
# file name; the stdout lines; the exit status.  ``cmd_sweep`` writes them.

def _sweep_maass(cfg: RunConfig):
    forms = verify.acceptance_forms(cfg.cache_dir, solve_missing=False,
                                    brackets=cfg.brackets)
    if forms is None:
        raise FileNotFoundError(
            f"no cached form for some bracket of {cfg.brackets}; run "
            f"`geoperiods solve --config ...` first "
            f"(cache dir: {cfg.cache_dir})")
    phis = [eigen.as_eigenfunction(f) for f in forms]
    # the memo itself, under any wrapper (a profiler's) standing in for it
    memo = inspect.unwrap(eigen.pullback,
                          stop=lambda f: hasattr(f, "cache_info"))
    before = memo.cache_info()
    tables, reports = coefficient_family(phis, cfg.orbits,
                                         tuple(cfg.n_range), cfg.t_grid)
    after = memo.cache_info()
    _log.debug("pullback memo over the sweep: %d hits, %d misses",
               after.hits - before.hits, after.misses - before.misses)
    # positional table: the benchmark's tracer reads the path as argument 2
    files = {f"periods_{tb.curve_id.split('(')[0]}_R{tb.spectral_r:.4f}.csv":
             functools.partial(period_table_to_csv, tb) for tb in tables}
    files["summary.json"] = functools.partial(
        report_to_json, surface="modular", tables=tables, reports=reports)
    lines = [f"{cid}: growth T-axis {r.max_growth_t:.2f}x, forms "
             f"{r.max_growth_forms:.2f}x -> {'ok' if r.passed else 'FAIL'}"
             for cid, r in reports.items()]
    if not reports:
        lines.append(f"period tables for {len(tables)} (form, curve) pairs "
                     f"written to {cfg.out_dir} (single form: averaged-bound "
                     "family check skipped)")
    return files, lines, 0 if all(r.passed for r in reports.values()) else 1


def _sweep_sphere(cfg: RunConfig):
    rows, (slope, const, resid) = equator_norms(cfg.sphere_degrees)
    files = {
        "sphere_sharpness.csv": functools.partial(
            _write_csv, header=["degree", "mu", "restriction_norm",
                                "fitted_slope"],
            rows=[[n, mu, p, slope] for n, mu, p in rows]),
        "summary.json": functools.partial(
            report_to_json, surface="sphere", tables=[],
            extra={"fits": {"equator_exponent": slope, "constant": const,
                            "max_log_misfit": resid}})}
    return files, [f"sphere equator exponent: {slope:.4f} "
                   f"(constant {const:.4g})"], 0


def _sweep_densities(cfg: RunConfig):
    g = GroupElement(verify.MODEL_CIRCLE_ELEMENT)
    n_range = tuple(cfg.n_range)
    files = {}
    for lam_abs in cfg.lambdas:
        par = SpectralParam(lam=1j * float(lam_abs))
        for q in cfg.q_values:
            files[f"density_b_lam{lam_abs:g}_q{q:g}.csv"] = functools.partial(
                density_to_csv, density_b(par, float(q), n_range))
        files[f"density_c_lam{lam_abs:g}.csv"] = functools.partial(
            density_to_csv, density_c(par, g, n_range))
    files["summary.json"] = functools.partial(
        report_to_json, surface="model", tables=[],
        extra={"lambdas": list(cfg.lambdas), "q_values": list(cfg.q_values)})
    return files, [f"density tables written to {cfg.out_dir}"], 0


RECIPES = {"maass-restriction": _sweep_maass,
           "sphere-sharpness": _sweep_sphere,
           "density-regimes": _sweep_densities}


def cmd_sweep(cfg: RunConfig) -> int:
    files, lines, status = RECIPES[cfg.recipe](cfg)
    for name, write in files.items():
        write(os.path.join(cfg.out_dir, name))
    for line in lines:
        print(line)
    return status


def cmd_verify(cfg: RunConfig, solve_missing) -> int:
    failures = 0
    skipped = 0
    names = cfg.checks or None
    for res in verify.run_checks(names=names, cache_dir=cfg.cache_dir,
                                 solve_missing=solve_missing,
                                 tolerances=cfg.tolerances):
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
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", help="locate cusp forms and cache them")
    sub.add_parser("sweep", help="run the configured sweep recipe")
    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    p_verify.add_argument("--solve-missing", action="store_true",
                          help="solve forms not found in the cache")
    parser.set_defaults(solve_missing=False)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else RunConfig().validate()
        cfg.out_dir = args.out or cfg.out_dir
        cfg.cache_dir = eigen.resolve_cache_dir(args.cache, cfg.cache_dir)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.solve_missing)
    except (FileNotFoundError, eigen.CacheRecordError,
            quad.ConvergenceError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (eigen.NoEigenvalueError, eigen.ConditioningError) as exc:
        print(f"solver: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
