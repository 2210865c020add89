"""The benchmark's workloads: the CLI command each round runs, what its
set-up reads, and how its outputs are checked.

Operations: one per solved bracket (``solve-cold``), one per written
(form, curve) table (``sweep-maass``) and one per acceptance check
(``verify-model``).  ``check`` maps every operation of a round to its
list of problems; an operation with problems counts as failed.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

import checks


@dataclass
class Round:
    cli_args: list
    read_config: str | None = None
    read_records: list = field(default_factory=list)


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return path


def digest_files(paths):
    """File name -> sha256 of each file, for byte-identity checks."""
    out = {}
    for path in sorted(paths):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Workload:
    name = ""
    # tracer metrics that must be nonzero on this workload's traced rounds
    required: tuple = ()

    def __init__(self, root):
        self.root = root
        self.form_cache = os.path.join(root, "form_cache")

    def prepare(self, rdir) -> Round:
        raise NotImplementedError

    def operations(self) -> list:
        raise NotImplementedError

    def check(self, rdir, result, rng) -> dict:
        raise NotImplementedError

    def outputs(self, rdir) -> dict:
        """Digests of the files a round wrote; every round of a run must
        write the same bytes."""
        raise NotImplementedError

    def _failed_all(self, problem):
        return {op: [problem] for op in self.operations()}


class SolveCold(Workload):
    name = "solve-cold"
    brackets = ((9.0, 10.0), (13.5, 14.2))
    required = ("specfun.bessel_k_imag.calls", "specfun.bessel_k_imag.points",
                "eigen.hejhal_solve.calls", "eigen.save_form.calls")

    def prepare(self, rdir):
        cfg = _write_json(os.path.join(rdir, "config.json"),
                          {"brackets": [list(b) for b in self.brackets],
                           "parity": "auto"})
        return Round(["--config", cfg, "--cache", os.path.join(rdir, "cache"),
                      "solve"], read_config=cfg)

    def operations(self):
        return [f"solve {lo:g}-{hi:g}" for lo, hi in self.brackets]

    def check(self, rdir, result, rng):
        if result["rc"] != 0:
            return self._failed_all(f"solve exited {result['rc']}")
        from geoperiods import eigen
        printed = {}
        for m in re.finditer(r"solved \[([\d.]+), ([\d.]+)\]: R=([\d.]+)",
                             result["stdout"]):
            printed[(float(m.group(1)), float(m.group(2)))] = float(m.group(3))
        out = {}
        for op, (lo, hi) in zip(self.operations(), self.brackets):
            found = glob.glob(os.path.join(
                rdir, "cache", f"maass_*_{lo:.4f}_{hi:.4f}_M*.json"))
            if len(found) != 1:
                out[op] = [f"expected one record for [{lo}, {hi}], "
                           f"found {len(found)}"]
                continue
            out[op] = checks.check_solved_record(
                found[0], (lo, hi), printed.get((lo, hi)), eigen.load_form)
        return out

    def outputs(self, rdir):
        return digest_files(glob.glob(os.path.join(rdir, "cache", "*.json")))


class SweepMaass(Workload):
    name = "sweep-maass"
    geodesic = ((883.0, 1428.0), (546.0, 883.0))     # RunConfig defaults
    circle_radius = 1.6
    thetas_per_table = 3
    required = ("specfun.bessel_k_imag.calls", "quad.periodic_fourier.calls",
                "modelrep.density_b.calls", "modelrep.density_c.calls",
                "hypgeom.CircleOrbit.points.calls",
                "hypgeom.GroupElement.constructed", "hypgeom.mobius_act.calls",
                "eigen.pullback.calls", "eigen.MaassForm.value.calls",
                "eigen.load_form.calls", "periods.restrict.calls",
                "periods.restrict.samples", "periods.periods.calls",
                "periods.extract_coefficients.calls",
                "periods.period_table_to_csv.calls",
                "periods.period_table_to_csv.bytes",
                "periods.report_to_json.calls")

    def __init__(self, root):
        super().__init__(root)
        self.records = sorted(glob.glob(os.path.join(self.form_cache,
                                                     "maass_*_M22.json")))
        self.forms = []
        for path in self.records:
            with open(path) as fh:
                self.forms.append(json.load(fh))

    def prepare(self, rdir):
        cfg = _write_json(os.path.join(rdir, "config.json"),
                          {"recipe": "maass-restriction"})
        return Round(["--config", cfg, "--cache", self.form_cache,
                      "--out", os.path.join(rdir, "out"), "sweep"],
                     read_config=cfg, read_records=list(self.records))

    def operations(self):
        return [f"{kind} R={rec['R']:.4f}" for kind in ("geodesic", "circle")
                for rec in self.forms]

    def check(self, rdir, result, rng):
        if result["rc"] != 0:
            return self._failed_all(f"sweep exited {result['rc']}")
        from geoperiods.hypgeom import GroupElement, geodesic_orbit_from_matrix
        out_dir = os.path.join(rdir, "out")
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = {(t["curve"].split("(")[0], round(t["spectral_r"], 4)): t
                       for t in json.load(fh)["tables"]}
        geo = geodesic_orbit_from_matrix(GroupElement(self.geodesic))
        lengths = {"geodesic": float(checks.geodesic_length(self.geodesic)),
                   "circle": 2.0 * np.pi * np.sinh(self.circle_radius)}
        out = {}
        ops = iter(self.operations())
        for kind in ("geodesic", "circle"):
            for rec in self.forms:
                op = next(ops)
                path = os.path.join(out_dir, f"periods_{kind}_R{rec['R']:.4f}.csv")
                entry = summary.get((kind, round(rec["R"], 4)))
                if entry is None or not os.path.exists(path):
                    out[op] = ["table or summary entry missing"]
                    continue
                rows = checks.read_period_csv(path)
                length = lengths[kind]
                problems = []
                if abs(entry["length"] - length) > 1e-12 * length:
                    problems.append(f"summary length {entry['length']!r}, "
                                    f"expected {length!r}")
                problems += checks.check_scaling(rows, length)
                problems += checks.check_bessel_inequality(
                    rows, entry["restriction_norm"] / entry["length"])
                if kind == "circle":
                    problems += checks.check_odd_modes(rows)
                else:
                    thetas = rng.uniform(0.0, 1.0, self.thetas_per_table)
                    problems += checks.check_geodesic_restriction(
                        rows, rec, self.geodesic, thetas, geo.points(thetas))
                out[op] = problems
        return out

    def outputs(self, rdir):
        return digest_files(glob.glob(os.path.join(rdir, "out", "*")))


class VerifyModel(Workload):
    name = "verify-model"
    # the seven acceptance checks that need no solved form: 01 02 03 04 05 07 10
    check_names = ("gamma-formula-vs-quadrature", "table-integral-identity",
                   "geodesic-three-regime-envelopes", "circle-regime-exponents",
                   "sphere-equator-sharpness", "planted-coefficient-roundtrip",
                   "test-vector-constants")
    required = ("specfun.log_gamma.calls", "specfun.table_integral.calls",
                "quad.oscillatory_integral.calls", "quad.integrate_adaptive.calls",
                "quad.periodic_fourier.calls", "modelrep.model_functional.calls",
                "modelrep.density_b.calls", "modelrep.density_c.calls",
                "periods.restrict.calls", "periods.restrict.samples") + tuple(
                    f"verify.{name}.calls" for name in check_names)

    def prepare(self, rdir):
        cfg = _write_json(os.path.join(rdir, "config.json"),
                          {"checks": list(self.check_names)})
        return Round(["--config", cfg, "--cache", os.path.join(rdir, "cache"),
                      "verify"], read_config=cfg)

    def operations(self):
        return list(self.check_names)

    def check(self, rdir, result, rng):
        from geoperiods.modelrep import SpectralParam, density_b
        from geoperiods.specfun import table_integral
        out = {name: [] if problem is None else [problem] for name, problem
               in checks.verify_lines(result["stdout"],
                                      self.check_names).items()}
        if result["rc"] != 0:
            for problems in out.values():
                problems.append(f"verify exited {result['rc']}")
        out["gamma-formula-vs-quadrature"] += checks.check_density_b_entries(
            density_b, SpectralParam, rng)
        out["table-integral-identity"] += checks.check_table_integral_values(
            table_integral, rng)
        return out

    def outputs(self, rdir):
        return {}


WORKLOADS = {w.name: w for w in (SolveCold, SweepMaass, VerifyModel)}
