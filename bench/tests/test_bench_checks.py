"""The benchmark's output checks count a wrong value as a failed operation."""

import json
import os
import shutil
import sys

import numpy as np
import pytest

pytest.importorskip("mpmath")

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from geoperiods import eigen  # noqa: E402
from geoperiods.hypgeom import (GroupElement, circle_orbit,  # noqa: E402
                                geodesic_orbit_from_matrix)
from geoperiods.modelrep import SpectralParam, density_b  # noqa: E402
from geoperiods.periods import (period_table_to_csv, periods,  # noqa: E402
                                restrict)
from geoperiods.specfun import table_integral  # noqa: E402

ODD_RECORD = os.path.join(ROOT, "form_cache", "maass_odd_9.0000_10.0000_M22.json")
EVEN_RECORD = os.path.join(ROOT, "form_cache",
                           "maass_even_13.5000_14.2000_M22.json")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _write(path, record):
    with open(path, "w") as fh:
        json.dump(record, fh)
    return path


# ------------------------------------------------------------------ solve

def test_committed_record_passes():
    rec = _load(ODD_RECORD)
    assert checks.check_solved_record(ODD_RECORD, (9.0, 10.0), rec["R"],
                                      eigen.load_form) == []


@pytest.mark.parametrize("field,index,delta", [
    ("R", None, 1e-4),                 # eigenvalue moved
    ("coefficients", 3, 1e-4),         # a4 breaks a4 = a2^2 - 1
    ("coefficients", 5, 1e-4),         # a6 breaks a6 = a2 a3
])
def test_wrong_record_value_is_a_problem(tmp_path, field, index, delta):
    rec = _load(ODD_RECORD)
    if index is None:
        rec[field] += delta
    else:
        rec[field][index] += delta
    path = _write(tmp_path / "rec.json", rec)
    assert checks.check_solved_record(path, (9.0, 10.0), rec["R"],
                                      eigen.load_form)


def test_wrong_parity_and_printed_r_are_problems(tmp_path):
    rec = _load(ODD_RECORD)
    rec["parity"] = "even"
    path = _write(tmp_path / "rec.json", rec)
    problems = checks.check_solved_record(path, (9.0, 10.0), rec["R"] + 1e-6,
                                          eigen.load_form)
    assert any("parity" in p for p in problems)
    assert any("printed R" in p for p in problems)


def _fake_solve(shift):
    """A stand-in for the round process: writes the committed records as
    the solve output, with the first R moved by ``shift``."""
    def fake(rdir, rnd, trace=False, setup_only=False):
        cache = os.path.join(rdir, "cache")
        os.makedirs(cache)
        lines = []
        for i, (src, bracket) in enumerate([(ODD_RECORD, "9, 10"),
                                            (EVEN_RECORD, "13.5, 14.2")]):
            rec = _load(src)
            if i == 0:
                rec["R"] += shift
            _write(os.path.join(cache, os.path.basename(src)), rec)
            lines.append(f"solved [{bracket}]: R={rec['R']:.9f} ({rec['parity']})")
        return {"rc": 0, "stdout": "\n".join(lines) + "\n", "trace": {},
                "setup_s": 0.1, "wall_s": 1.0, "maxrss_kib": 1024}
    return fake


@pytest.mark.parametrize("shift,failed", [(0.0, 0), (1e-4, 1)])
def test_run_counts_a_moved_r_as_one_failed_operation(tmp_path, monkeypatch,
                                                      shift, failed):
    monkeypatch.setattr(run, "run_child", _fake_solve(shift))
    r = run.Run(workloads.SolveCold(ROOT), seed=1, work=str(tmp_path))
    r.round(trace=False)
    assert (r.attempted, r.failed) == (2, failed)


# ------------------------------------------------------------------ sweep

@pytest.fixture(scope="module")
def geodesic_rows(tmp_path_factory):
    """A geodesic period table of the R = 9.53 form, written by the program
    (interpolated evaluation, coarse grid) and read back from its CSV."""
    rec = _load(ODD_RECORD)
    geo = geodesic_orbit_from_matrix(GroupElement(workloads.SweepMaass.geodesic))
    prof = restrict(eigen.as_eigenfunction(eigen.load_form(ODD_RECORD)), geo,
                    grid=512)
    path = tmp_path_factory.mktemp("sweep") / "periods_geodesic.csv"
    period_table_to_csv(periods(prof, (-83, 83)), str(path))
    return rec, geo, checks.read_period_csv(path), prof.mean_square()


def test_geodesic_table_passes(geodesic_rows):
    rec, geo, rows, ms = geodesic_rows
    thetas = np.array([0.1, 0.55, 0.9])
    assert checks.check_geodesic_restriction(
        rows, rec, workloads.SweepMaass.geodesic, thetas, geo.points(thetas)) == []
    length = float(checks.geodesic_length(workloads.SweepMaass.geodesic))
    assert checks.check_scaling(rows, length) == []
    assert checks.check_bessel_inequality(rows, ms) == []


def test_flipped_period_is_a_problem(geodesic_rows):
    rec, geo, rows, _ = geodesic_rows
    n = max(rows, key=lambda k: abs(rows[k][1]))
    flipped = dict(rows)
    flipped[n] = (-rows[n][0], -rows[n][1])
    thetas = np.array([0.1, 0.55, 0.9])
    assert checks.check_geodesic_restriction(
        flipped, rec, workloads.SweepMaass.geodesic, thetas, geo.points(thetas))


def test_point_off_the_axis_is_a_problem(geodesic_rows):
    rec, geo, rows, _ = geodesic_rows
    thetas = np.array([0.3])
    assert checks.check_geodesic_restriction(
        rows, rec, workloads.SweepMaass.geodesic, thetas,
        geo.points(thetas) * 1.01)


def test_circle_properties():
    length = 2.0 * np.pi * np.sinh(1.6)
    rows = {n: (length * f, f) for n, f in
            [(-2, 0.1 + 0.2j), (-1, 0.0), (0, 0.5), (1, 0.0), (2, 0.1 - 0.2j)]}
    assert checks.check_odd_modes(rows) == []
    assert checks.check_scaling(rows, length) == []
    assert checks.check_bessel_inequality(rows, 0.36) == []
    odd = {**rows, 1: (length * 1e-6, 1e-6)}
    assert checks.check_odd_modes(odd)
    assert checks.check_scaling(rows, length * (1 + 1e-9))
    assert checks.check_bessel_inequality(rows, 0.34)


def test_circle_length_matches_the_program():
    circ = circle_orbit(0.2 + 1.1j, workloads.SweepMaass.circle_radius)
    assert abs(circ.length - 2.0 * np.pi * np.sinh(1.6)) < 1e-12 * circ.length


# ----------------------------------------------------------------- verify

def test_verify_lines():
    names = ("table-integral-identity", "test-vector-constants")
    out = ("[PASS] table-integral-identity (0.7s / budget 30s) 101 pairs\n"
           "[FAIL] test-vector-constants (0.0s / budget 120s) x\n")
    status = checks.verify_lines(out, names)
    assert status["table-integral-identity"] is None
    assert status["test-vector-constants"].startswith("[FAIL]")
    assert checks.verify_lines("", names)["table-integral-identity"]


def test_gamma_references_accept_the_program():
    rng = np.random.default_rng(3)
    assert checks.check_density_b_entries(density_b, SpectralParam, rng) == []
    assert checks.check_table_integral_values(table_integral, rng) == []


def test_gamma_references_reject_wrong_values():
    def off_density_b(*args):
        table = density_b(*args)
        return table.__class__(**dict(table.__dict__,
                                      entries=table.entries * 1.001,
                                      log_abs2=table.log_abs2 + 0.002))

    rng = np.random.default_rng(3)
    assert checks.check_density_b_entries(off_density_b, SpectralParam, rng)
    assert checks.check_table_integral_values(
        lambda s, t: -table_integral(s, t), rng)


def test_density_b_tail_entries_are_checked_in_log():
    rng = np.random.default_rng(0)
    # entries deep in the tail underflow; the log comparison still applies
    assert checks.check_density_b_entries(density_b, SpectralParam, rng,
                                          count=30) == []


def test_records_are_not_touched_by_checks(tmp_path):
    shutil.copy(ODD_RECORD, tmp_path / "r.json")
    before = workloads.digest_files([str(tmp_path / "r.json")])
    checks.check_solved_record(str(tmp_path / "r.json"), (9.0, 10.0), None,
                               eigen.load_form)
    assert workloads.digest_files([str(tmp_path / "r.json")]) == before
