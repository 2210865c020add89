import dataclasses
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import geoperiods
from geoperiods import eigen
from geoperiods.cli import RunConfig, main

from conftest import CACHE_DIR

# The directory that holds the imported package.  The child runs in
# tmp_path, where a relative PYTHONPATH (such as ``src``) no longer
# resolves, so this absolute root goes first on the child's path.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(
    geoperiods.__file__)))


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "geoperiods.cli"] + args,
                          cwd=cwd, env=env, capture_output=True, text=True)


def test_config_roundtrip_identity():
    cfg = RunConfig(recipe="sphere-sharpness", sphere_degrees=[10, 30],
                    tolerances={"extract_threshold": 1e-9}, jobs=2)
    text = cfg.to_json()
    again = RunConfig.from_json(text)
    assert again.to_json() == text


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        RunConfig.from_json(json.dumps({"tolerances": {"x": -1.0}}))
    with pytest.raises(ValueError):
        RunConfig.from_json(json.dumps({"jobs": 0}))
    with pytest.raises(ValueError):
        RunConfig.from_json(json.dumps({"brackets": [[10.0, 9.0]]}))
    with pytest.raises(ValueError):
        RunConfig.from_json(json.dumps({"no_such_field": 1}))


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_flag_is_validated(jobs, capsys):
    assert main(["--jobs", jobs, "sweep"]) == 2
    assert "config error: jobs must be >= 1" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run_cli(["--config", str(bad), "sweep"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr


def test_sphere_sweep_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recipe": "sphere-sharpness",
                               "surface": "sphere",
                               "sphere_degrees": [10, 40],
                               "out_dir": "out"}))
    r1 = run_cli(["--config", str(cfg), "sweep"], tmp_path)
    assert r1.returncode == 0, r1.stderr
    first = (tmp_path / "out" / "sphere_sharpness.csv").read_bytes()
    r2 = run_cli(["--config", str(cfg), "sweep"], tmp_path)
    assert r2.returncode == 0, r2.stderr
    assert (tmp_path / "out" / "sphere_sharpness.csv").read_bytes() == first
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert abs(summary["fits"]["equator_exponent"] - 0.25) < 0.02


def test_density_sweep_csv_shape(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recipe": "density-regimes",
                               "lambdas": [20.0], "q_values": [1.0],
                               "n_range": [-10, 10], "out_dir": "out"}))
    res = run_cli(["--config", str(cfg), "sweep"], tmp_path)
    assert res.returncode == 0, res.stderr
    csv_b = (tmp_path / "out" / "density_b_lam20_q1.csv").read_text()
    assert csv_b.splitlines()[0] == "n,Re,Im,abs2,regime"
    assert len(csv_b.splitlines()) == 22
    assert (tmp_path / "out" / "density_c_lam20.csv").exists()


def test_missing_cache_instructive_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recipe": "maass-restriction",
                               "brackets": [[11.0, 11.5]],
                               "cache_dir": str(tmp_path / "empty")}))
    res = run_cli(["--config", str(cfg), "sweep"], tmp_path)
    assert res.returncode == 1, res.stderr
    assert "solve" in res.stderr


def test_solve_no_brackets_warns_exit_zero(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"brackets": []}))
    res = run_cli(["--config", str(cfg), "solve"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "nothing to do" in res.stderr


def test_verify_subset_pass_and_forced_failure(tmp_path):
    # a cheap check passes with defaults and fails under an absurd override
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checks": ["table-integral-identity"]}))
    res = run_cli(["--config", str(cfg), "verify"], tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[PASS] table-integral-identity" in res.stdout

    cfg.write_text(json.dumps({
        "checks": ["table-integral-identity"],
        "tolerances": {"table-integral-identity.rel_tol": 1e-30}}))
    res = run_cli(["--config", str(cfg), "verify"], tmp_path)
    assert res.returncode == 1, res.stdout + res.stderr
    assert "[FAIL] table-integral-identity" in res.stdout


def test_verify_skips_without_cache(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "checks": ["maass-solver-self-consistency"],
        "cache_dir": str(tmp_path / "nocache")}))
    res = run_cli(["--config", str(cfg), "verify"], tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[SKIP]" in res.stdout


def test_maass_sweep_from_cache(tmp_path):
    if not os.path.isdir(CACHE_DIR) or not os.listdir(CACHE_DIR):
        pytest.skip("no solved-form cache available")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recipe": "maass-restriction",
                               "brackets": [[9.0, 10.0]],
                               "t_grid": [4, 8, 16],
                               "n_range": [-30, 30],
                               "cache_dir": os.path.abspath(CACHE_DIR),
                               "out_dir": "out"}))
    res = run_cli(["--config", str(cfg), "sweep"], tmp_path)
    assert res.returncode == 0, res.stderr
    files = os.listdir(tmp_path / "out")
    assert "summary.json" in files
    assert any(f.startswith("periods_geodesic") for f in files)
    assert any(f.startswith("periods_circle") for f in files)


def test_non_default_m0_record_found_by_sweep_and_verify(tmp_path, first_form):
    # the R ~ 9.53 form saved only as an M0 = 30 record (zero-padded
    # coefficients, so the form itself is unchanged)
    cache = tmp_path / "cache"
    padded = dataclasses.replace(first_form, M0=30, coefficients=np.pad(
        first_form.coefficients, (0, 30 - first_form.M0)))
    eigen.save_form(padded, eigen.cache_path(cache, (9.0, 10.0),
                                             padded.parity, 30))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recipe": "maass-restriction",
                               "brackets": [[9.0, 10.0]],
                               "t_grid": [4, 8, 16],
                               "n_range": [-30, 30],
                               "checks": ["maass-solver-self-consistency"],
                               "cache_dir": str(cache),
                               "out_dir": "out"}))
    res = run_cli(["--config", str(cfg), "sweep"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert any(f.startswith("periods_geodesic")
               for f in os.listdir(tmp_path / "out"))
    res = run_cli(["--config", str(cfg), "verify"], tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[PASS] maass-solver-self-consistency" in res.stdout


def test_outputs_follow_umask(tmp_path, first_form):
    record = tmp_path / "cache" / "form.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recipe": "sphere-sharpness",
                               "sphere_degrees": [10, 40],
                               "out_dir": "out"}))
    old = os.umask(0o022)
    try:
        eigen.save_form(first_form, record)
        res = run_cli(["--config", str(cfg), "sweep"], tmp_path)
    finally:
        os.umask(old)
    assert res.returncode == 0, res.stderr
    out = tmp_path / "out"
    assert sorted(os.listdir(out)) == ["sphere_sharpness.csv", "summary.json"]
    for path in (record, out / "sphere_sharpness.csv", out / "summary.json"):
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644, path
