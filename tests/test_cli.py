import dataclasses
import json
import logging
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import geoperiods
from geoperiods import eigen, quad, verify
from geoperiods.cli import RECIPES, RunConfig, main
from geoperiods.hypgeom import orbit_from_spec

from conftest import CACHE_DIR

# Most tests call ``main`` in this process.  Two launch the real
# ``python -m geoperiods.cli`` entry point through ``run_cli``: the
# malformed-config exit and one density sweep; one more checks a fresh
# interpreter's modules through ``run_python``.  The child runs in
# tmp_path, where a relative PYTHONPATH (such as ``src``) no longer
# resolves, so the directory that holds the imported package goes first
# on the child's path.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(
    geoperiods.__file__)))


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          capture_output=True, text=True)


def run_cli(args, cwd):
    return run_python(["-m", "geoperiods.cli"] + args, cwd)


def run_main(args, capsys):
    """``main(args)`` in this process, returned in ``run_cli``'s shape."""
    code = main(args)
    captured = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, captured.out, captured.err)


def test_config_roundtrip_identity():
    cfg = RunConfig(recipe="sphere-sharpness", sphere_degrees=[10, 40],
                    tolerances={"table-integral-identity.rel_tol": 1e-9})
    text = cfg.to_json()
    again = RunConfig.from_json(text)
    assert again.to_json() == text


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        RunConfig.from_json(json.dumps({"tolerances": {"x": -1.0}}))
    with pytest.raises(ValueError):
        RunConfig.from_json(json.dumps({"brackets": [[10.0, 9.0]]}))
    with pytest.raises(ValueError):
        RunConfig.from_json(json.dumps({"no_such_field": 1}))


def test_density_lambda_whose_doubled_grid_fits_is_accepted():
    # |lam| = 34,906 starts the circle density on 2^19 points, so the one
    # doubling that settles its spectrum stays within the 2^20 cap; 34,907
    # would start on 2^20 (refused in test_bad_config_values_exit_2)
    RunConfig.from_json(json.dumps({"recipe": "density-regimes",
                                    "lambdas": [34906]}))
    with pytest.raises(ValueError, match="doubling is above the cap"):
        RunConfig.from_json(json.dumps({"recipe": "density-regimes",
                                        "lambdas": [34907]}))


def test_jobs_flag_is_a_usage_error(capsys):
    # a sweep runs on the calling thread; there is no flag to set a pool
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "1", "sweep"])
    assert exc.value.code == 2
    assert "geoperiods: error: " in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run_cli(["--config", str(bad), "sweep"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr


def test_sphere_sweep_deterministic(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recipe": "sphere-sharpness",
                               "sphere_degrees": [10, 40],
                               "out_dir": "out"}))
    r1 = run_main(["--config", str(cfg), "sweep"], capsys)
    assert r1.returncode == 0, r1.stderr
    first = (tmp_path / "out" / "sphere_sharpness.csv").read_bytes()
    r2 = run_main(["--config", str(cfg), "sweep"], capsys)
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


def test_missing_cache_instructive_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recipe": "maass-restriction",
                               "brackets": [[11.0, 11.5]],
                               "cache_dir": str(tmp_path / "empty")}))
    res = run_main(["--config", str(cfg), "sweep"], capsys)
    assert res.returncode == 1, res.stderr
    assert "solve" in res.stderr
    assert not (tmp_path / "out").exists()


def test_solve_no_brackets_warns_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"brackets": []}))
    res = run_main(["--config", str(cfg), "solve"], capsys)
    assert res.returncode == 0, res.stderr
    assert "nothing to do" in res.stderr


def test_verify_subset_pass_and_forced_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # a cheap check passes with defaults and fails under an absurd override
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checks": ["table-integral-identity"]}))
    res = run_main(["--config", str(cfg), "verify"], capsys)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[PASS] table-integral-identity" in res.stdout

    cfg.write_text(json.dumps({
        "checks": ["table-integral-identity"],
        "tolerances": {"table-integral-identity.rel_tol": 1e-30,
                       "table-integral-identity.n_samples": 1}}))
    res = run_main(["--config", str(cfg), "verify"], capsys)
    assert res.returncode == 1, res.stdout + res.stderr
    assert "[FAIL] table-integral-identity" in res.stdout


def test_no_command_imports_numpy_ma(tmp_path):
    # numpy.ma costs about 11 ms to import; np.unique and np.median pull
    # it in, so neither the import, a K_iR call nor criterion 04's
    # median may use them
    code = ("import sys\n"
            "import geoperiods.cli\n"
            "from geoperiods import specfun, verify\n"
            "specfun.bessel_k_imag(9.5, [0.05, 1.0, 9.0, 30.0])\n"
            "assert verify.check_circle_regimes().passed\n"
            "print('numpy.ma' in sys.modules)\n")
    res = run_python(["-c", code], tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_planted_roundtrip_with_nothing_planted_fails(tmp_path, capsys):
    # one plant over two density kinds rounds down to none per kind
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "checks": ["planted-coefficient-roundtrip"],
        "tolerances": {"planted-coefficient-roundtrip.n_plants": 1}}))
    res = run_main(["--config", str(cfg), "verify"], capsys)
    assert res.returncode == 1, res.stdout + res.stderr
    assert res.stdout.startswith("[FAIL] planted-coefficient-roundtrip")
    assert "0 plants" in res.stdout


def test_verify_skips_without_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "checks": ["maass-solver-self-consistency"],
        "cache_dir": str(tmp_path / "nocache")}))
    res = run_main(["--config", str(cfg), "verify"], capsys)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[SKIP]" in res.stdout


def test_maass_sweep_from_cache(tmp_path, monkeypatch, capsys):
    if not os.path.isdir(CACHE_DIR) or not os.listdir(CACHE_DIR):
        pytest.skip("no solved-form cache available")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recipe": "maass-restriction",
                               "brackets": [[9.0, 10.0]],
                               "t_grid": [4, 8, 16],
                               "n_range": [-30, 30],
                               "cache_dir": os.path.abspath(CACHE_DIR),
                               "out_dir": "out"}))
    monkeypatch.chdir(tmp_path)         # after CACHE_DIR is made absolute
    res = run_main(["--config", str(cfg), "sweep"], capsys)
    assert res.returncode == 0, res.stderr
    files = os.listdir(tmp_path / "out")
    assert "summary.json" in files
    assert any(f.startswith("periods_geodesic") for f in files)
    assert any(f.startswith("periods_circle") for f in files)


def test_default_sweep_reports_every_curve(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--cache", os.path.abspath(CACHE_DIR), "--out", str(out),
                 "sweep"]) == 0
    reports = json.loads((out / "summary.json").read_text())["reports"]
    geo, circ = map(orbit_from_spec, verify.ACCEPTANCE_CURVES)
    assert sorted(reports) == sorted([geo.curve_id(), circ.curve_id()])
    assert all(rep["passed"] is True for rep in reports.values())
    res = verify.check_average_bound_maass(cache_dir=CACHE_DIR)
    expected = json.loads(json.dumps(dataclasses.asdict(res.extras["circle"])))
    assert reports[circ.curve_id()] == expected


def test_default_sweep_logs_the_pullback_memo(tmp_path, caplog, capsys):
    # from an empty memo: 36,864 reductions of 8,035 distinct points (the
    # three forms share the curve points, restrict's grid is half its
    # double grid); the log line carries counts, no timing
    eigen.pullback.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="geoperiods.cli"):
        assert main(["--cache", os.path.abspath(CACHE_DIR),
                     "--out", str(tmp_path / "out"), "sweep"]) == 0
    assert [r.getMessage() for r in caplog.records
            if r.name == "geoperiods.cli"] == [
        "pullback memo over the sweep: 28829 hits, 8035 misses"]


def test_non_default_m0_record_found_by_sweep_and_verify(tmp_path, first_form,
                                                        monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # the R ~ 9.53 form saved only as an M0 = 30 record (zero-padded
    # coefficients, so the form itself is unchanged)
    cache = tmp_path / "cache"
    padded = dataclasses.replace(first_form, M0=30, coefficients=np.pad(
        first_form.coefficients, (0, 30 - first_form.M0)))
    assert os.path.basename(eigen.save_form(padded, cache)).endswith("_M30.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recipe": "maass-restriction",
                               "brackets": [[9.0, 10.0]],
                               "t_grid": [4, 8, 16],
                               "n_range": [-30, 30],
                               "checks": ["maass-solver-self-consistency"],
                               "cache_dir": str(cache),
                               "out_dir": "out"}))
    res = run_main(["--config", str(cfg), "sweep"], capsys)
    assert res.returncode == 0, res.stderr
    assert any(f.startswith("periods_geodesic")
               for f in os.listdir(tmp_path / "out"))
    res = run_main(["--config", str(cfg), "verify"], capsys)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[PASS] maass-solver-self-consistency" in res.stdout


def test_outputs_follow_umask(tmp_path, first_form, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recipe": "sphere-sharpness",
                               "sphere_degrees": [10, 40],
                               "out_dir": "out"}))
    old = os.umask(0o022)
    try:
        record = eigen.save_form(first_form, tmp_path / "cache")
        res = run_main(["--config", str(cfg), "sweep"], capsys)
    finally:
        os.umask(old)
    assert res.returncode == 0, res.stderr
    out = tmp_path / "out"
    assert sorted(os.listdir(out)) == ["sphere_sharpness.csv", "summary.json"]
    for path in (record, out / "sphere_sharpness.csv", out / "summary.json"):
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644, path


@pytest.mark.parametrize("command,config", [
    ("sweep", {"curves": [{"kind": "ellipse"}]}),
    ("solve", {"parity": "both"}),
    ("sweep", {"n_range": [-2000, 2000]}),
    ("sweep", {"curves": [{"kind": "geodesic", "matrix": [[1, 1], [0, 1]]}]}),
    ("sweep", {"t_grid": [8, 16]}),
    ("sweep", {"recipe": "sphere-sharpness", "sphere_degrees": [10, 13]}),
    ("sweep", {"recipe": "sphere-sharpness", "sphere_degrees": [100, 150]}),
    ("sweep", {"recipe": "sphere-sharpness", "sphere_degrees": [0, 20]}),
    ("sweep", {"n_range": [40]}),
    ("sweep", {"n_range": [5, -5]}),
    ("sweep", {"recipe": "density-regimes", "n_range": [5, -5]}),
    ("sweep", {"recipe": "density-regimes", "q_values": [0]}),
    ("sweep", {"t_grid": [8, 0, 32]}),
    ("sweep", {"recipe": "no-such-recipe"}),
    ("sweep", {"tolerances": {"extract_threshold": 2.0}}),
    ("solve", {"brackets": [[1.0, 5.0]]}),
    ("solve", {"brackets": [[41.0, 41.5]]}),
    ("solve", {"M0": 0}),
    ("solve", {"y0": 2.0}),
    ("sweep", {"recipe": "sphere-sharpness", "surface": "torus"}),
    ("verify", {"checks": ["table-integral-identiy"]}),
    ("verify", {"tolerances": {"table-integral-identiy.rel_tol": 1e-6}}),
    ("verify", {"tolerances": {"table-integral-identity.rel_tl": 1e-6}}),
    ("verify", {"tolerances": {"rel_tol": 1e-6}}),
    ("sweep", {"curves": [{"kind": "circle", "center": [0.2, 1.1],
                           "radius": 5e-4}]}),
    ("sweep", {"curves": [{"kind": "geodesic",
                           "matrix": [[1.001, 0.0], [0.0, 1.0]]}]}),
    ("sweep", {"t_grid": [8, 16, 32, 64, 128, 256]}),
    ("sweep", {"recipe": "density-regimes", "lambdas": ["x"]}),
    ("sweep", {"recipe": "density-regimes", "lambdas": [0]}),
    ("sweep", {"recipe": "density-regimes", "lambdas": [1e6]}),
    ("sweep", {"M0": 14.5}),
    ("verify", {"tolerances": {
        "test-vector-constants.t_values": [10.0, -1.0]}}),
    ("sweep", {"recipe": "density-regimes", "lambdas": [69000]}),
    ("sweep", {"M0": True}),
    ("sweep", {"tolerances": [1]}),
    ("sweep", {"out_dir": 5}),
    ("sweep", {"cache_dir": 5}),
    ("sweep", {"jobs": 1}),
])
def test_bad_config_values_exit_2(command, config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg), "--cache", str(tmp_path / "cache"),
                 "--out", str(tmp_path / "out"), command]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "cache").exists()
    assert not (tmp_path / "out").exists()


def test_maass_sweep_rerun_is_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recipe": "maass-restriction",
                               "brackets": [[9.0, 10.0], [12.0, 12.7]],
                               "t_grid": [4, 8, 16],
                               "n_range": [-30, 30],
                               "cache_dir": os.path.abspath(CACHE_DIR)}))
    outputs = []
    # the first run from an empty pullback memo, the second from the
    # memo it left
    eigen.pullback.cache_clear()
    for run in ("cold", "warm"):
        out = tmp_path / run
        # exit 1 either way: the ratios grow more than 3x from T = 4 to 16
        assert main(["--config", str(cfg), "--out", str(out), "sweep"]) == 1
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outputs[0]) == 5          # four period tables and the summary
    assert outputs[0] == outputs[1]


def test_list_override_reaches_the_check(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "checks": ["test-vector-constants"],
        "tolerances": {"test-vector-constants.t_values": [10.0]}}))
    assert main(["--config", str(cfg), "verify"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("[PASS] test-vector-constants")
    assert line.endswith("box minima T=10: 3.9985")


def test_unsettled_fourier_sum_exits_1_with_one_line(tmp_path, monkeypatch,
                                                     capsys):
    # one grid and no doubling: the circle density cannot settle.  The
    # density_b tables are computed before density_c raises, and none of
    # them is written
    monkeypatch.setattr(quad, "_FOURIER_MAX_DOUBLINGS", 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recipe": "density-regimes", "lambdas": [20.0],
                               "q_values": [1.0], "n_range": [-10, 10]}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                 "sweep"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["periodic_fourier: spectrum did not settle"]
    assert not (tmp_path / "out").exists()


def test_coarse_scan_table_exits_1_with_one_line(tmp_path, monkeypatch,
                                                 capsys):
    # a scan table of 4 nodes cannot reach its tail tolerance on (9, 10):
    # the solver raises ConditioningError before anything is cached
    monkeypatch.setattr(eigen, "_CHEB_NODES", 4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"brackets": [[9.0, 10.0]]}))
    assert main(["--config", str(cfg), "--cache", str(tmp_path / "cache"),
                 "solve"]) == 1
    [err] = capsys.readouterr().err.strip().splitlines()
    assert err.startswith("solver: K_iR table over [9.000000, 10.000000]: "
                          "Chebyshev tail ")
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_recipe_does_no_io_and_names_the_files_the_cli_writes(
        recipe, tmp_path, monkeypatch, capsys):
    cfg = RunConfig(recipe=recipe, brackets=[[9.0, 10.0]], n_range=[-30, 30],
                    sphere_degrees=[10, 40], lambdas=[20.0], q_values=[1.0],
                    cache_dir=os.path.abspath(CACHE_DIR)).validate()
    (tmp_path / "cfg.json").write_text(cfg.to_json())
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    files, lines, status = RECIPES[recipe](cfg)
    assert os.listdir(work) == []
    res = run_main(["--config", str(tmp_path / "cfg.json"), "sweep"], capsys)
    assert res.returncode == status == 0, res.stderr
    assert sorted(os.listdir(work / "out")) == sorted(files)
    assert res.stdout.splitlines() == lines


def test_budget_override_fails_over_budget(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "checks": ["table-integral-identity"],
        "tolerances": {"table-integral-identity.budget": 1e-9,
                       "table-integral-identity.n_samples": 1}}))
    assert main(["--config", str(cfg), "verify"]) == 1
    line = capsys.readouterr().out.strip()
    assert line.startswith("[FAIL] table-integral-identity")
    assert "OVER BUDGET" in line


def test_bad_cache_record_exits_1_with_one_line(tmp_path, capsys):
    cache = tmp_path / "cache"
    record = eigen.cache_path(cache, (9.0, 10.0), "odd", 22)
    os.makedirs(cache)
    with open(record, "w") as fh:
        fh.write('{"R": 9.53')
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"brackets": [[9.0, 10.0]], "t_grid": [4, 8, 16],
                               "n_range": [-30, 30]}))
    assert main(["--config", str(cfg), "--cache", str(cache),
                 "--out", str(tmp_path / "out"), "sweep"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("bad cache record ")
    assert record in err[0]


def test_crashed_check_reports_its_budget(monkeypatch, tmp_path, capsys):
    def boom(degrees):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "equator_norms", boom)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checks": ["sphere-equator-sharpness"]}))
    assert main(["--config", str(cfg), "verify"]) == 1
    line = capsys.readouterr().out.strip()
    assert line.startswith("[FAIL] sphere-equator-sharpness (")
    assert line.endswith("budget 60s) crashed: RuntimeError: boom")
