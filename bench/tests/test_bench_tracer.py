"""The tracer reaches functions imported by name, restores every
reference, and a traced round that loses a layer fails loudly."""

import importlib
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

pytest.importorskip("mpmath")

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from geoperiods import eigen, specfun, verify  # noqa: E402

RECORD = os.path.join(ROOT, "form_cache", "maass_odd_9.0000_10.0000_M22.json")


def test_name_imports_are_wrapped_and_restored():
    original = specfun.bessel_k_imag
    assert eigen.bessel_k_imag is original      # eigen imported it by name
    form = eigen.load_form(RECORD)
    with Tracer() as tracer:
        assert eigen.bessel_k_imag is not original
        assert eigen.bessel_k_imag.__wrapped__ is original
        form.value([0.1 + 1.2j, 0.3 + 0.9j, -0.2 + 2.0j])
    m = tracer.metrics()
    assert m["specfun.bessel_k_imag.calls"] >= 1      # the interpolation table
    assert m["eigen.pullback.calls"] == 3
    assert m["eigen.MaassForm.value.points"] == 3
    assert m["eigen.MaassForm.value.self_s"] <= m["eigen.MaassForm.value.s"]
    assert eigen.bessel_k_imag is original
    assert specfun.bessel_k_imag is original
    assert not hasattr(eigen.MaassForm.value, "__wrapped__")


def test_restrict_samples_come_from_evaluate():
    from geoperiods.eigen import sphere_harmonic
    from geoperiods.periods import SphereEquator
    periods = importlib.import_module("geoperiods.periods")
    with Tracer() as tracer:
        # looked up at call time, as the CLI's module globals are
        prof = periods.restrict(sphere_harmonic(12, 12), SphereEquator(),
                                grid=256)
    m = tracer.metrics()
    assert m["periods.restrict.samples"] == 3 * 256
    assert m["periods.restrict.kept_ratio"] == len(prof.samples) / (3 * 256)


def test_check_entries_are_wrapped_and_restored():
    name = "geodesic-three-regime-envelopes"
    before = list(verify.ALL_CHECKS)
    with Tracer() as tracer:
        (res,) = verify.run_checks(names=[name])
    assert res.passed
    m = tracer.metrics()
    assert m[f"verify.{name}.calls"] == 1
    assert m["modelrep.density_b.calls"] == 6
    assert verify.ALL_CHECKS == before


def test_recursive_calls_count_once_in_inclusive_time():
    tracer = Tracer()

    def fact(n):
        return 1 if n == 0 else n * wrapped(n - 1)

    wrapped = tracer.span("fact", fact)
    assert wrapped(5) == 120
    st = tracer.stats["fact"]
    assert st.calls == 6
    assert st.depth == 0
    assert st.self_s <= st.s + 1e-9


def test_lost_layer_fails_loudly(tmp_path, monkeypatch):
    def fake(rdir, rnd, trace=False, setup_only=False):
        return {"rc": 1, "stdout": "", "setup_s": 0.1, "wall_s": 1.0,
                "maxrss_kib": 1024,
                "trace": {"specfun.bessel_k_imag.calls": 3}}

    monkeypatch.setattr(run, "run_child", fake)
    r = run.Run(workloads.SolveCold(ROOT), seed=1, work=str(tmp_path))
    with pytest.raises(run.BenchError, match="eigen.hejhal_solve.calls"):
        r.round(trace=True)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in run.PER_LAYER]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_required_layers_are_published_or_counted():
    published = {name for name, _, _ in run.PER_LAYER}
    for cls in workloads.WORKLOADS.values():
        for metric in cls.required:
            layer = metric.rsplit(".", 1)[0]
            assert (metric in published
                    or any(p.startswith(layer + ".") for p in published)), metric
