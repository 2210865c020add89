"""Benchmark of geoperiods, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round starts a fresh interpreter
(``bench/child.py``) with the BLAS thread pools pinned to one thread,
which runs one ``solve``, ``sweep`` or ``verify`` command through
``geoperiods.cli.main``; this process then checks the round's outputs.
Rounds repeat while the next one is expected to end within ``--seconds``
(at least one round runs).  Inputs to the program are fixed; ``--seed``
only chooses where the outputs are checked.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (interpreter,
import, config and form-record reads, up to the CLI command; median over
the rounds and extra set-up-only starts), ``wall_s`` (the CLI command;
median over rounds) and ``peak_rss_mb`` (the round process's peak
resident set; median).  ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer metrics of the traced ones, with
``trace.overhead_s`` the difference of their median wall times.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details of the run go to
``bench/out/``.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

# One BLAS thread in this process and in every round process, set before
# numpy loads; importing this module (as its tests do) changes nothing.
_PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(_PINNED)

import numpy as np  # noqa: E402

from workloads import WORKLOADS, VerifyModel, digest_files  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
OUT = os.path.join(BENCH, "out")
SETUP_PROBES = 4            # set-up-only starts per untraced run
CHILD_TIMEOUT = 150.0

MODULES = ("cli", "eigen", "hypgeom", "modelrep", "periods", "quad",
           "specfun", "verify")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))


def _layer(prefix, *metrics):
    units = {"calls": "count", "points": "count", "nodes": "count",
             "evaluations": "count", "entries": "count", "samples": "count",
             "constructed": "count", "bytes": "B", "self_s": "s", "s": "s",
             "points_per_s": "1/s", "solved_ratio": "ratio",
             "kept_ratio": "ratio", "src_lines": "count"}
    higher = {"points_per_s", "solved_ratio", "kept_ratio"}
    return [(f"{prefix}.{m}", units[m], "higher" if m in higher else "lower")
            for m in metrics]


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    _layer("specfun.bessel_k_imag", "calls", "points", "self_s", "points_per_s")
    + _layer("specfun.log_gamma", "calls", "points", "self_s")
    + _layer("specfun.table_integral", "calls", "self_s")
    + _layer("quad.oscillatory_integral", "calls", "nodes", "self_s")
    + _layer("quad.integrate_adaptive", "calls", "evaluations", "self_s")
    + _layer("quad.periodic_fourier", "calls", "evaluations", "self_s")
    + _layer("modelrep.model_functional", "calls", "self_s")
    + _layer("modelrep.density_b", "calls", "entries", "self_s")
    + _layer("modelrep.density_c", "calls", "entries", "self_s")
    + _layer("hypgeom.CircleOrbit.points", "calls", "points", "self_s")
    + _layer("hypgeom.GroupElement", "constructed")
    + _layer("hypgeom.mobius_act", "calls")
    + _layer("eigen.hejhal_solve", "calls", "s", "solved_ratio")
    + _layer("eigen.pullback", "calls", "self_s")
    + _layer("eigen.MaassForm.value", "calls", "points", "self_s")
    + _layer("eigen.save_form", "calls", "s")
    + _layer("eigen.load_form", "calls", "s")
    + _layer("periods.restrict", "calls", "samples", "kept_ratio", "self_s")
    + _layer("periods.periods", "self_s")
    + _layer("periods.extract_coefficients", "self_s")
    + _layer("periods.period_table_to_csv", "s", "bytes")
    + _layer("periods.report_to_json", "s")
    + [m for name in VerifyModel.check_names
       for m in _layer(f"verify.{name}", "s")]
    + [m for mod in MODULES + ("geoperiods",) for m in _layer(mod, "src_lines")]
    + [("trace.overhead_s", "s", "lower")]
)


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ, **_PINNED)
    env.pop("GEOPERIODS_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run_child(rdir, rnd, trace=False, setup_only=False):
    """Start one round process and return its result with ``setup_s`` and
    ``wall_s`` filled in."""
    result_path = os.path.join(rdir, "result-trace.json" if trace
                               else "result.json")
    argv = [sys.executable, CHILD, "--result", result_path]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    if rnd.read_config:
        argv += ["--read-config", rnd.read_config]
    for path in rnd.read_records:
        argv += ["--read-record", path]
    argv += ["--"] + rnd.cli_args
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=rdir, env=_child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round process timed out after {exc.timeout:g}s")
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"round process exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    with open(result_path) as fh:
        res = json.load(fh)
    res["setup_s"] = res["t_cmd_start"] - t_spawn
    res["wall_s"] = res["t_cmd_end"] - res["t_cmd_start"]
    return res


class Run:
    """The rounds of one benchmark run and their checked outcomes."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.rng = np.random.default_rng(seed)
        self.work = work
        self.rounds = []            # (traced, result)
        self.setup_probes = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = None
        self.reproducible = True

    def probe_setup(self):
        rdir = tempfile.mkdtemp(dir=self.work)
        try:
            res = run_child(rdir, self.workload.prepare(rdir), setup_only=True)
        finally:
            shutil.rmtree(rdir)
        self.setup_probes.append(res["setup_s"])

    def round(self, trace):
        rdir = tempfile.mkdtemp(dir=self.work)
        try:
            res = run_child(rdir, self.workload.prepare(rdir), trace=trace)
            try:
                outcome = self.workload.check(rdir, res, self.rng)
                digests = self.workload.outputs(rdir)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                # missing or malformed output fails the round's operations
                outcome = {op: [f"output unreadable: {exc!r}"]
                           for op in self.workload.operations()}
                digests = None
        finally:
            shutil.rmtree(rdir)
        for op in self.workload.operations():
            self.attempted += 1
            problems = outcome.get(op, ["operation not checked"])
            if problems:
                self.failed += 1
                self.problems += [f"{op}: {p}" for p in problems]
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.reproducible = False
            self.problems.append("round outputs differ from the first round's")
        if trace:
            missing = [m for m in self.workload.required
                       if not res["trace"].get(m)]
            if missing:
                raise BenchError(
                    f"traced round recorded no work in {', '.join(missing)}; "
                    "the tracer lost a layer")
        self.rounds.append((trace, res))
        return res


def _median(values):
    return statistics.median(values) if values else 0.0


def src_lines():
    out = {}
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "geoperiods", "*.py"))):
        with open(path) as fh:
            n = sum(1 for _ in fh)
        total += n
        name = os.path.splitext(os.path.basename(path))[0]
        if name in MODULES:
            out[f"{name}.src_lines"] = n
    out["geoperiods.src_lines"] = total
    return out


def end_to_end_metrics(run):
    walls = [r["wall_s"] for _, r in run.rounds]
    setups = run.setup_probes + [r["setup_s"] for _, r in run.rounds]
    rss = [r["maxrss_kib"] / 1024.0 for _, r in run.rounds]
    return {"setup_s": _median(setups), "wall_s": _median(walls),
            "peak_rss_mb": _median(rss)}


def per_layer_metrics(run):
    traced = [r for t, r in run.rounds if t]
    plain = [r for t, r in run.rounds if not t]
    values = {name: _median([r["trace"].get(name, 0) for r in traced])
              for name, _, _ in PER_LAYER}
    values.update(src_lines())
    values["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                  - _median([r["wall_s"] for r in plain]))
    return values


def _digest_records(root):
    return digest_files(glob.glob(os.path.join(root, "form_cache", "*.json")))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "geoperiods", "cli.py")):
        raise BenchError(f"no geoperiods sources under {SRC}; run from the "
                         "root of a checkout")
    sys.path.insert(0, SRC)
    import geoperiods  # noqa: F401  (compiles the package once, off the clock)

    workload = WORKLOADS[args.workload](ROOT)
    records_before = _digest_records(ROOT)
    if len(records_before) < 3:
        raise BenchError("form_cache/ lacks the three committed form records")
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        run = Run(workload, args.seed, work)
        t0 = time.monotonic()
        if not args.trace:
            for _ in range(SETUP_PROBES):
                run.probe_setup()
        t_rounds = time.monotonic()
        n = 0
        while True:
            run.round(trace=False)
            if args.trace:
                run.round(trace=True)
            n += 1
            now = time.monotonic()
            if now - t0 + (now - t_rounds) / n > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    intact = _digest_records(ROOT) == records_before
    if not intact:
        run.problems.append("form_cache/ records changed during the run")
    metrics = per_layer_metrics(run) if args.trace else end_to_end_metrics(run)
    units = dict(END_TO_END)
    units.update((name, unit) for name, unit, _ in PER_LAYER)
    line = {"correct": intact and run.reproducible,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}
    for problem in run.problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)
    detail = dict(line, workload=args.workload, seed=args.seed,
                  trace=args.trace, problems=run.problems,
                  rounds=[{"traced": t, "setup_s": r["setup_s"],
                           "wall_s": r["wall_s"], "cpu_s": r["cpu_s"],
                           "maxrss_kib": r["maxrss_kib"],
                           "trace": r["trace"]} for t, r in run.rounds],
                  setup_probes=run.setup_probes)
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}-"
                                f"seed{args.seed}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(line))
    return 0


def _terminate(signum, frame):
    # unwinding lets subprocess.run kill and reap the round process
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        sys.exit(1)
