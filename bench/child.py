"""One benchmark round in a fresh interpreter: set up, then run one
geoperiods CLI command through ``geoperiods.cli.main``.

    python3 bench/child.py --result OUT.json [--trace] [--setup-only]
        [--read-config CFG] [--read-record REC ...] -- CLI ARGS...

``run.py`` starts this script with the BLAS pools pinned to one thread and
the package's source root on ``PYTHONPATH``.  Set-up is the interpreter
start, the ``geoperiods`` import and the reads named on the command line;
it ends when the CLI command starts.  The result file gets the monotonic
times at which the command started and ended, the exit code, the CLI's
standard output, the peak resident set and, with ``--trace``, the
per-layer figures of ``tracer.Tracer``.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--read-config")
    parser.add_argument("--read-record", action="append", default=[])
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from geoperiods import cli, eigen

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    if args.read_config:
        cli.load_config(args.read_config)
    for path in args.read_record:
        eigen.load_form(path)

    t_start = time.monotonic()
    cpu_start = time.process_time()
    rc = None
    out = io.StringIO()
    if not args.setup_only:
        with contextlib.redirect_stdout(out):
            rc = cli.main(cli_args)
    t_end = time.monotonic()
    cpu_end = time.process_time()
    if tracer is not None:
        tracer.uninstall()

    result = {
        "t_cmd_start": t_start,
        "t_cmd_end": t_end,
        "cpu_s": cpu_end - cpu_start,
        "rc": rc,
        "stdout": out.getvalue(),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.metrics() if tracer is not None else None,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
