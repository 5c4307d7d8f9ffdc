"""One pass of a workload in a fresh, single-threaded process.

Usage: python3 perfbench/worker.py WORKLOAD SEED [--trace]

Imports spnil from the checkout's src/, runs the workload's reports in order
through spnil.cli.main with stdout and stderr captured and every lru_cache
table emptied first, as a user's invocations would run them, and prints one
JSON line: the wall time of the
reports, the peak resident memory of this process, each report's exit status,
stdout and seconds, and with --trace the per-layer numbers of
layertrace.Tracer.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import layertrace
import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_reports(cli, argvs, tables, totals):
    results = []
    for argv in argvs:
        # Each CLI invocation is a new process for a user, so it starts with
        # empty tables and pays for dual_basis and _nil_system again.
        layertrace.clear_tables(tables, totals)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = exc.code
            except Exception:
                # A crashing report is a wrong output, not a crashed benchmark.
                status = "crash: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        results.append({"argv": argv, "exit": status, "stdout": out.getvalue(),
                        "seconds": time.perf_counter() - start})
    layertrace.clear_tables(tables, totals)
    return results


def main(argv):
    workload, seed, traced = argv[0], int(argv[1]), argv[2:] == ["--trace"]
    sys.path.insert(0, SRC)
    import spnil.cli

    if not spnil.cli.__file__.startswith(SRC + os.sep):
        raise SystemExit(f"spnil imported from {spnil.cli.__file__}, not from {SRC}")
    tables = layertrace.lru_tables()
    tracer = None
    if traced:
        tracer = layertrace.Tracer()
        tracer.install()
    argvs = workloads.reports(workload, seed)
    start = time.perf_counter()
    results = run_reports(spnil.cli, argvs, tables, tracer.cache_totals if tracer else None)
    wall = time.perf_counter() - start
    print(json.dumps({
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reports": results,
        "layers": tracer.metrics() if tracer else None,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
