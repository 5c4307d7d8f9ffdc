"""spnil benchmark: one workload, timed end to end or traced layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 0 --seconds 30 --trace 0

--trace 0 runs untraced passes of the workload, each in a fresh worker
process with cold tables, until the next pass would end past --seconds (at
least one pass), and reports the median wall_s and peak_rss_mb over the
passes, and setup_s, the median time of fresh interpreters starting and
importing spnil.cli, timed between the passes.

--trace 1 runs pairs of passes, untraced then traced, the same way, and
reports the per-layer metrics of layertrace.METRICS: medians of the traced
times, the counts (which must repeat exactly from pass to pass), and
trace.overhead_s, the median traced minus untraced wall time.  Traced stdout
must equal untraced stdout byte for byte.

Every report goes through oracle.problems.  A summary, with mismatch_ratio
(reports that fail the oracle over reports run), goes to stdout first; the
last line is the JSON result.  Exit status 2 means the checkout has no
spnil sources to measure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import layertrace
import oracle
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKER = os.path.join(HERE, "worker.py")
# Set-up is timed a few times before each pass, so that its median spans the
# run like wall_s does, and at least SETUP_MIN times in all.
SETUP_PER_PASS = 3
SETUP_MIN = 15
# A hung worker is killed well before a run reaches three minutes.
WORKER_TIMEOUT_S = 150
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env(hash_seed="0"):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    # Imports read and write bytecode caches under src/ as a user's would,
    # whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def time_setup(samples):
    """Seconds from starting a fresh interpreter to spnil.cli imported, per sample."""
    # The child reads the system-wide monotonic clock once spnil.cli is
    # imported; timing its exit from here instead would add the coarse
    # polling of subprocess's timeout wait.
    code = "import spnil.cli, time; print(time.perf_counter())"
    took = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        took.append(float(proc.stdout) - start)
    return took


def run_pass(workload, seed, traced=False, hash_seed="0"):
    """Run one pass in a fresh worker process and return its parsed result."""
    cmd = [sys.executable, WORKER, workload, str(seed)] + (["--trace"] if traced else [])
    proc = subprocess.run(cmd, env=child_env(hash_seed), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def repeat(seconds, run_once):
    """Results of run_once, repeated until the next call would end past seconds."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(run_once())
        if time.perf_counter() - start + (time.perf_counter() - began) > seconds:
            return results


class Tally:
    """Reports attempted and failed, and the reason for each fault found."""

    def __init__(self):
        self.goldens = oracle.load_goldens()
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, result, untraced=None):
        """Check one pass; a traced pass must also match its untraced twin."""
        for i, report in enumerate(result["reports"]):
            self.attempted += 1
            found = oracle.problems(report, self.goldens)
            if untraced is not None:
                twin = untraced["reports"][i]
                if (twin["stdout"], twin["exit"]) != (report["stdout"], report["exit"]):
                    found.append("traced output differs from untraced")
            if found:
                self.failed += 1
                self.reasons.append(" ".join(report["argv"]) + ": " + "; ".join(found))


def end_to_end(args, tally):
    setups = []

    def run_once():
        setups.extend(time_setup(SETUP_PER_PASS))
        return run_pass(args.workload, args.seed)

    passes = repeat(args.seconds, run_once)
    setups.extend(time_setup(max(0, SETUP_MIN - len(setups))))
    for result in passes:
        tally.check(result)
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return values, END_TO_END, [p["wall_s"] for p in passes]


def per_layer(args, tally):
    pairs = repeat(args.seconds, lambda: (run_pass(args.workload, args.seed),
                                          run_pass(args.workload, args.seed, traced=True)))
    for untraced, traced in pairs:
        tally.check(untraced)
        tally.check(traced, untraced)
    layers = [traced["layers"] for _, traced in pairs]
    units = {name: spec[0] for name, spec in layertrace.METRICS.items()}
    values = {}
    for name in layertrace.METRICS:
        if name == "trace.overhead_s":
            values[name] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
        elif units[name] == "s":
            values[name] = statistics.median(layer[name] for layer in layers)
        else:
            if any(layer[name] != layers[0][name] for layer in layers):
                tally.reasons.append(f"count {name} differs between traced passes")
            values[name] = layers[0][name]
    return values, units, [untraced["wall_s"] for untraced, _ in pairs]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spnil", "cli.py")):
        print(f"no spnil sources at {SRC}: run from the root of a spnil checkout",
              file=sys.stderr)
        return 2

    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    values, units, walls = measure(args, tally)

    kind = "pairs of untraced and traced passes" if args.trace else "passes"
    print(f"{args.workload} seed={args.seed}: {len(walls)} {kind}, medians; untraced pass "
          "wall_s " + " ".join(f"{w:.3f}" for w in walls))
    for name, value in values.items():
        print(f"  {name} = {value} {units[name]}")
    print(f"  mismatch_ratio = {tally.failed / tally.attempted} "
          f"({tally.failed} of {tally.attempted} reports)")
    for reason in tally.reasons:
        print(f"  MISMATCH {reason}")
    print(json.dumps({
        "correct": not tally.reasons,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
