"""Self-tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They take about three minutes on a 2-core host:
- the oracle rejects wrong bytes, a wrong exit status, a failing check and a
  criterion-6 result at full rank, and accepts the frozen goldens;
- every layer function imported elsewhere with `from .x import f` is rebound
  to its traced wrapper in every spnil module that holds it;
- on each workload, traced stdout equals untraced stdout byte for byte, and
  every per-layer metric mapped to that workload reads nonzero;
- two traced tangent passes under different PYTHONHASHSEED values give
  identical counts;
- BENCHMARK.json names the workloads and per-layer metrics defined here.
"""

import inspect
import json
import os
import sys

import layertrace
import oracle
import run
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = os.path.dirname(run.HERE)


def check_oracle():
    goldens = oracle.load_goldens()
    report = {
        "command": "verify", "n": 1, "seed": 0, "overall_pass": False,
        "checks": [
            {"name": oracle.EXPECTED_FAILURE, "params": {"n": 1}, "expected": "",
             "actual": "ranks {3}, 20 non-isotropic kernels", "pass": False},
            {"name": "stratum tangent frame", "params": {"n": 1}, "expected": "",
             "actual": "0 bad points", "pass": True},
        ],
    }

    def result(rep, status=1):
        return {"argv": ["verify", "lagrangian", "-n", "1", "--seed", "7"],
                "exit": status, "stdout": json.dumps(rep)}

    assert oracle.problems(result(report), goldens) == []
    assert oracle.problems(result(report, status=0), goldens)
    full_rank = json.loads(json.dumps(report))
    full_rank["checks"][0]["actual"] = "ranks {3,4}, 0 non-isotropic kernels"
    assert oracle.problems(result(full_rank), goldens)
    passing = json.loads(json.dumps(report))
    passing["checks"][0]["pass"] = True
    assert oracle.problems(result(passing, status=0), goldens)
    broken = json.loads(json.dumps(report))
    broken["checks"][1]["pass"] = False
    assert oracle.problems(result(broken), goldens)
    at_default = result(report)
    at_default["argv"] = ["verify", "lagrangian", "-n", "1", "--seed", str(DEFAULT_SEED)]
    assert oracle.problems(at_default, goldens) == ["stdout differs from the frozen golden"]


def check_rebinding():
    sys.path.insert(0, run.SRC)
    import spnil.cli  # noqa: F401  (loads every layer module)

    originals = {}
    for layer in layertrace.LAYERS[1:]:
        mod = sys.modules[f"spnil.{layer}"]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__ and not inspect.isgeneratorfunction(obj)):
                originals[id(obj)] = f"{layer}.{name}"
    holders = [m for name, m in sys.modules.items() if name == "spnil" or name.startswith("spnil.")]
    layertrace.Tracer().install()
    for mod in holders:
        for name, obj in vars(mod).items():
            assert id(obj) not in originals, f"{mod.__name__}.{name} still untraced"
    varieties, splie = sys.modules["spnil.varieties"], sys.modules["spnil.splie"]
    assert varieties.coords_of is splie.coords_of
    assert splie.coords_of.__wrapped__ is not None


def check_workloads():
    """Trace each workload once; returns the traced tangent counts."""
    tangent = None
    for workload in WORKLOADS:
        plain = run.run_pass(workload, DEFAULT_SEED)
        traced = run.run_pass(workload, DEFAULT_SEED, traced=True)
        tally = run.Tally()
        tally.check(plain)
        tally.check(traced, plain)
        assert not tally.reasons, tally.reasons
        zero = [name for name, spec in layertrace.METRICS.items()
                if workload in spec[3] and not traced["layers"][name]]
        assert not zero, f"{workload}: mapped metrics read zero: {zero}"
        print(f"  {workload}: untraced {plain['wall_s']:.2f} s, traced {traced['wall_s']:.2f} s")
        if workload == "tangent":
            tangent = traced["layers"]
    return tangent


def counts(layers):
    return {name: value for name, value in layers.items()
            if layertrace.METRICS[name][0] != "s"}


def check_exact_counts(tangent):
    other = [run.run_pass("tangent", DEFAULT_SEED, traced=True, hash_seed=h)["layers"]
             for h in ("1", "2")]
    for layers in other:
        assert counts(layers) == counts(tangent), "counts differ across PYTHONHASHSEED"
    print(f"  field.mul = {tangent['field.mul']} under PYTHONHASHSEED 0, 1 and 2")


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    defined = {name: s[:2] for name, s in layertrace.METRICS.items()}
    assert declared == defined, set(declared.items()) ^ set(defined.items())


def main():
    check_oracle()
    print("ok oracle")
    check_benchmark_json()
    print("ok BENCHMARK.json")
    tangent = check_workloads()
    print("ok traced stdout equals untraced; mapped metrics nonzero")
    check_exact_counts(tangent)
    print("ok exact counts")
    check_rebinding()
    print("ok rebinding")


if __name__ == "__main__":
    main()
