"""Output oracle for the benchmark's reports.

golden.json maps each report's argv, joined by spaces, to the sha256 of its
stdout and its exit status, frozen from the seed commit at the default seed.
A report that takes no --seed prints the same bytes at every seed, so its
golden applies at every seed; one that takes --seed has its seed in its argv
and meets its golden only at the default seed.

At every seed the pass pattern must also hold: every check passes, except
the standing criterion-6 result EXPECTED_FAILURE, which must fail with every
measured Jacobian rank below 2n^2 + 2n.  That failure never counts as a
mismatch, and it is never skipped.
"""

import hashlib
import json
import os
import re

EXPECTED_FAILURE = "defining Jacobian has full rank with isotropic kernel"

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def load_goldens():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def problems(result, goldens):
    """Reasons why one report result (argv, exit, stdout) is wrong; empty if right."""
    found = []
    golden = goldens.get(" ".join(result["argv"]))
    if golden is not None:
        if digest(result["stdout"]) != golden["sha256"]:
            found.append("stdout differs from the frozen golden")
        if result["exit"] != golden["exit"]:
            found.append(f"exit {result['exit']}, golden {golden['exit']}")
    try:
        checks = json.loads(result["stdout"])["checks"]
    except (ValueError, KeyError, TypeError):
        return found + ["stdout is not a JSON report"]
    if not checks:
        found.append("report has no checks")
    failing = 0
    for check in checks:
        if check["name"] != EXPECTED_FAILURE:
            if not check["pass"]:
                found.append(f"check failed: {check['name']} {check['params']}")
            continue
        failing += 1
        n = check["params"]["n"]
        ranks = re.match(r"ranks \{([0-9,]+)\}", check["actual"])
        if check["pass"] or ranks is None:
            found.append(f"criterion 6 did not fail as measured: {check['actual']}")
        elif any(int(r) >= 2 * n * n + 2 * n for r in ranks.group(1).split(",")):
            found.append(f"criterion 6 reached full rank: {check['actual']}")
    if result["exit"] != (1 if failing else 0):
        found.append(f"exit {result['exit']} does not match the pass pattern")
    return found
