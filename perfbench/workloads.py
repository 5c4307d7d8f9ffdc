"""The benchmark's workloads, each a list of spnil CLI invocations run in order.

The workload seed reaches the program only as the CLI's --seed, on the
reports that take one.  DEFAULT_SEED is the CLI's own default, at which the
frozen stdout goldens were taken.
"""

DEFAULT_SEED = 0


def _census(seed):
    return [["census", "-n", str(n)] for n in range(1, 5)]


def _tangent(seed):
    # -n 3 takes over a minute per pass and is left out.
    return [["verify", "lagrangian", "-n", str(n), "--seed", str(seed)] for n in (1, 2)]


def _symbolic(seed):
    # Each suite at the largest -n that finishes in seconds.
    suites = (("theta1-hom", 4), ("theta0-hom", 2), ("minors", 3),
              ("weyl", 3), ("relation", 4), ("dunkl", 4))
    return [["verify", suite, "-n", str(n), "--seed", str(seed)] for suite, n in suites] + [
        ["hilbert", "-n", "1", "--max-degree", "8"],
        ["radial", "-n", "4"],
        ["lemma-sl2", "--dim", "12"],
    ]


WORKLOADS = {"census": _census, "tangent": _tangent, "symbolic": _symbolic}


def reports(workload, seed):
    """CLI argument lists of one pass of the workload at the given seed."""
    return WORKLOADS[workload](seed)
