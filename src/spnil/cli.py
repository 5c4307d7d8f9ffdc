"""Command-line surface for the exact verification suites.

Subcommands:
  census     Jordan-type table with closure dimensions
  verify     named invariant suites
  hilbert    graded dimension comparison
  radial     vacuum scalars and the radial operator identity
  lemma-sl2  lowest-coefficient membership against the weight sign

build_parser declares each subcommand once: its arguments, the bound of each
argument as its argparse type, and its runner.  Reports are written to
standard output as JSON (default) or CSV, with every scalar rendered as an
exact fraction string.  Wall-clock time goes to the error stream so that
stdout is byte-identical across runs with the same arguments.  Exit status:
0 all checks pass, 1 some check fails, 2 usage error.
"""

import argparse
import csv
import io
import json
import random
import sys
import time
from fractions import Fraction

from .field import FieldScalar
from .poly import MultiPoly, monomials
from .splie import (
    MatF,
    RootDatumC,
    bracket,
    mat_from_coords,
    omega,
    raw_square,
    sp_basis,
    sp_dim,
    trace_pair,
)
from .weylosc import (
    OscVector,
    WeylElement,
    classical_comoment,
    osc_apply,
    symmetrize_quadratic,
    theta0,
    theta1,
    weight_zero_scalar,
)
from .orbits import census, component_types, lowest_coefficient_membership
from .varieties import (
    SchemePoint,
    embedding_pullback_check,
    hilbert_compare,
    lagrangian_check,
    moment2,
    odd_char_coeffs_vanish,
    sample_xnil_point,
    stratum_tangent_check,
    theta1_kills_minors,
    unipotent_factors,
)
from .cherednik import (
    Params,
    SINGULAR,
    check_hc_relation,
    dunkl_commute,
    h_registry,
    radial_match,
)

# keep pure-Python runtimes sane; everything else follows the global n <= 4
_SUITE_CAP = {"theta1-hom": 3, "theta0-hom": 2, "minors": 3, "lagrangian": 2, "embedding": 3}

# verify lagrangian -n 2 costs about 2 ms per sampled point, so 0.66 to 0.78 s
# at 100 trials over its four Jordan types (five runs, shared 2-vCPU Intel
# Xeon host); at -n 4 and 100 trials it takes 13 to 21 s (three runs, same host)
MAX_TRIALS = 100


def _check(name, params, expected, actual, passed):
    return {
        "name": name,
        "params": params,
        "expected": expected,
        "actual": actual,
        "pass": bool(passed),
    }


def _tally(name, params, bad, noun, expected=None):
    """A check that counts its bad cases: it passes when there are none."""
    return _check(name, params, expected or f"0 {noun}", f"{bad} {noun}", bad == 0)


def _verdict(name, params, expected, ok, yes, no):
    """A yes/no check: its actual value reads yes when ok holds, else no."""
    return _check(name, params, expected, yes if ok else no, ok)


def _report(command, n, seed, checks):
    return {
        "command": command,
        "n": n,
        "seed": seed,
        "checks": checks,
        "overall_pass": all(c["pass"] for c in checks),
    }


def _rand_sp(n, rng):
    return mat_from_coords(_rand_vec(sp_dim(n), rng), n)


def _rand_mat(size, rng):
    return MatF([[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)])


def _rand_vec(size, rng):
    return [FieldScalar(rng.randint(-2, 2)) for _ in range(size)]


def _conjugator(n, rng):
    g = MatF.identity(2 * n)
    ginv = MatF.identity(2 * n)
    for f, finv in unipotent_factors(n, rng):
        g = f @ g
        ginv = ginv @ finv
    return g, ginv


def _homomorphism_checks(name, theta, n):
    """theta maps the bracket of every pair of sp_basis elements to the
    commutator of their images."""
    basis = sp_basis(n)
    images = [theta(b) for b in basis]
    bad = total = 0
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            total += 1
            if theta(bracket(a, b)) != images[i].commutator(images[j]):
                bad += 1
    return [_tally(f"{name} bracket homomorphism", {"n": n, "basis_pairs": total},
                   bad, "mismatches")]


def suite_minors(n, rng, trials):
    return [
        _verdict("theta1 annihilates the 2x2 rank minors", {"n": n}, "all minors map to 0",
                 theta1_kills_minors(n), "all zero", "nonzero image"),
        _verdict("odd characteristic coefficients vanish on sp", {"n": n},
                 "e_1, e_3, ... identically 0",
                 odd_char_coeffs_vanish(n), "all zero", "nonzero coefficient"),
    ]


def suite_weyl(n, rng, trials):
    checks = []

    bad = 0
    for i in range(n):
        for j in range(n):
            want = WeylElement.one(n) if i == j else WeylElement.zero(n)
            if WeylElement.ygen(n, i).commutator(WeylElement.xgen(n, j)) != want:
                bad += 1
            if WeylElement.xgen(n, i).commutator(WeylElement.xgen(n, j)) != WeylElement.zero(n):
                bad += 1
            if WeylElement.ygen(n, i).commutator(WeylElement.ygen(n, j)) != WeylElement.zero(n):
                bad += 1
    checks.append(_tally("canonical commutation relations", {"n": n, "generator_pairs": 3 * n * n},
                         bad, "violations", "[y_i,x_j]=delta, generators of equal kind commute"))

    bad = 0
    for b in sp_basis(n):
        if theta1(b) != symmetrize_quadratic(classical_comoment(b)):
            bad += 1
    checks.append(_tally("theta1 equals symmetrized classical co-moment",
                         {"n": n, "basis_size": sp_dim(n)},
                         bad, "mismatches", "agreement on every basis element"))

    bad = 0
    for _ in range(trials):
        u = theta1(_rand_sp(n, rng))
        v = theta1(_rand_sp(n, rng))
        w = theta1(_rand_sp(n, rng))
        prod = u * v
        if not prod.is_even() or not u.is_even():
            bad += 1
        if prod.order() > u.order() + v.order():
            bad += 1
        if prod * w != u * (v * w):
            bad += 1
    checks.append(_tally("even subalgebra, filtration, associativity",
                         {"n": n, "trials": trials}, bad, "violations"))

    bad = 0
    for _ in range(trials):
        exp = tuple(2 * rng.randint(0, 3) - 1 for _ in range(n))
        mono = OscVector(n, {exp: FieldScalar(1)})
        weights = []
        for i in range(n):
            scaled = osc_apply(theta1(sp_basis(n)[i]), mono)
            weight = FieldScalar(Fraction(exp[i] + 1, 2))
            if scaled != mono.scale(weight):
                bad += 1
            weights.append(weight)
        if (exp == (-1,) * n) != all(not w for w in weights):
            bad += 1
    checks.append(_tally("h-weights on the oscillator module", {"n": n, "trials": trials},
                         bad, "violations",
                         "monomial weight (e_i+1)/2; zero weight only on the vacuum"))
    return checks


def _param_sets(rng):
    def rand_c():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4)))

    return [
        ("c=(-1/4,-1/2)", SINGULAR),
        ("random c", Params.of(rand_c(), rand_c())),
    ]


def suite_dunkl(n, rng, trials):
    registry = h_registry(n)
    checks = []
    for label, prm in _param_sets(rng):
        bad = total = 0
        for _ in range(trials):
            exp = [0] * n
            for _ in range(rng.randint(0, 4)):
                exp[rng.randrange(n)] += 1
            p = MultiPoly(registry, {tuple(exp): FieldScalar(rng.randint(1, 3))})
            i = rng.randrange(n)
            j = rng.randrange(n)
            total += 1
            if not dunkl_commute(i, j, p, prm):
                bad += 1
        checks.append(_tally("Dunkl operators commute",
                             {"n": n, "coupling": label, "trials": total}, bad, "failures"))
    return checks


def suite_relation(n, rng, trials):
    registry = h_registry(n)
    monos = []
    for d in range(4):
        for exp in monomials(n, d):
            monos.append(MultiPoly(registry, {exp: FieldScalar(1)}))
    checks = []
    for label, prm in _param_sets(rng):
        bad = total = 0
        for p in monos:
            for x_idx in range(n):
                for y_idx in range(n):
                    total += 1
                    if not check_hc_relation(x_idx, y_idx, p, prm):
                        bad += 1
        checks.append(_tally("commutator relation [T_y, t_x]",
                             {"n": n, "coupling": label, "cases": total}, bad, "failures"))
    return checks


def suite_lagrangian(n, rng, trials):
    checks = []
    target = 2 * n * n + 2 * n
    for lam in component_types(n):
        ranks = set()
        iso_bad = 0
        frame_bad = 0
        for t in range(trials):
            point = sample_xnil_point(lam, seed=rng.randrange(10 ** 9))
            rep = lagrangian_check(point)
            ranks.add(rep.jacobian_rank)
            if not rep.isotropic:
                iso_bad += 1
            frame = stratum_tangent_check(point)
            if (
                frame.frame_rank != target
                or not frame.inside_kernel
                or not frame.isotropic
            ):
                frame_bad += 1
        rank_list = ",".join(str(r) for r in sorted(ranks))
        checks.append(
            _check(
                "defining Jacobian has full rank with isotropic kernel",
                {"n": n, "lambda": list(lam), "points": trials},
                f"rank {target} at every point, kernel isotropic",
                f"ranks {{{rank_list}}}, {iso_bad} non-isotropic kernels",
                ranks == {target} and iso_bad == 0,
            )
        )
        checks.append(
            _tally("stratum tangent frame is half-dimensional and isotropic",
                   {"n": n, "lambda": list(lam), "points": trials}, frame_bad, "bad points",
                   f"rank {target} frame inside the kernel, isotropic")
        )
    return checks


def suite_equivariance(n, rng, trials):
    checks = []
    bad = 0
    for _ in range(trials):
        x = _rand_mat(2 * n, rng)
        y = _rand_mat(2 * n, rng)
        vec = _rand_vec(2 * n, rng)
        g, ginv = _conjugator(n, rng)
        left = moment2(SchemePoint(n, g @ x @ ginv, g @ y @ ginv, tuple(g.apply(vec))))
        right = g @ moment2(SchemePoint(n, x, y, tuple(vec))) @ ginv
        if left != right:
            bad += 1
    checks.append(_tally("moment map equivariance under unipotent conjugation",
                         {"n": n, "trials": trials}, bad, "failures"))

    bad = 0
    for _ in range(trials):
        vec = _rand_vec(2 * n, rng)
        g, ginv = _conjugator(n, rng)
        if raw_square(g.apply(vec)) != g @ raw_square(vec) @ ginv:
            bad += 1
        m = _rand_sp(n, rng)
        half = FieldScalar(Fraction(1, 2))
        lhs = trace_pair(raw_square(vec).scale(-half), m)
        rhs = half * omega(m.apply(vec), vec)
        if lhs != rhs:
            bad += 1
    checks.append(_tally("square map equivariance and pairing identity",
                         {"n": n, "trials": trials}, bad, "failures"))
    return checks


def suite_embedding(n, rng, trials):
    return [_verdict("symplectic form pulls back through the embedding", {"n": n},
                     "equality on all tangent pairs",
                     embedding_pullback_check(n), "equal", "mismatch")]


# each suite is called as suite(n, rng, trials) and returns its checks
SUITES = {
    "theta1-hom": lambda n, rng, trials: _homomorphism_checks("theta1", theta1, n),
    "theta0-hom": lambda n, rng, trials: _homomorphism_checks("theta0", theta0, n),
    "minors": suite_minors,
    "weyl": suite_weyl,
    "dunkl": suite_dunkl,
    "relation": suite_relation,
    "lagrangian": suite_lagrangian,
    "equivariance": suite_equivariance,
    "embedding": suite_embedding,
}


def run_verify(args):
    rng = random.Random(args.seed)
    if args.suite != "all":
        return SUITES[args.suite](args.n, rng, args.trials)
    checks = []
    for name, suite in SUITES.items():
        eff = min(args.n, _SUITE_CAP.get(name, 4))
        if eff != args.n:
            print(f"note: {name} capped at n={eff}", file=sys.stderr)
        checks.extend(suite(eff, rng, args.trials))
    return checks


def run_census(args):
    n = args.n
    full = 2 * n * n + 2 * n
    checks = []
    for row in census(n):
        expected = f"xlambda_dim = {full}" if row.is_component else f"xlambda_dim < {full}"
        good = (row.xlambda_dim == full) == row.is_component
        checks.append(
            _check(
                "closure dimension",
                {
                    "lambda": list(row.partition),
                    "orbit_dim": row.orbit_dim,
                    "vplus_dim": row.vplus_dim,
                    "xlambda_dim": row.xlambda_dim,
                    "is_component": row.is_component,
                },
                expected,
                str(row.xlambda_dim),
                good,
            )
        )
    return checks


def run_hilbert(args):
    return [_check("graded dimensions agree", {"degree": row.degree},
                   str(row.dim_left), str(row.dim_right), row.equal)
            for row in hilbert_compare(args.n, args.dmax)]


def run_radial(args):
    n = args.n
    checks = []
    datum = RootDatumC(n)
    for root in datum.positive_roots:
        value = weight_zero_scalar(n, root)
        expected = "-3/16" if root.length == "long" else "-1/8"
        checks.append(
            _check(
                "vacuum scalar of e_a e_-a",
                {
                    "root": [str(c) for c in root.coeffs],
                    "length": root.length,
                },
                expected,
                str(value),
                str(value) == expected,
            )
        )
    checks.append(_verdict("radial operator equals L_c at c=(-1/4,-1/2)",
                           {"n": n, "root_pairs": len(datum.positive_roots)},
                           "operators identical", radial_match(n), "identical", "different"))
    return checks


def run_lemma_sl2(args):
    dim = args.n
    checks = []
    for k in range(dim):
        member = lowest_coefficient_membership([dim], k)
        weight = 2 * k - (dim - 1)
        positive = weight > 0
        checks.append(
            _check(
                "lowest-coefficient membership",
                {"dim": dim, "k": k, "weight": weight},
                "member" if positive else "nonmember",
                "member" if member else "nonmember",
                member == positive,
            )
        )
    return checks


# the CSV layout of a report, by command: its header and the row of one check
_CSV = {
    "census": (
        ["lambda", "orbit_dim", "vplus_dim", "xlambda_dim", "is_component"],
        lambda c, p: ["(" + ",".join(str(v) for v in p["lambda"]) + ")", p["orbit_dim"],
                      p["vplus_dim"], p["xlambda_dim"], p["is_component"]],
    ),
    "hilbert": (
        ["degree", "dim_left", "dim_right", "equal"],
        lambda c, p: [p["degree"], c["expected"], c["actual"], c["pass"]],
    ),
}
_CSV_CHECKS = (
    ["name", "params", "expected", "actual", "pass"],
    lambda c, p: [c["name"], ";".join(f"{k}={v}" for k, v in p.items()),
                  c["expected"], c["actual"], c["pass"]],
)


def emit_report(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    header, row = _CSV.get(report["command"], _CSV_CHECKS)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(row(c, c["params"]) for c in report["checks"])
    return out.getvalue()


def _bounded(lo, hi, message):
    """The argparse type of an int argument bounded to lo..hi: a value out of
    range is refused with message, which argparse reports as a usage error."""
    def parse(text):
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = "int"  # argparse names a non-integer "invalid int value"
    return parse


def _rank(command):
    return _bounded(1, 4, f"{command} requires 1 <= n <= 4")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spnil",
        description="exact verification suites for sp(2n) constructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        return p

    p = command("census", run_census, "Jordan-type table with closure dimensions")
    p.add_argument("-n", type=_rank("census"), default=2)

    p = command("verify", run_verify, "run a named invariant suite")
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.add_argument("-n", type=_rank("verify"), default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_bounded(1, MAX_TRIALS, f"trials must lie in 1..{MAX_TRIALS}"),
                   default=20)

    p = command("hilbert", run_hilbert, "graded dimension comparison")
    p.add_argument("-n", type=_bounded(1, 1, "hilbert is implemented for n = 1 only"), default=1)
    p.add_argument("--max-degree", type=_bounded(0, 8, "max degree must lie in 0..8"), default=6,
                   dest="dmax")

    p = command("radial", run_radial, "vacuum scalars and the radial identity")
    p.add_argument("-n", type=_rank("radial"), default=2)

    p = command("lemma-sl2", run_lemma_sl2, "lowest-coefficient membership by weight")
    # stored as n, the field of the report that carries the dimension
    p.add_argument("--dim", type=_bounded(1, 12, "dim must lie in 1..12"), default=4, dest="n",
                   metavar="DIM")

    # last on every command, where --help lists it
    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    report = _report(args.command, args.n, getattr(args, "seed", 0), args.run(args))
    sys.stdout.write(emit_report(report, args.format))
    elapsed = time.monotonic() - start
    print(f"wall time: {elapsed:.3f}s", file=sys.stderr)
    return 0 if report["overall_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
