"""Acceptance gate: ten checks, each printing one pass/fail line.

Every check recomputes its claim from scratch and asserts exact equality,
plus a wall-clock bound where one is part of the claim.  Check 6 verifies
that X^nil is a Lagrangian complete intersection of dimension 2n^2 + 2n:
2n^2 + 2n defining equations, and at every sampled point a half-dimensional
frame of the component inside the Jacobian kernel that is isotropic for the
moment-compatible form.  The scheme is not reduced, so the Jacobian stays
below full rank (exactly 3 at n = 1); the measured ranks are printed.
"""

import itertools
import random
import time
from fractions import Fraction

from spnil.field import fs
from spnil.cherednik import (
    Params,
    SINGULAR,
    build_Lc,
    check_hc_relation,
    dunkl_commute,
    h_registry,
    oscillator_radial_operator,
    radial_match,
)
from spnil.orbits import (
    census,
    component_types,
    nilpotent_rep,
    partitions_spn,
    sl2_lowest_coefficient_check,
    verify_sl2_square_lemma,
)
from spnil.poly import MultiPoly, monomials
from spnil.splie import RootDatumC, bracket, sp_basis
from spnil.varieties import (
    embedding_pullback_check,
    hilbert_compare,
    ideal_generators,
    lagrangian_check,
    sample_xnil_point,
    stratum_tangent_check,
    theta1_kills_minors,
)
from spnil.weylosc import theta1, weight_zero_scalar


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_weight_zero_scalars():
    t0 = time.perf_counter()
    long_want = fs(Fraction(-3, 16))
    short_want = fs(Fraction(-1, 8))
    bad = []
    total = 0
    for n in range(1, 5):
        datum = RootDatumC(n)
        for r in datum.roots:
            total += 1
            want = long_want if r.length == "long" else short_want
            if weight_zero_scalar(n, r) != want:
                bad.append((n, r.key()))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    report(1, ok, f"{total} roots, {len(bad)} mismatches, {elapsed:.2f}s")
    assert elapsed < 10.0
    assert not bad


def test_criterion_02_radial_match():
    t0 = time.perf_counter()
    matches = [radial_match(n) for n in range(1, 5)]
    zero = Params.of(0, 0)
    controls = [oscillator_radial_operator(n) != build_Lc(zero, n)
                for n in range(1, 5)]
    elapsed = time.perf_counter() - t0
    ok = all(matches) and all(controls) and elapsed < 10.0
    report(2, ok, f"match {matches}, zero-coupling differs {controls}, "
                  f"{elapsed:.2f}s")
    assert elapsed < 10.0
    assert all(matches)
    assert all(controls)


def test_criterion_03_theta1_homomorphism():
    t0 = time.perf_counter()
    pairs = 0
    bad = 0
    for n in range(1, 4):
        basis = sp_basis(n)
        images = [theta1(b) for b in basis]
        for (a, ta), (b, tb) in itertools.product(zip(basis, images), repeat=2):
            pairs += 1
            if ta.commutator(tb) != theta1(bracket(a, b)):
                bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 60.0
    report(3, ok, f"{pairs} ordered basis pairs, {bad} failures, {elapsed:.2f}s")
    assert elapsed < 60.0
    assert pairs == 9 + 100 + 441
    assert bad == 0


def test_criterion_04_minor_annihilation():
    results = [theta1_kills_minors(n) for n in range(1, 4)]
    ok = all(results)
    report(4, ok, f"symbolic zero for n=1..3: {results}")
    assert ok


def test_criterion_05_component_census():
    t0 = time.perf_counter()
    bad = []
    for n in range(1, 5):
        target = 2 * n * n + 2 * n
        even = set(component_types(n))
        for row in census(n):
            hit = row.xlambda_dim == target
            if hit != (row.partition in even) or row.xlambda_dim > target:
                bad.append((n, row.partition))
    table = {row.partition: row.xlambda_dim for row in census(2)}
    literal = table == {(4,): 12, (2, 2): 12, (2, 1, 1): 11, (1, 1, 1, 1): 10}
    elapsed = time.perf_counter() - t0
    ok = not bad and literal and elapsed < 60.0
    report(5, ok, f"{len(bad)} biconditional failures, n=2 table "
                  f"{'matches' if literal else 'differs'}, {elapsed:.2f}s")
    assert elapsed < 60.0
    assert not bad
    assert literal


def test_criterion_06_lagrangian_full_rank():
    # The paper claims X^nil is a Lagrangian complete intersection of
    # dimension dim g + dim V / 2 = 2n^2 + 2n, not that it is reduced, so the
    # defining Jacobian need not reach rank 2n^2 + 2n.  At n = 1 it cannot:
    # tr(y [x, y]) = 0, so tr(y mu) = i^T J y i lies in I and its
    # differential tr(y d mu) is a combination of the I rows.  Conjugated to
    # y = E_12, i = (c, 0) with c != 0, y i = 0 and that differential is
    # c^2 b_21, while d tr(y^2) = 2 tr(y b) = 2 b_21, so the NIL row lies in
    # the span of the I rows and the rank is exactly 3.  Measured rank(d mu) and rank(d NIL):
    # (2) 3 and 1; (4) 9-10 and 2; (2,2) 9-10 and 1.  What is checked:
    # 2n^2 + 2n equations (the codimension), and at every point a rank
    # 2n^2 + 2n frame of the component inside the Jacobian kernel, isotropic
    # for the moment-compatible form.  The Jacobian ranks are printed as
    # Zariski tangent data.
    t0 = time.perf_counter()
    seen_ranks = {}
    equations = {}
    points = 0
    bad = 0
    for n in (1, 2):
        target = 2 * n * n + 2 * n
        equations[n] = (len(ideal_generators("I", n))
                        + len(ideal_generators("NIL", n)))
        for lam in component_types(n):
            for seed in range(20):
                point = sample_xnil_point(lam, seed=seed)
                frame = stratum_tangent_check(point)
                rank = lagrangian_check(point).jacobian_rank
                points += 1
                seen_ranks.setdefault((n, lam), set()).add(rank)
                if (frame.frame_rank != target or not frame.inside_kernel
                        or not frame.isotropic or rank > target
                        or (n == 1 and rank != 3)):
                    bad += 1
    elapsed = time.perf_counter() - t0
    complete = all(count == 2 * n * n + 2 * n
                   for n, count in equations.items())
    ok = bad == 0 and complete and elapsed < 300.0
    ranks = {f"n={n} {lam}": sorted(r) for (n, lam), r in seen_ranks.items()}
    report(6, ok, f"equations {equations} against codimension 2n^2+2n; "
                  f"{bad}/{points} points miss a rank 2n^2+2n isotropic frame "
                  f"inside the kernel; Jacobian ranks {ranks}, "
                  f"{elapsed:.2f}s")
    assert elapsed < 300.0
    assert complete, f"equation counts {equations} differ from 2n^2+2n"
    assert bad == 0, (
        f"{bad}/{points} points miss the Lagrangian frame or the Jacobian "
        f"rank bound; measured ranks {ranks}")


def test_criterion_07_hilbert_shadow():
    t0 = time.perf_counter()
    rows = hilbert_compare(1, 6)
    elapsed = time.perf_counter() - t0
    dims = [row.dim_left for row in rows]
    ok = (all(row.equal and row.dim_left == row.dim_right for row in rows)
          and [row.degree for row in rows] == list(range(7))
          and elapsed < 300.0)
    report(7, ok, f"degrees 0..6 dims {dims}, {elapsed:.2f}s")
    assert elapsed < 300.0
    assert all(row.equal for row in rows)
    assert dims == [1, 6, 21, 56, 125, 246, 441]


def test_criterion_08_cherednik_relation():
    t0 = time.perf_counter()
    rng = random.Random(20240)
    param_list = [SINGULAR]
    for _ in range(3):
        param_list.append(Params.of(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
    hc_checks = commute_checks = bad = 0
    for n in range(1, 4):
        reg = h_registry(n)
        monos = []
        for deg in range(6):
            for exp in monomials(n, deg):
                p = MultiPoly.constant(reg, fs(1))
                for k, e in enumerate(exp):
                    for _ in range(e):
                        p = p * MultiPoly.variable(reg, k)
                monos.append(p)
        for par in param_list:
            for p in monos:
                for x_idx in range(n):
                    for y_idx in range(n):
                        hc_checks += 1
                        if not check_hc_relation(x_idx, y_idx, p, par):
                            bad += 1
                for i, j in itertools.combinations(range(n), 2):
                    commute_checks += 1
                    if not dunkl_commute(i, j, p, par):
                        bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 300.0
    report(8, ok, f"{hc_checks} relation checks, {commute_checks} "
                  f"commutation checks, {bad} failures, {elapsed:.2f}s")
    assert elapsed < 300.0
    assert bad == 0


def test_criterion_09_sl2_lemma():
    bad = []
    for n in range(1, 4):
        for lam in partitions_spn(n):
            y = nilpotent_rep(lam)
            if not verify_sl2_square_lemma(y, trials=20, seed=0):
                bad.append(lam)
    weight_bad = []
    for dim in range(1, 7):
        for k in range(dim):
            if not sl2_lowest_coefficient_check((dim,), k):
                weight_bad.append((dim, k))
    ok = not bad and not weight_bad
    report(9, ok, f"square lemma failures {bad}, membership/weight "
                  f"disagreements {weight_bad}")
    assert not bad
    assert not weight_bad


def test_criterion_10_embedding_pullback():
    results = [embedding_pullback_check(n) for n in range(1, 4)]
    ok = all(results)
    report(10, ok, f"symbolic pullback identity for n=1..3: {results}")
    assert ok
