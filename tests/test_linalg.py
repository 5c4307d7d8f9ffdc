"""Exact linear algebra: dense elimination and the sparse graded reducer."""

import random
from fractions import Fraction

import pytest

from spnil.field import FieldScalar, ONE, SQRT2, fs
from spnil.linalg import (
    _packed_monomials,
    _rref,
    inverse,
    modular_rank,
    nullspace,
    row_basis,
    solution_space,
    sparse_rank,
    truncated_ideal_dim,
)
from spnil.orbits import nilpotent_rep, partitions_spn
from spnil.poly import MultiPoly, _int_pairs, _unpack, count_monomials, monomials
from spnil.splie import ad_matrix, bracket, coords_of, raw_square, sp_basis, sp_dim
from spnil.varieties import ideal_generators, positive_weight_space, sample_xnil_point

ZERO = FieldScalar(0)


def _ad_flat(y, n):
    """Matrix of b -> [b, y] from sp_basis(n) coordinates to flat entries."""
    return list(zip(*([v for row in bracket(b, y).entries for v in row]
                      for b in sp_basis(n))))


def rand_mat(rng, rows, cols, with_root=False):
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            b = Fraction(rng.randint(-2, 2)) if with_root else Fraction(0)
            row.append(fs(a, b))
        out.append(row)
    return out


def mat_vec(mat, vec):
    return [sum((r * v for r, v in zip(row, vec)), ZERO) for row in mat]


def product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)]
            for row in a]


def shaped_matrices(seed):
    """Seeded sqrt2 matrices: tall, wide, zero, with duplicate rows, of full
    row rank (elimination stops early), and products of low inner rank."""
    rng = random.Random(seed)
    mats = [rand_mat(rng, 6, 3, with_root=True), rand_mat(rng, 3, 6, with_root=True),
            [[ZERO] * 4 for _ in range(3)], [[ZERO]]]
    rows = rand_mat(rng, 3, 5, with_root=True)
    mats.append(rows + [rows[1], [SQRT2 * v for v in rows[0]], rows[2]])
    ident = [[fs(1 if i == j else 0) for j in range(4)] for i in range(4)]
    mats.append([row + extra for row, extra in zip(ident, rand_mat(rng, 4, 2, with_root=True))])
    for _ in range(8):
        inner = rng.randint(1, 3)
        mats.append(product(rand_mat(rng, rng.randint(1, 6), inner, with_root=True),
                            rand_mat(rng, inner, rng.randint(1, 6), with_root=True)))
    return mats


def test_dense_rank_known_matrices():
    ident = [[fs(1 if i == j else 0) for j in range(3)] for i in range(3)]
    assert len(row_basis(ident)) == 3
    assert len(row_basis([[ZERO, ZERO], [ZERO, ZERO]])) == 0
    # outer product has rank one
    u = [fs(1), fs(2), fs(-3)]
    outer = [[a * b for b in u] for a in u]
    assert len(row_basis(outer)) == 1
    # a sqrt2 multiple of a row adds nothing
    row = [ONE, SQRT2, fs(3)]
    assert len(row_basis([row, [SQRT2 * v for v in row]])) == 1
    assert len(row_basis([])) == 0


def test_solve_recovers_a_solution():
    rng = random.Random(401)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = rand_mat(rng, rows, cols, with_root=True)
        x = [fs(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(cols)]
        b = mat_vec(a, x)
        s = solution_space(a, b)[0]
        assert s is not None
        assert mat_vec(a, s) == b


def test_solve_detects_inconsistency():
    a = [[fs(1), fs(2)], [fs(2), fs(4)]]
    assert solution_space(a, [fs(1), fs(3)])[0] is None
    assert solution_space(a, [fs(1), fs(2)])[0] is not None


def test_rref_is_reduced_echelon_and_spans_the_rows():
    early_stops = 0
    for a in shaped_matrices(411):
        cols = len(a[0])
        red = [list(row) for row in a]
        pivots = _rref(red, cols)
        assert pivots == sorted(set(pivots))
        for r, pc in enumerate(pivots):
            assert red[r][pc] == ONE
            assert not any(red[r][:pc])
            assert not any(red[s][pc] for s in range(len(red)) if s != r)
        assert not any(v for row in red[len(pivots):] for v in row)
        # a row of A is the combination of the reduced rows weighted by its
        # own entries in the pivot columns
        for row in a:
            combo = [sum((row[pc] * red[r][c] for r, pc in enumerate(pivots)), ZERO)
                     for c in range(cols)]
            assert combo == list(row)
        early_stops += len(pivots) == len(a) and pivots[-1] < cols - 1
    assert early_stops


def full_row_rref(a, cols):
    """Reference Gauss-Jordan that scales and subtracts whole rows, zero
    entries included; same contract as linalg._rref."""
    rows = len(a)
    pivots = []
    for col in range(cols):
        if len(pivots) == rows:
            break
        rank = len(pivots)
        piv = next((r for r in range(rank, rows) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = a[rank][col].inverse()
        a[rank] = [v * inv for v in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col]:
                c = a[r][col]
                a[r] = [x - c * y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
    return pivots


def test_rref_matches_the_full_row_reference():
    # every row, those past the pivots and the columns past cols included
    rng = random.Random(416)
    cases = [(a, cols) for seed in (411, 412, 414, 415, 417)
             for a in shaped_matrices(seed)
             for cols in range(max(len(a[0]) - 2, 1), len(a[0]) + 1)]
    for n in (1, 2, 3):
        for lam in partitions_spn(n):
            ad = [list(row) for row in _ad_flat(nilpotent_rep(lam), n)]
            extra = rand_mat(rng, len(ad), 2, with_root=True)
            cases.append((ad, len(ad[0])))
            cases.append(([row + more for row, more in zip(ad, extra)], len(ad[0])))
            # the Jacobians that lagrangian_check reduces, sqrt2 entries included
            jac = [list(row) for row in sample_xnil_point(lam, seed=0).jacobian]
            cases.append((jac, len(jac[0])))
    partial = 0
    for a, cols in cases:
        want, got = [list(row) for row in a], [list(row) for row in a]
        assert _rref(got, cols) == full_row_rref(want, cols)
        assert got == want
        partial += cols < len(a[0])
    assert partial


def reference_solve(a, b):
    """The solution of a*x = b with free variables zero, read off
    full_row_rref of [a | b], or None when a zero row meets a nonzero b."""
    cols = len(a[0])
    red = [list(row) + [v] for row, v in zip(a, b)]
    pivots = full_row_rref(red, cols)
    if any(row[cols] for row in red[len(pivots):]):
        return None
    x = [ZERO] * cols
    for row, pc in zip(red, pivots):
        x[pc] = row[cols]
    return x


def samplers_systems():
    """The sampler's systems [x, y] = -raw_square(i), as ad y against
    coords_of(raw_square(i)), at one point of every Jordan type for n <= 3:
    its own i, then each unit vector outside the half space V+ of y."""
    for n in (1, 2, 3):
        for lam in partitions_spn(n):
            pt = sample_xnil_point(lam, seed=0)
            ad, half = ad_matrix(pt.y, n).entries, positive_weight_space(pt.y)
            units = [[fs(int(a == c)) for a in range(2 * n)] for c in range(2 * n)]
            outside = [u for u in units if len(row_basis(half + [u])) > len(half)]
            for vec in [list(pt.i)] + outside:
                yield ad, coords_of(raw_square(vec), n), vec == list(pt.i)


def test_solution_space_is_solve_and_nullspace():
    rng = random.Random(418)
    verdicts = set()
    for seed in (413, 414, 419):
        for a in shaped_matrices(seed):
            x = [fs(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in a[0]]
            for b in (mat_vec(a, x), rand_mat(rng, 1, len(a), with_root=True)[0]):
                sol = reference_solve(a, b)
                assert solution_space(a, b) == (sol, nullspace(a))
                verdicts.add(sol is not None)
    assert verdicts == {True, False}
    assert solution_space([], []) == ([], [])
    # the sampler's own i is consistent, and at these points every unit
    # vector outside V+ gives no solution
    verdicts = set()
    for a, b, own in samplers_systems():
        sol = reference_solve(a, b)
        assert solution_space(a, b) == (sol, nullspace(a))
        verdicts.add((own, sol is not None))
    assert verdicts == {(True, True), (False, False)}


def test_solution_space_refuses_a_right_hand_side_of_another_length():
    # zip used to drop the second equation of the first system and the 5
    # of the second, and to answer [1] for both
    for mat, rhs in (([[fs(1)], [fs(1)]], [fs(1)]), ([[fs(1)]], [fs(1), fs(5)]),
                     ([], [fs(1)])):
        with pytest.raises(ValueError, match="right-hand sides"):
            solution_space(mat, rhs)
    assert solution_space([[fs(1)], [fs(1)]], [fs(1), fs(5)])[0] is None


def test_row_basis_is_reduced_echelon_and_spans_the_rows():
    assert row_basis([]) == []
    for a in shaped_matrices(415):
        basis = row_basis(a)
        assert len(basis) == len(row_basis(a))
        leads = [next(c for c, v in enumerate(row) if v) for row in basis]
        assert leads == sorted(set(leads))
        for r, lead in enumerate(leads):
            assert basis[r][lead] == ONE
            assert not any(basis[s][lead] for s in range(len(basis)) if s != r)
        assert len(row_basis(list(a) + basis)) == len(row_basis(a))


def test_solve_succeeds_exactly_when_rank_does_not_grow():
    rng = random.Random(413)
    verdicts = set()
    for a in shaped_matrices(414):
        rows, cols = len(a), len(a[0])
        x = [fs(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(cols)]
        for b in (mat_vec(a, x), rand_mat(rng, 1, rows, with_root=True)[0]):
            augmented = [list(row) + [v] for row, v in zip(a, b)]
            consistent = len(row_basis(augmented)) == len(row_basis(a))
            s = solution_space(a, b)[0]
            assert (s is not None) == consistent
            if s is not None:
                assert mat_vec(a, s) == b
            verdicts.add(consistent)
    assert verdicts == {True, False}


def test_nullspace_vectors_are_killed_and_count_matches():
    rng = random.Random(402)
    mats = [rand_mat(rng, rng.randint(1, 4), rng.randint(1, 5)) for _ in range(25)]
    for a in mats + shaped_matrices(412):
        rows, cols = len(a), len(a[0])
        basis = nullspace(a)
        for v in basis:
            assert mat_vec(a, v) == [ZERO] * rows
        assert len(row_basis(a)) + len(basis) == cols
        assert len(row_basis(a)) == len(row_basis([list(col) for col in zip(*a)]))
        if basis:
            assert len(row_basis(basis)) == len(basis)


def test_inverse_round_trip_and_singular_rejection():
    rng = random.Random(403)
    for _ in range(10):
        n = rng.randint(1, 4)
        # unit lower times unit upper is always invertible
        low = [[fs(1 if i == j else (rng.randint(-2, 2) if i > j else 0))
                for j in range(n)] for i in range(n)]
        up = [[fs(1 if i == j else (rng.randint(-2, 2) if i < j else 0))
               for j in range(n)] for i in range(n)]
        a = [[sum((low[i][k] * up[k][j] for k in range(n)), ZERO)
              for j in range(n)] for i in range(n)]
        ainv = inverse(a)
        prod = [[sum((a[i][k] * ainv[k][j] for k in range(n)), ZERO)
                 for j in range(n)] for i in range(n)]
        assert prod == [[fs(1 if i == j else 0) for j in range(n)] for i in range(n)]
    with pytest.raises(ValueError, match="singular"):
        inverse([[fs(1), fs(2)], [fs(2), fs(4)]])
    # sqrt2 products through an inner dimension of n or n - 1: the inverse
    # exists exactly at full rank and then works on both sides
    verdicts = set()
    for _ in range(12):
        n = rng.randint(1, 4)
        inner = rng.randint(max(n - 1, 1), n)
        a = product(rand_mat(rng, n, inner, with_root=True),
                    rand_mat(rng, inner, n, with_root=True))
        ident = [[fs(1 if i == j else 0) for j in range(n)] for i in range(n)]
        if len(row_basis(a)) == n:
            ainv = inverse(a)
            assert product(a, ainv) == ident == product(ainv, a)
        else:
            with pytest.raises(ValueError, match="singular"):
                inverse(a)
        verdicts.add(len(row_basis(a)) == n)
    assert verdicts == {True, False}


def test_sparse_rank_agrees_with_dense():
    rng = random.Random(404)
    mats = [rand_mat(rng, rng.randint(1, 5), rng.randint(1, 5), with_root=(trial % 2 == 0))
            for trial in range(20)]
    # rows dependent over Q(sqrt2) but not over Q, a zero row, rational rows
    for _ in range(10):
        cols = rng.randint(1, 5)
        r1, r2 = rand_mat(rng, 2, cols, with_root=True)
        q1, q2 = rand_mat(rng, 2, cols)
        mats += [
            [r1, [SQRT2 * v for v in r1]],
            [r1, r2, [(ONE + SQRT2) * u - SQRT2 * v for u, v in zip(r1, r2)]],
            [r1, [ZERO] * cols, r2],
            [q1, r1, q2, [u + SQRT2 * v for u, v in zip(q1, r1)]],
        ]
    for a in mats:
        sparse = [{(j,): v for j, v in enumerate(row) if v} for row in a]
        assert sparse_rank(sparse) == len(row_basis(a))
    # the two generators are proportional over Q(sqrt2)
    reg = ("a", "b")
    a, b = (MultiPoly.variable(reg, i) for i in (0, 1))
    assert truncated_ideal_dim([a + b.scale(SQRT2), a.scale(SQRT2) + b.scale(2)], 1) == 1


def test_modular_rank_is_a_lower_bound_and_stops_at_stop():
    p = (1 << 61) - 1

    def int_rows(a):
        return [{j: (x, y) for j, x, y in _int_pairs({j: v for j, v in enumerate(row) if v})[1]}
                for row in a]

    # on these matrices p divides no minor, so the bound is the rank
    for seed in (411, 414, 419):
        for a in shaped_matrices(seed):
            rank = len(row_basis(a))
            assert modular_rank(int_rows(a), len(a[0]), len(a)) == rank
            assert modular_rank(int_rows(a), len(a[0]), 1) == min(rank, 1)
    assert modular_rank([], 3, 0) == 0
    # sqrt2 goes to 2^31: (a + b sqrt2) and its sqrt2 multiple (2b + a sqrt2)
    # are dependent, and a row with entry p, or p sqrt2, is lost modulo p
    rows = [{0: (3, 1), 2: (0, 5)}, {0: (2, 3), 2: (10, 0)}]
    assert modular_rank(rows, 3, 2) == 1 == sparse_rank(
        [{j: fs(a, b) for j, (a, b) in row.items()} for row in rows])
    assert modular_rank([{1: (p, 0)}, {0: (0, 2 * p)}], 2, 2) == 0 < sparse_rank([{1: fs(p)}])


def test_truncated_ideal_dim_principal_ideal():
    reg = ("a", "b", "c")
    a = MultiPoly.variable(reg, 0)
    b = MultiPoly.variable(reg, 1)
    f = a * b
    # one homogeneous generator of degree k: slice dim is the count of
    # multiplier monomials, no collisions possible
    for d in range(2, 7):
        assert truncated_ideal_dim([f], d) == count_monomials(3, d - 2)
    assert truncated_ideal_dim([f], 0) == 0
    assert truncated_ideal_dim([f], 1) == 0


def test_truncated_ideal_dim_handles_overlaps():
    reg = ("a", "b")
    a = MultiPoly.variable(reg, 0)
    b = MultiPoly.variable(reg, 1)
    gens = [a * a, a * b]
    # degree 3 slice is a^3, a^2 b, a b^2: the product a^2*b meets ab*a
    assert truncated_ideal_dim(gens, 2) == 2
    assert truncated_ideal_dim(gens, 3) == 3
    assert truncated_ideal_dim(gens, 4) == 4


def test_truncated_ideal_dim_multiplier_filter():
    reg = ("a", "b")
    a = MultiPoly.variable(reg, 0)
    b = MultiPoly.variable(reg, 1)
    even = lambda exp: all(e % 2 == 0 for e in exp)
    # multipliers of degree 2 passing the filter: a^2 and b^2 only
    assert truncated_ideal_dim([a * b], 4, multiplier_filter=even) == 2
    assert truncated_ideal_dim([a * b], 3, multiplier_filter=even) == 0


def test_packed_multipliers_come_in_the_order_of_monomials():
    # the rows of truncated_ideal_dim keep the order monomials() gave them
    for nvars in (1, 2, 3, 5, 9):
        for degree in range(6):
            packed = _packed_monomials(nvars, degree)
            assert [_unpack(m, nvars) for m in packed] == list(monomials(nvars, degree))


def tuple_keyed_ideal_dim(gens, d, multiplier_filter=None):
    """truncated_ideal_dim with its rows keyed by exponent tuples."""
    nvars = len(gens[0].registry)
    rows = []
    for g in gens:
        dg = g.total_degree()
        if dg > d:
            continue
        for mexp in monomials(nvars, d - dg):
            if multiplier_filter is None or multiplier_filter(mexp):
                rows.append({tuple(a + b for a, b in zip(gexp, mexp)): c
                             for gexp, c in g.terms.items()})
    return sparse_rank(rows)


def test_packed_ideal_rows_match_tuple_keyed_rows():
    # the J and I generators of the Hilbert series comparison at n = 1, with
    # and without its even-i-degree multiplier filter
    nn = sp_dim(1)

    def even_u(exp):
        return sum(exp[2 * nn:]) % 2 == 0

    for kind in ("J", "I"):
        gens = ideal_generators(kind, 1)
        for d in range(9):
            for keep in (None, even_u):
                want = tuple_keyed_ideal_dim(gens, d, keep)
                assert truncated_ideal_dim(gens, d, multiplier_filter=keep) == want


def test_truncated_ideal_dim_rejects_bad_input():
    reg = ("a", "b")
    a = MultiPoly.variable(reg, 0)
    b = MultiPoly.variable(reg, 1)
    with pytest.raises(ValueError, match="homogeneous"):
        truncated_ideal_dim([a + a * b], 3)
    with pytest.raises(ValueError, match="zero"):
        truncated_ideal_dim([MultiPoly.zero(reg)], 3)
    with pytest.raises(ValueError, match="degree"):
        truncated_ideal_dim([a * b], -1)
    assert truncated_ideal_dim([], 5) == 0

