"""sp(2n) structure: symplectic form, basis, brackets, roots, squares."""

import random
from fractions import Fraction

import pytest

from spnil.field import FieldScalar, ONE, SQRT2, fs
from spnil.linalg import inverse, row_basis
from spnil.orbits import nilpotent_rep, partitions_spn
from spnil.poly import MultiPoly
from spnil.splie import (
    MatF,
    RootDatumC,
    _DualBasis,
    ad_matrix,
    bracket,
    centralizer_dim,
    coords_of,
    dual_basis,
    is_nilpotent,
    is_sp,
    mat_from_coords,
    omega,
    raw_square,
    sp_basis,
    sp_dim,
    trace_pair,
)
from spnil.varieties import SchemePoint, _generic, full_registry, moment2, unipotent_factors

ZERO = FieldScalar(0)


def rand_vec(rng, size):
    return [fs(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(size)]


def rand_sp(rng, n):
    basis = sp_basis(n)
    m = MatF.zero(2 * n)
    for b in basis:
        m = m + b.scale(fs(Fraction(rng.randint(-2, 2))))
    return m


def omega_matrix(n):
    """J = ((0, I), (-I, 0)), the Gram matrix of omega."""
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = 1
        rows[n + i][i] = -1
    return MatF(rows)


def test_omega_matrix_block_convention():
    j = omega_matrix(2)
    # top right block identity, bottom left minus identity
    for i in range(2):
        for k in range(2):
            assert j.entries[i][2 + k] == fs(1 if i == k else 0)
            assert j.entries[2 + i][k] == fs(-1 if i == k else 0)
            assert j.entries[i][k] == ZERO
            assert j.entries[2 + i][2 + k] == ZERO
    u = [fs(1), fs(0), fs(0), fs(0)]
    v = [fs(0), fs(0), fs(1), fs(0)]
    assert omega(u, v) == fs(1)
    assert omega(v, u) == fs(-1)
    assert omega(u, u) == ZERO


def test_omega_is_alternating_bilinear():
    rng = random.Random(501)
    for n in (1, 2):
        for _ in range(10):
            u = rand_vec(rng, 2 * n)
            v = rand_vec(rng, 2 * n)
            w = rand_vec(rng, 2 * n)
            assert omega(u, v) == -omega(v, u)
            assert omega(u, u) == ZERO
            uv = [a + b for a, b in zip(u, v)]
            assert omega(uv, w) == omega(u, w) + omega(v, w)


def test_sp_basis_size_and_membership():
    for n in (1, 2, 3):
        basis = sp_basis(n)
        assert len(basis) == sp_dim(n) == 2 * n * n + n
        j = omega_matrix(n)
        for m in basis:
            assert is_sp(m)
            # membership means m^T J + J m = 0
            assert (m.transpose() @ j + j @ m).is_zero()
        # first n members are the diagonal E_ii - E_(n+i)(n+i)
        for i in range(n):
            h = basis[i]
            assert h.entries[i][i] == ONE
            assert h.entries[n + i][n + i] == -ONE
        flat = [[e for row in m.entries for e in row] for m in basis]
        assert len(row_basis(flat)) == len(basis)


def test_basis_supports_partition_the_entries():
    # mat_from_coords places each coordinate on its element's support
    for n in range(1, 5):
        size = 2 * n
        owner = {}
        for k, b in enumerate(sp_basis(n)):
            for i in range(size):
                for j in range(size):
                    if b[i, j]:
                        assert b[i, j] in (ONE, -ONE) and (i, j) not in owner
                        owner[i, j] = k
        assert len(owner) == size * size


def test_bracket_closure_and_jacobi():
    rng = random.Random(502)
    n = 2
    for _ in range(5):
        a = rand_sp(rng, n)
        b = rand_sp(rng, n)
        c = rand_sp(rng, n)
        assert is_sp(bracket(a, b))
        jac = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
               + bracket(c, bracket(a, b)))
        assert jac.is_zero()


def test_dual_basis_trace_duality():
    for n in (1, 2):
        basis = sp_basis(n)
        dual = dual_basis(n)
        for k, dk in enumerate(dual):
            for l, bl in enumerate(basis):
                assert trace_pair(dk, bl) == fs(1 if k == l else 0)


def test_coords_round_trip():
    rng = random.Random(503)
    for n in range(1, 5):
        for _ in range(5):
            m = rand_sp(rng, n)
            coeffs = coords_of(m, n)
            assert len(coeffs) == sp_dim(n)
            assert mat_from_coords(coeffs, n).entries == m.entries


def rand_scalar(rng):
    return fs(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
              Fraction(rng.randint(-2, 2), rng.randint(1, 3)))


def coords_oracle(m, n):
    """The trace projection walked over every entry of each dual element."""
    return [trace_pair(d, m) for d in dual_basis(n)]


def ad_matrix_oracle(y, n):
    """Column b is the coordinates of the bracket [y, b], formed by matmul."""
    cols = [coords_oracle(bracket(y, b), n) for b in sp_basis(n)]
    return [list(row) for row in zip(*cols)]


def test_ad_matrix_and_coords_of_match_the_trace_oracle():
    rng = random.Random(512)
    for n in range(1, 5):
        size = 2 * n
        ys = [nilpotent_rep(lam) for lam in partitions_spn(n)]
        # fractional entries, then fractional and sqrt2 ones
        ys.append(rand_sp(rng, n))
        ys.append(sum((b.scale(rand_scalar(rng)) for b in sp_basis(n)), MatF.zero(size)))
        assert any(v.bn for row in ys[-1].entries for v in row)
        for y in ys:
            assert ad_matrix(y, n) == MatF(ad_matrix_oracle(y, n))
        # off sp(2n), coords_of is still the trace projection
        for _ in range(3):
            m = MatF([[rand_scalar(rng) for _ in range(size)] for _ in range(size)])
            assert not is_sp(m)
            assert coords_of(m, n) == coords_oracle(m, n)
        # elements of sp(2n), the zero matrix, and a sparse support, on which
        # some coordinates read one of their two entries or none
        sparse = MatF([[rand_scalar(rng) if rng.random() < 0.5 else 0 for _ in range(size)]
                       for _ in range(size)])
        for m in ys + [MatF.zero(size), sparse]:
            assert coords_of(m, n) == coords_oracle(m, n)
        assert coords_of(MatF.zero(size), n) == [ZERO] * sp_dim(n)


def generic_poly_matrix(rng, size):
    """A matrix of polynomials in size^2 + 1 variables: entry (i, j) is its
    own variable plus a multiple of one shared variable, so summing two
    entries in the other order lists their terms in the other order."""
    registry = tuple(f"m{k}" for k in range(size * size + 1))
    shared = MultiPoly.variable(registry, size * size)
    return MatF._of(size, {i: {j: MultiPoly.variable(registry, i * size + j)
                               + shared.scale(fs(rng.randint(1, 3)))
                               for j in range(size)}
                           for i in range(size)})


def test_coords_of_matches_the_trace_oracle_on_polynomial_entries():
    # the coordinates keep the oracle's terms in its order, which sums the
    # two entries a dual reads in the dual's order
    rng = random.Random(530)
    ms = [(n, generic_poly_matrix(rng, 2 * n)) for n in range(1, 5)]
    for n in (1, 2):
        nn = sp_dim(n)
        registry = full_registry(n)
        point = SchemePoint(n, _generic(registry, 0, n), _generic(registry, nn, n),
                            [MultiPoly.variable(registry, 2 * nn + a) for a in range(2 * n)])
        ms.append((n, moment2(point)))
    for n, m in ms:
        got, want = coords_of(m, n), coords_oracle(m, n)
        assert any(isinstance(c, MultiPoly) for c in got)
        assert got == want
        assert [list(c.terms.items()) for c in got] == [list(c.terms.items()) for c in want]


def generic_poly_matrix(rng, size):
    """A matrix of polynomials in size^2 + 1 variables: entry (i, j) is its
    own variable plus a multiple of one shared variable, so summing two
    entries in the other order lists their terms in the other order."""
    registry = tuple(f"m{k}" for k in range(size * size + 1))
    shared = MultiPoly.variable(registry, size * size)
    return MatF._of(size, {i: {j: MultiPoly.variable(registry, i * size + j)
                               + shared.scale(fs(rng.randint(1, 3)))
                               for j in range(size)}
                           for i in range(size)})


def test_dual_basis_is_the_gram_inverse_with_one_reader_per_position():
    for n in range(1, 5):
        basis, size = sp_basis(n), 2 * n
        dual = dual_basis(n)
        ginv = inverse([[trace_pair(a, b) for b in basis] for a in basis])
        assert isinstance(dual, tuple) and len(dual) == len(ginv)
        for d, row in zip(dual, ginv):
            assert type(d) is MatF and d == mat_from_coords(row, n)
        # the reader holds each position read by a dual once, with its weight
        read = [(j, i, entry) for j, cols in enumerate(dual.reader)
                for i, entry in cols.items()]
        assert len({(j, i) for j, i, _ in read}) == len(read) == size * size
        assert len(read) == sum(len(row) for d in dual for row in d.rows.values())
        leads = {(k, a, next(iter(row))) for k, d in enumerate(dual)
                 for a, row in list(d.rows.items())[:1]}
        for j, i, (k, v, first) in read:
            assert dual[k][i, j] == v
            assert first == ((k, i, j) in leads)
    with pytest.raises(ValueError, match="two duals read one position"):
        _DualBasis([MatF.unit(2, 0, 1), MatF.unit(2, 0, 1) + MatF.unit(2, 1, 1)])


def test_mat_from_coords_refuses_a_vector_other_than_sp_dim():
    for n, coeffs in ((2, [1, 2]), (2, [1] * 39), (1, []), (1, [1] * 4), (3, [0] * 20)):
        with pytest.raises(ValueError, match="coordinates"):
            mat_from_coords(coeffs, n)
    assert mat_from_coords([0] * 2 + [1], 1) == MatF.unit(2, 1, 0)


def test_coords_of_and_ad_matrix_refuse_a_size_other_than_2n():
    for n, size in ((1, 4), (2, 2), (2, 6)):
        with pytest.raises(ValueError, match="size mismatch"):
            coords_of(MatF.identity(size), n)
        with pytest.raises(ValueError, match="size mismatch"):
            ad_matrix(MatF.zero(size), n)


def naive_product(a, b):
    size = a.size
    return [[sum((a.entries[i][k] * b.entries[k][j] for k in range(size)), ZERO)
             for j in range(size)]
            for i in range(size)]


def test_products_and_trace_pairing_match_naive_sums():
    # a @ b and trace_pair skip zero factors; the naive triple sum does not
    rng = random.Random(506)
    for n in range(1, 5):
        size = 2 * n
        basis = sp_basis(n)
        for density in (0.1, 0.5, 1.0):

            def rand_any():
                return MatF([[rand_scalar(rng) if rng.random() < density else 0
                              for _ in range(size)] for _ in range(size)])

            def rand_sp_sqrt2():
                m = MatF.zero(size)
                for b in basis:
                    if rng.random() < density:
                        m = m + b.scale(rand_scalar(rng))
                return m

            for make in (rand_any, rand_sp_sqrt2):
                for _ in range(3):
                    a, b = make(), make()
                    want = naive_product(a, b)
                    assert [list(row) for row in (a @ b).entries] == want
                    assert trace_pair(a, b) == sum(
                        (want[i][i] for i in range(size)), ZERO)
                    # trace_pair walks the nonzeros of its first argument,
                    # so pair each with a dense matrix on either side
                    dense = MatF([[rand_scalar(rng) for _ in range(size)]
                                  for _ in range(size)])
                    for left, right in ((dense, a), (a, dense)):
                        prod = naive_product(left, right)
                        assert trace_pair(left, right) == sum(
                            (prod[i][i] for i in range(size)), ZERO)


def test_trusted_results_equal_checked_construction():
    # +, -, negation, scale, @ and transpose skip re-coercing their entries;
    # each result must equal, and hash like, MatF built from the same rows
    rng = random.Random(508)
    for n in (1, 2, 3):
        size = 2 * n
        for density in (0.2, 1.0):
            for _ in range(4):
                a, b = (MatF([[rand_scalar(rng) if rng.random() < density else 0
                               for _ in range(size)] for _ in range(size)])
                        for _ in range(2))
                c = rand_scalar(rng)
                for out in (a + b, a - b, -a, a.scale(c), a.scale(3),
                            a.scale(Fraction(1, 3)), a @ b, a.transpose()):
                    checked = MatF([list(row) for row in out.entries])
                    assert out == checked and hash(out) == hash(checked)
                    assert type(out.entries) is tuple
                    assert all(type(row) is tuple and len(row) == size
                               for row in out.entries)
                    assert all(type(v) is FieldScalar
                               for row in out.entries for v in row)
                    stored = ({j: v for j, v in enumerate(row) if v} for row in out.entries)
                    assert out.rows == {i: row for i, row in enumerate(stored) if row}
        # +, - and scale keep the partner of a zero operand; on zero-heavy
        # operands they must still equal the entrywise sums
        zero = MatF.zero(size)
        basis = sp_basis(n)
        mats = [zero, *basis[:4], a, basis[0].scale(rand_scalar(rng)) + basis[-1]]
        for x in mats:
            for y in mats:
                rows = list(zip(x.entries, y.entries))
                plus = MatF([[u + v for u, v in zip(r, s)] for r, s in rows])
                minus = MatF([[u - v for u, v in zip(r, s)] for r, s in rows])
                assert x + y == plus and hash(x + y) == hash(plus)
                assert x - y == minus and hash(x - y) == hash(minus)
            for k, kf in ((0, ZERO), (ZERO, ZERO), (c, c), (1, ONE)):
                naive = MatF([[kf * v for v in row] for row in x.entries])
                assert x.scale(k) == naive and hash(x.scale(k)) == hash(naive)


def assert_stored_as_support(m):
    """Rows hold nonzero entries only, no row is empty, and rows and columns
    run in increasing order."""
    assert list(m.rows) == sorted(m.rows)
    for row in m.rows.values():
        assert row and list(row) == sorted(row) and all(row.values())


def stored_terms(m):
    """The stored entries in order, a polynomial as its list of terms."""
    return [list(v.terms.items()) if isinstance(v, MultiPoly) else v
            for row in m.rows.values() for v in row.values()]


def test_unit_refuses_indices_outside_the_matrix():
    for i, j in ((2, 0), (0, 2), (5, 0), (0, -1), (-1, 1)):
        with pytest.raises(ValueError):
            MatF.unit(2, i, j)
        with pytest.raises(ValueError):
            MatF.unit(2, i, j, 0)
    assert MatF.unit(2, 1, 1).entries == ((0, 0), (0, 1))


def test_equal_matrices_by_any_route_compare_and_hash_equal():
    rng = random.Random(509)
    size = 4
    unit = MatF.unit(size, 0, 3, 2)
    routes = {
        # a dense MatF with explicit zeros
        "dense": (MatF([[0, 0, 0, 2], [0] * 4, [0] * 4, [0] * 4]), unit),
        # a sum that cancels an entry, and a whole row
        "cancel": (unit + MatF.unit(size, 1, 1, 5) - MatF.unit(size, 1, 1, 5), unit),
        "a - a": (unit - unit, MatF.zero(size)),
        "scale 0": (unit.scale(0), MatF.zero(size)),
    }
    for n in (1, 2, 3):
        a = rand_sp(rng, n)
        b = MatF([[rand_scalar(rng) if rng.random() < 0.3 else 0 for _ in range(2 * n)]
                  for _ in range(2 * n)])
        routes[f"a - a, n={n}"] = (a - a, MatF.zero(2 * n))
        routes[f"double transpose, n={n}"] = (b.transpose().transpose(), b)
        routes[f"b + a - b, n={n}"] = (b + a - b, a)
        routes[f"(a @ b)^T, n={n}"] = ((a @ b).transpose(), b.transpose() @ a.transpose())
        # polynomial entries that cancel
        registry = full_registry(n)
        x, y = _generic(registry, 0, n), _generic(registry, sp_dim(n), n)
        routes[f"x + y - x, n={n}"] = (x + y - x, y)
        routes[f"[x, y] + [y, x], n={n}"] = (bracket(x, y) + bracket(y, x), MatF.zero(2 * n))
    for name, (got, want) in routes.items():
        assert got == want and hash(got) == hash(want), name
        assert got.rows == want.rows and list(got.rows) == list(want.rows), name
        assert_stored_as_support(got)
        assert got.is_zero() is (not got.rows) is want.is_zero(), name
        # equal polynomial entries hold equal terms in equal order
        assert stored_terms(got) == stored_terms(want), name
    assert MatF.zero(size).rows == {} and MatF.zero(size).entries == ((ZERO,) * size,) * size


def test_is_sp_refuses_an_entry_without_its_partner():
    # n = 2, blocks ((A, B), (C, D)): the partner of (p, q) is (s(q), s(p)),
    # s swapping the halves of V, negated in A and D and equal in B and C
    size = 4
    for (i, j), partner, sign in (((0, 1), (3, 2), -1), ((1, 1), (3, 3), -1),
                                  ((3, 2), (0, 1), -1), ((0, 3), (1, 2), 1),
                                  ((2, 1), (3, 0), 1), ((3, 0), (2, 1), 1)):
        lone = MatF.unit(size, i, j)
        assert not is_sp(lone), (i, j)
        assert is_sp(lone + MatF.unit(size, *partner, sign)), (i, j)
        assert not is_sp(lone + MatF.unit(size, *partner, -sign)), (i, j)
        assert not is_sp(lone + MatF.unit(size, *partner, 2 * sign)), (i, j)
    # a diagonal entry of B or C is its own partner
    for i, j in ((0, 2), (1, 3), (2, 0), (3, 1)):
        assert is_sp(MatF.unit(size, i, j))


def test_is_sp_matches_the_j_matrix_definition():
    # is_sp reads J m entrywise; the oracle forms m^T J + J m
    rng = random.Random(507)
    kept = rejected = 0
    for n in (1, 2, 3):
        size = 2 * n
        j = omega_matrix(n)
        basis = sp_basis(n)
        for _ in range(20):
            m = MatF.zero(size)
            for b in basis:
                m = m + b.scale(rand_scalar(rng))
            candidates = [m]
            for bump in (fs(rng.choice((-2, -1, 1, 2))), SQRT2):
                rows = [list(row) for row in m.entries]
                rows[rng.randrange(size)][rng.randrange(size)] += bump
                candidates.append(MatF(rows))
            candidates.append(MatF([[rand_scalar(rng) for _ in range(size)]
                                    for _ in range(size)]))
            for c in candidates:
                want = (c.transpose() @ j + j @ c).is_zero()
                assert is_sp(c) is want
                kept += want
                rejected += not want
    assert kept > 60 and rejected > 60
    assert not is_sp(MatF.zero(3))


def test_raw_square_basic_example():
    # v = (1, 0) gives v v^T J = E_12 for n = 1
    m = raw_square([1, 0])
    assert m.entries == ((ZERO, ONE), (ZERO, ZERO))
    assert is_sp(m)


def test_raw_square_lands_in_sp_and_pairing_identity():
    rng = random.Random(504)
    half = fs(Fraction(1, 2))
    for n in (1, 2):
        for _ in range(10):
            v = rand_vec(rng, 2 * n)
            sq = raw_square(v)
            assert is_sp(sq)
            x = rand_sp(rng, n)
            # trace_pair(-1/2 v v^T J, x) = 1/2 omega(x v, v)
            lhs = trace_pair(sq.scale(-half), x)
            rhs = omega(x.apply(v), v) * half
            assert lhs == rhs


def test_raw_square_of_variables_evaluates_to_raw_square_at_a_point():
    rng = random.Random(508)
    for n in (1, 2, 3):
        registry = tuple(f"i{a}" for a in range(2 * n))
        square = raw_square([MultiPoly.variable(registry, a) for a in range(2 * n)])
        for _ in range(5):
            v = [rand_scalar(rng) for _ in range(2 * n)]
            assert MatF([[e.eval(v) for e in row] for row in square.entries]) == raw_square(v)
    for bad in (0.5, "1"):
        with pytest.raises(TypeError):
            raw_square([bad, 0])


def test_raw_square_unipotent_equivariance():
    rng = random.Random(505)
    n = 2
    for _ in range(5):
        # block strictly upper sp element: symmetric B-block only, squares to 0
        bsym = MatF.zero(2 * n)
        for i in range(n):
            for j in range(i, n):
                c = fs(Fraction(rng.randint(-2, 2)))
                bsym = bsym + MatF.unit(2 * n, i, n + j).scale(c)
                if j != i:
                    bsym = bsym + MatF.unit(2 * n, j, n + i).scale(c)
        assert is_sp(bsym)
        assert (bsym @ bsym).is_zero()
        g = MatF.identity(2 * n) + bsym  # bsym^2 = 0, so g is symplectic
        ginv = MatF.identity(2 * n) - bsym
        for _ in range(3):
            v = rand_vec(rng, 2 * n)
            gv = g.apply(v)
            assert (raw_square(gv) - g @ raw_square(v) @ ginv).is_zero()


def test_root_datum_counts_and_lengths():
    for n in (1, 2, 3):
        datum = RootDatumC(n)
        assert len(datum.roots) == 2 * n * n
        assert len(datum.positive_roots) == n * n
        longs = [r for r in datum.roots if r.length == "long"]
        shorts = [r for r in datum.roots if r.length == "short"]
        assert len(longs) == 2 * n
        assert len(shorts) == 2 * n * (n - 1)
        for r in datum.roots:
            want = 2 if r.length == "long" else 1
            assert datum.pairing(r, r) == want


def test_root_vectors_pair_and_bracket():
    datum = RootDatumC(2)
    for r in datum.positive_roots:
        opp = datum.opposite(r)
        assert all(a == -b for a, b in zip(r.coeffs, opp.coeffs))
        assert trace_pair(r.vec, opp.vec) == ONE
        assert is_sp(r.vec)
    # root vectors are simultaneous Cartan eigenvectors
    basis = sp_basis(2)
    for r in datum.roots:
        for i in range(2):
            h = basis[i]
            weight = r.coeffs[i] * SQRT2
            assert (bracket(h, r.vec) - r.vec.scale(weight)).is_zero()
    # bracket of two roots lands on the sum root when that is a root
    by_coeffs = {tuple(r.coeffs): r for r in datum.roots}
    for r1 in datum.roots:
        for r2 in datum.roots:
            total = tuple(a + b for a, b in zip(r1.coeffs, r2.coeffs))
            out = bracket(r1.vec, r2.vec)
            if total in by_coeffs:
                target = by_coeffs[total].vec
                flat = [[e for row in m.entries for e in row]
                        for m in (out, target)]
                if not out.is_zero():
                    assert len(row_basis(flat)) == 1
            elif any(total):
                assert out.is_zero()


def test_centralizer_and_nilpotency():
    n = 2
    basis = sp_basis(n)
    h = basis[0]
    assert not is_nilpotent(h)
    assert centralizer_dim(MatF.zero(2 * n)) == sp_dim(n)
    datum = RootDatumC(n)
    e = datum.positive_roots[0].vec
    assert is_nilpotent(e)
    ad = ad_matrix(e, n)
    assert ad.size == sp_dim(n)
    # ad matrix columns reproduce bracket against the basis
    for l, bl in enumerate(basis):
        col = [ad[k, l] for k in range(sp_dim(n))]
        assert mat_from_coords(col, n).entries == bracket(e, bl).entries
    assert centralizer_dim(e) == sp_dim(n) - len(row_basis(ad.entries))
    # the sparse rank of ad y against the dense one, on every type for n <= 4
    # and on unipotent conjugates, with sqrt2 entries, at n = 3
    rng = random.Random(379)
    ys = [nilpotent_rep(lam) for m in (1, 2, 3, 4) for lam in partitions_spn(m)]
    for lam in partitions_spn(3):
        y = nilpotent_rep(lam)
        for g, ginv in unipotent_factors(3, rng, count=2):
            y = g @ y @ ginv
        ys.append(y)
    assert any(v.bn for y in ys for row in y.entries for v in row)
    for y in ys:
        m = y.size // 2
        assert centralizer_dim(y) == sp_dim(m) - len(row_basis(ad_matrix(y, m).entries))
