"""Scheme-level checks: ideals, moment equation, sampled points, tangents,
the half-dimensional stratum frame, the linear embedding, Hilbert rows."""

import functools
import itertools
import random

import pytest

from fractions import Fraction

from spnil.field import HALF, FieldScalar, fs
from spnil.poly import MultiPoly, _int_pairs
from spnil.linalg import nullspace, row_basis, solution_space, sparse_rank, truncated_ideal_dim
from spnil.orbits import (
    census,
    component_types,
    nilpotent_rep,
    partitions_spn,
    sl2_complete,
)
from spnil.splie import (
    MatF,
    ad_matrix,
    bracket,
    coords_of,
    dual_basis,
    is_nilpotent,
    mat_from_coords,
    omega,
    poly_trace_pair,
    raw_square,
    sp_basis,
    sp_dim,
    trace_pair,
)
from spnil.varieties import (
    SchemePoint,
    _cleared,
    _dot_vanishes,
    _generic,
    _isotropic,
    _powers,
    _rep_and_positive_slots,
    _odd_traces_vanish,
    _stratum_frame,
    _trace_form,
    embedding_pullback_check,
    full_registry,
    hilbert_compare,
    ideal_generators,
    lagrangian_check,
    moment2,
    odd_char_coeffs_vanish,
    point_coordinates,
    positive_weight_space,
    sample_xnil_point,
    stratum_tangent_check,
    theta1_kills_minors,
    unipotent_factors,
)

ZERO = FieldScalar(0)


def _split(vec, n):
    """Tangent triple (a, b, u) of a flat vector in (x, y, i) coordinates."""
    nn = sp_dim(n)
    return mat_from_coords(vec[:nn], n), mat_from_coords(vec[nn:2 * nn], n), vec[2 * nn:]


def _pairing(t1, t2):
    """The moment-compatible symplectic form on tangent triples (a, b, u),
    Tr(a1 b2) - Tr(a2 b1) - 2 omega(u1, u2), from the matrices themselves:
    the oracle for the flat form of _trace_form."""
    a1, b1, u1 = t1
    a2, b2, u2 = t2
    return trace_pair(a1, b2) - trace_pair(a2, b1) - omega(u1, u2) * 2


def origin(n):
    return SchemePoint(n, MatF.zero(2 * n), MatF.zero(2 * n), [ZERO] * (2 * n))


def test_full_registry_shape():
    for n in (1, 2, 3):
        reg = full_registry(n)
        assert len(reg) == 2 * sp_dim(n) + 2 * n
        assert reg[0] == "x0"
        assert reg[sp_dim(n)] == "y0"
        assert reg[2 * sp_dim(n)] == "i0"
        pt = sample_xnil_point(partitions_spn(n)[0], seed=0)
        assert len(point_coordinates(pt)) == len(reg)


def test_ideal_generator_census():
    # counts, degrees, registries are all frozen
    frozen = {
        (1, "I"): (3, {2}), (1, "J"): (1, {4}), (1, "K"): (1, {2}),
        (1, "NIL"): (1, {2}),
        (2, "I"): (10, {2}), (2, "J"): (36, {4}), (2, "K"): (36, {2}),
        (2, "NIL"): (2, {2, 4}),
    }
    for (n, kind), (count, degs) in frozen.items():
        gens = ideal_generators(kind, n)
        assert len(gens) == count
        assert {g.total_degree() for g in gens} == degs
        assert all(g.is_homogeneous() and not g.is_zero() for g in gens)
    # every generator is a nonzero polynomial on its kind's registry, never
    # the scalar 0 that seeds the sums of MatF's products and trace pairings
    cases = [(n, kind) for n in (1, 2) for kind in ("I", "J", "K", "NIL")] + [(3, "I")]
    for n, kind in cases:
        xs = tuple(f"x{k}" for k in range(sp_dim(n)))
        ys = tuple(f"y{k}" for k in range(sp_dim(n)))
        registry = {"I": full_registry(n), "J": xs + ys, "K": xs, "NIL": ys}[kind]
        assert all(type(g) is MultiPoly and g and g.registry == registry
                   for g in ideal_generators(kind, n))
    assert ideal_generators("J", 1)[0].registry == ("x0", "x1", "x2",
                                                    "y0", "y1", "y2")
    with pytest.raises(ValueError):
        ideal_generators("Q", 1)


def poly_mat(rows):
    """MatF of dense rows with MultiPoly entries, through the trusted
    constructor, which takes the nonzero entries by row and column."""
    rows = [{j: v for j, v in enumerate(row) if v} for row in rows]
    return MatF._of(len(rows), {i: row for i, row in enumerate(rows) if row})


def entrywise_generic(registry, offset, n):
    """Generic sp(2n) matrix built entry by entry: entry (i, j) is the
    linear form over every basis element's (i, j) entry."""
    basis = sp_basis(n)
    size = 2 * n
    return poly_mat([MultiPoly.linear(registry, {offset + k: b.entries[i][j]
                                                 for k, b in enumerate(basis)})
                     for j in range(size)] for i in range(size))


def raw_square_of_variables(registry, offset, n):
    """v v^T J of the variables in slots offset .. offset + 2n - 1."""
    size = 2 * n
    u = [MultiPoly.variable(registry, offset + a) for a in range(size)]
    vtj = [-u[n + j] for j in range(n)] + [u[j] for j in range(n)]
    return poly_mat([u[i] * vtj[j] for j in range(size)] for i in range(size))


def test_generic_matrix_matches_the_entrywise_linear_forms():
    for n in (1, 2, 3):
        xs = tuple(f"x{k}" for k in range(sp_dim(n)))
        for registry, offset in ((xs, 0), (full_registry(n), sp_dim(n))):
            m, want = _generic(registry, offset, n), entrywise_generic(registry, offset, n)
            assert m == want and hash(m) == hash(want)
            assert all(type(e) is MultiPoly and len(e.terms) == 1
                       for row in m.entries for e in row)


def test_moment_generators_match_the_trace_dual_pairings():
    # I is the moment map of the generic point read in coordinates; the
    # oracle pairs the dual basis with the bracket and the symbolic square
    for n in (1, 2):
        registry, nn = full_registry(n), sp_dim(n)
        total = (bracket(entrywise_generic(registry, 0, n), entrywise_generic(registry, nn, n))
                 + raw_square_of_variables(registry, 2 * nn, n))
        want = [trace_pair(d, total) for d in dual_basis(n)]
        gens = ideal_generators("I", n)
        assert gens == want
        assert [list(g.terms.items()) for g in gens] == [list(w.terms.items()) for w in want]


def test_moment2_zero_exactly_on_scheme():
    assert moment2(origin(1)).is_zero()
    assert moment2(origin(2)).is_zero()
    h = sp_basis(1)[0]
    off = SchemePoint(1, h, MatF.zero(2), [fs(1), ZERO])
    # a list i is stored as a tuple, so the point hashes
    assert type(off.i) is tuple and off.i == (fs(1), ZERO)
    # x commutes with y = 0 but i^2 does not vanish
    assert not moment2(off).is_zero()


def test_moment2_equivariance_under_unipotents():
    rng = random.Random(701)
    n = 2
    basis = sp_basis(n)

    def rand_sp():
        m = MatF.zero(2 * n)
        for b in basis:
            m = m + b.scale(fs(rng.randint(-2, 2)))
        return m

    for _ in range(4):
        pt = SchemePoint(n, rand_sp(), rand_sp(),
                         [fs(rng.randint(-2, 2)) for _ in range(2 * n)])
        base = moment2(pt)
        for g, ginv in unipotent_factors(n, rng):
            moved = SchemePoint(n, g @ pt.x @ ginv, g @ pt.y @ ginv,
                                g.apply(list(pt.i)))
            assert (moment2(moved) - g @ base @ ginv).is_zero()


def jordan_type(m):
    ranks = [m.size]
    power = m
    while True:
        r = len(row_basis([list(row) for row in power.entries]))
        ranks.append(r)
        if r == 0:
            break
        power = power @ m
    drops = [ranks[j] - ranks[j + 1] for j in range(len(ranks) - 1)]
    parts = []
    for j, c in enumerate(drops):
        nxt = drops[j + 1] if j + 1 < len(drops) else 0
        parts.extend([j + 1] * (c - nxt))
    return tuple(sorted(parts, reverse=True))


def test_sampled_points_lie_on_the_nilpotent_scheme():
    for n in (1, 2):
        nil = ideal_generators("NIL", n)
        full = ideal_generators("I", n)
        for lam in partitions_spn(n):
            for seed in (0, 1, 2):
                pt = sample_xnil_point(lam, seed=seed)
                assert moment2(pt).is_zero()
                assert is_nilpotent(pt.y)
                assert jordan_type(pt.y) == lam
                coords = point_coordinates(pt)
                assert all(g.eval(coords).is_zero() for g in full)
                ycoords = coords[sp_dim(n):2 * sp_dim(n)]
                assert all(g.eval(ycoords).is_zero() for g in nil)


def test_sampled_points_are_deterministic_per_seed():
    for lam in [(2,), (4,), (2, 2)]:
        assert sample_xnil_point(lam, seed=3) == sample_xnil_point(lam, seed=3)
        assert sample_xnil_point(lam, seed=3) != sample_xnil_point(lam, seed=4)


def test_sampling_completes_one_sl2_triple_per_jordan_type(monkeypatch):
    import spnil.varieties as varieties

    calls = []

    def counted(e):
        calls.append(e)
        return sl2_complete(e)

    monkeypatch.setattr(varieties, "sl2_complete", counted)
    _rep_and_positive_slots.cache_clear()
    try:
        types = partitions_spn(2)
        first = [sample_xnil_point(lam, seed=s) for lam in types for s in range(3)]
        assert len(calls) == len(types)
        _rep_and_positive_slots.cache_clear()
        assert [sample_xnil_point(lam, seed=s) for lam in types for s in range(3)] == first
        assert len(calls) == 2 * len(types)
    finally:
        _rep_and_positive_slots.cache_clear()


def test_lagrangian_check_at_origin():
    rep = lagrangian_check(origin(1))
    assert rep.jacobian_rank == 0
    assert rep.tangent_dim == 8
    assert rep.smooth is False
    # kernel is the whole space, which the symplectic form does not kill
    assert rep.isotropic is False


def test_lagrangian_check_at_regular_semisimple_x():
    h = sp_basis(1)[0]
    rep = lagrangian_check(SchemePoint(1, h, MatF.zero(2), [ZERO, ZERO]))
    assert rep.jacobian_rank == 2
    assert rep.tangent_dim == 6
    h2 = sp_basis(2)[0] + sp_basis(2)[1].scale(fs(2))
    rep2 = lagrangian_check(SchemePoint(2, h2, MatF.zero(4), [ZERO] * 4))
    assert rep2.jacobian_rank == 8
    assert rep2.tangent_dim == 16


def test_tangent_rank_regression_at_sampled_points():
    # the defining equations never reach full rank 2n^2 + 2n at these points.
    # At n = 1 they cannot: tr(y [x, y]) = 0, so tr(y mu) = i^T J y i lies in
    # I and its differential tr(y d mu) is a combination of the I rows.
    # Conjugated to y = E_12, i = (c, 0) with c != 0, y i = 0 and that
    # differential is c^2 b_21, while d tr(y^2) = 2 tr(y b) = 2 b_21: the
    # NIL row lies in the span of the I rows.  Measured rank(d mu) and
    # rank(d NIL): (2) 3 and 1; (4) 9-10 and 2; (2,2) 9-10 and 1.  The kernel
    # then exceeds half the ambient dimension, which is why the isotropy flag
    # stays off.
    for seed in range(5):
        rep = lagrangian_check(sample_xnil_point((2,), seed=seed))
        assert rep.jacobian_rank == 3
        assert rep.tangent_dim == 5
        assert rep.smooth is False
        assert rep.isotropic is False
    for seed in range(5):
        rep = lagrangian_check(sample_xnil_point((4,), seed=seed))
        assert rep.jacobian_rank in (10, 11)
        assert rep.smooth is False
        assert rep.isotropic is False
    for seed in range(3):
        rep = lagrangian_check(sample_xnil_point((2, 2), seed=seed))
        assert rep.jacobian_rank == 10
        assert rep.smooth is False
        assert rep.isotropic is False


def test_pairing_is_moment_compatible():
    # mu is homogeneous quadratic, so d mu_p(v) = mu(p + v) - mu(p) - mu(v)
    # exactly; the pairing must satisfy d tr(xi mu)(v) = pairing(xi . p, v)
    rng = random.Random(704)
    vector_terms = 0
    for n in (1, 2):
        basis = sp_basis(n)

        def rand_sp():
            m = MatF.zero(2 * n)
            for b in basis:
                m = m + b.scale(fs(rng.randint(-2, 2)))
            return m

        def rand_vec():
            return [fs(rng.randint(-2, 2)) for _ in range(2 * n)]

        points = [sample_xnil_point(lam, seed=5) for lam in partitions_spn(n)]
        points += [SchemePoint(n, rand_sp(), rand_sp(), rand_vec())
                   for _ in range(2)]
        for pt in points:
            for _ in range(3):
                a, b, u = rand_sp(), rand_sp(), rand_vec()
                moved = SchemePoint(n, pt.x + a, pt.y + b,
                                    [p + q for p, q in zip(pt.i, u)])
                dmu = moment2(moved) - moment2(pt) - moment2(
                    SchemePoint(n, a, b, u))
                for xi in basis:
                    orbit = (bracket(xi, pt.x), bracket(xi, pt.y),
                             xi.apply(list(pt.i)))
                    assert trace_pair(xi, dmu) == _pairing(orbit, (a, b, u))
                    if omega(orbit[2], u):
                        vector_terms += 1
    # the vector half of the form is exercised, so its scale is pinned
    assert vector_terms > 0


def test_stratum_frame_is_half_dimensional_and_isotropic():
    # the report reads the frame vectors themselves: its rank, kernel and
    # isotropy verdicts must be those of the frame's reduced basis, and
    # sqrt2 multiples or Q(sqrt2) combinations of frame vectors must leave
    # the sparse rank alone (a wrong sqrt2 split would raise it)
    irrational = 0
    for n in (1, 2, 3):
        by_type = {row.partition: row for row in census(n)}
        for lam in partitions_spn(n) if n < 3 else component_types(n):
            for seed in (0, 2):
                pt = sample_xnil_point(lam, seed=seed)
                rep = stratum_tangent_check(pt)
                assert rep.frame_rank == sp_dim(n) + by_type[lam].vplus_dim
                assert rep.inside_kernel is True
                assert rep.isotropic is True
                if by_type[lam].is_component:
                    assert rep.frame_rank == 2 * n * n + 2 * n
                frame = _stratum_frame(pt)
                basis = row_basis(frame)
                jac = pt.jacobian
                assert rep.frame_rank == len(basis)
                off_kernel = any(sum((c * v for c, v in zip(row, vec)), ZERO)
                                 for vec in basis for row in jac)
                assert rep.inside_kernel is not off_kernel
                assert rep.isotropic is _isotropic([_cleared(v) for v in basis], n)
                rows = [{j: c for j, c in enumerate(v) if c} for v in frame]
                irrational += any(c.bn for row in rows for c in row.values())
                v, w = [vec for vec in frame if any(vec)][:2]
                for extra in ([fs(0, 1) * c for c in v],
                              [fs(1, 1) * a + fs(Fraction(-1, 3), 2) * b for a, b in zip(v, w)]):
                    assert sparse_rank(rows + [{j: c for j, c in enumerate(extra) if c}]) == len(basis)
    assert irrational


def test_flat_isotropy_matches_pairing_oracle():
    # _isotropic pairs _cleared flat vectors through the Gram matrix of
    # sp_basis; _pairing over _split rebuilds the matrices and is the
    # reference
    def isotropic(vectors, n):
        return _isotropic([_cleared(v) for v in vectors], n)

    def oracle(vectors, n):
        parts = [_split(v, n) for v in vectors]
        return not any(_pairing(parts[p], parts[q])
                       for p in range(len(parts))
                       for q in range(p + 1, len(parts)))

    # the inside-kernel test sums integer parts; FieldScalar sums are the
    # reference, per Jacobian row and vector and for the whole verdict
    def dot_oracle(row, vec):
        return not sum((c * v for c, v in zip(row, vec)), ZERO)

    def dot_ints(row, vec):
        return _dot_vanishes(_cleared(row), _cleared(vec))

    points = [sample_xnil_point(lam, seed=seed)
              for n in (1, 2) for lam in partitions_spn(n) for seed in (0, 1)]
    points += [sample_xnil_point(lam, seed=0) for lam in component_types(3)]
    flipped = off_kernel = irrational = fractional = 0
    for pt in points:
        n, nn = pt.n, sp_dim(pt.n)
        kernel = nullspace(pt.jacobian)
        frame = _stratum_frame(pt)
        assert isotropic(kernel, n) is oracle(kernel, n) is False
        assert isotropic(frame, n) is oracle(frame, n) is True
        # doubling or halving the i part scales the omega term by four or
        # by a quarter and leaves the trace terms alone
        rescaled = [v[:2 * nn] + [c * 2 for c in v[2 * nn:]]
                    for v in frame]
        halved = [v[:2 * nn] + [c * HALF for c in v[2 * nn:]]
                  for v in frame]
        for scaled in (rescaled, halved):
            answer = isotropic(scaled, n)
            assert answer is oracle(scaled, n)
            # isotropy is a property of the span
            assert isotropic(row_basis(scaled), n) is answer
            flipped += answer is False
        fractional += any(_int_pairs({j: c for j, c in enumerate(v) if c})[0] > 1
                          for v in kernel + frame + halved)
        assert stratum_tangent_check(pt).inside_kernel is all(
            dot_oracle(row, vec) for vec in frame for row in pt.jacobian) is True
        for vec in frame + rescaled + halved:
            for row in pt.jacobian:
                verdict = dot_ints(row, vec)
                assert verdict is dot_oracle(row, vec)
                off_kernel += not verdict
                irrational += any(c.bn for c in vec) and any(c.bn for c in row)
        for edge in ([], kernel[:1], frame[:1]):
            assert isotropic(edge, n) is oracle(edge, n) is True
    assert flipped > 0 and off_kernel > 0 and irrational > 0 and fractional > 0


def test_trace_form_gives_each_basis_element_one_partner():
    # _isotropic maps each coordinate through the one form entry it lies in
    for n in (1, 2, 3, 4):
        nn, basis = sp_dim(n), sp_basis(n)
        form = _trace_form(n)
        assert sorted(c for p, q, _ in form for c in (p, q)) == list(range(2 * nn + 2 * n))
        for p, q, c in form:
            assert type(c) is int
            if p < nn:
                assert nn <= q < 2 * nn
                assert c == trace_pair(basis[p], basis[q - nn]) != 0
            else:
                assert (p, q, c) == (p, p + n, -2)
        assert sum(p < nn for p, _, _ in form) == nn
        assert _trace_form(n) is form


def _flat(m):
    """Entries of a matrix, row by row."""
    return [v for row in m.entries for v in row]


def _ad_flat(y, n):
    """Matrix of b -> [b, y] from sp_basis(n) coordinates to flat entries."""
    return list(zip(*(_flat(bracket(b, y)) for b in sp_basis(n))))


def per_move_frame(point):
    """Reference stratum frame: one centralizer nullspace of ad y and one
    particular solution per half space vector for its move."""
    n = point.n
    nn = sp_dim(n)
    zeros_g = [ZERO] * nn
    zeros_v = [ZERO] * (2 * n)
    ivec = list(point.i)
    frame = [coords_of(bracket(a, point.x), n) + coords_of(bracket(a, point.y), n)
             + a.apply(ivec) for a in sp_basis(n)]
    admat = _ad_flat(point.y, n)
    for z in nullspace(admat):
        frame.append(list(z) + zeros_g + zeros_v)
    for u in positive_weight_space(point.y):
        polar = (raw_square([p + q for p, q in zip(ivec, u)])
                 - raw_square(ivec) - raw_square(u))
        sol = solution_space(admat, _flat(-polar))[0]
        assert sol is not None
        frame.append(list(sol) + zeros_g + list(u))
    return frame


def test_stacked_kernel_frame_spans_the_per_move_frame():
    points = [sample_xnil_point(lam, seed=seed)
              for n in (1, 2) for lam in partitions_spn(n) for seed in range(3)]
    points += [sample_xnil_point(lam, seed=0) for lam in component_types(3)]
    for pt in points:
        old, new = per_move_frame(pt), _stratum_frame(pt)
        assert len(old) == len(new)
        assert len(row_basis(old)) == len(row_basis(new)) == len(row_basis(old + new))
        # the conjugation rows, read off ad x and ad y, are the brackets
        nn = sp_dim(pt.n)
        assert new[:nn] == old[:nn]


def test_coordinate_systems_reduce_like_the_flat_ones():
    # ad y in sp coordinates is the flat system times the injective map
    # coords_of (up to sign), so both have one reduced echelon form: the
    # particular solution and kernel basis must agree exactly
    for n in (1, 2, 3):
        for lam in partitions_spn(n):
            for seed in range(3):
                pt = sample_xnil_point(lam, seed=seed)
                ivec = list(pt.i)
                flat_ad, coord_ad = _ad_flat(pt.y, n), ad_matrix(pt.y, n).entries
                # the sampler: [x, y] = -raw_square(i)
                assert (solution_space(coord_ad, coords_of(raw_square(ivec), n))
                        == solution_space(flat_ad, _flat(-raw_square(ivec))))
                # the frame: [w, y] + sum c_k polar(u_k) = 0, zero right side,
                # eliminated as [-ad y | P u_1 .. P u_k] from the moment rows
                nn, half = sp_dim(n), positive_weight_space(pt.y)
                polars = [raw_square([p + q for p, q in zip(ivec, u)])
                          - raw_square(ivec) - raw_square(u) for u in half]
                flat_polars = [_flat(p) for p in polars]
                coord = [list(row[:nn]) + [sum((c * v for c, v in zip(row[2 * nn:], u)), ZERO)
                                           for u in half]
                         for row in pt.jacobian[:nn]]
                flat = [list(row) + [p[r] for p in flat_polars] for r, row in enumerate(flat_ad)]
                assert (solution_space(coord, [ZERO] * len(coord))
                        == solution_space(flat, [ZERO] * len(flat)))


def test_jacobian_moment_rows_are_ad_and_polarization():
    # the rows _stratum_frame reads: d mu = [-ad y | ad x | P] in sp
    # coordinates, column c of P the polarization of raw_square at i along
    # the unit vector e_c, entry for entry
    points = [sample_xnil_point(lam, seed=seed)
              for n in (1, 2) for lam in partitions_spn(n) for seed in range(3)]
    points += [sample_xnil_point(lam, seed=0) for lam in component_types(3)]
    polarized = 0
    for pt in points:
        n, nn, ivec = pt.n, sp_dim(pt.n), list(pt.i)
        units = [[fs(int(a == c)) for a in range(2 * n)] for c in range(2 * n)]
        polars = [coords_of(raw_square([p + q for p, q in zip(ivec, e)])
                            - raw_square(ivec) - raw_square(e), n) for e in units]
        ad_y, ad_x = ad_matrix(pt.y, n).entries, ad_matrix(pt.x, n).entries
        want = [tuple([-c for c in row_y] + list(row_x) + [p[r] for p in polars])
                for r, (row_y, row_x) in enumerate(zip(ad_y, ad_x))]
        assert list(pt.jacobian[:nn]) == want
        polarized += any(any(p) for p in polars)
    assert polarized > 0


def test_positive_weight_space_dimensions_match_census():
    rng = random.Random(702)
    for n in (1, 2):
        for row in census(n):
            y = nilpotent_rep(row.partition)
            basis = positive_weight_space(y)
            assert len(basis) == row.vplus_dim
            if basis:
                assert len(row_basis(basis)) == len(basis)
                # stable under y, which raises the grading
                moved = [y.apply(list(v)) for v in basis]
                assert len(row_basis(basis + moved)) == len(basis)
            # the space transported by a unipotent conjugation
            for g, ginv in unipotent_factors(n, rng, count=1):
                conj = positive_weight_space(g @ y @ ginv)
                assert len(conj) == row.vplus_dim
                pushed = [g.apply(list(v)) for v in basis]
                if basis:
                    assert len(row_basis(conj + pushed)) == len(conj)


def test_embedding_pullback():
    assert embedding_pullback_check(1)
    assert embedding_pullback_check(2)


def test_odd_characteristic_coefficients_vanish():
    assert odd_char_coeffs_vanish(1)
    assert odd_char_coeffs_vanish(2)
    assert odd_char_coeffs_vanish(3)


def generic_rows(registry, size):
    """Rows of the generic size x size matrix, one variable per entry."""
    return [[MultiPoly.variable(registry, size * i + j) for j in range(size)]
            for i in range(size)]


def _char_coeffs(m, registry, size):
    """Elementary symmetric functions e_1..e_size of a MatF with polynomial
    entries, via traces of powers and Newton's identities.

    Only the powers m, m^2, ..., m^h with h = ceil(size/2) are formed; for
    k > h, tr(m^k) is the trace pairing of m^h with m^(k-h).
    """
    h = (size + 1) // 2
    powers = [m]
    for _ in range(h - 1):
        powers.append(powers[-1] @ m)
    traces = [p.trace() for p in powers]
    for k in range(h + 1, size + 1):
        traces.append(trace_pair(powers[h - 1], powers[k - h - 1]))
    es = [MultiPoly.constant(registry, 1)]
    for k in range(1, size + 1):
        acc = MultiPoly.zero(registry)
        sign = 1
        for i in range(1, k + 1):
            term = es[k - i] * traces[i - 1]
            acc = acc + (term if sign > 0 else -term)
            sign = -sign
        es.append(acc.scale(Fraction(1, k)))
    return es[1:]


@functools.lru_cache(maxsize=None)
def sp_char_coeffs(n):
    """e_1..e_2n of a generic element of sp(2n), in the NIL registry."""
    registry = tuple(f"y{k}" for k in range(sp_dim(n)))
    return tuple(_char_coeffs(_generic(registry, 0, n), registry, 2 * n))


def test_odd_traces_vanish_exactly_with_odd_char_coeffs():
    # generic sp(2n): both sides vanish; generic gl(2), gl(4) and generic
    # sp(2n) with one entry bumped off sp: both sides are nonzero
    cases = []
    for n in (1, 2, 3):
        registry = tuple(f"y{k}" for k in range(sp_dim(n)))
        cases.append((registry, _generic(registry, 0, n), True))
    for size in (2, 4):
        registry = tuple(f"m{i}{j}" for i in range(size) for j in range(size))
        cases.append((registry, poly_mat(generic_rows(registry, size)), False))
    for n, (i, j) in ((1, (0, 0)), (2, (0, 1)), (2, (0, 3)), (3, (1, 0))):
        registry = tuple(f"y{k}" for k in range(sp_dim(n)))
        rows = [list(row) for row in _generic(registry, 0, n).entries]
        rows[i][j] = rows[i][j] + MultiPoly.constant(registry, 1)
        cases.append((registry, poly_mat(rows), False))
    for registry, m, expected in cases:
        es = _char_coeffs(m, registry, m.size)
        odd_zero = all(e.is_zero() for e in es[0::2])
        assert odd_zero == expected
        assert _odd_traces_vanish(m) == odd_zero


def rand_poly_mat(rng, registry, size):
    """A size x size MatF of random MultiPolys with fraction and sqrt2
    coefficients, a quarter of the entries zero."""
    def entry():
        terms = {tuple(rng.randint(0, 2) for _ in registry):
                 fs(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * rng.randint(0, 1))
                 for _ in range(rng.randint(1, 3))}
        return MultiPoly(registry, terms) if rng.random() > 0.25 else MultiPoly.zero(registry)
    return poly_mat([[entry() for _ in range(size)] for _ in range(size)])


def test_packed_trace_pairing_matches_the_per_term_pairing():
    # trace_pair sums a_ij b_ji term by term in FieldScalars; the packed
    # pairing must give the same polynomial, on nonzero pairings too
    for n in (1, 2, 3):
        registry = tuple(f"y{k}" for k in range(sp_dim(n)))
        powers = _powers(_generic(registry, 0, n), n)
        # the NIL generators tr(y^2k) and every odd trace pairing
        assert ideal_generators("NIL", n) == [trace_pair(p, p) for p in powers]
        for a, b in itertools.product(powers, repeat=2):
            assert poly_trace_pair(a, b) == trace_pair(a, b)
    rng = random.Random(643)
    registry = ("a", "b", "c")
    for size in (1, 2, 3, 4):
        mats = [rand_poly_mat(rng, registry, size) for _ in range(3)]
        mats.append(mats[0] @ mats[1])
        for a, b in itertools.product(mats, repeat=2):
            want = trace_pair(a, b)
            got = poly_trace_pair(a, b)
            assert type(got) is type(want) and got == want
            if want:
                assert all(type(c) is FieldScalar and c for c in got.terms.values())
    # nothing pairs: the scalar 0, as trace_pair gives
    x = MultiPoly.variable(registry, 0)
    upper = poly_mat([[ZERO, x], [ZERO, ZERO]])
    for a, b in ((upper, upper), (upper, MatF.zero(2)), (MatF.zero(2), upper)):
        got = poly_trace_pair(a, b)
        assert type(got) is FieldScalar and not got
    with pytest.raises(ValueError, match="registry"):
        poly_trace_pair(upper, poly_mat([[ZERO, ZERO], [MultiPoly.variable(("z",), 0), ZERO]]))


def all_powers_char_coeffs(m, registry, size):
    """e_1..e_size from the traces of every power m^1..m^size (Newton)."""
    zero = MultiPoly.zero(registry)
    powers, traces = m, []
    for _ in range(size):
        traces.append(sum((powers[i][i] for i in range(size)), zero))
        powers = [[sum((powers[i][k] * m[k][j] for k in range(size)), zero)
                   for j in range(size)] for i in range(size)]
    es = [MultiPoly.constant(registry, 1)]
    for k in range(1, size + 1):
        acc = zero
        for i in range(1, k + 1):
            term = es[k - i] * traces[i - 1]
            acc = acc + term if i % 2 else acc - term
        es.append(acc.scale(Fraction(1, k)))
    return es[1:]


def faddeev_leverrier(a):
    """e_1..e_size of a numeric matrix: e_k = (-1)^k c_(size-k) in
    det(t - a) = sum c_j t^j, from M_k = a M_(k-1) + c_(size-k+1) I."""
    size = a.size
    ident = MatF.identity(size)
    mk, c, es = MatF.zero(size), fs(1), []
    for k in range(1, size + 1):
        mk = a @ mk + ident.scale(c)
        c = -(a @ mk).trace() * fs(Fraction(1, k))
        es.append(c if k % 2 == 0 else -c)
    return es


def test_char_coeffs_match_all_powers_oracle():
    # generic square matrices of every size up to 4 (odd coefficients
    # nonzero, odd sizes included) and generic sp(2n) for n = 1, 2
    for size in range(1, 5):
        registry = tuple(f"m{i}{j}" for i in range(size) for j in range(size))
        rows = generic_rows(registry, size)
        assert (_char_coeffs(poly_mat(rows), registry, size)
                == all_powers_char_coeffs(rows, registry, size))
    for n in (1, 2):
        registry = tuple(f"y{k}" for k in range(sp_dim(n)))
        y = _generic(registry, 0, n)
        assert (_char_coeffs(y, registry, 2 * n)
                == all_powers_char_coeffs(y.entries, registry, 2 * n))


def test_char_coeffs_at_sampled_sp6_points_match_faddeev_leverrier():
    n = 3
    es = sp_char_coeffs(n)
    rng = random.Random(705)
    basis = sp_basis(n)
    for _ in range(4):
        y = MatF.zero(2 * n)
        for b in basis:
            y = y + b.scale(fs(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                               rng.randint(-1, 1)))
        want = faddeev_leverrier(y)
        values = coords_of(y, n)
        assert [e.eval(values) for e in es] == want
        assert all(not w for w in want[0::2]) and any(want[1::2])


def test_power_traces_and_even_char_coeffs_generate_one_ideal():
    # Newton's identities are triangular over Q, so (tr y^2, ..., tr y^2n)
    # and (e_2, ..., e_2n) agree; equal slices of both and of their sum
    # show it degree by degree
    for n in (1, 2):
        traces = ideal_generators("NIL", n)
        evens = list(sp_char_coeffs(n)[1::2])
        assert traces[0].registry == evens[0].registry
        for d in (2, 4):
            dims = {truncated_ideal_dim(gens, d)
                    for gens in (traces, evens, traces + evens)}
            assert len(dims) == 1 and dims != {0}


def test_closed_form_nil_rows_match_char_coeff_gradients():
    # at a nilpotent y every e_j (j >= 1) and every tr(y^i) vanish, so
    # Newton's identities give d tr(y^2k) = -2k d e_2k: the closed-form NIL
    # rows of SchemePoint.jacobian are the evaluated gradients of e_2k, scaled
    points = [sample_xnil_point(lam, seed=seed)
              for n in (1, 2) for lam in partitions_spn(n) for seed in range(3)]
    points += [sample_xnil_point(lam, seed=0) for lam in component_types(3)]
    nonzero = 0
    for pt in points:
        n, nn = pt.n, sp_dim(pt.n)
        jac = pt.jacobian
        i_rows, nil_rows = list(jac[:-n]), list(jac[-n:])
        ycoords = coords_of(pt.y, n)
        symbolic = [
            [ZERO] * nn
            + [e.partial(v).eval(ycoords) for v in range(nn)]
            + [ZERO] * (2 * n)
            for e in sp_char_coeffs(n)[1::2]
        ]
        assert nil_rows == [tuple(c * (-2 * k) for c in row)
                            for k, row in enumerate(symbolic, 1)]
        assert len(row_basis(nil_rows)) == len(row_basis(symbolic))
        assert len(row_basis(i_rows + nil_rows)) == len(row_basis(i_rows + symbolic))
        nonzero += any(any(row) for row in nil_rows)
    assert nonzero > 0


def test_jacobian_refuses_points_off_the_nilpotent_scheme():
    h1 = sp_basis(1)[0]
    # x commutes with y = 0 but raw_square(i) does not vanish
    off_moment = SchemePoint(1, h1, MatF.zero(2), (fs(1), ZERO))
    # mu = 0, but y = H_1 is semisimple
    semisimple = SchemePoint(1, MatF.zero(2), h1, (ZERO, ZERO))
    assert not moment2(off_moment).is_zero()
    assert moment2(semisimple).is_zero() and not is_nilpotent(semisimple.y)
    for pt in (off_moment, semisimple):
        with pytest.raises(ValueError, match="defining equations"):
            pt.jacobian
        with pytest.raises(ValueError, match="defining equations"):
            lagrangian_check(pt)
        with pytest.raises(ValueError, match="defining equations"):
            stratum_tangent_check(pt)
        with pytest.raises(ValueError, match="defining equations"):
            _stratum_frame(pt)
    # the half space is built from the powers of y, which never vanish here
    with pytest.raises(ValueError, match="nilpotent"):
        positive_weight_space(semisimple.y)


def test_each_point_builds_its_jacobian_once(monkeypatch):
    # the Jacobian is kept on the point it belongs to, so interleaving two
    # points builds each once; a cache with one slot keyed on the point
    # builds again whenever the other point came in between
    import spnil.varieties as varieties

    builds = []

    def counted(point):
        builds.append(point)
        return point_coordinates(point)

    monkeypatch.setattr(varieties, "point_coordinates", counted)
    p = sample_xnil_point((2, 2), seed=0)
    q = sample_xnil_point((4,), seed=1)
    jac_p = p.jacobian
    assert jac_p is p.jacobian
    lagrangian_check(q)
    stratum_tangent_check(p)
    _stratum_frame(p)
    lagrangian_check(p)
    assert p.jacobian is jac_p and builds == [p, q]

    # a list i is stored as a tuple, so the point hashes and i cannot change
    # under the Jacobian kept with it
    listed = SchemePoint(p.n, p.x, p.y, list(p.i))
    assert isinstance(listed.i, tuple) and listed == p and hash(listed) == hash(p)

    builds.clear()
    one_slot = functools.lru_cache(maxsize=1)(SchemePoint.jacobian.func)
    for point in (p, q, p, q):
        one_slot(point)
    assert one_slot.cache_info().misses == 4 and builds == [p, q, p, q]


def test_quadratic_comoment_kills_minors():
    assert theta1_kills_minors(1)
    assert theta1_kills_minors(2)


def test_unipotent_factors_are_symplectic_inverses():
    rng = random.Random(703)
    for n in (1, 2):
        units = [[fs(int(a == b)) for b in range(2 * n)] for a in range(2 * n)]
        for g, ginv in unipotent_factors(n, rng, count=4):
            assert (g @ ginv - MatF.identity(2 * n)).is_zero()
            # g^T J g = J, read on every pair of unit vectors
            images = [g.apply(e) for e in units]
            assert all(omega(images[a], images[b]) == omega(units[a], units[b])
                       for a in range(2 * n) for b in range(2 * n))
            assert is_nilpotent(g - MatF.identity(2 * n))


def test_hilbert_rows_frozen():
    rows = hilbert_compare(1, 6)
    assert [r.degree for r in rows] == list(range(7))
    assert [r.dim_left for r in rows] == [1, 6, 21, 56, 125, 246, 441]
    assert all(r.dim_left == r.dim_right and r.equal for r in rows)


def test_hilbert_compare_guards():
    with pytest.raises(ValueError, match="n = 1"):
        hilbert_compare(2, 3)
    with pytest.raises(ValueError, match="0..8"):
        hilbert_compare(1, 9)
