"""Nilpotent orbit census for sp(2n) and the shift-chain square lemma."""

import random

import pytest

from spnil import linalg
from spnil.field import FieldScalar
from spnil.linalg import sparse_rank
from spnil.orbits import (
    CensusRow,
    census,
    component_types,
    lowest_coefficient_membership,
    nilpotent_rep,
    partitions_spn,
    sl2_complete,
    sl2_lowest_coefficient_check,
    verify_sl2_square_lemma,
)
from spnil.splie import (
    MatF,
    ad_matrix,
    bracket,
    centralizer_dim,
    is_nilpotent,
    is_sp,
    mat_from_coords,
    sp_basis,
    sp_dim,
)
from spnil.varieties import unipotent_factors

ZERO = FieldScalar(0)


def rank_of(mat):
    return len(linalg.row_basis([list(row) for row in mat.entries]))


def jordan_type(m):
    """Partition of m.size read off the rank sequence of powers of m."""
    ranks = [m.size]
    power = m
    while True:
        r = rank_of(power)
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


def test_partition_lists_are_frozen():
    assert partitions_spn(1) == [(2,), (1, 1)]
    assert partitions_spn(2) == [(4,), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_spn(3) == [
        (6,), (4, 2), (4, 1, 1), (3, 3), (2, 2, 2), (2, 2, 1, 1),
        (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)]
    # odd parts always occur with even multiplicity
    for n in (1, 2, 3, 4):
        for lam in partitions_spn(n):
            assert sum(lam) == 2 * n
            for part in set(lam):
                if part % 2 == 1:
                    assert lam.count(part) % 2 == 0


def test_component_types_are_even_partitions():
    assert component_types(1) == [(2,)]
    assert component_types(2) == [(4,), (2, 2)]
    assert component_types(3) == [(6,), (4, 2), (2, 2, 2)]
    assert component_types(4) == [(8,), (6, 2), (4, 4), (4, 2, 2), (2, 2, 2, 2)]
    for n in (1, 2, 3, 4):
        for lam in component_types(n):
            assert all(part % 2 == 0 for part in lam)
            assert lam in partitions_spn(n)


def test_nilpotent_rep_type_and_membership():
    for n in (1, 2, 3):
        for lam in partitions_spn(n):
            y = nilpotent_rep(lam)
            assert y.size == 2 * n
            assert is_sp(y)
            assert is_nilpotent(y)
            assert jordan_type(y) == lam


def test_sl2_complete_relations():
    for n in (1, 2, 3):
        for lam in partitions_spn(n):
            if lam == (1,) * 2 * n:
                continue
            y = nilpotent_rep(lam)
            t = sl2_complete(y)
            assert (t.e - y).is_zero()
            assert is_sp(t.f) and is_sp(t.h)
            assert (bracket(t.h, t.e) - t.e.scale(2)).is_zero()
            assert (bracket(t.h, t.f) + t.f.scale(2)).is_zero()
            assert (bracket(t.e, t.f) - t.h).is_zero()
            size = 2 * n
            assert all(t.h.entries[i][j].is_zero()
                       for i in range(size) for j in range(size) if i != j)


def _flat(m):
    """Entries of a matrix, row by row."""
    return [v for row in m.entries for v in row]


def diagonal_h_system(e):
    """h solved as a diagonal element of sp(2n) with [h, e] = 2e inside the
    image of ad e, the linear system sl2_complete solved before it read the
    triple off the Jordan chains."""
    n = e.size // 2
    basis = sp_basis(n)
    zero = [ZERO] * (2 * n) ** 2
    cols = [_flat(bracket(hb, e)) + _flat(hb) for hb in basis[:n]]
    cols += [zero + _flat(-bracket(e, b)) for b in basis]
    sol = linalg.solution_space(list(zip(*cols)), _flat(e.scale(2)) + zero)[0]
    assert sol is not None
    return mat_from_coords(list(sol[:n]) + [ZERO] * (sp_dim(n) - n), n)


def full_f_system(e, h):
    """f from [e, f] = h and [h, f] = -2f solved over all of sp(2n)."""
    n = e.size // 2
    basis = sp_basis(n)
    cols = [_flat(bracket(e, b)) + _flat(bracket(h, b) + b.scale(2))
            for b in basis]
    sol = linalg.solution_space(list(zip(*cols)), _flat(h) + [ZERO] * (2 * n) ** 2)[0]
    assert sol is not None
    return mat_from_coords(sol, n)


def test_sl2_f_matches_the_full_system():
    # on every canonical representative, the zero partition included, the
    # chain triple is the one the linear systems find: the diagonal h, and the
    # f of the full system, which is unique given (e, h) (Kostant)
    for n in (1, 2, 3, 4):
        for lam in partitions_spn(n):
            e = nilpotent_rep(lam)
            t = sl2_complete(e)
            assert t.h == diagonal_h_system(e)
            assert t.f == full_f_system(e, t.h)
            if n == 4:
                assert is_sp(t.h) and is_sp(t.f)
    # an e outside Jordan chain form is refused: seeded unipotent conjugates,
    # which spread each chain step over several entries, non-nilpotent and
    # non-sp inputs
    rng = random.Random(29)
    refused = 0
    for n in (1, 2, 3):
        for lam in partitions_spn(n)[:-1]:
            e = nilpotent_rep(lam)
            for _ in range(2):
                y = e
                for g, ginv in unipotent_factors(n, rng):
                    y = g @ y @ ginv
                if y != e:
                    with pytest.raises(ValueError):
                        sl2_complete(y)
                    refused += 1
    assert refused >= 15
    cycle = MatF.unit(4, 0, 1) + MatF.unit(4, 1, 0) - MatF.unit(4, 2, 3) - MatF.unit(4, 3, 2)
    for bad in (sp_basis(2)[0], cycle, MatF.unit(2, 0, 0), MatF.unit(4, 0, 1)):
        with pytest.raises(ValueError):
            sl2_complete(bad)


def test_census_rank_one():
    assert census(1) == [
        CensusRow((2,), 2, 1, 4, True),
        CensusRow((1, 1), 0, 0, 3, False),
    ]


def test_census_rank_two():
    assert census(2) == [
        CensusRow((4,), 8, 2, 12, True),
        CensusRow((2, 2), 6, 2, 12, True),
        CensusRow((2, 1, 1), 4, 1, 11, False),
        CensusRow((1, 1, 1, 1), 0, 0, 10, False),
    ]


def test_census_rank_three():
    rows = {row.partition: row for row in census(3)}
    assert set(rows) == set(partitions_spn(3))
    want = {
        (6,): (18, 3, 24, True),
        (4, 2): (16, 3, 24, True),
        (4, 1, 1): (14, 2, 23, False),
        (3, 3): (14, 2, 23, False),
        (2, 2, 2): (12, 3, 24, True),
        (2, 2, 1, 1): (10, 2, 23, False),
        (2, 1, 1, 1, 1): (6, 1, 22, False),
        (1, 1, 1, 1, 1, 1): (0, 0, 21, False),
    }
    for lam, (od, vp, xd, comp) in want.items():
        row = rows[lam]
        assert (row.orbit_dim, row.vplus_dim, row.xlambda_dim,
                row.is_component) == (od, vp, xd, comp)


def test_census_internal_consistency():
    for n in (1, 2, 3):
        target = 2 * n * n + 2 * n
        rows = census(n)
        assert [row.partition for row in rows] == partitions_spn(n)
        for row in rows:
            y = nilpotent_rep(row.partition)
            assert row.orbit_dim == sp_dim(n) - centralizer_dim(y)
            assert row.xlambda_dim == sp_dim(n) + row.vplus_dim
            assert row.is_component == (row.xlambda_dim == target)
            assert row.is_component == (row.partition in component_types(n))


def test_square_lemma_on_all_small_types(monkeypatch):
    # each sample's verdict, a rank of ad y that the rhs column leaves
    # unchanged, must be the dense solver's on the same right-hand side
    calls = []

    def spy(rows):
        rank = sparse_rank(rows)
        calls.append((rows, rank))
        return rank

    monkeypatch.setattr(linalg, "sparse_rank", spy)
    verdicts = set()
    for n in (1, 2, 3):
        for lam in partitions_spn(n):
            if lam == (1,) * 2 * n:
                continue
            y = nilpotent_rep(lam)
            calls.clear()
            assert verify_sl2_square_lemma(y, trials=8, seed=11)
            ad, nn = ad_matrix(y, n).entries, sp_dim(n)
            (_, base), samples = calls[0], calls[1:]
            assert len(samples) == 16
            for rows, rank in samples:
                rhs = [row.get(nn, ZERO) for row in rows]
                solvable = linalg.solution_space(ad, rhs)[0] is not None
                assert (rank == base) is solvable
                verdicts.add(solvable)
    assert verdicts == {True, False}


def test_lowest_coefficient_single_chain():
    for dim in range(1, 7):
        for k in range(0, dim):
            member = lowest_coefficient_membership((dim,), k)
            assert member == (2 * k > dim - 1)
            assert sl2_lowest_coefficient_check((dim,), k)


def test_lowest_coefficient_multi_chain():
    # with several chains the criterion reads off the largest dimension
    for dims in [(3, 1), (4, 2), (5, 3, 1), (2, 2)]:
        for k in range(0, dims[0]):
            assert sl2_lowest_coefficient_check(dims, k)
