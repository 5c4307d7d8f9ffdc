"""Nilpotent orbits of sp(2n) indexed by partitions, and the sl2 mechanics
behind the component count of the nilpotent almost-commuting scheme.

Admissible Jordan types are the partitions of 2n whose odd parts occur with
even multiplicity.  Each gets a fixed representative: an even part acts as a
single Jordan block on a symplectically self-paired subspace, a pair of equal
odd parts as two blocks pairing each other, and a signed Darboux change of
basis moves everything into the standard form J = ((0, I), (-I, 0)).
"""

import random
from collections import namedtuple

from .field import FieldScalar
from . import linalg
from .splie import (
    MatF,
    ad_matrix,
    bracket,
    centralizer_dim,
    coords_of,
    is_nilpotent,
    raw_square,
    require_sp,
    sp_dim,
)

_ZERO = FieldScalar(0)


def _partitions(total, cap=None):
    if total == 0:
        yield ()
        return
    if cap is None:
        cap = total
    for head in range(min(total, cap), 0, -1):
        for rest in _partitions(total - head, head):
            yield (head,) + rest


def _is_sp_type(parts):
    return all(parts.count(p) % 2 == 0 for p in set(parts) if p % 2 == 1)


def partitions_spn(n):
    """Jordan types of nilpotent elements of sp(2n), descending lex order."""
    return [lam for lam in _partitions(2 * n) if _is_sp_type(lam)]


def component_types(n):
    """The subfamily with every part even."""
    return [lam for lam in partitions_spn(n) if all(p % 2 == 0 for p in lam)]


def nilpotent_rep(lam):
    """Canonical nilpotent representative of Jordan type lam in sp(2n)."""
    lam = tuple(sorted(lam, reverse=True))
    if not lam or any(p <= 0 for p in lam):
        raise ValueError("partition parts must be positive")
    if sum(lam) % 2:
        raise ValueError("partition must have even total")
    if not _is_sp_type(lam):
        raise ValueError("odd parts must occur with even multiplicity")
    n = sum(lam) // 2
    size = 2 * n

    # abstract chains: (offset, length) with a shift action
    chains = []
    offset = 0
    odd_pending = {}
    pairs = []  # (offset_u, offset_w, length)
    for p in lam:
        if p % 2 == 0:
            chains.append((offset, p))
            offset += p
        elif p in odd_pending:
            pairs.append((odd_pending.pop(p), offset, p))
            offset += p
        else:
            odd_pending[p] = offset
            offset += p
    assert offset == size and not odd_pending

    e_abs = [[0] * size for _ in range(size)]
    for o, d in chains + [(u, d) for u, _, d in pairs] + [(w, d) for _, w, d in pairs]:
        for k in range(d - 1):
            e_abs[o + k + 1][o + k] = 1

    # Darboux basis built from the invariant pairing on each block:
    # on a single even chain omega(v_i, v_(d-1-i)) = (-1)^i, on an odd pair
    # omega(u_i, w_(d-1-i)) = (-1)^i; a/b columns then give the standard form.
    a_cols, b_cols = [], []
    for o, d in chains:
        m = d // 2
        a_cols.extend((o + k, 1) for k in range(m))
        b_cols.extend((o + d - 1 - k, (-1) ** k) for k in range(m))
    for ou, ow, d in pairs:
        a_cols.extend((ou + k, 1) for k in range(d))
        b_cols.extend((ow + d - 1 - k, (-1) ** k) for k in range(d))
    assert len(a_cols) == n and len(b_cols) == n

    p_rows = [[0] * size for _ in range(size)]
    for t, (idx, sign) in enumerate(a_cols):
        p_rows[idx][t] = sign
    for t, (idx, sign) in enumerate(b_cols):
        p_rows[idx][n + t] = sign

    pmat = MatF(p_rows)
    pinv = pmat.transpose()  # a signed permutation matrix is orthogonal
    e_std = pinv @ MatF(e_abs) @ pmat
    require_sp(e_std)
    return e_std


class Sl2Triple(namedtuple("Sl2Triple", "e f h")):
    __slots__ = ()


def sl2_complete(e):
    """Complete a canonical nilpotent e in sp(2n) to its sl2 triple (e, f, h).

    e must have at most one nonzero entry in each row and column, as every
    nilpotent_rep has; it then sends the coordinate vectors along chains
    v_0 -> ... -> v_(d-1) with e v_k = s_k v_(k+1).  h is diagonal with
    weight 2k+1-d at v_k, and f v_(k+1) = (k+1)(d-1-k)/s_k v_k, the only f
    for that e and h (Kostant).  Any other e raises ValueError, and all three
    relations are re-verified.
    """
    require_sp(e)
    if not is_nilpotent(e):
        raise ValueError("input is not nilpotent")
    size = e.size
    rows = e.rows.values()
    step = {j: (i, s) for i, row in e.rows.items() for j, s in row.items()}  # e v_j = s v_i
    if any(len(row) > 1 for row in rows) or len(step) < sum(map(len, rows)):
        raise ValueError("input is not in Jordan chain form")

    h_rows = [[_ZERO] * size for _ in range(size)]
    f_rows = [[_ZERO] * size for _ in range(size)]
    targets = {i for i, _ in step.values()}
    for head in range(size):
        if head in targets:
            continue
        chain = [head]
        while chain[-1] in step:
            chain.append(step[chain[-1]][0])
        d = len(chain)
        for k, v in enumerate(chain):
            h_rows[v][v] = FieldScalar(2 * k + 1 - d)
            if k + 1 < d:
                f_rows[v][chain[k + 1]] = FieldScalar((k + 1) * (d - 1 - k)) / step[v][1]
    h, f = MatF(h_rows), MatF(f_rows)

    if bracket(h, e) != e.scale(2) or bracket(h, f) != f.scale(-2) or bracket(e, f) != h:
        raise ValueError("sl2 relations failed to close")
    return Sl2Triple(e=e, f=f, h=h)


def positive_slots(h):
    """Coordinates of V on which the diagonal h is positive; their unit
    vectors span the positive weight space V_+."""
    return tuple(i for i, row in h.rows.items() if i in row and row[i].sign() > 0)


class CensusRow(namedtuple("CensusRow",
                           "partition orbit_dim vplus_dim xlambda_dim is_component")):
    __slots__ = ()


def census(n):
    """One row per admissible Jordan type of sp(2n).

    xlambda_dim = dim sp(2n) + dim V_+ is the dimension of the closure
    attached to the type; it hits the ambient expectation 2n^2 + 2n exactly
    when every part is even, which is the is_component flag.
    """
    rows = []
    for lam in partitions_spn(n):
        e = nilpotent_rep(lam)
        vplus = len(positive_slots(sl2_complete(e).h))
        rows.append(
            CensusRow(
                partition=lam,
                orbit_dim=sp_dim(n) - centralizer_dim(e),
                vplus_dim=vplus,
                xlambda_dim=sp_dim(n) + vplus,
                is_component=all(p % 2 == 0 for p in lam),
            )
        )
    return rows


def verify_sl2_square_lemma(y, trials=20, seed=0):
    """Check, on random samples, that [y, x] = -raw_square(v) is solvable in
    sp exactly when v lies in the positive weight space of the triple of y."""
    require_sp(y)
    n = y.size // 2
    plus = positive_slots(sl2_complete(y).h)
    rest = tuple(i for i in range(2 * n) if i not in plus)
    # x solves [y, x] = -raw_square(v) exactly when -x solves [y, x] = raw_square(v);
    # that is solvable exactly when its rhs, as column nn, keeps the rank of ad y
    nn = sp_dim(n)
    ad = ad_matrix(y, n).rows
    rows = [ad.get(r, {}) for r in range(nn)]  # one per coordinate, to line up with rhs
    rank = linalg.sparse_rank(rows)

    def combo(slots, coeffs):
        out = [_ZERO] * (2 * n)
        for i, c in zip(slots, coeffs):
            out[i] = c
        return out

    def solvable(v):
        rhs = coords_of(raw_square(v), n)
        return linalg.sparse_rank([{**row, nn: r} if r else row
                                   for row, r in zip(rows, rhs)]) == rank

    rng = random.Random(seed)
    ok = True
    for _ in range(trials):
        if plus:
            coeffs = [FieldScalar(rng.randint(-3, 3)) for _ in plus]
            if all(not c for c in coeffs):
                coeffs[rng.randrange(len(coeffs))] = FieldScalar(1)
            ok = ok and solvable(combo(plus, coeffs))
        else:
            ok = ok and solvable([_ZERO] * (2 * n))
        coeffs = [FieldScalar(rng.randint(-2, 2)) for _ in plus + rest]
        forced = len(plus) + rng.randrange(len(rest))
        if not coeffs[forced]:
            coeffs[forced] = FieldScalar(rng.choice([1, -1]) * rng.randint(1, 2))
        ok = ok and not solvable(combo(plus + rest, coeffs))
    return ok


def lowest_coefficient_membership(dims, k):
    """Whether x_k (x) x_k lies in the image of the derivation action of e on
    V (x) V, for V a sum of shift chains of the given dimensions."""
    if not dims or any(d <= 0 for d in dims):
        raise ValueError("dimensions must be positive")
    if not 0 <= k < dims[0]:
        raise ValueError("index outside the first summand")
    total = sum(dims)
    ends = set()
    off = 0
    for d in dims:
        ends.add(off + d - 1)
        off += d

    rows = []
    for p in range(total):
        for q in range(total):
            img = {}
            if p not in ends:
                img[(p + 1) * total + q] = FieldScalar(1)
            if q not in ends:
                key = p * total + (q + 1)
                img[key] = img.get(key, _ZERO) + FieldScalar(1)
            if img:
                rows.append(img)
    target = {k * total + k: FieldScalar(1)}
    base = linalg.sparse_rank(rows)
    return linalg.sparse_rank(rows + [target]) == base


def sl2_lowest_coefficient_check(dims, k):
    """Membership of x_k (x) x_k in the image of e agrees with 2k > dim - 1."""
    member = lowest_coefficient_membership(dims, k)
    positive = 2 * k > dims[0] - 1
    return member == positive
