"""Nilpotent orbits of sp(2n) indexed by partitions, and the sl2 mechanics
behind the component count of the nilpotent almost-commuting scheme.

Admissible Jordan types are the partitions of 2n whose odd parts occur with
even multiplicity.  Each gets a fixed representative: an even part acts as a
single Jordan block on a symplectically self-paired subspace, a pair of equal
odd parts as two blocks pairing each other, and a signed Darboux change of
basis moves everything into the standard form J = ((0, I), (-I, 0)).
"""

import random
from dataclasses import dataclass

from .field import FieldScalar
from . import linalg
from .splie import (
    MatF,
    bracket,
    centralizer_dim,
    is_nilpotent,
    mat_from_coords,
    raw_square,
    require_sp,
    sp_basis,
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


def _flat(m):
    """Entries of a matrix, row by row."""
    return [v for row in m.entries for v in row]


def _solve_in_basis(columns, rhs):
    """Solve sum_k c_k columns[k] = rhs for flattened matrices."""
    if not columns:
        return None if any(rhs) else []
    return linalg.solve(list(zip(*columns)), rhs)


def _ad_flat(y, n):
    """Matrix of b -> [b, y] from sp_basis(n) coordinates to flat entries."""
    return list(zip(*(_flat(bracket(b, y)) for b in sp_basis(n))))


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


@dataclass(frozen=True)
class Sl2Triple:
    e: MatF
    f: MatF
    h: MatF


def sl2_complete(e):
    """Complete a nilpotent e in sp(2n) to an sl2 triple (e, f, h).

    First tries h diagonal and inside the image of ad_e (both linear
    conditions); that recovers the integer diagonal h of the canonical
    representatives.  Otherwise h = [e, w] with [[e, w], e] = 2e.  Then f
    solves [e, f] = h, [h, f] = -2f, and all relations are re-verified.
    The f of a triple is unique given e and h (Kostant), so with h diagonal,
    where every basis element is an ad h eigenvector, f is solved for on the
    weight -2 elements alone.
    """
    require_sp(e)
    if not is_nilpotent(e):
        raise ValueError("input is not nilpotent")
    n = e.size // 2
    basis = sp_basis(n)
    diag = basis[:n]  # H_i = E_ii - E_(n+i)(n+i)
    two_e = _flat(e.scale(2))
    zero = [_ZERO] * len(two_e)
    e_b = [bracket(e, b) for b in basis]

    cols = [_flat(bracket(hb, e)) + _flat(hb) for hb in diag]
    cols += [zero + _flat(-eb) for eb in e_b]
    sol = _solve_in_basis(cols, two_e + zero)
    if sol is not None:
        h = mat_from_coords(sol[:n], n)
        lowering = [k for k, b in enumerate(basis) if _weight(b, h) == -2]
        sol = _solve_in_basis([_flat(e_b[k]) for k in lowering], _flat(h))
        if sol is not None:
            by_index = dict(zip(lowering, sol))
            sol = [by_index.get(k, _ZERO) for k in range(len(basis))]
    else:
        cols = [_flat(bracket(eb, e)) for eb in e_b]
        sol = _solve_in_basis(cols, two_e)
        if sol is None:
            raise ValueError("no sl2 completion found")
        h = bracket(e, mat_from_coords(sol, n))
        cols = [_flat(eb) + _flat(bracket(h, b) + b.scale(2))
                for eb, b in zip(e_b, basis)]
        sol = _solve_in_basis(cols, _flat(h) + zero)
    if sol is None:
        raise ValueError("no sl2 completion found")
    f = mat_from_coords(sol, n)

    if bracket(h, e) != e.scale(2) or bracket(h, f) != f.scale(-2) or bracket(e, f) != h:
        raise ValueError("sl2 relations failed to close")
    return Sl2Triple(e=e, f=f, h=h)


def _weight(b, h):
    """ad h eigenvalue h_ii - h_jj of a basis element b with diagonal h, read
    at its first nonzero entry (i, j)."""
    i, j = next((i, row[0][0]) for i, row in enumerate(b._nonzero_rows()) if row)
    return h.entries[i][i] - h.entries[j][j]


def _weight_spaces(h):
    """Integer eigenspace bases of h on V; raises if they do not fill V."""
    size = h.size
    ident = MatF.identity(size)
    spaces = {}
    total = 0
    for m in range(-size + 1, size):
        basis = linalg.nullspace((h - ident.scale(m)).entries)
        if basis:
            spaces[m] = basis
            total += len(basis)
    if total != size:
        raise ValueError("h is not diagonalizable with integer spectrum")
    return spaces


@dataclass(frozen=True)
class CensusRow:
    partition: tuple
    orbit_dim: int
    vplus_dim: int
    xlambda_dim: int
    is_component: bool


def census(n):
    """One row per admissible Jordan type of sp(2n).

    xlambda_dim = dim sp(2n) + dim V_+ is the dimension of the closure
    attached to the type; it hits the ambient expectation 2n^2 + 2n exactly
    when every part is even, which is the is_component flag.
    """
    rows = []
    for lam in partitions_spn(n):
        e = nilpotent_rep(lam)
        triple = sl2_complete(e)
        spaces = _weight_spaces(triple.h)
        vplus = sum(len(v) for m, v in spaces.items() if m > 0)
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
    triple = sl2_complete(y)
    spaces = _weight_spaces(triple.h)
    vplus = [v for m, vs in spaces.items() if m > 0 for v in vs]
    vrest = [v for m, vs in spaces.items() if m <= 0 for v in vs]
    # x solves [x, y] = -raw_square(v) exactly when -x solves [y, x] = ...
    mat = _ad_flat(y, n)

    def combo(vectors, coeffs):
        out = [_ZERO] * (2 * n)
        for c, vec in zip(coeffs, vectors):
            if c:
                out = [a + vec_i * c for a, vec_i in zip(out, vec)]
        return out

    def solvable(v):
        return linalg.solve(mat, _flat(-raw_square(v))) is not None

    rng = random.Random(seed)
    ok = True
    for _ in range(trials):
        if vplus:
            coeffs = [FieldScalar(rng.randint(-3, 3)) for _ in vplus]
            if all(not c for c in coeffs):
                coeffs[rng.randrange(len(coeffs))] = FieldScalar(1)
            ok = ok and solvable(combo(vplus, coeffs))
        else:
            ok = ok and solvable([_ZERO] * (2 * n))
        coeffs = [FieldScalar(rng.randint(-2, 2)) for _ in vplus + vrest]
        forced = len(vplus) + rng.randrange(len(vrest))
        if not coeffs[forced]:
            coeffs[forced] = FieldScalar(rng.choice([1, -1]) * rng.randint(1, 2))
        ok = ok and not solvable(combo(vplus + vrest, coeffs))
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
    keyfn = lambda c: c
    base = linalg.sparse_rank(rows, keyfn)
    return linalg.sparse_rank(rows + [target], keyfn) == base


def sl2_lowest_coefficient_check(dims, k):
    """Membership of x_k (x) x_k in the image of e agrees with 2k > dim - 1."""
    member = lowest_coefficient_membership(dims, k)
    positive = 2 * k > dims[0] - 1
    return member == positive
