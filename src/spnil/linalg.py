"""Exact linear algebra over Q(sqrt2): dense solvers and one sparse rank.

Dense matrices are sequences of FieldScalar rows and stay small (a few dozen
rows), so plain Gauss-Jordan elimination is fine.  Its row updates are sparse:
each pivot row is scaled and subtracted at its nonzero entries only.
row_basis (the reduced rows), nullspace and inverse share that one kernel
and copy their input; solution_space (a solution and the kernel of mat) is a
reading of the nullspace of [mat | rhs].
Every question about a rank alone goes to sparse_rank, whose rows are dicts
keyed by comparable columns: packed monomials (poly._pack) in the graded ideal
dimensions, integer columns for ad y and the stratum frame.  Solvability is a
rank that an extra right-hand-side column leaves unchanged.  sparse_rank runs
on integers only: each row is cleared to one denominator and reduced with gcd
normalization, which keeps coefficient growth tame without changing any rank.
A row with a sqrt2 part is split into its rational and sqrt2 parts, beside
its sqrt2 multiple.
"""

from itertools import combinations_with_replacement
from math import gcd

from .field import FieldScalar
from .poly import _int_pairs, _pack, _unpack

_ZERO = FieldScalar(0)
_ONE = FieldScalar(1)


# -- dense ----------------------------------------------------------------


def _rref(a, cols):
    """Gauss-Jordan on the rows of a, in place; returns the pivot columns.

    Pivots are sought left to right in the first cols columns only, and
    elimination stops once every row has one.  Row r then leads with 1 in
    column pivots[r], which is 0 in every other row; the rows past the pivots
    are zero in the first cols columns.  The pivot row is zero left of its
    pivot, so only its nonzero entries from there on are scaled and
    subtracted from the other rows.
    """
    rows = len(a)
    width = len(a[0]) if rows else 0
    pivots = []
    for col in range(cols):
        if len(pivots) == rows:
            break
        rank = len(pivots)
        piv = next((r for r in range(rank, rows) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        prow = a[rank]
        inv = prow[col].inverse()
        support = [(j, prow[j] * inv) for j in range(col, width) if prow[j]]
        for j, v in support:
            prow[j] = v
        for r in range(rows):
            row = a[r]
            c = row[col]
            if r != rank and c:
                for j, v in support:
                    row[j] = row[j] - c * v
        pivots.append(col)
    return pivots


def _kernel(a, pivots, cols):
    """Kernel basis read off reduced rows: one vector per free column."""
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(cols) if c not in pivot_set):
        v = [_ZERO] * cols
        v[fc] = _ONE
        for row, pc in zip(a, pivots):
            if row[fc]:
                v[pc] = -row[fc]
        basis.append(v)
    return basis


def row_basis(mat):
    """The nonzero rows of the reduced echelon form of mat: a basis of its
    row space, each row leading with 1 in a column that is 0 in the others."""
    if not mat:
        return []
    a = [list(row) for row in mat]
    return a[:len(_rref(a, len(mat[0])))]


def nullspace(mat):
    """Basis of the exact kernel of mat (list of column vectors)."""
    if not mat:
        return []
    cols = len(mat[0])
    a = [list(row) for row in mat]
    return _kernel(a, _rref(a, cols), cols)


def solution_space(mat, rhs):
    """(one solution of mat*x = rhs, or None if inconsistent, and
    nullspace(mat)), read off the kernel of [mat | rhs].

    x solves the system exactly when (-x, 1) lies in that kernel.  When the
    system is consistent the rhs column is free, and its kernel vector is
    (-x, 1) for the solution x with free variables zero; the kernel vectors
    ending in 0 are those of mat, in the same order.
    """
    if not mat:
        return [], []
    kernel = nullspace([list(row) + [r] for row, r in zip(mat, rhs)])
    shifted = [v[:-1] for v in kernel if v[-1]]
    homogeneous = [v[:-1] for v in kernel if not v[-1]]
    return ([-c for c in shifted[0]] if shifted else None), homogeneous


def inverse(mat):
    n = len(mat)
    a = [list(row) + [FieldScalar(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(mat)]
    if len(_rref(a, n)) < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in a]


# -- sparse ----------------------------------------------------------------


def _reduce_int(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return row


def _int_rank(rows):
    """Rank over Q of sparse rows already cleared to integers; each row is
    reduced on its largest column."""
    pivots = {}
    for r in rows:
        while r:
            col = max(r)
            hit = pivots.get(col)
            if hit is None:
                pivots[col] = _reduce_int(r)
                break
            pval = hit[col]
            c = r[col]
            nxt = {k: v * pval for k, v in r.items()}
            for k, v in hit.items():
                s = nxt.get(k, 0) - v * c
                if s:
                    nxt[k] = s
                else:
                    nxt.pop(k, None)
            r = _reduce_int(nxt)
    return len(pivots)


def _split(rows):
    """Each row a + b*sqrt2, cleared to integers, as (a, b) on the columns
    (k, 0) and (k, 1), followed by sqrt2 times it, (2b, a)."""
    for row in rows:
        pairs = _int_pairs(row)[1]
        yield {(key, s): v for key, p, q in pairs for s, v in ((0, p), (1, q)) if v}
        yield {(key, s): v for key, p, q in pairs for s, v in ((0, 2 * q), (1, p)) if v}


def sparse_rank(rows):
    """Exact rank of sparse rows (dicts col -> FieldScalar); each row is
    reduced on its largest column, so the columns must be comparable: ints
    (basis positions or packed monomials) or tuples of them.

    Rows with a sqrt2 part are split into rational and sqrt2 parts: those
    rows and their sqrt2 multiples span the row space over Q, which has
    twice the dimension it has over Q(sqrt2).
    """
    if any(c.bn for row in rows for c in row.values()):
        return _int_rank(_split(rows)) // 2
    return _int_rank({key: p for key, p, _ in _int_pairs(row)[1]} for row in rows)


def _packed_monomials(nvars, degree):
    """The packs of monomials(nvars, degree), in its order: the sums of the
    packed variables over combinations_with_replacement."""
    variables = [_pack(tuple(int(i == j) for j in range(nvars))) for i in range(nvars)]
    return [sum(c) for c in combinations_with_replacement(variables, degree)]


def truncated_ideal_dim(gens, d, multiplier_filter=None):
    """Dimension of the degree-d slice of the ideal generated by gens.

    All generators must be nonzero and homogeneous.  The slice is spanned by
    the products g*m over monomials m with deg(g*m) = d; the span's dimension
    comes from exact row reduction.  multiplier_filter, if given, keeps only
    multiplier monomials whose exponent tuple passes the predicate.

    Each row is keyed by packed monomials: the key of a term of g*m is the
    sum of the packs of its two exponent tuples.  Packed order is tuple order,
    so sparse_rank picks the pivots that tuple keys would give.  The
    multipliers of each degree are built once and packed, by
    _packed_monomials in the order of monomials(); only multiplier_filter
    sees them unpacked.
    """
    if not isinstance(d, int) or d < 0:
        raise ValueError("degree must be a nonnegative integer")
    if not gens:
        return 0
    registry = gens[0].registry
    nvars = len(registry)
    multipliers = {}
    rows = []
    for g in gens:
        if g.registry != registry:
            raise ValueError("registry mismatch among generators")
        if g.is_zero():
            raise ValueError("zero generator")
        if not g.is_homogeneous():
            raise ValueError("generators must be homogeneous")
        dg = g.total_degree()
        if dg > d:
            continue
        if d - dg not in multipliers:
            multipliers[d - dg] = [m for m in _packed_monomials(nvars, d - dg)
                                   if multiplier_filter is None
                                   or multiplier_filter(_unpack(m, nvars))]
        terms = [(_pack(gexp), c) for gexp, c in g.terms.items()]
        rows += ({key + m: c for key, c in terms} for m in multipliers[d - dg])
    return sparse_rank(rows)
