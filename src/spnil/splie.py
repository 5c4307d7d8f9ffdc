"""The symplectic Lie algebra sp(2n) in its defining representation.

Matrices act on column vectors of length 2n.  The symplectic form on V is
omega(u, v) = u^T J v with J = ((0, I), (-I, 0)), so m is in sp(2n) exactly
when m^T J + J m = 0; in block terms ((A, B), (C, D)) that is D = -A^T with
B, C symmetric.  The invariant pairing is the trace form Tr(ab).
"""

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .field import FieldScalar, SQRT2, _scalar
from .poly import MultiPoly, _add_terms, _int_parts, _pack, _part_products, _scalars, _unpack
from . import linalg

_ZERO = FieldScalar(0)
_ONE = FieldScalar(1)
_INV_SQRT2 = FieldScalar(0, Fraction(1, 2))  # 1/sqrt2 = sqrt2/2


class MatF:
    """Immutable square matrix over Q(sqrt2) that stores only its support.

    rows maps each row with a nonzero entry to the dict of its nonzero
    entries by column, both in increasing order and never mutated.  So equal
    matrices store equal rows, the zero matrix has none, and every sum over
    the entries runs in dense order, which gives equal polynomial entries
    their terms in equal order.  entries, the dense tuple of row tuples, is
    built on each read.

    MatF(...), unit and scale take exact scalars only.  The trusted _of also
    takes MultiPoly entries of one registry, and so do mat_from_coords and
    raw_square, which build the generic matrices of varieties from MultiPoly
    coordinates.  @, +, -, trace and trace_pair work on those unchanged:
    their sums start at the scalar 0, and a polynomial adds to it.
    """

    __slots__ = ("size", "rows")

    def __init__(self, entries):
        dense = [[_scalar(v) for v in row] for row in entries]
        self.size = len(dense)
        if any(len(row) != self.size for row in dense):
            raise ValueError("matrix must be square")
        rows = ({j: v for j, v in enumerate(row) if v} for row in dense)
        self.rows = {i: row for i, row in enumerate(rows) if row}

    @classmethod
    def _of(cls, size, rows):
        """Trusted constructor: rows as above, of FieldScalars or MultiPolys."""
        m = object.__new__(cls)
        m.size = size
        m.rows = rows
        return m

    @property
    def entries(self):
        cols = range(self.size)
        return tuple(tuple(self.rows.get(i, _NO_ROW).get(j, _ZERO) for j in cols)
                     for i in cols)

    @classmethod
    def zero(cls, size):
        return cls._of(size, {})

    @classmethod
    def identity(cls, size):
        return cls._of(size, {i: {i: _ONE} for i in range(size)})

    @classmethod
    def unit(cls, size, i, j, c=1):
        if not (0 <= i < size and 0 <= j < size):
            raise ValueError("index out of range")
        c = _scalar(c)
        return cls._of(size, {i: {j: c}} if c else {})

    def __getitem__(self, ij):
        return self.rows.get(ij[0], _NO_ROW).get(ij[1], _ZERO)

    def _check(self, other):
        if self.size != other.size:
            raise ValueError("size mismatch")

    def __add__(self, other):
        # a row of self that other leaves alone is shared, never mutated
        self._check(other)
        rows = dict(self.rows)
        for i, row in other.rows.items():
            acc = _add_terms(dict(rows.get(i, _NO_ROW)), row.items())
            if acc:
                rows[i] = dict(sorted(acc.items()))
            else:
                del rows[i]
        return MatF._of(self.size, dict(sorted(rows.items())))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return MatF._of(self.size, {i: {j: -v for j, v in row.items()}
                                    for i, row in self.rows.items()})

    def scale(self, c):
        c = _scalar(c)
        if not c:
            return MatF.zero(self.size)
        return MatF._of(self.size, {i: {j: c * v for j, v in row.items()}
                                    for i, row in self.rows.items()})

    def __matmul__(self, other):
        # row i of the product is sum_k a_ik * (row k of other), over the
        # stored entries only
        self._check(other)
        right = other.rows
        out = {}
        for i, row in self.rows.items():
            acc = {}
            for k, a in row.items():
                if k in right:
                    _add_terms(acc, ((j, a * b) for j, b in right[k].items()))
            if acc:
                out[i] = dict(sorted(acc.items()))
        return MatF._of(self.size, out)

    def transpose(self):
        return _of_entries(self.size, {(j, i): v for i, row in self.rows.items()
                                       for j, v in row.items()})

    def trace(self):
        return sum((row[i] for i, row in self.rows.items() if i in row), _ZERO)

    def is_zero(self):
        return not self.rows

    def apply(self, vec):
        if len(vec) != self.size:
            raise ValueError("size mismatch")
        return [sum((a * vec[j] for j, a in self.rows.get(i, _NO_ROW).items()), _ZERO)
                for i in range(self.size)]

    def __eq__(self, other):
        if not isinstance(other, MatF):
            return NotImplemented
        return self.size == other.size and self.rows == other.rows

    def __hash__(self):
        return hash(tuple((i, tuple(row.items())) for i, row in self.rows.items()))

    def __str__(self):
        return "\n".join("[" + "  ".join(str(v) for v in row) + "]"
                         for row in self.entries)

    __repr__ = __str__


# the row of a matrix that stores none there, read-only
_NO_ROW = MappingProxyType({})


def _of_entries(size, entries):
    """The MatF of the dict entries from (row, column) to nonzero entry, in
    any order."""
    rows = {}
    for (i, j), v in sorted(entries.items()):
        rows.setdefault(i, {})[j] = v
    return MatF._of(size, rows)


def omega(u, v):
    """Standard symplectic pairing u^T J v on coordinate vectors."""
    cu = tuple(_scalar(x) for x in u)
    cv = tuple(_scalar(x) for x in v)
    if len(cu) != len(cv) or len(cu) % 2:
        raise ValueError("size mismatch")
    n = len(cu) // 2
    total = _ZERO
    for i in range(n):
        total = total + cu[i] * cv[n + i] - cu[n + i] * cv[i]
    return total


def is_sp(m):
    """m^T J + J m = 0: in blocks ((A, B), (C, D)), B and C are symmetric
    and D = -A^T.  So each stored entry (p, q) needs its partner (s(q), s(p))
    stored, s swapping the halves of V: equal in B and C, negated in A and D."""
    if m.size % 2:
        return False
    n = m.size // 2
    rows = m.rows
    for p, row in rows.items():
        for q, v in row.items():
            w = rows.get(q + n if q < n else q - n, _NO_ROW).get(p + n if p < n else p - n)
            if w is None or w != (v if (p < n) != (q < n) else -v):
                return False
    return True


def require_sp(m):
    if not is_sp(m):
        raise ValueError("matrix is not in sp(2n)")


def bracket(a, b):
    a._check(b)
    return a @ b - b @ a


def trace_pair(a, b):
    """Tr(ab) = sum over i, j of a_ij b_ji, without forming the product.
    Walks the entries of a and looks up b_ji for each."""
    a._check(b)
    rows = b.rows
    total = _ZERO
    for i, row in a.rows.items():
        for j, v in row.items():
            w = rows.get(j, _NO_ROW).get(i)
            if w is not None:
                total = total + v * w
    return total


def poly_trace_pair(a, b):
    """trace_pair of two matrices whose entries are MultiPolys of one
    registry, on one packed integer accumulator.

    _int_parts clears each matrix once to a common denominator and splits it
    into rational and sqrt2 parts, each entry (i, j) a list of (packed
    exponent, integer), so the products a_ij b_ji of the whole sum add single
    ints per packed key and each coefficient of Tr(ab) is normalised once.
    As in trace_pair, the sum is the scalar 0 when no a_ij meets a b_ji.
    """
    a._check(b)
    registries = {v.registry for m in (a, b) for row in m.rows.values() for v in row.values()}
    if len(registries) > 1:
        raise ValueError("registry mismatch")
    (da, left), (db, right) = (
        _int_parts([((i, j), _pack(e), c) for i, row in m.rows.items()
                    for j, v in row.items() for e, c in v.terms.items()])
        for m in (a, b))
    rational, root2 = _part_products(left, right, _trace_product)
    if not (rational or root2):
        return _ZERO
    (registry,) = registries
    return MultiPoly._of(registry, _scalars(rational, root2, da * db, _unpack, len(registry)))


def _trace_product(acc, a, b, factor):
    """Add factor times the trace pairing of two integer parts of _int_parts,
    keyed by entry positions (i, j), into acc, keyed by packed monomials."""
    get = acc.get
    for (i, j), terms in a.items():
        other = b.get((j, i))
        if other:
            for ka, p in terms:
                p *= factor
                for kb, q in other:
                    k = ka + kb
                    acc[k] = get(k, 0) + p * q
    return acc


def raw_square(v):
    """The matrix v v^T J, a rank-one element of sp(2n).

    The coordinates of v are exact scalars, or MultiPolys of one registry,
    which are kept as they are; anything else is refused.

    Pairing: trace_pair(-1/2 * raw_square(v), x) = 1/2 * omega(x v, v),
    the quadratic co-moment value of x at v.
    """
    coords = [x if isinstance(x, MultiPoly) else _scalar(x) for x in v]
    m = len(coords)
    if m % 2:
        raise ValueError("vector must have even length")
    n = m // 2
    # row vector v^T J
    vtj = [-coords[n + j] for j in range(n)] + [coords[j] for j in range(n)]
    return MatF._of(m, {i: {j: vi * wj for j, wj in enumerate(vtj) if wj}
                        for i, vi in enumerate(coords) if vi})


@lru_cache(maxsize=None)
def sp_basis(n):
    """Basis of sp(2n), integer entries, in a fixed deterministic order.

    Order: diagonal H_i = E_ii - E_(n+i)(n+i); off-diagonal A-block
    E_ij - E_(j+n)(i+n) for i != j; symmetric B-block E_i(n+i) and
    E_i(n+j) + E_j(n+i) for i < j; symmetric C-block transposes of those.
    """
    size = 2 * n
    basis = []
    for i in range(n):
        basis.append(MatF.unit(size, i, i) - MatF.unit(size, n + i, n + i))
    for i in range(n):
        for j in range(n):
            if i != j:
                basis.append(MatF.unit(size, i, j) - MatF.unit(size, n + j, n + i))
    for i in range(n):
        basis.append(MatF.unit(size, i, n + i))
    for i in range(n):
        for j in range(i + 1, n):
            basis.append(MatF.unit(size, i, n + j) + MatF.unit(size, j, n + i))
    for i in range(n):
        basis.append(MatF.unit(size, n + i, i))
    for i in range(n):
        for j in range(i + 1, n):
            basis.append(MatF.unit(size, n + i, j) + MatF.unit(size, n + j, i))
    assert len(basis) == 2 * n * n + n
    return tuple(basis)


def sp_dim(n):
    return 2 * n * n + n


class _DualBasis(tuple):
    """The dual matrices d_k of dual_basis, with their reader: reader[j]
    maps each column i to (k, d_k[i][j], first), the one coordinate k that
    reads position (j, i) of a matrix, its weight there, and whether (i, j)
    is the first stored entry of d_k."""

    def __new__(cls, duals):
        self = super().__new__(cls, duals)
        reader = tuple({} for _ in range(duals[0].size))
        for k, d in enumerate(self):
            first = True
            for i, row in d.rows.items():
                for j, v in row.items():
                    if i in reader[j]:
                        raise ValueError("two duals read one position")
                    reader[j][i] = (k, v, first)
                    first = False
        self.reader = reader
        return self


@lru_cache(maxsize=None)
def dual_basis(n):
    """Trace-form dual basis: trace_pair(dual[k], sp_basis[l]) = delta_kl.

    The duals are the rows of the inverse Gram matrix, each with one or two
    entries, on supports that partition the (2n)^2 positions; the value is
    that tuple, which also keeps the reader coords_of walks (_DualBasis).
    """
    basis = sp_basis(n)
    gram = [[trace_pair(a, b) for b in basis] for a in basis]
    ginv = linalg.inverse(gram)
    return _DualBasis([mat_from_coords(row, n) for row in ginv])


def coords_of(m, n):
    """Coordinates of m in sp_basis(n): coordinate k is the trace projection
    Tr(d_k m) with d_k = dual_basis(n)[k].

    m is any square matrix of size 2n, with exact scalar or MultiPoly
    entries; off sp(2n) this is the projection along the trace-orthogonal
    complement.  The dual supports partition the positions, so each stored
    entry m[j][i] is read once, into coordinate k with weight d_k[i][j]; a
    coordinate that reads two entries sums them in the order of d_k, as
    trace_pair(d_k, m) does, and one that reads none is 0.
    """
    if m.size != 2 * n:
        raise ValueError("size mismatch")
    reader = dual_basis(n).reader
    out = [None] * sp_dim(n)
    for j, row in m.rows.items():
        read = reader[j]
        for i, x in row.items():
            k, v, first = read[i]
            p = v * x
            q = out[k]
            out[k] = p if q is None else p + q if first else q + p
    return [_ZERO if c is None else c for c in out]


def mat_from_coords(coeffs, n):
    """The element sum of c_k sp_basis(n)[k] of the coordinates coeffs, which
    are exact scalars or MultiPolys of one registry.

    The supports of the basis elements partition the (2n)^2 positions, so
    each nonzero c_k is placed on the support of its element as c_k or -c_k,
    by the sign of the +-1 found there, and nothing is summed or multiplied.
    coeffs must hold exactly sp_dim(n) coordinates.
    """
    if len(coeffs) != sp_dim(n):
        raise ValueError(f"expected {sp_dim(n)} coordinates, got {len(coeffs)}")
    entries = {}
    for c, b in zip(coeffs, sp_basis(n)):
        if c:
            c = c if isinstance(c, MultiPoly) else _scalar(c)
            for i, row in b.rows.items():
                for j, v in row.items():
                    entries[i, j] = c if v.an > 0 else -c
    return _of_entries(2 * n, entries)


def ad_matrix(y, n):
    """MatF of x -> [y, x] on sp(2n) in the sp_basis coordinates.

    Column b is coords_of([y, b]), with [y, b] built from the entries of y:
    [y, E_pq] is column p of y placed in column q, minus row q of y placed
    in row p, and b is a sum of such E_pq with coefficients +-1.
    """
    size = 2 * n
    if y.size != size:
        raise ValueError("size mismatch")
    by_row, by_col = y.rows, y.transpose().rows
    out = {}
    for k, b in enumerate(sp_basis(n)):
        entries = {}
        for p, brow in b.rows.items():
            for q, v in brow.items():
                plus = v.an > 0
                _add_terms(entries, (((i, q), w if plus else -w)
                                     for i, w in by_col.get(p, _NO_ROW).items()))
                _add_terms(entries, (((p, j), -w if plus else w)
                                     for j, w in by_row.get(q, _NO_ROW).items()))
        for r, c in enumerate(coords_of(_of_entries(size, entries), n)):
            if c:
                out[r, k] = c
    return _of_entries(sp_dim(n), out)


def centralizer_dim(y):
    """Dimension of the centralizer of y inside sp(2n)."""
    require_sp(y)
    n = y.size // 2
    return sp_dim(n) - linalg.sparse_rank(ad_matrix(y, n).rows.values())


def is_nilpotent(m):
    p = m
    for _ in range(m.size - 1):
        if p.is_zero():
            return True
        p = p @ m
    return p.is_zero()


class Root:
    """A root of type C_n: coordinates in the orthonormal Cartan basis,
    a length tag, and the chosen root vector."""

    __slots__ = ("coeffs", "length", "vec")

    def __init__(self, coeffs, length, vec):
        self.coeffs = tuple(coeffs)
        self.length = length
        self.vec = vec

    def key(self):
        return tuple((c.an, c.bn, c.den) for c in self.coeffs)

    def __repr__(self):
        return "Root(" + ", ".join(str(c) for c in self.coeffs) + f"; {self.length})"


class RootDatumC:
    """Cartan-Weyl data for sp(2n).

    The Cartan elements r_i = (E_ii - E_(n+i)(n+i))/sqrt2 are
    trace-orthonormal.  Roots are recorded by their coordinates in that basis:
    short (r_i +- r_j)/sqrt2 with squared length 1, long +-sqrt2 r_i with
    squared length 2; 2n^2 in all.
    Root vectors are normalized so that trace_pair(e_a, e_-a) = 1, with
    e_-a = e_a^T.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        size = 2 * n
        pos = []
        for i in range(n):
            for j in range(i + 1, n):
                coeffs = [_ZERO] * n
                coeffs[i] = _INV_SQRT2
                coeffs[j] = _INV_SQRT2
                vec = (MatF.unit(size, i, n + j) + MatF.unit(size, j, n + i)).scale(_INV_SQRT2)
                pos.append(Root(coeffs, "short", vec))
                coeffs = [_ZERO] * n
                coeffs[i] = _INV_SQRT2
                coeffs[j] = -_INV_SQRT2
                vec = (MatF.unit(size, i, j) - MatF.unit(size, n + j, n + i)).scale(_INV_SQRT2)
                pos.append(Root(coeffs, "short", vec))
        for i in range(n):
            coeffs = [_ZERO] * n
            coeffs[i] = SQRT2
            pos.append(Root(coeffs, "long", MatF.unit(size, i, n + i)))
        self.positive_roots = tuple(pos)
        neg = [Root([-c for c in r.coeffs], r.length, r.vec.transpose()) for r in pos]
        self.roots = self.positive_roots + tuple(neg)
        self._by_key = {r.key(): r for r in self.roots}

    def opposite(self, root):
        key = tuple(((-c).an, (-c).bn, (-c).den) for c in root.coeffs)
        return self._by_key[key]

    @staticmethod
    def pairing(r1, r2):
        """Inner product of roots through the orthonormal Cartan basis."""
        total = _ZERO
        for a, b in zip(r1.coeffs, r2.coeffs):
            total = total + a * b
        return total
