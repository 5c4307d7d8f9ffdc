"""The almost-commuting scheme of sp(2n) and its nilpotent subscheme.

Points are triples (x, y, i) with x, y in sp(2n) and i in V = F^(2n), subject
to [x, y] + i i^T J = 0; the nilpotent subscheme adds the power traces
tr(y^2k), k = 1..n, which generate the same ideal as the even characteristic
coefficients of y.  Everything here is exact: ideals live in a polynomial
registry with one variable per trace-dual coordinate of x and y plus one per
coordinate of i, all in degree 1, and the nilpotency rows of the tangent
system are taken in closed form.
"""

import random
from collections import namedtuple
from functools import cached_property, lru_cache

from .field import FieldScalar, HALF
from .poly import MultiPoly, _int_pairs, count_monomials
from . import linalg
from .splie import (
    MatF,
    RootDatumC,
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
from .weylosc import classical_comoment
from .orbits import nilpotent_rep, positive_slots, sl2_complete

_ZERO = FieldScalar(0)


class SchemePoint(namedtuple("SchemePoint", "n x y i")):
    # no __slots__: the cached jacobian lives in the instance __dict__

    def __new__(cls, n, x, y, i):
        # a tuple, so the cached jacobian cannot go stale through i
        return super().__new__(cls, n, x, y, tuple(i))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would bypass __new__
        return cls(*iterable)

    @cached_property
    def jacobian(self):
        """Exact Jacobian rows of I plus NIL at the point, which must satisfy
        every defining equation.

        The I rows evaluate the symbolic gradients.  At a nilpotent y the NIL
        rows have a closed form: d tr(y^2k)(b) = 2k tr(y^(2k-1) b), one row
        per k over the y coordinates.  lagrangian_check and
        stratum_tangent_check both read it, so it is kept on the point.
        """
        n = self.n
        _, gens, grads = _nil_system(n)
        values = point_coordinates(self)
        if any(g.eval(values) for g in gens) or not is_nilpotent(self.y):
            raise ValueError("point does not satisfy the defining equations")
        jac = [tuple(cell.eval(values) for cell in row) for row in grads]
        nn = sp_dim(n)
        zeros_x, zeros_i = [_ZERO] * nn, [_ZERO] * (2 * n)
        odd, square = self.y, self.y @ self.y
        for k in range(1, n + 1):
            jac.append(tuple(zeros_x + [trace_pair(odd, b) * (2 * k) for b in sp_basis(n)]
                             + zeros_i))
            odd = odd @ square
        return tuple(jac)


def moment2(point):
    """[x, y] + raw_square(i); zero exactly on the scheme."""
    return bracket(point.x, point.y) + raw_square(point.i)


def full_registry(n):
    nn = sp_dim(n)
    return (
        tuple(f"x{k}" for k in range(nn))
        + tuple(f"y{k}" for k in range(nn))
        + tuple(f"i{a}" for a in range(2 * n))
    )


def _generic(registry, offset, n):
    """Generic sp(2n) matrix: coordinate k is the variable in registry slot
    offset + k."""
    return mat_from_coords([MultiPoly.variable(registry, offset + k)
                            for k in range(sp_dim(n))], n)


def _minors2(m):
    size = m.size
    return [m[r1, c1] * m[r2, c2] - m[r1, c2] * m[r2, c1]
            for r1 in range(size) for r2 in range(r1 + 1, size)
            for c1 in range(size) for c2 in range(c1 + 1, size)]


def _powers(m, count):
    """m, m^2, ..., m^count of a polynomial matrix."""
    powers = [m]
    while len(powers) < count:
        powers.append(powers[-1] @ m)
    return powers


def ideal_generators(kind, n):
    """Generators for the graded ideals of the construction.

    "I": coordinates of the moment map [x, y] + raw_square(i) at the generic
         point, degree 2, in the full (x, y, i) registry.
    "J": 2x2 minors of the generic commutator [x, y], degree 4, x-y registry.
    "K": 2x2 minors of a generic sp matrix, degree 2, x registry.
    "NIL": power traces tr(y^2k) for k = 1..n, degrees 2, 4, ..., 2n, y
         registry, each the trace pairing of y^k with itself.  Newton's
         identities are triangular over Q, so they generate the same ideal
         as the even characteristic coefficients e_2, ..., e_2n; the odd
         ones vanish identically on sp.
    """
    nn = sp_dim(n)
    if kind == "I":
        registry = full_registry(n)
        point = SchemePoint(n, _generic(registry, 0, n), _generic(registry, nn, n),
                            [MultiPoly.variable(registry, 2 * nn + a) for a in range(2 * n)])
        return coords_of(moment2(point), n)
    if kind == "J":
        registry = tuple(f"x{k}" for k in range(nn)) + tuple(f"y{k}" for k in range(nn))
        return _minors2(bracket(_generic(registry, 0, n), _generic(registry, nn, n)))
    if kind == "K":
        registry = tuple(f"x{k}" for k in range(nn))
        return _minors2(_generic(registry, 0, n))
    if kind == "NIL":
        registry = tuple(f"y{k}" for k in range(nn))
        return [poly_trace_pair(p, p) for p in _powers(_generic(registry, 0, n), n)]
    raise ValueError(f"unknown ideal kind: {kind}")


def _odd_traces_vanish(m):
    """Whether tr(m^k) is zero for every odd k up to the size of the
    polynomial matrix m, which holds exactly when the odd characteristic
    coefficients e_1, e_3, ... of m all vanish.

    By Newton's identities k e_k = sum over i = 1..k of (-1)^(i-1) e_(k-i)
    tr(m^i), and for odd k every term has i odd or k - i odd; induct on k.
    tr(m^(2j+1)) is the trace pairing of m^(j+1) with m^j, so only m, ...,
    m^ceil(size/2) are formed.
    """
    if m.trace():
        return False
    powers = _powers(m, (m.size + 1) // 2)
    return not any(poly_trace_pair(higher, power)
                   for power, higher in zip(powers, powers[1:]))


def odd_char_coeffs_vanish(n):
    """Symbolic check that odd characteristic coefficients vanish on sp(2n),
    read from the odd power traces of a generic element."""
    registry = tuple(f"y{k}" for k in range(sp_dim(n)))
    return _odd_traces_vanish(_generic(registry, 0, n))


def theta1_kills_minors(n):
    """The quadratic co-moment annihilates every 2x2 minor of a generic sp
    matrix: substituting the co-moment quadratics for the trace-dual
    coordinates turns each minor into the zero polynomial."""
    gens = ideal_generators("K", n)
    images = [classical_comoment(d) for d in dual_basis(n)]
    return all(g.subst(images).is_zero() for g in gens)


@lru_cache(maxsize=None)
def _datum(n):
    return RootDatumC(n)


def unipotent_factors(n, rng, count=None):
    """Random unipotent symplectic factors (I + t e_root, inverse I - t e_root)."""
    datum = _datum(n)
    if count is None:
        count = rng.randint(1, 3)
    ident = MatF.identity(2 * n)
    factors = []
    for _ in range(count):
        root = rng.choice(datum.roots)
        t = rng.choice([-2, -1, 1, 2])
        factors.append((ident + root.vec.scale(t), ident + root.vec.scale(-t)))
    return factors


@lru_cache(maxsize=None)
def _rep_and_positive_slots(lam):
    """Canonical representative of type lam and the coordinates of V on
    which the diagonal h of its sl2 triple is positive."""
    e = nilpotent_rep(lam)
    return e, positive_slots(sl2_complete(e).h)


def sample_xnil_point(lam, seed=0):
    """Seeded exact point of the nilpotent subscheme over the orbit of lam.

    y is a unipotent conjugate of the canonical representative, i is pushed
    out of the positive weight space by the same conjugation, and x solves
    [x, y] = -raw_square(i) up to a random centralizer shift.
    """
    lam = tuple(sorted(lam, reverse=True))
    n = sum(lam) // 2
    rng = random.Random(seed)
    e, pos_slots = _rep_and_positive_slots(lam)

    y = e
    vec = [_ZERO] * (2 * n)
    if pos_slots:
        coeffs = [rng.randint(-2, 2) for _ in pos_slots]
        if all(c == 0 for c in coeffs):
            coeffs[rng.randrange(len(coeffs))] = 1
        for slot, c in zip(pos_slots, coeffs):
            vec[slot] = FieldScalar(c)
    for g, ginv in unipotent_factors(n, rng):
        y = g @ y @ ginv
        vec = g.apply(vec)

    sol, kernel = linalg.solution_space(ad_matrix(y, n).entries, coords_of(raw_square(vec), n))
    if sol is None:
        raise RuntimeError("moment equation unexpectedly unsolvable")
    for z in kernel:
        c = FieldScalar(rng.randint(-2, 2))
        if c:
            sol = [s + c * zi for s, zi in zip(sol, z)]
    x = mat_from_coords(sol, n)

    point = SchemePoint(n=n, x=x, y=y, i=tuple(vec))
    if not moment2(point).is_zero() or not is_nilpotent(y):
        raise RuntimeError("sampled point fails the scheme equations")
    return point


class TangentReport(namedtuple("TangentReport", "jacobian_rank tangent_dim isotropic smooth")):
    __slots__ = ()


@lru_cache(maxsize=None)
def _nil_system(n):
    """Generators of I in the full registry, with their gradients."""
    registry = full_registry(n)
    gens = ideal_generators("I", n)
    grads = [[g.partial(v) for v in range(len(registry))] for g in gens]
    return registry, gens, grads


def point_coordinates(point):
    return (
        coords_of(point.x, point.n)
        + coords_of(point.y, point.n)
        + list(point.i)
    )


@lru_cache(maxsize=None)
def _trace_form(n):
    """The entries (p, q, c) of the moment-compatible symplectic form on flat
    (x, y, i) coordinates, which is the sum of c (v1[p] v2[q] - v1[q] v2[p])
    over them: the trace-form Gram matrix of sp_basis(n) between the x and y
    parts, and -2 omega on the i part.  Every basis element has exactly one
    nonzero trace partner, so each flat coordinate lies in exactly one entry.
    The basis matrices have integer entries, so each c is kept as an int.

    On tangent triples (a, b, u) the form is Tr(a1 b2) - Tr(a2 b1) - 2
    omega(u1, u2).  The scheme is the zero level of the moment map mu = [x, y]
    + raw_square(i), and the factor 2 on omega is the scaling for which
    d tr(xi mu)(v) = form(xi . p, v) at every point p, where xi . p =
    ([xi, x], [xi, y], xi i).
    """
    nn = sp_dim(n)
    basis = sp_basis(n)
    form = [
        (k, nn + l, g)
        for k, a in enumerate(basis)
        for l, b in enumerate(basis)
        if (g := trace_pair(a, b).an)
    ]
    form += [(2 * nn + a, 2 * nn + n + a, -2) for a in range(n)]
    return tuple(form)


def _cleared(vec):
    """The nonzero entries of a flat vector as {position: (p, q)}, entry
    (p + q sqrt2)/d over one common denominator d of the vector.  d is
    dropped: _dot_vanishes only asks whether a dot product is zero."""
    return {j: (p, q) for j, p, q in _int_pairs({j: c for j, c in enumerate(vec) if c})[1]}


def _dot_vanishes(u, v):
    """Whether the dot product of two _cleared vectors is zero: its rational
    sum of p p' + 2 q q' and its sqrt2 sum of p q' + q p' over their common
    support are both 0."""
    rational = root2 = 0
    for j, (p, q) in u.items():
        if j in v:
            s, t = v[j]
            rational += p * s + 2 * q * t
            root2 += p * t + q * s
    return not (rational or root2)


def _isotropic(vectors, n):
    """True when the form of _trace_form vanishes on every pair of the
    _cleared flat vectors.

    Each vector w is mapped once to its image under that form, the vector
    with entry c w[q] at p and -c w[p] at q per entry (p, q, c).  The c are
    integers, so the image of the integer pairs of w is cleared over the
    denominator of w, and as each coordinate lies in one entry, nothing is
    summed.  A pair (v, w) then pairs to the dot product of v with the image
    of w.
    """
    form = _trace_form(n)
    images = []
    for w in vectors:
        image = {}
        for p, q, c in form:
            if q in w:
                s, t = w[q]
                image[p] = (c * s, c * t)
            if p in w:
                s, t = w[p]
                image[q] = (-c * s, -c * t)
        images.append(image)
    return all(
        _dot_vanishes(vectors[a], images[b])
        for a in range(len(vectors))
        for b in range(a + 1, len(vectors))
    )


def _half_dim(n):
    """2n^2 + 2n, half the 4n^2 + 4n flat (x, y, i) coordinates: the
    dimension of a Lagrangian subspace.  The form of _trace_form pairs each
    coordinate with exactly one partner, with a nonzero coefficient, so it is
    nondegenerate and no isotropic span is larger."""
    return 2 * n * n + 2 * n


def lagrangian_check(point):
    """Exact tangent data of the nilpotent subscheme at a sampled point.

    The Jacobian of I plus NIL, its rank, the dimension of its kernel (the
    Zariski tangent space) and whether the moment-compatible form of
    _trace_form vanishes on that kernel.  A kernel of dimension above
    2n^2 + 2n cannot be isotropic (_half_dim), so that verdict is a dimension
    count and the pairs are tested only on a smaller kernel.
    """
    n = point.n
    jac = point.jacobian
    kernel = linalg.nullspace(jac)
    tangent = len(kernel)
    rank = len(jac[0]) - tangent
    return TangentReport(
        jacobian_rank=rank,
        tangent_dim=tangent,
        isotropic=tangent <= _half_dim(n) and _isotropic([_cleared(v) for v in kernel], n),
        smooth=(rank == _half_dim(n)),
    )


def positive_weight_space(y):
    """Reduced echelon basis of the canonical half space of a nilpotent y.

    Computed as the sum over j >= 1 of im(y^j) intersected with ker(y^j),
    which equals the span of the positive-weight vectors of any sl2
    completion of y; the formula needs no completion and is equivariant.
    The vectors y^j w with y^(2j) w = 0 are reduced in one elimination.
    """
    candidates = []
    power = y
    for _ in range(y.size):
        if power.is_zero():
            return linalg.row_basis(candidates)
        square = power @ power
        for w in linalg.nullspace(square.entries):
            v = power.apply(w)
            if any(v):
                candidates.append(v)
        power = power @ y
    raise ValueError("positive_weight_space needs a nilpotent y")


class StratumReport(namedtuple("StratumReport", "frame_rank inside_kernel isotropic")):
    __slots__ = ()


def stratum_tangent_check(point):
    """Exact tangent frame of the orbit stratum through a sampled point.

    The frame, read off the moment rows of the defining Jacobian, collects
    conjugation directions ([a,x], [a,y], a i) over the sp basis, centralizer
    shifts (z, 0, 0) with [z, y] = 0 and vector moves (w, 0, u) for u in the
    canonical half space of y, with [w, y] = -(polarization of raw_square at i
    along u).  Its rank, from _frame_rank, is the stratum dimension.  Lying
    inside the Jacobian's kernel and isotropy are properties of the span, so
    both are tested on the frame vectors themselves, each cleared once by
    _cleared for the two tests and the rank.

    Isotropy is tested against the moment-compatible form of _trace_form,
    Tr(a1 b2) - Tr(a2 b1) - 2 omega(u1, u2); the form must carry the scaling
    of the moment map for the strata to pair to zero.
    """
    rows = [_cleared(row) for row in point.jacobian]
    frame = _stratum_frame(point)
    vectors = [_cleared(vec) for vec in frame]
    inside = all(_dot_vanishes(row, vec) for vec in vectors for row in rows)
    isotropic = _isotropic(vectors, point.n)
    return StratumReport(
        frame_rank=_frame_rank(frame, vectors, isotropic, point.n),
        inside_kernel=inside,
        isotropic=isotropic,
    )


def _frame_rank(frame, vectors, isotropic, n):
    """Exact rank of the flat frame, given its _cleared vectors and whether
    they are isotropic.

    An isotropic span has dimension at most 2n^2 + 2n (_half_dim), and the
    rank modulo a prime of the cleared vectors, each a nonzero multiple of its
    frame vector, is at most the rank.  When the frame is isotropic and
    modular_rank reaches 2n^2 + 2n, the two bounds meet and that is the rank.
    In every other case sparse_rank eliminates the frame exactly.
    """
    half = _half_dim(n)
    if isotropic and linalg.modular_rank(vectors, 2 * half, half) == half:
        return half
    return linalg.sparse_rank([{j: c for j, c in enumerate(v) if c} for v in frame])


def _stratum_frame(point):
    """The flat tangent frame of stratum_tangent_check, read off the moment
    rows of point.jacobian: [-ad y | ad x | P] in sp coordinates, where ad y
    sends w to [y, w] and column c of P polarizes raw_square at i along e_c.

    The conjugation direction ([a, x], [a, y], a i) is minus column a of the
    y-block beside column a of the x-block.  One kernel of [-ad y | P u_1 ..
    P u_k], u_1 .. u_k a basis of the half space, gives the centralizer shifts
    and the vector moves: a kernel vector (w, c) has [w, y] + sum c_k P u_k =
    0 and becomes (w, 0, sum c_k u_k); a move with no solution lowers the rank.
    """
    n, nn, ivec = point.n, sp_dim(point.n), list(point.i)
    moment = point.jacobian[:nn]
    half = positive_weight_space(point.y)
    frame = [[-row[nn + a] for row in moment] + [row[a] for row in moment] + b.apply(ivec)
             for a, b in enumerate(sp_basis(n))]
    stacked = [list(row[:nn]) + [sum((c * v for c, v in zip(row[2 * nn:], u) if v), _ZERO)
                                 for u in half] for row in moment]
    for z in linalg.nullspace(stacked):
        u = [sum((c * v[a] for c, v in zip(z[nn:], half) if c), _ZERO) for a in range(2 * n)]
        frame.append(z[:nn] + [_ZERO] * nn + u)
    return frame


def embedding_pullback_check(n):
    """The linear embedding (x, y, i) -> (x, y, i/2, omega(i, .)) pulls the
    cotangent-type form on gl x gl x V x V* back to the form on sp x sp x V,
    checked on every pair of standard tangent directions."""
    basis = sp_basis(n)
    zmat = MatF.zero(2 * n)
    zvec = [_ZERO] * (2 * n)
    tangents = [(b, zmat, zvec) for b in basis]
    tangents += [(zmat, b, zvec) for b in basis]
    for a in range(2 * n):
        v = [_ZERO] * (2 * n)
        v[a] = FieldScalar(1)
        tangents.append((zmat, zmat, v))

    for t1 in tangents:
        a1, b1, u1 = t1
        v1 = [HALF * c for c in u1]
        for t2 in tangents:
            a2, b2, u2 = t2
            v2 = [HALF * c for c in u2]
            lhs = trace_pair(a1, b2) - trace_pair(a2, b1) + omega(u1, u2)
            # the covector omega(u, .) paired with the vector part v
            rhs = (trace_pair(a1, b2) - trace_pair(a2, b1)
                   + omega(u1, v2) - omega(u2, v1))
            if lhs != rhs:
                return False
    return True


class HilbertRow(namedtuple("HilbertRow", "degree dim_left dim_right equal")):
    __slots__ = ()


def hilbert_compare(n, dmax):
    """Graded dimensions of C[sp x sp]/J against the even part of the
    almost-commuting quotient, degree by degree.

    Left: quotient by the 2x2 minors of the generic commutator.  Right: the
    even-i-degree part of the quotient by I, with every variable in degree 1.
    """
    if n != 1:
        raise ValueError("the comparison is implemented for n = 1 only")
    if not isinstance(dmax, int) or dmax < 0 or dmax > 8:
        raise ValueError("dmax must be an integer in 0..8")
    nn = sp_dim(n)
    left_gens = ideal_generators("J", n)
    right_gens = ideal_generators("I", n)
    uslice = slice(2 * nn, 2 * nn + 2 * n)

    def even_u(exp):
        return sum(exp[uslice]) % 2 == 0

    rows = []
    for d in range(dmax + 1):
        left_amb = count_monomials(2 * nn, d)
        left = left_amb - linalg.truncated_ideal_dim(left_gens, d)
        right_amb = sum(
            count_monomials(2 * nn, d - k) * count_monomials(2 * n, k)
            for k in range(0, d + 1, 2)
        )
        right = right_amb - linalg.truncated_ideal_dim(
            right_gens, d, multiplier_filter=even_u
        )
        rows.append(HilbertRow(d, left, right, left == right))
    return rows
