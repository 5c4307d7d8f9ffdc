"""Weyl algebra on 2n generators and its oscillator module.

Generators x_1..x_n, y_1..y_n with [y_i, x_j] = delta_ij and everything else
commuting.  Elements are kept normal ordered (all x's left of all y's) as a
dict mapping (x-exponents, y-exponents) to FieldScalar coefficients.  The
oscillator module consists of (x_1...x_n)^(-1/2) times Laurent polynomials:
monomials with exponents in Z - 1/2, stored as doubled (odd) integers, on
which x_i acts by multiplication and y_i as d/dx_i.  WeylElement and
OscVector are both poly._Terms, the sparse-term container of MultiPoly, and
add their key rules and their products to it.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .field import FieldScalar, ONE, HALF
from .poly import (MultiPoly, _Terms, _add_terms, _int_parts, _pack, _part_products, _scalars,
                   _unpack)
from .splie import MatF, RootDatumC, ad_matrix, bracket, require_sp

_ZERO = FieldScalar(0)


@lru_cache(maxsize=None)
def _monomial(key, n):
    """The (x-exponents, y-exponents) of the packed key of x^a y^b, which is
    the 2n-digit pack of a + b."""
    digits = _unpack(key, 2 * n)
    return digits[:n], digits[n:]


@lru_cache(maxsize=None)
def _exchange(b, c):
    """Normal ordering of y^b x^c for exponent tuples b, c: the terms
    (packed x-exponents and y-exponents, integer weight) of
    prod_i sum_k k! C(b_i,k) C(c_i,k) x_i^(c_i-k) y_i^(b_i-k)."""
    partial = [((), (), 1)]
    for bi, ci in zip(b, c):
        opts = [(k, factorial(k) * comb(bi, k) * comb(ci, k)) for k in range(min(bi, ci) + 1)]
        partial = [
            (xs + (ci - k,), ys + (bi - k,), w * wk)
            for xs, ys, w in partial
            for k, wk in opts
        ]
    return tuple((_pack(xs + ys), w) for xs, ys, w in partial)


@lru_cache(maxsize=None)
def _halves(key):
    """The 2n-digit packs of x^a and of y^b for the term key (a, b), whose sum
    is the pack of a + b."""
    a, b = key
    z = (0,) * len(a)
    return _pack(a + z), _pack(z + b)


def _exchange_product(acc, left, right, factor):
    """Add factor times the product of two integer parts of _int_parts into
    acc.  The left part holds each term x^a y^b as (pack of x^a, integer)
    under its y-exponent b, the right part each term x^c y^d as (pack of y^d,
    integer) under its x-exponent c, and the two meet through the terms of
    _exchange(b, c)."""
    get = acc.get
    for b, lterms in left.items():
        for c, rterms in right.items():
            for key, w in _exchange(b, c):
                w *= factor
                for xa, p in lterms:
                    mid = key + xa
                    p *= w
                    for yd, q in rterms:
                        k = mid + yd
                        acc[k] = get(k, 0) + p * q
    return acc


class WeylElement(_Terms):
    __slots__ = ()
    n = _Terms._space
    _mismatch = "generator count mismatch"

    def _key(self, key):
        xe, ye = key
        n = self.n
        if len(xe) != n or len(ye) != n:
            raise ValueError("exponent width does not match n")
        if any(k < 0 for k in xe) or any(k < 0 for k in ye):
            raise ValueError("negative exponent")
        return (tuple(xe), tuple(ye))

    @classmethod
    def one(cls, n):
        return cls.constant(n, 1)

    @classmethod
    def constant(cls, n, c):
        z = (0,) * n
        return cls(n, {(z, z): c})

    @classmethod
    def xgen(cls, n, i):
        xe = [0] * n
        xe[i] = 1
        return cls(n, {(tuple(xe), (0,) * n): ONE})

    @classmethod
    def ygen(cls, n, i):
        ye = [0] * n
        ye[i] = 1
        return cls(n, {((0,) * n, tuple(ye)): ONE})

    def is_even(self):
        return all((sum(xe) + sum(ye)) % 2 == 0 for xe, ye in self.terms)

    def order(self):
        """Filtration degree: half the top total degree, rounded up."""
        if not self.terms:
            return 0
        return max((sum(xe) + sum(ye) + 1) // 2 for xe, ye in self.terms)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(xe) + sum(ye) for xe, ye in self.terms)

    def __mul__(self, other):
        """Normal-ordered product via y^b x^c = sum_k k! C(b,k) C(c,k) x^(c-k) y^(b-k).

        A left term x^a y^b meets a right term x^c y^d only through the
        exchange of y^b past x^c, so the left terms are grouped by b, the
        right ones by c, and _exchange(b, c) is looked up once per pair of
        groups.  _int_parts clears the coefficients of each operand to
        integers over one denominator, split into rational and sqrt2 parts
        grouped by those exponents, and monomials are packed into ints, so
        each product of parts sums single Python ints per packed key
        (rational operands make one such product) and each output
        coefficient is normalised once."""
        if not isinstance(other, WeylElement):
            c = FieldScalar._coerce(other)
            return NotImplemented if c is None else self.scale(c)
        self._check(other)
        d1, left = _int_parts([(key[1], _halves(key)[0], c) for key, c in self.terms.items()])
        d2, right = _int_parts([(key[0], _halves(key)[1], c) for key, c in other.terms.items()])
        rational, root2 = _part_products(left, right, _exchange_product)
        return WeylElement._of(self.n, _scalars(rational, root2, d1 * d2, _monomial, self.n))

    __rmul__ = __mul__

    def commutator(self, other):
        return self * other - other * self

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for xe, ye in sorted(self.terms, key=lambda k: (sum(k[0]) + sum(k[1]), k)):
            c = self.terms[(xe, ye)]
            mono = "".join(
                f"x{i+1}^{k}" if k > 1 else f"x{i+1}" for i, k in enumerate(xe) if k
            ) + "".join(
                f"y{i+1}^{k}" if k > 1 else f"y{i+1}" for i, k in enumerate(ye) if k
            )
            bits.append(f"({c}){mono}" if mono else f"({c})")
        return " + ".join(bits)

    __repr__ = __str__


def v_registry(n):
    """Registry for the commutative coordinate ring of V = F^(2n)."""
    return tuple(f"x{i+1}" for i in range(n)) + tuple(f"y{i+1}" for i in range(n))


def classical_comoment(m):
    """The quadratic function v -> 1/2 omega(m v, v) on V, as a MultiPoly.

    Coordinate functions follow the oscillator dictionary fixed by matching
    Poisson and Weyl brackets, {v_i*, v_{n+j}*} = delta_ij = [y_j, x_i]: the
    function v_i* is the registry symbol y_i and v_{n+i}* is x_i.
    """
    require_sp(m)
    size = m.size
    n = size // 2
    registry = v_registry(n)
    # w[j] is v_j*, the registry variable (j + n) mod 2n; mw[i] is (m v)_i
    w = [MultiPoly.variable(registry, (j + n) % size) for j in range(size)]
    mw = [MultiPoly.linear(registry, {(j + n) % size: c for j, c in m.rows.get(i, {}).items()})
          for i in range(size)]
    total = MultiPoly.zero(registry)
    for i in range(n):
        total = total + mw[i] * w[n + i] - mw[n + i] * w[i]
    return total.scale(HALF)


def symmetrize_quadratic(p):
    """Symmetrization of a degree <= 2 polynomial into the Weyl algebra.

    The first n registry slots map to x_i, the last n to y_i; the only
    noncommutativity correction is Sym(x_i y_i) = x_i y_i + 1/2.
    """
    width = len(p.registry)
    if width % 2:
        raise ValueError("registry must have even size")
    n = width // 2
    if p.total_degree() > 2:
        raise ValueError("polynomial degree exceeds 2")
    constant = ((0,) * n, (0,) * n)

    def terms():
        for exp, c in p.terms.items():
            yield (exp[:n], exp[n:]), c
            if sum(exp) == 2 and any(exp[i] and exp[n + i] for i in range(n)):
                yield constant, c * HALF
    return WeylElement._of(n, _add_terms({}, terms()))


def theta1(m):
    """Quadratic co-moment of m in sp(2n) inside the Weyl algebra.

    For blocks ((A, B), (C, -A^T)) the value is
    1/2 (sum 2 A_ij x_i y_j + B_ij x_i x_j - C_ij y_i y_j + Tr A).
    """
    require_sp(m)
    n = m.size // 2
    z = (0,) * n

    def mono(*idx):
        exps = [0] * n
        for i in idx:
            exps[i] += 1
        return tuple(exps)

    # the stored entries of the A, B and C blocks; D = -A^T adds nothing
    def terms():
        for i, row in m.rows.items():
            for j, v in row.items():
                if i < n and j < n:
                    yield (mono(i), mono(j)), v
                elif i < n:
                    yield (mono(i, j - n), z), v * HALF
                elif j < n:
                    yield (z, mono(i - n, j)), -v * HALF
        tr_a = sum((m[i, i] for i in range(n)), _ZERO)
        if tr_a:
            yield (z, z), tr_a * HALF

    return WeylElement._of(n, _add_terms({}, terms()))


class LinearVectorField:
    """Derivation of the coordinate ring of sp(2n) with linear coefficients.

    Stored as the MatF of the induced map on basis labels: column k holds
    the sp_basis coordinates of the image of coordinate k, so commutators of
    fields are plain matrix commutators.
    """

    __slots__ = ("n", "mat")

    def __init__(self, n, mat):
        self.n = n
        self.mat = mat if isinstance(mat, MatF) else MatF(mat)

    def commutator(self, other):
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return LinearVectorField(self.n, bracket(self.mat, other.mat))

    def __eq__(self, other):
        if not isinstance(other, LinearVectorField):
            return NotImplemented
        return self.n == other.n and self.mat == other.mat

    def __hash__(self):
        return hash((self.n, self.mat))


def theta0(m):
    """Adjoint-action vector field on sp(2n): coordinate labels move by
    b -> [m, b], which makes the assignment a Lie algebra homomorphism."""
    require_sp(m)
    n = m.size // 2
    return LinearVectorField(n, ad_matrix(m, n))


class OscVector(_Terms):
    """Element of the oscillator module: exponents are half odd integers,
    stored doubled (so the vacuum is (-1, ..., -1), meaning each x_i^(-1/2))."""

    __slots__ = ()
    n = _Terms._space
    _mismatch = "rank mismatch"

    def _key(self, exp):
        if len(exp) != self.n:
            raise ValueError("exponent width does not match n")
        if any(e % 2 == 0 for e in exp):
            raise ValueError("doubled exponents must be odd")
        return tuple(exp)

    @classmethod
    def vacuum(cls, n):
        return cls(n, {(-1,) * n: ONE})

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({c})·x^{tuple(Fraction(e, 2) for e in exp)}"
            for exp, c in sorted(self.terms.items())
        )


def osc_apply(w, vec):
    """Apply a normal-ordered Weyl element to an oscillator vector."""
    if w.n != vec.n:
        raise ValueError("rank mismatch")
    n = w.n

    def terms():
        # y_i^b lowers the doubled exponent e by 2b with the factor
        # e/2 (e/2 - 1) ... (e/2 - b + 1); x_i^a raises it by 2a
        for (xe, ye), c in w.terms.items():
            for exp, a in vec.terms.items():
                num = 1
                for i in range(n):
                    for j in range(ye[i]):
                        num *= exp[i] - 2 * j
                if num:
                    yield (tuple(e - 2 * ye[i] + 2 * xe[i] for i, e in enumerate(exp)),
                           c * a * FieldScalar(Fraction(num, 2 ** sum(ye))))

    return OscVector._of(n, _add_terms({}, terms()))


@lru_cache(maxsize=None)
def _datum(n):
    return RootDatumC(n)


def weight_zero_scalar(n, root):
    """Scalar by which theta1(e_a) theta1(e_-a) acts on the vacuum line."""
    opp = _datum(n).opposite(root)
    w = theta1(root.vec) * theta1(opp.vec)
    image = osc_apply(w, OscVector.vacuum(n))
    vac = (-1,) * n
    for exp, c in image.terms.items():
        if exp != vac:
            raise ValueError("operator does not preserve the vacuum line")
    return image.terms.get(vac, _ZERO)
