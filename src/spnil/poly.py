"""Sparse multivariate polynomials over Q(sqrt2), and the sparse-term
container they share with the Weyl algebra and the oscillator module.

_Terms is a space (here a variable registry) and a dict mapping monomial keys
to nonzero FieldScalar coefficients; it holds the one copy of the vector-space
code: the checked constructor, addition, negation, scaling, equality and
hashing.  A subclass adds its key rule and its own algebra.

A polynomial carries an immutable variable registry (a tuple of names) and
keys its terms by dense exponent tuples (length = registry size).  Monomial
comparisons use graded lexicographic order: compare total degree first, then
the exponent tuple lexicographically.

The symbolic products that sum many terms (the Weyl product, the polynomial
trace pairing) run on packed monomial keys and integer coefficients.
_int_parts is the one routine that clears the coefficients of an operand to
one denominator and splits them into rational and sqrt2 integer parts,
_part_products multiplies those parts of two operands and _scalars turns the
integer sums back into coefficients.
"""

import struct
from math import lcm
from operator import add

from .field import FieldScalar, ONE, _scalar, _whole

_ZERO = FieldScalar(0)


def grlex_key(exp):
    return (sum(exp), exp)


def _pack(exps):
    """One int holding the exponents exps as 32-bit digits, the first most
    significant.  Exponents are nonnegative and far below 2^32, so digits never
    carry: packed keys of one width order as their tuples do, and adding keys
    multiplies monomials."""
    return int.from_bytes(struct.pack(f">{len(exps)}I", *exps), "big")


def _unpack(key, width):
    """The exponent tuple of width digits packed into key."""
    return struct.unpack(f">{width}I", key.to_bytes(4 * width, "big"))


def _add_terms(acc, items):
    """Add each (key, coefficient) of items into the dict acc in place, the
    one accumulation rule of every sparse term dict: a key whose sum is zero
    is deleted and a zero is never inserted.  Returns acc."""
    get = acc.get
    for key, c in items:
        s = get(key)
        if s is not None:
            c = s + c
        if c:
            acc[key] = c
        elif s is not None:
            del acc[key]
    return acc


def _int_pairs(terms):
    """Clear the coefficients of terms to one common denominator d: returns d
    and the list of (key, p, q) with coefficient (p + q*sqrt2)/d."""
    d = lcm(*[c.den for c in terms.values()])
    return d, [(key, c.an * (d // c.den), c.bn * (d // c.den)) for key, c in terms.items()]


def _int_parts(items):
    """Clear the coefficients c of the (slot, key, c) triples in the list
    items to one common denominator d: returns d and the rational and sqrt2
    integer parts, each {slot: [(key, integer)]} over the nonzero integers,
    in the order of items, with c = (p + q*sqrt2)/d for its parts p and q."""
    d = lcm(*[c.den for _, _, c in items])
    rational, root2 = {}, {}
    for slot, key, c in items:
        s = d // c.den
        if c.an:
            rational.setdefault(slot, []).append((key, c.an * s))
        if c.bn:
            root2.setdefault(slot, []).append((key, c.bn * s))
    return d, (rational, root2)


def _part_products(left, right, product):
    """The integer sums of the rational and sqrt2 parts of a product whose
    operands are given as their (rational, sqrt2) parts of _int_parts: with
    a = a0 + a1*sqrt2 and b = b0 + b1*sqrt2, ab = (a0 b0 + 2 a1 b1) +
    (a0 b1 + a1 b0)*sqrt2.  product(acc, x, y, factor) adds factor times the
    product of the parts x and y into acc, a dict of ints keyed by packed
    monomials; an empty part is skipped, so rational operands take one call."""
    (a0, a1), (b0, b1) = left, right
    rational, root2 = {}, {}
    for acc, x, y, factor in ((rational, a0, b0, 1), (rational, a1, b1, 2),
                              (root2, a0, b1, 1), (root2, a1, b0, 1)):
        if x and y:
            product(acc, x, y, factor)
    return rational, root2


def _scalars(rational, root2, den, unpack, width):
    """{unpack(key, width): (p + q*sqrt2)/den} over the packed keys whose
    integer sums p in rational and q in root2 are not both zero, each
    coefficient normalised once; over den = 1 there is nothing to normalise."""
    if den == 1:
        scalar = _whole
    else:
        def scalar(p, q):
            return FieldScalar._raw(p, q, den)
    out = {unpack(key, width): scalar(p, root2.get(key, 0))
           for key, p in rational.items() if p or root2.get(key)}
    for key, q in root2.items():
        if q and key not in rational:
            out[unpack(key, width)] = scalar(0, q)
    return out


class _Terms:
    """A sparse sum of monomials over Q(sqrt2) in one space.

    A subclass publishes the space slot under its own name (registry, or n)
    by aliasing the slot descriptor, defines _key, which checks and returns
    one monomial key, and sets _mismatch, the message of a space mismatch."""

    __slots__ = ("_space", "terms")

    def __init__(self, space, terms=None):
        self._space = space
        clean = {}
        if terms:
            for key, c in terms.items():
                key = self._key(key)
                c = _scalar(c)
                if c:
                    clean[key] = c
        self.terms = clean

    @classmethod
    def _of(cls, space, terms):
        """Trusted constructor: terms hold nonzero FieldScalars on keys that
        pass the key rule of cls."""
        t = object.__new__(cls)
        t._space = space
        t.terms = terms
        return t

    @classmethod
    def zero(cls, space):
        return cls(space)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if self._space != other._space:
            raise ValueError(self._mismatch)

    def __add__(self, other):
        if not isinstance(other, self.__class__):
            # a scalar is promoted where the space has constants
            c = FieldScalar._coerce(other)
            constant = getattr(self, "constant", None)
            if c is None or constant is None:
                return NotImplemented
            other = constant(self._space, c)
        self._check(other)
        return self._of(self._space, _add_terms(dict(self.terms), other.terms.items()))

    # a sum seeded with the scalar 0, as in MatF's products and traces
    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return self._of(self._space, {k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = _scalar(c)
        return self._of(self._space, {k: c * v for k, v in self.terms.items()} if c else {})

    def __eq__(self, other):
        if not isinstance(other, self.__class__):
            return NotImplemented
        return self._space == other._space and self.terms == other.terms

    def __hash__(self):
        return hash((self._space, frozenset(self.terms.items())))


class MultiPoly(_Terms):
    __slots__ = ()
    registry = _Terms._space
    _mismatch = "registry mismatch"

    def __init__(self, registry, terms=None):
        super().__init__(tuple(registry), terms)

    def _key(self, exp):
        if len(exp) != len(self.registry):
            raise ValueError("exponent width does not match registry")
        return tuple(exp)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, registry, c):
        return cls(registry, {(0,) * len(tuple(registry)): c})

    @classmethod
    def linear(cls, registry, coeffs):
        """The linear form sum of c * x_idx over the items idx: c of coeffs;
        a zero c adds no term."""
        registry = tuple(registry)
        terms = {}
        for idx, c in coeffs.items():
            c = _scalar(c)
            if c:
                exp = [0] * len(registry)
                exp[idx] = 1
                terms[tuple(exp)] = c
        return cls._of(registry, terms)

    @classmethod
    def variable(cls, registry, idx):
        return cls.linear(registry, {idx: ONE})

    # -- basic queries -----------------------------------------------------

    def total_degree(self):
        """Maximal term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), _ZERO)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = FieldScalar._coerce(other)
            return NotImplemented if c is None else self.scale(c)
        self._check(other)
        right = other.terms.items()
        return MultiPoly._of(self.registry, _add_terms({}, (
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in right)))

    __rmul__ = __mul__

    # -- calculus and substitution ------------------------------------------

    def partial(self, idx):
        terms = {}
        for exp, c in self.terms.items():
            k = exp[idx]
            if k == 0:
                continue
            e = list(exp)
            e[idx] = k - 1
            terms[tuple(e)] = c * k
        return MultiPoly._of(self.registry, terms)

    def eval(self, values):
        """Evaluate at a full vector of FieldScalar values."""
        if len(values) != len(self.registry):
            raise ValueError("value vector does not match registry")
        total = FieldScalar(0)
        for exp, c in self.terms.items():
            v = c
            for i, k in enumerate(exp):
                if k:
                    v = v * (values[i] if k == 1 else values[i] ** k)
            total = total + v
        return total

    def subst(self, images):
        """Substitute images[i] (all in one common registry) for variable i."""
        if len(images) != len(self.registry):
            raise ValueError("image vector does not match registry")
        target = images[0].registry
        out = MultiPoly(target)
        for exp, c in self.terms.items():
            term = MultiPoly.constant(target, c)
            for i, k in enumerate(exp):
                for _ in range(k):
                    term = term * images[i]
            out = out + term
        return out

    def embed(self, registry, positions):
        """Remap into a wider registry; positions[i] is the new slot of var i."""
        registry = tuple(registry)
        width = len(registry)
        terms = {}
        for exp, c in self.terms.items():
            e = [0] * width
            for i, k in enumerate(exp):
                e[positions[i]] = k
            terms[tuple(e)] = c
        return MultiPoly._of(registry, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[exp]
            mono = "·".join(
                f"{self.registry[i]}^{k}" if k > 1 else self.registry[i]
                for i, k in enumerate(exp)
                if k
            )
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            else:
                bits.append(f"({c})·{mono}")
        return " + ".join(bits)

    __repr__ = __str__


def monomials(nvars, degree):
    """All exponent tuples of the given total degree, lexicographically."""
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    if nvars == 1:
        yield (degree,)
        return
    for k in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - k):
            yield (k,) + rest


def count_monomials(nvars, degree):
    from math import comb

    return comb(nvars + degree - 1, degree)

