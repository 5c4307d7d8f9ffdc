"""Sparse multivariate polynomials over Q(sqrt2).

A polynomial carries an immutable variable registry (a tuple of names) and a
dict mapping dense exponent tuples (length = registry size) to nonzero
FieldScalar coefficients.  Monomial comparisons use graded lexicographic
order: compare total degree first, then the exponent tuple lexicographically.
"""

from operator import add

from .field import FieldScalar, ONE

_ZERO = FieldScalar(0)


def grlex_key(exp):
    return (sum(exp), exp)


def _scalar(c):
    """c as a FieldScalar; anything but an int, Fraction or FieldScalar is
    refused, so term dicts hold field scalars only."""
    s = FieldScalar._coerce(c)
    if s is None:
        raise TypeError(f"coefficient {c!r} is not an exact scalar of Q(sqrt2)")
    return s


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


class MultiPoly:
    __slots__ = ("registry", "terms")

    def __init__(self, registry, terms=None):
        self.registry = tuple(registry)
        clean = {}
        if terms:
            width = len(self.registry)
            for exp, c in terms.items():
                if len(exp) != width:
                    raise ValueError("exponent width does not match registry")
                c = _scalar(c)
                if c:
                    clean[tuple(exp)] = c
        self.terms = clean

    @classmethod
    def _of(cls, registry, terms):
        """Trusted constructor: registry is a tuple and terms hold nonzero
        FieldScalars on exponent tuples of its width."""
        p = object.__new__(cls)
        p.registry = registry
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, registry):
        return cls(registry)

    @classmethod
    def constant(cls, registry, c):
        return cls(registry, {(0,) * len(tuple(registry)): c})

    @classmethod
    def variable(cls, registry, idx):
        registry = tuple(registry)
        exp = [0] * len(registry)
        exp[idx] = 1
        return cls(registry, {tuple(exp): ONE})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        """Maximal term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading(self):
        """(exponent, coefficient) of the graded-lex largest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=grlex_key)
        return exp, self.terms[exp]

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), _ZERO)

    def _check(self, other):
        if self.registry != other.registry:
            raise ValueError("registry mismatch")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            c = FieldScalar._coerce(other)
            if c is None:
                return NotImplemented
            other = MultiPoly.constant(self.registry, c)
        self._check(other)
        return MultiPoly._of(self.registry, _add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MultiPoly._of(self.registry, {e: -c for e, c in self.terms.items()})

    def scale(self, c):
        c = _scalar(c)
        if not c:
            return MultiPoly(self.registry)
        return MultiPoly._of(self.registry, {e: c * v for e, v in self.terms.items()})

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

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = MultiPoly.constant(self.registry, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.registry == other.registry and self.terms == other.terms

    def __hash__(self):
        return hash((self.registry, frozenset(self.terms.items())))

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
                    v = v * values[i] ** k
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


def divide_by_linear(p, l):
    """Exact quotient p / l for homogeneous linear l; raises if not divisible."""
    if l.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if l.total_degree() != 1 or not l.is_homogeneous():
        raise ValueError("divisor must be homogeneous linear")
    if p.registry != l.registry:
        raise ValueError("registry mismatch")
    piv_exp, piv_coef = l.leading()
    piv = piv_exp.index(1)
    inv = piv_coef.inverse()
    quot = {}
    rem = dict(p.terms)
    while rem:
        exp = max(rem, key=grlex_key)
        if exp[piv] == 0:
            raise ValueError("polynomial is not divisible by the given linear form")
        c = rem[exp] * inv
        qexp = list(exp)
        qexp[piv] -= 1
        qexp = tuple(qexp)
        # exp leads rem and is the leading term of qexp * l, so subtracting
        # c * qexp * l lowers the lead of rem: each qexp comes up once
        quot[qexp] = c
        _add_terms(rem, ((tuple(map(add, qexp, lexp)), -c * lc) for lexp, lc in l.terms.items()))
    return MultiPoly._of(p.registry, quot)
