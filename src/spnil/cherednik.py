"""Dunkl-type operators for the hyperoctahedral group W = (Z/2)^n x| S_n.

Polynomials live on the Cartan subalgebra in coordinates t_1..t_n dual to the
orthonormal basis r_i, so the type-C roots act through signed permutations:
long roots flip one sign, short roots swap two coordinates with or without a
double sign flip.  The coupling constant is one value per root length.

The Dunkl operator in direction y is

    T_y p = d_y p - sum_(a > 0) c(a) <a, y> (p - s_a p)/a,

equal to the all-roots form with a 1/2 prefactor because the a and -a
summands agree.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .field import FieldScalar, ONE, _scalar
from .poly import MultiPoly, _add_terms
from .splie import RootDatumC
from .weylosc import weight_zero_scalar


class Params(namedtuple("Params", "c_long c_short")):
    """Coupling constants, one for each root length: FieldScalars."""

    __slots__ = ()

    @classmethod
    def of(cls, c_long, c_short):
        return cls(_scalar(c_long), _scalar(c_short))

    def value(self, root):
        return self.c_long if root.length == "long" else self.c_short


SINGULAR = Params.of(Fraction(-1, 4), Fraction(-1, 2))


class SignedPerm(namedtuple("SignedPerm", "perm signs")):
    """w sends t_i to signs[i] * t_perm[i]; perm and signs are tuples."""

    __slots__ = ()

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(n)), (1,) * n)

    def compose(self, other):
        """self after other: act(compose(self, other)) = act(self) o act(other)."""
        n = len(self.perm)
        if len(other.perm) != n:
            raise ValueError("rank mismatch")
        perm = tuple(self.perm[other.perm[i]] for i in range(n))
        signs = tuple(other.signs[i] * self.signs[other.perm[i]] for i in range(n))
        return SignedPerm(perm, signs)

    def inverse(self):
        n = len(self.perm)
        perm = [0] * n
        signs = [1] * n
        for i in range(n):
            perm[self.perm[i]] = i
            signs[self.perm[i]] = self.signs[i]
        return SignedPerm(tuple(perm), tuple(signs))


def w_act(w, p):
    """Action on polynomials: t_i -> signs[i] t_perm[i], extended to terms.
    A signed permutation sends distinct monomials to distinct monomials, so
    each term lands on its own key."""
    n = len(p.registry)
    if len(w.perm) != n:
        raise ValueError("rank mismatch")
    terms = {}
    for exp, c in p.terms.items():
        out = [0] * n
        flip = 1
        for i, e in enumerate(exp):
            if e:
                out[w.perm[i]] = e
                if w.signs[i] < 0 and e % 2:
                    flip = -flip
        terms[tuple(out)] = c if flip > 0 else -c
    return MultiPoly._of(p.registry, terms)


def reflection(root):
    """The reflection s_a as a signed permutation."""
    n = len(root.coeffs)
    support = [i for i, c in enumerate(root.coeffs) if c]
    if len(support) == 1:
        signs = [1] * n
        signs[support[0]] = -1
        return SignedPerm(tuple(range(n)), tuple(signs))
    if len(support) == 2:
        i, j = support
        perm = list(range(n))
        perm[i], perm[j] = j, i
        signs = [1] * n
        if root.coeffs[i].sign() == root.coeffs[j].sign():
            signs[i] = signs[j] = -1
        return SignedPerm(tuple(perm), tuple(signs))
    raise ValueError("not a type-C root")


def h_registry(n):
    return tuple(f"t{i+1}" for i in range(n))


@lru_cache(maxsize=None)
def _datum(n):
    return RootDatumC(n)


@lru_cache(maxsize=None)
def _reflections(n):
    """Each positive root of type C_n with its reflection s_a."""
    return tuple((root, reflection(root)) for root in _datum(n).positive_roots)


@lru_cache(maxsize=None)
def _dunkl_monomial(direction, registry, exp, params):
    """T_y of the monomial t^exp for y = e_direction, written down term by
    term from the closed form of each divided difference (Dunkl 1989).

    With i = direction and e = exp, d_y t^e and the long root sqrt2 r_i both
    land on t^(e - delta_i): (t^e - s_a t^e)/(sqrt2 t_i) is sqrt2 t^(e - delta_i)
    for odd e_i and 0 for even, and <a, y> = sqrt2.  A short root a and -a
    give the same summand, so take a = (r_i + sigma r_j)/sqrt2, with
    <a, y> = 1/sqrt2.  Put X = t_i and Y = -sigma t_j: s_a swaps X and Y, the
    root's linear form is (X - Y)/sqrt2, and with u = e_i, v = e_j,
    m = min(u, v) and the rest R of the monomial the quotient is
    sqrt2 (-sigma)^v R (X^u Y^v - X^v Y^u)/(X - Y), where the fraction is
    sign(u - v) X^m Y^m (X^|u-v| - Y^|u-v|)/(X - Y).  Its term t_i^(u+v-1-l)
    t_j^l (m <= l < max(u, v)) carries (-sigma)^(v+l), so the sigma = +-1
    pair adds -2 sign(u - v) c_short to it when l - v is even and cancels
    when it is odd.  Each coefficient is k + L c_long + S c_short for
    integers k, L, S.  Shared table entry: callers copy it, never hand it out.
    """
    i = direction
    u = exp[i]
    acc = {}
    if u:
        acc[exp[:i] + (u - 1,) + exp[i + 1:]] = [u, -2 if u % 2 else 0, 0]
    for j, v in enumerate(exp):
        if j == i or v == u:
            continue
        sign = 1 if u > v else -1
        m = min(u, v)
        for l in range(m + (m - v) % 2, max(u, v), 2):
            key = list(exp)
            key[i], key[j] = u + v - 1 - l, l
            key = tuple(key)
            ints = acc.get(key)
            if ints is None:
                acc[key] = [0, 0, -2 * sign]
            else:
                ints[2] -= 2 * sign
    c_long, c_short = params.c_long, params.c_short
    terms = {}
    for key, (k, long_, short) in acc.items():
        c = FieldScalar(k) + c_long * long_ + c_short * short
        if c:
            terms[key] = c
    return MultiPoly._of(registry, terms)


def dunkl_apply(direction, p, params):
    """Dunkl operator in coordinate direction e_direction applied to p: T_y
    is linear, so it is the sum of c T_y(t^e) over the terms c t^e of p."""
    return MultiPoly._of(p.registry, _add_terms({}, (
        (key, v if c == ONE else c * v)
        for exp, c in p.terms.items()
        for key, v in _dunkl_monomial(direction, p.registry, exp, params).terms.items())))


@lru_cache(maxsize=None)
def _hc_terms(n, x_idx, y_idx, params):
    """(s_a, -c(a) <a, y> <x, a^dual>) over the positive roots a with <a, y>
    and <x, a> nonzero, where <x, a^dual> = 2 <x, a> / (a, a)."""
    return tuple(
        (s_a, -(params.value(root) * root.coeffs[y_idx]
                * (FieldScalar(2) * root.coeffs[x_idx] / RootDatumC.pairing(root, root))))
        for root, s_a in _reflections(n)
        if root.coeffs[y_idx] and root.coeffs[x_idx])


def check_hc_relation(x_idx, y_idx, p, params):
    """[T_y, t_x] = <x, y> - sum_a c(a) <a, y> <x, a^dual> s_a, applied to p.
    The right-hand side is summed over all roots in one dict."""
    x_poly = MultiPoly.variable(p.registry, x_idx)
    lhs = dunkl_apply(y_idx, x_poly * p, params) - x_poly * dunkl_apply(y_idx, p, params)
    rhs = _add_terms(dict(p.terms) if x_idx == y_idx else {}, (
        (key, coeff * c)
        for s_a, coeff in _hc_terms(len(p.registry), x_idx, y_idx, params)
        for key, c in w_act(s_a, p).terms.items()))
    return lhs.terms == rhs


def dunkl_commute(i_idx, j_idx, p, params):
    ij = dunkl_apply(i_idx, dunkl_apply(j_idx, p, params), params)
    ji = dunkl_apply(j_idx, dunkl_apply(i_idx, p, params), params)
    return ij == ji


class FormalRadialOperator(namedtuple("FormalRadialOperator", "coeffs")):
    """Laplacian minus a sum of coeff/alpha^2 over merged +-root pairs.

    coeffs is the sorted tuple of (root key, FieldScalar), keyed by the
    positive representative's coordinate key; zero coefficients are
    dropped, so equality is structural.
    """

    __slots__ = ()

    @classmethod
    def from_dict(cls, coeff_dict):
        return cls(tuple(sorted((k, v) for k, v in coeff_dict.items() if v)))


def build_Lc(params, n):
    """Radial side of the spherical Calogero-Moser operator at coupling c:
    Delta - sum over +- pairs of c(a)(c(a)+1)(a,a)/a^2."""
    coeffs = {}
    for root in _datum(n).positive_roots:
        c = params.value(root)
        coeffs[root.key()] = c * (c + 1) * RootDatumC.pairing(root, root)
    return FormalRadialOperator.from_dict(coeffs)


def oscillator_radial_operator(n):
    """Delta minus the vacuum-line scalars of theta1(e_a) theta1(e_-a),
    summed over all roots and merged over +- pairs."""
    datum = _datum(n)
    return FormalRadialOperator.from_dict({
        root.key(): weight_zero_scalar(n, root) + weight_zero_scalar(n, datum.opposite(root))
        for root in datum.positive_roots})


def radial_match(n):
    """The oscillator scalars reproduce the radial operator exactly at the
    coupling (-1/4, -1/2)."""
    return oscillator_radial_operator(n) == build_Lc(SINGULAR, n)
