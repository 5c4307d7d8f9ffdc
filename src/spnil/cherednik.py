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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .field import FieldScalar, ONE, _scalar
from .poly import MultiPoly, _add_terms, divide_by_linear
from .splie import RootDatumC
from .weylosc import weight_zero_scalar


@dataclass(frozen=True)
class Params:
    """Coupling constants, one for each root length."""

    c_long: FieldScalar
    c_short: FieldScalar

    @classmethod
    def of(cls, c_long, c_short):
        return cls(_scalar(c_long), _scalar(c_short))

    def value(self, root):
        return self.c_long if root.length == "long" else self.c_short


SINGULAR = Params.of(Fraction(-1, 4), Fraction(-1, 2))


@dataclass(frozen=True)
class SignedPerm:
    """w sends t_i to signs[i] * t_perm[i]."""

    perm: tuple
    signs: tuple

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


def root_linear(root, registry):
    return MultiPoly.linear(registry, dict(enumerate(root.coeffs)))


@lru_cache(maxsize=None)
def _dunkl_monomial(direction, registry, exp, params):
    """T_y of the monomial t^exp, by the divided differences of each root.
    Shared table entry: callers copy it, never hand it out."""
    p = MultiPoly(registry, {exp: ONE})
    out = p.partial(direction)
    for root, s_a in _reflections(len(registry)):
        a_y = root.coeffs[direction]
        if not a_y:
            continue
        diff = p - w_act(s_a, p)
        if diff.is_zero():
            continue
        quot = divide_by_linear(diff, root_linear(root, registry))
        out = out - quot.scale(params.value(root) * a_y)
    return out


def dunkl_apply(direction, p, params):
    """Dunkl operator in coordinate direction e_direction applied to p: T_y
    is linear, so it is the sum of c T_y(t^e) over the terms c t^e of p."""
    return MultiPoly._of(p.registry, _add_terms({}, (
        (key, v if c == ONE else c * v)
        for exp, c in p.terms.items()
        for key, v in _dunkl_monomial(direction, p.registry, exp, params).terms.items())))


@lru_cache(maxsize=None)
def _hc_terms(n, x_idx, y_idx, params):
    """(s_a, c(a) <a, y> <x, a^dual>) over the positive roots a with <a, y>
    and <x, a> nonzero, where <x, a^dual> = 2 <x, a> / (a, a)."""
    return tuple(
        (s_a, params.value(root) * root.coeffs[y_idx]
         * (FieldScalar(2) * root.coeffs[x_idx] / RootDatumC.pairing(root, root)))
        for root, s_a in _reflections(n)
        if root.coeffs[y_idx] and root.coeffs[x_idx])


def check_hc_relation(x_idx, y_idx, p, params):
    """[T_y, t_x] = <x, y> - sum_a c(a) <a, y> <x, a^dual> s_a, applied to p."""
    x_poly = MultiPoly.variable(p.registry, x_idx)
    lhs = dunkl_apply(y_idx, x_poly * p, params) - x_poly * dunkl_apply(y_idx, p, params)
    rhs = p if x_idx == y_idx else MultiPoly.zero(p.registry)
    for s_a, coeff in _hc_terms(len(p.registry), x_idx, y_idx, params):
        rhs = rhs - w_act(s_a, p).scale(coeff)
    return lhs == rhs


def dunkl_commute(i_idx, j_idx, p, params):
    ij = dunkl_apply(i_idx, dunkl_apply(j_idx, p, params), params)
    ji = dunkl_apply(j_idx, dunkl_apply(i_idx, p, params), params)
    return ij == ji


@dataclass(frozen=True)
class FormalRadialOperator:
    """Laplacian minus a sum of coeff/alpha^2 over merged +-root pairs.

    Coefficients are keyed by the positive representative's coordinate key;
    zero coefficients are dropped, so equality is structural.
    """

    coeffs: tuple  # sorted tuple of (root key, FieldScalar)

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
