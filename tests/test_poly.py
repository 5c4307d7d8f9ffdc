"""Sparse multivariate polynomials over the quadratic field."""

import random
from fractions import Fraction
from operator import add

import pytest

from spnil.field import FieldScalar, ONE, fs
from spnil.poly import (MultiPoly, _add_terms, _int_parts, _pack, _unpack, count_monomials, grlex_key,
                        monomials)

REG = ("a", "b", "c")


def rand_poly(rng, registry=REG, terms=4, dmax=3):
    p = MultiPoly.zero(registry)
    for _ in range(terms):
        exp = tuple(rng.randint(0, dmax) for _ in registry)
        c = fs(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        p = p + MultiPoly(registry, {exp: c})
    return p


def rand_point(rng, registry=REG):
    return [fs(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) for _ in registry]


def test_zero_and_constant():
    z = MultiPoly.zero(REG)
    assert z.is_zero()
    one = MultiPoly.constant(REG, ONE)
    assert one.eval([FieldScalar(5)] * 3) == ONE


def test_variable_and_eval():
    b = MultiPoly.variable(REG, 1)
    assert b.eval([FieldScalar(2), FieldScalar(7), FieldScalar(-1)]) == FieldScalar(7)


def test_linear_form_sums_its_scaled_variables():
    lin = MultiPoly.linear(REG, {0: 2, 2: Fraction(-1, 3), 1: 0})
    assert lin == MultiPoly.variable(REG, 0).scale(2) - MultiPoly.variable(REG, 2).scale(
        Fraction(1, 3))
    assert (1, 0, 0) in lin.terms and (0, 1, 0) not in lin.terms
    assert MultiPoly.linear(REG, {}).is_zero()
    with pytest.raises(TypeError):
        MultiPoly.linear(REG, {0: 0.5})


def test_product_evaluates_pointwise():
    rng = random.Random(91)
    for _ in range(25):
        p, q = rand_poly(rng), rand_poly(rng)
        pt = rand_point(rng)
        assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)
        assert (p + q).eval(pt) == p.eval(pt) + q.eval(pt)


def test_partial_satisfies_leibniz():
    rng = random.Random(92)
    for _ in range(15):
        p, q = rand_poly(rng), rand_poly(rng)
        for v in range(3):
            lhs = (p * q).partial(v)
            rhs = p.partial(v) * q + p * q.partial(v)
            assert lhs == rhs


def test_total_degree_and_homogeneity():
    a = MultiPoly.variable(REG, 0)
    b = MultiPoly.variable(REG, 1)
    p = a * a * b + b * b * b
    assert p.total_degree() == 3
    assert p.is_homogeneous()
    assert not (p + a).is_homogeneous()


def divide_by_linear(p, l):
    """Exact quotient p / l for homogeneous linear l; raises if not divisible.
    The oracle of the per-root Dunkl sums in test_cherednik."""
    if l.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if l.total_degree() != 1 or not l.is_homogeneous():
        raise ValueError("divisor must be homogeneous linear")
    if p.registry != l.registry:
        raise ValueError("registry mismatch")
    piv_exp = max(l.terms, key=grlex_key)
    piv = piv_exp.index(1)
    inv = l.terms[piv_exp].inverse()
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


def test_divide_by_linear_recovers_factor():
    rng = random.Random(93)
    lin = MultiPoly.variable(REG, 0) - MultiPoly.variable(REG, 2).scale(FieldScalar(3))
    for _ in range(20):
        p = rand_poly(rng)
        assert divide_by_linear(p * lin, lin) == p


def test_divide_by_linear_rejects_nondivisible():
    a = MultiPoly.variable(REG, 0)
    b = MultiPoly.variable(REG, 1)
    with pytest.raises(ValueError, match="not divisible"):
        divide_by_linear(a * a + b, a - b)


def test_embed_into_larger_registry():
    big = ("a", "b", "c", "d", "e")
    a = MultiPoly.variable(REG, 0)
    c = MultiPoly.variable(REG, 2)
    p = a * c + c.scale(FieldScalar(2))
    q = p.embed(big, [0, 2, 4])
    pt = [fs(3), fs(0), fs(5), fs(0), fs(7)]
    assert q.eval(pt) == p.eval([fs(3), fs(5), fs(7)])


def test_monomial_counts():
    # monomials of degree d in k variables: C(d + k - 1, k - 1)
    assert count_monomials(3, 0) == 1
    assert count_monomials(3, 2) == 6
    assert count_monomials(6, 2) == 21
    assert count_monomials(2, 5) == 6
    for nvars, d in ((2, 3), (3, 4)):
        assert len(list(monomials(nvars, d))) == count_monomials(nvars, d)


def test_coefficient_lookup():
    a = MultiPoly.variable(REG, 0)
    b = MultiPoly.variable(REG, 1)
    p = a * b.scale(FieldScalar(Fraction(5, 2)))
    assert p.coefficient((1, 1, 0)) == fs(Fraction(5, 2))
    assert p.coefficient((2, 0, 0)) == FieldScalar(0)


def test_int_fraction_and_field_scalars_as_operands():
    x = MultiPoly.variable(("t1",), 0)
    half = Fraction(1, 2)
    for c, as_field in ((3, fs(3)), (half, fs(half)), (fs(half, 1), fs(half, 1))):
        const = MultiPoly.constant(x.registry, as_field)
        assert x * c == x.scale(as_field) == c * x
        assert x + c == x + const
        assert x - c == x - const
    assert (x + half) - half == x
    for bad in (0.5, None):
        for op in (lambda: x * bad, lambda: bad * x, lambda: x + bad, lambda: x - bad):
            with pytest.raises(TypeError):
                op()


def test_add_terms_updates_in_place_and_drops_zero_sums():
    acc = {"a": fs(1), "b": 2}
    items = [("a", fs(-1)), ("b", fs(1)), ("c", 0), ("d", fs(0)),
             ("e", 5), ("b", 1), ("f", 3), ("f", -3)]
    assert _add_terms(acc, iter(items)) is acc
    # "a" cancelled and was deleted, the zeros "c" and "d" never went in,
    # "f" went in and cancelled; int + FieldScalar sums are FieldScalars
    assert acc == {"b": fs(4), "e": 5}
    assert type(acc["b"]) is FieldScalar and type(acc["e"]) is int
    assert _add_terms(acc, [("a", fs(2)), ("e", -5)]) == {"b": fs(4), "a": fs(2)}
    assert _add_terms({}, []) == {}


def test_packed_keys_round_trip_order_as_tuples_and_add_as_exponents():
    rng = random.Random(26)
    for width in (1, 2, 4, 8):
        exps = [tuple(rng.choice((0, 1, 2, 7, 2 ** 31, 2 ** 32 - 1)) for _ in range(width))
                for _ in range(30)]
        for e in exps:
            assert _unpack(_pack(e), width) == e
        assert sorted(exps, key=_pack) == sorted(exps)
        small = [tuple(rng.randint(0, 9) for _ in range(width)) for _ in range(30)]
        for a, b in zip(small, small[1:]):
            assert _unpack(_pack(a) + _pack(b), width) == tuple(x + y for x, y in zip(a, b))


def test_int_parts_clears_each_coefficient_over_one_denominator():
    items = [
        ("a", 1, fs(Fraction(1, 2))),
        ("b", 2, fs(Fraction(-2, 3), Fraction(5, 4))),
        ("a", 3, fs(0, Fraction(-1, 6))),   # sqrt2 only: lands in root2 only
        ("a", 4, fs(7)),
        ("c", 5, fs(Fraction(3, 4), 2)),
    ]
    d, (rational, root2) = _int_parts(items)
    assert d == 12
    # zero parts are skipped, and terms keep their order within a slot
    assert rational == {"a": [(1, 6), (4, 84)], "b": [(2, -8)], "c": [(5, 9)]}
    assert root2 == {"a": [(3, -2)], "b": [(2, 15)], "c": [(5, 24)]}
    for slot, key, c in items:
        p = dict(rational.get(slot, [])).get(key, 0)
        q = dict(root2.get(slot, [])).get(key, 0)
        assert FieldScalar._raw(p, q, d) == c
    # random coefficients give back every c
    rng = random.Random(29)
    items = [(rng.randrange(3), k, fs(Fraction(rng.randint(-9, 9), rng.randint(1, 8)),
                                      Fraction(rng.randint(-9, 9), rng.randint(1, 8))))
             for k in range(40)]
    items = [t for t in items if t[2]]
    d, (rational, root2) = _int_parts(items)
    assert d > 1
    for part in (rational, root2):
        assert all(v for terms in part.values() for _, v in terms)
        for slot, terms in part.items():
            keys = [k for k, _ in terms]
            assert keys == sorted(keys)
    for slot, key, c in items:
        p = dict(rational.get(slot, [])).get(key, 0)
        q = dict(root2.get(slot, [])).get(key, 0)
        assert FieldScalar._raw(p, q, d) == c
    assert _int_parts([]) == (1, ({}, {}))
