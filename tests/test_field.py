"""Exact arithmetic in Q(sqrt2): normalization, operators, rendering."""

import random
import sys
from fractions import Fraction

import pytest

from spnil.field import FieldScalar, ONE, HALF, SQRT2, fs


def rand_scalar(rng):
    return fs(
        Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
        Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
    )


def test_construction_normalizes():
    assert FieldScalar(Fraction(2, 4)) == HALF
    assert FieldScalar(3) == fs(3, 0)
    assert fs(Fraction(4, 6), Fraction(-2, 8)) == fs(Fraction(2, 3), Fraction(-1, 4))
    assert not FieldScalar(0)
    assert ONE


def test_int_and_fraction_coercion():
    assert HALF + 1 == fs(Fraction(3, 2))
    assert 2 * SQRT2 == fs(0, 2)
    assert SQRT2 - Fraction(1, 2) == fs(Fraction(-1, 2), 1)
    assert HALF * Fraction(2, 3) == fs(Fraction(1, 3))


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == FieldScalar(2)
    assert (ONE + SQRT2) * (-ONE + SQRT2) == ONE


def test_inverse_of_one_plus_sqrt2():
    assert ONE / (ONE + SQRT2) == -ONE + SQRT2


def test_string_rendering():
    assert str(fs(Fraction(-3, 16))) == "-3/16"
    assert str(SQRT2) == "√2"
    assert str(ONE + SQRT2) == "1+√2"
    assert str(fs(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3√2"
    assert str(fs(0, Fraction(1, 2))) == "1/2√2"
    assert str(fs(0)) == "0"


def test_sign_is_exact():
    # 99/70 > sqrt2 > 41/29, so the sign sees through close rational fences
    assert (fs(Fraction(99, 70)) - SQRT2).sign() == 1
    assert (fs(Fraction(41, 29)) - SQRT2).sign() == -1
    assert fs(0).sign() == 0


def test_conjugate_fixes_rational_part():
    a = fs(Fraction(3, 7), Fraction(-2, 5))
    assert a.conjugate() == fs(Fraction(3, 7), Fraction(2, 5))
    assert (a * a.conjugate()).is_rational()


def test_field_axioms_on_random_scalars():
    rng = random.Random(20240)
    for _ in range(200):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert a * (b * c) == (a * b) * c
        assert a - a == FieldScalar(0)
        if b:
            assert (a * b) / b == a
            assert b * b.inverse() == ONE


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / FieldScalar(0)


def test_rational_accessors():
    a = fs(Fraction(3, 4), Fraction(-1, 6))
    assert a.rational_part == Fraction(3, 4)
    assert a.root2_part == Fraction(-1, 6)
    assert not a.is_rational()
    assert fs(Fraction(5, 9)).is_rational()


def test_hashable_and_usable_as_dict_key():
    d = {HALF: "h", SQRT2: "s"}
    assert d[fs(Fraction(1, 2))] == "h"
    assert d[fs(0, 1)] == "s"


def test_rational_scalars_hash_as_the_numbers_they_equal():
    # == already holds between a rational scalar and its int or Fraction, so
    # sets and dict lookups must treat them as one key
    for value in (0, 2, -7, 10 ** 30, Fraction(1, 2), Fraction(-5, 12)):
        s = FieldScalar(value)
        assert s == value and hash(s) == hash(value)
        assert len({s, value}) == 1
        assert {value: "a"}.get(s) == "a"
        assert {s: "a"}.get(value) == "a"
    # an irrational scalar equals no rational, and its hash stays structural
    assert hash(fs(1, 1)) == hash((1, 1, 1))
    assert fs(Fraction(1, 2), 3) != Fraction(1, 2)


def test_rational_hash_is_the_fraction_hash_without_a_fraction():
    modulus = sys.hash_info.modulus
    rng = random.Random(31)
    cases = [(p, q) for p in range(-50, 51) for q in range(2, 60)]
    cases += [(rng.randint(-10 ** 40, 10 ** 40), rng.randint(2, 10 ** 40)) for _ in range(2000)]
    # no inverse modulo the modulus: the hash is +-inf
    cases += [(p, modulus * k) for p in (1, -1, 7, -3, modulus + 2) for k in (1, 2, 5)]
    # -1/(modulus + 1) hashes as -1, which CPython reserves, so as -2
    cases.append((-1, modulus + 1))
    for p, q in cases:
        assert hash(FieldScalar(Fraction(p, q))) == hash(Fraction(p, q)), (p, q)
    assert abs(hash(FieldScalar(Fraction(1, modulus)))) == sys.hash_info.inf
    assert hash(FieldScalar(Fraction(-1, modulus + 1))) == -2


def test_floats_are_refused():
    # a float such as 0.1 is not the rational it prints as, so nothing
    # converts one silently: construction refuses it like the operators do
    from spnil.splie import MatF

    for make in (lambda: FieldScalar(0.1), lambda: FieldScalar(0, 0.5),
                 lambda: fs(0.25), lambda: MatF([[0.1]]),
                 lambda: ONE + 0.5, lambda: 0.5 * ONE):
        with pytest.raises(TypeError):
            make()


def kernel_scalars(rng):
    """Integers (negative, zero, past 2**64), mixed denominators and sqrt2."""
    big = 2 ** 64
    out = [FieldScalar(0), FieldScalar(-7), FieldScalar(big + 3),
           FieldScalar(-5 * big, big + 1), SQRT2, fs(0, -3), HALF]
    for _ in range(12):
        out.append(FieldScalar(rng.randint(-4 * big, 4 * big),
                               rng.choice((0, rng.randint(-big, big)))))
        out.append(FieldScalar(rng.randint(-9, 9), rng.randint(-3, 3)))
        out.append(rand_scalar(rng))
    return out


def test_operators_match_the_normalising_constructor():
    # integer operands skip the gcd; the triple must be the one _raw makes
    # from the general formulas, so equality and hashing cannot tell
    rng = random.Random(20241)
    scalars = kernel_scalars(rng)
    for p, q in ((0, 0), (-7, 3), (2 ** 70, -(2 ** 65)), (1, 0)):
        s = FieldScalar(p, q)
        want = FieldScalar(Fraction(p), Fraction(q))
        assert (s.an, s.bn, s.den) == (want.an, want.bn, want.den)
    for a in scalars:
        assert (-a).__class__ is FieldScalar
        want = FieldScalar._raw(-a.an, -a.bn, a.den)
        assert ((-a).an, (-a).bn, (-a).den) == (want.an, want.bn, want.den)
        for b in scalars + [3, -2 ** 70, Fraction(-5, 6), 0]:
            o = b if isinstance(b, FieldScalar) else FieldScalar(b)
            cases = (
                (a + b, (a.an * o.den + o.an * a.den, a.bn * o.den + o.bn * a.den)),
                (b + a, (a.an * o.den + o.an * a.den, a.bn * o.den + o.bn * a.den)),
                (a - b, (a.an * o.den - o.an * a.den, a.bn * o.den - o.bn * a.den)),
                (b - a, (o.an * a.den - a.an * o.den, o.bn * a.den - a.bn * o.den)),
                (a * b, (a.an * o.an + 2 * a.bn * o.bn, a.an * o.bn + a.bn * o.an)),
                (b * a, (a.an * o.an + 2 * a.bn * o.bn, a.an * o.bn + a.bn * o.an)),
            )
            for got, (an, bn) in cases:
                want = FieldScalar._raw(an, bn, a.den * o.den)
                assert (got.an, got.bn, got.den) == (want.an, want.bn, want.den)
                assert got == want and hash(got) == hash(want)
