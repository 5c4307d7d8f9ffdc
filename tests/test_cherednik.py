"""Type C Dunkl operators, signed permutations, and the radial-side match."""

import itertools
import random
from fractions import Fraction

from spnil import cherednik
from spnil.field import FieldScalar, HALF, fs
from spnil.poly import MultiPoly, monomials
from spnil.splie import RootDatumC
from spnil.weylosc import weight_zero_scalar
from spnil.cherednik import (
    FormalRadialOperator,
    Params,
    SINGULAR,
    SignedPerm,
    build_Lc,
    check_hc_relation,
    dunkl_apply,
    dunkl_commute,
    h_registry,
    oscillator_radial_operator,
    radial_match,
    reflection,
    w_act,
)
from test_poly import divide_by_linear


def rand_params(rng):
    return Params.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                     Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def root_linear(root, registry):
    return MultiPoly.linear(registry, dict(enumerate(root.coeffs)))


def monomial(reg, exp):
    p = MultiPoly.constant(reg, fs(1))
    for k, e in enumerate(exp):
        for _ in range(e):
            p = p * MultiPoly.variable(reg, k)
    return p


def test_params_and_singular_values():
    assert SINGULAR == Params.of(Fraction(-1, 4), Fraction(-1, 2))
    assert SINGULAR.c_long == fs(Fraction(-1, 4))
    assert SINGULAR.c_short == fs(Fraction(-1, 2))
    datum = RootDatumC(2)
    for r in datum.roots:
        want = SINGULAR.c_long if r.length == "long" else SINGULAR.c_short
        assert SINGULAR.value(r) == want


def test_signed_perm_group_laws():
    rng = random.Random(801)
    n = 3
    reg = h_registry(n)

    def rand_w():
        perm = list(range(n))
        rng.shuffle(perm)
        return SignedPerm(tuple(perm),
                          tuple(rng.choice((-1, 1)) for _ in range(n)))

    for _ in range(10):
        w1, w2 = rand_w(), rand_w()
        assert w1.compose(w1.inverse()) == SignedPerm.identity(n)
        assert w1.inverse().compose(w1) == SignedPerm.identity(n)
        p = monomial(reg, (2, 1, 0)) + monomial(reg, (0, 0, 3))
        # compose acts like applying the right factor first
        assert w_act(w1.compose(w2), p) == w_act(w1, w_act(w2, p))


def test_reflection_table_rank_two():
    datum = RootDatumC(2)
    frozen = {
        ((0, 1, 2), (0, 1, 2)): ((1, 0), (-1, -1)),
        ((0, 1, 2), (0, -1, 2)): ((1, 0), (1, 1)),
        ((0, 1, 1), (0, 0, 1)): ((0, 1), (-1, 1)),
        ((0, 0, 1), (0, 1, 1)): ((0, 1), (1, -1)),
    }
    reg = h_registry(2)
    for r in datum.positive_roots:
        s = reflection(r)
        assert (s.perm, s.signs) == frozen[r.key()]
        assert s.compose(s) == SignedPerm.identity(2)
        lin = root_linear(r, reg)
        assert w_act(s, lin) == lin.scale(fs(-1))


def test_dunkl_closed_form_in_rank_one():
    reg = h_registry(1)
    rng = random.Random(802)
    for _ in range(5):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        par = Params.of(c, 0)
        for m in range(9):
            p = monomial(reg, (m,))
            out = dunkl_apply(0, p, par)
            if m == 0:
                assert out.is_zero()
                continue
            # T t^m = (m - c (1 - (-1)^m)) t^(m-1)
            coeff = Fraction(m) - c * (1 - (-1) ** m)
            assert out == monomial(reg, (m - 1,)).scale(fs(coeff))


def per_root_dunkl(direction, p, params):
    """T_y p summed root by root over the divided differences of p itself."""
    out = p.partial(direction)
    for root in RootDatumC(len(p.registry)).positive_roots:
        a_y = root.coeffs[direction]
        if not a_y:
            continue
        diff = p - w_act(reflection(root), p)
        if diff.is_zero():
            continue
        quot = divide_by_linear(diff, root_linear(root, p.registry))
        out = out - quot.scale(params.value(root) * a_y)
    return out


def test_dunkl_table_matches_per_root_sums():
    # dunkl_apply sums c T_y(t^e) from a per-monomial table
    rng = random.Random(806)
    root2 = Params.of(FieldScalar(0, 1), FieldScalar(Fraction(1, 3), Fraction(-1, 2)))
    for n in (1, 2, 3):
        reg = h_registry(n)
        couplings = (SINGULAR, rand_params(rng), root2)
        for _ in range(6):
            p = MultiPoly.zero(reg)
            for _ in range(rng.randint(1, 4)):
                exp = tuple(rng.randint(0, 3) for _ in range(n))
                c = fs(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                       Fraction(rng.randint(-2, 2), rng.randint(1, 5)))
                p = p + MultiPoly(reg, {exp: c})
            for direction in range(n):
                for prm in couplings:
                    assert dunkl_apply(direction, p, prm) == per_root_dunkl(direction, p, prm)


def test_dunkl_closed_form_matches_per_root_divided_differences():
    # the table writes T_y t^e down term by term; the oracle divides
    # t^e - s_a t^e by each root's linear form
    rng = random.Random(807)
    root2 = Params.of(FieldScalar(0, 1), FieldScalar(Fraction(1, 3), Fraction(-1, 2)))
    for n in (1, 2, 3, 4):
        reg = h_registry(n)
        for prm in (SINGULAR, rand_params(rng), root2):
            for deg in range(6):
                for exp in monomials(n, deg):
                    p = MultiPoly(reg, {exp: fs(1)})
                    for direction in range(n):
                        assert dunkl_apply(direction, p, prm) == per_root_dunkl(direction, p, prm)


def test_dunkl_table_keeps_couplings_and_results_apart():
    reg = h_registry(2)
    p = monomial(reg, (3, 1))
    a, b = SINGULAR, Params.of(Fraction(2, 3), FieldScalar(0, 1))
    out_a, out_b = dunkl_apply(0, p, a), dunkl_apply(0, p, b)
    assert out_a == per_root_dunkl(0, p, a)
    assert out_b == per_root_dunkl(0, p, b)
    assert out_a != out_b
    assert dunkl_apply(0, p, a) == out_a
    # a caller that edits a result must not reach the shared table
    out_a.terms.clear()
    out_b.terms[(0, 0)] = fs(7)
    assert dunkl_apply(0, p, a) == per_root_dunkl(0, p, a)
    assert dunkl_apply(0, p, b) == per_root_dunkl(0, p, b)
    scaled = dunkl_apply(0, p.scale(fs(3)), a)
    scaled.terms.clear()
    assert dunkl_apply(0, p, a) == per_root_dunkl(0, p, a)


def test_dunkl_lowers_degree_by_one():
    rng = random.Random(803)
    reg = h_registry(2)
    par = rand_params(rng)
    for _ in range(10):
        p = MultiPoly.zero(reg)
        for exp in monomials(2, rng.randint(1, 4)):
            p = p + monomial(reg, exp).scale(fs(rng.randint(-2, 2)))
        if p.is_zero():
            continue
        d = p.total_degree()
        for direction in (0, 1):
            out = dunkl_apply(direction, p, par)
            assert out.is_zero() or out.total_degree() == d - 1


def test_dunkl_operators_commute():
    rng = random.Random(804)
    for n in (1, 2):
        reg = h_registry(n)
        for deg in range(5):
            for exp in monomials(n, deg):
                p = monomial(reg, exp)
                for i, j in itertools.combinations(range(n), 2) if n > 1 else []:
                    assert dunkl_commute(i, j, p, SINGULAR)
                    assert dunkl_commute(i, j, p, rand_params(rng))


def test_degenerate_affine_relation():
    rng = random.Random(805)
    for n in (1, 2):
        reg = h_registry(n)
        for deg in range(4):
            for exp in monomials(n, deg):
                p = monomial(reg, exp)
                for x_idx in range(n):
                    for y_idx in range(n):
                        assert check_hc_relation(x_idx, y_idx, p, SINGULAR)
                        assert check_hc_relation(x_idx, y_idx, p,
                                                 rand_params(rng))


def test_hc_relation_reads_its_reflection_terms(monkeypatch):
    # with the sum over roots dropped, [T_y, t_x] = <x, y> no longer holds
    reg = h_registry(2)
    p = monomial(reg, (2, 1))
    assert all(check_hc_relation(x_idx, y_idx, p, SINGULAR)
               for x_idx in range(2) for y_idx in range(2))
    monkeypatch.setattr(cherednik, "_hc_terms", lambda *args: ())
    assert not all(check_hc_relation(x_idx, y_idx, p, SINGULAR)
                   for x_idx in range(2) for y_idx in range(2))


def test_build_Lc_structure():
    assert build_Lc(Params.of(0, 0), 2) == FormalRadialOperator(())
    for n in (1, 2, 3):
        op = build_Lc(SINGULAR, n)
        datum = RootDatumC(n)
        assert len(op.coeffs) == len(datum.positive_roots)
        by_key = dict(op.coeffs)
        for r in datum.positive_roots:
            c = SINGULAR.value(r)
            want = c * (c + fs(1)) * datum.pairing(r, r)
            assert by_key[r.key()] == want
            long_or_short = fs(Fraction(-3, 8)) if r.length == "long" \
                else fs(Fraction(-1, 4))
            assert by_key[r.key()] == long_or_short


def test_formal_radial_operator_drops_zero_coefficients():
    a = FormalRadialOperator.from_dict({"k1": fs(0), "k2": fs(1)})
    assert a == FormalRadialOperator((("k2", fs(1)),))


def test_per_root_vacuum_scalar_identity():
    for n in (1, 2, 3):
        datum = RootDatumC(n)
        for r in datum.positive_roots:
            c = SINGULAR.value(r)
            want = HALF * c * (c + fs(1)) * datum.pairing(r, r)
            assert weight_zero_scalar(n, r) == want


def test_radial_match_at_singular_coupling_only():
    for n in (1, 2, 3):
        assert radial_match(n)
        assert oscillator_radial_operator(n) != build_Lc(Params.of(0, 0), n)
