"""Weyl algebra, quadratic co-moment, vector fields, oscillator module."""

import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from spnil.field import FieldScalar, HALF, ONE, fs
from spnil.poly import _int_pairs, _pack
from spnil.splie import MatF, RootDatumC, bracket, omega, raw_square, sp_basis, sp_dim
from spnil.weylosc import (
    LinearVectorField,
    OscVector,
    WeylElement,
    _exchange,
    _monomial,
    classical_comoment,
    osc_apply,
    symmetrize_quadratic,
    theta0,
    theta1,
    v_registry,
    weight_zero_scalar,
)


def test_normal_ordering_relation():
    x = WeylElement.xgen(1, 0)
    y = WeylElement.ygen(1, 0)
    assert (x * y).terms == {((1,), (1,)): ONE}
    # y x reorders to x y + 1
    assert y * x == x * y + WeylElement.one(1)
    assert x.commutator(y) == WeylElement.one(1).scale(fs(-1))


def test_theta1_rank_one_table():
    h, e, f = sp_basis(1)
    x = WeylElement.xgen(1, 0)
    y = WeylElement.ygen(1, 0)
    assert theta1(h) == x * y + WeylElement.constant(1, HALF)
    assert theta1(e) == (x * x).scale(HALF)
    assert theta1(f) == (y * y).scale(-HALF)
    # the commutator of the two parabolas recovers the diagonal image
    assert theta1(e).commutator(theta1(f)) == theta1(bracket(e, f))
    assert bracket(e, f).entries == h.entries


def test_theta1_is_a_lie_homomorphism():
    for n in (1, 2):
        basis = sp_basis(n)
        images = [theta1(b) for b in basis]
        for (a, ta), (b, tb) in itertools.combinations(zip(basis, images), 2):
            assert ta.commutator(tb) == theta1(bracket(a, b))


def test_theta1_images_are_even_quadratics():
    for n in (1, 2):
        for b in sp_basis(n):
            t = theta1(b)
            assert t.is_even()
            assert t.order() <= 2
            assert t.total_degree() <= 2


def test_theta1_agrees_with_symmetrized_classical_comoment():
    rng = random.Random(601)
    for n in (1, 2):
        basis = sp_basis(n)
        for b in basis:
            assert symmetrize_quadratic(classical_comoment(b)) == theta1(b)
        # also on a few random sp elements, by linearity of both routes
        for _ in range(3):
            m = MatF.zero(2 * n)
            for b in basis:
                m = m + b.scale(fs(Fraction(rng.randint(-2, 2))))
            assert symmetrize_quadratic(classical_comoment(m)) == theta1(m)


def test_classical_comoment_shape():
    n = 2
    reg = v_registry(n)
    assert len(reg) == 2 * n
    for b in sp_basis(n):
        p = classical_comoment(b)
        assert p.registry == reg
        assert p.is_zero() or (p.is_homogeneous() and p.total_degree() == 2)


def test_theta0_is_a_lie_homomorphism():
    for n in (1, 2):
        basis = sp_basis(n)
        images = [theta0(b) for b in basis]
        for (a, ta), (b, tb) in itertools.combinations(zip(basis, images), 2):
            assert ta.commutator(tb) == theta0(bracket(a, b))
        assert theta0(MatF.zero(2 * n)).mat == MatF.zero(sp_dim(n))


def rand_scalar(rng):
    return fs(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-1, 1))


def per_index_terms(p, q):
    """Terms of the normal-ordered p * q, exchanging y^b with x^c one index at
    a time and accumulating FieldScalar sums; a coefficient that cancels is
    dropped at once."""
    n = p.n
    acc = {}
    for (a, b), c1 in p.terms.items():
        for (c, d), c2 in q.terms.items():
            partial = [((), (), 1)]
            for i in range(n):
                opts = [(k, factorial(k) * comb(b[i], k) * comb(c[i], k))
                        for k in range(min(b[i], c[i]) + 1)]
                partial = [(xs + (c[i] - k,), ys + (b[i] - k,), w * wk)
                           for xs, ys, w in partial for k, wk in opts]
            for xs, ys, w in partial:
                key = (tuple(u + v for u, v in zip(a, xs)),
                       tuple(u + v for u, v in zip(ys, d)))
                s = acc.get(key, FieldScalar(0)) + c1 * c2 * fs(w)
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
    return acc


def per_index_product(p, q):
    return WeylElement(p.n, per_index_terms(p, q))


def test_weyl_product_matches_per_index_expansion():
    rng = random.Random(611)
    for n in (1, 2, 3):
        basis = sp_basis(n)

        def rand_image():
            m = MatF.zero(2 * n)
            for b in basis:
                m = m + b.scale(rand_scalar(rng))
            return theta1(m)

        for _ in range(3):
            u, v, w = rand_image(), rand_image(), rand_image()
            uv = u * v
            assert uv == per_index_product(u, v)
            assert uv * w == per_index_product(uv, w)
            assert w * uv == per_index_product(w, uv)
            assert uv.commutator(w) == per_index_product(uv, w) - per_index_product(w, uv)


def test_integer_pair_product_stores_the_fieldscalar_sums():
    # products accumulate integer pairs over one denominator per operand; the
    # stored terms must be exactly the FieldScalar sums, with no zero kept
    rng = random.Random(613)
    third, fifth_root2 = fs(Fraction(1, 3)), fs(0, Fraction(1, 5))
    for n in (1, 2, 3):
        basis = sp_basis(n)
        x = [WeylElement.xgen(n, i) for i in range(n)]
        y = [WeylElement.ygen(n, i) for i in range(n)]
        mixed = [x[0].scale(HALF) + y[-1].scale(third) + WeylElement.constant(n, fifth_root2),
                 (x[-1] * y[0]).scale(fifth_root2) - x[0].scale(third) + y[0] * y[-1],
                 x[0] + y[0], x[0] - y[0]]
        images = []
        for _ in range(3):
            m = MatF.zero(2 * n)
            for b in basis:
                m = m + b.scale(rand_scalar(rng))
            images.append(theta1(m))
        pairs = [(u, v) for u in mixed + images for v in mixed + images]
        pairs += [(x[i], x[j]) for i in range(n) for j in range(n)]
        pairs += [(y[i], y[j]) for i in range(n) for j in range(n)]
        for u, v in pairs:
            uv = u * v
            want = per_index_terms(u, v)
            assert uv.terms == want
            assert hash(uv) == hash(WeylElement(n, want))
            assert all(c for c in uv.terms.values())
            assert all(type(c) is FieldScalar for c in uv.terms.values())
        # (x + y)(x - y) cancels x y inside one product
        assert (x[0] + y[0]) * (x[0] - y[0]) == x[0] * x[0] - y[0] * y[0] + WeylElement.one(n)
        for i in range(n):
            for j in range(n):
                assert x[i].commutator(x[j]).terms == {}
                assert y[i].commutator(y[j]).terms == {}


def pairwise_product(p, q):
    """p * q one pair of terms at a time: both operands cleared to integer
    pairs over one denominator each, each pair of terms exchanging y^b past
    x^c through its own _exchange lookup and adding [p, q] pairs on packed
    keys.  The product before terms were grouped by exchange."""
    n = p.n
    d1, left = _int_pairs(p.terms)
    d2, right = _int_pairs(q.terms)
    z = (0,) * n
    right = [(c, _pack(z + d), p2, q2) for (c, d), p2, q2 in right]
    acc = {}
    for (a, b), p1, q1 in left:
        xa = _pack(a + z)
        for c, yd, p2, q2 in right:
            rp, rq = p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2
            for key, w in _exchange(b, c):
                s = acc.setdefault(key + xa + yd, [0, 0])
                s[0] += rp * w
                s[1] += rq * w
    return WeylElement._of(n, {_monomial(key, n): FieldScalar._raw(rp, rq, d1 * d2)
                               for key, (rp, rq) in acc.items() if rp or rq})


def rand_weyl(rng, n, coefficient, terms=5, top=3):
    """A sum of random monomials x^a y^b, exponents up to top."""
    return WeylElement(n, {(tuple(rng.randint(0, top) for _ in range(n)),
                            tuple(rng.randint(0, top) for _ in range(n))): coefficient(rng)
                           for _ in range(terms)})


def test_grouped_product_matches_the_pairwise_product():
    rng = random.Random(617)
    kinds = {
        "rational": lambda r: fs(Fraction(r.randint(-9, 9), r.randint(1, 6))),
        "root2": lambda r: fs(0, Fraction(r.randint(-9, 9), r.randint(1, 6))),
        "mixed": rand_scalar,
    }
    for n in (1, 2, 3):
        basis = sp_basis(n)
        images = []
        for _ in range(3):
            m = MatF.zero(2 * n)
            for b in basis:
                m = m + b.scale(rand_scalar(rng))
            images.append(theta1(m))
        elements = {kind: [rand_weyl(rng, n, c) for _ in range(3)] for kind, c in kinds.items()}
        # y^b of each left term overlaps x^c of each right term in every index
        full = tuple([2] * n)
        overlap = [WeylElement(n, {(full, full): fs(Fraction(1, 3), 1), ((0,) * n, full): 2}),
                   WeylElement(n, {(full, (1,) * n): fs(0, Fraction(-1, 2)), (full, (0,) * n): 1})]
        assert len(_exchange(full, full)) == 3 ** n
        operands = images + overlap + [u for group in elements.values() for u in group]
        pairs = [(u, v) for u in operands for v in operands]
        pairs += [(u * v, w) for u, v, w in itertools.permutations(images, 3)]
        for u, v in pairs:
            uv = u * v
            assert uv.terms == pairwise_product(u, v).terms
            assert all(type(c) is FieldScalar and c for c in uv.terms.values())
        # rational x rational, rational x sqrt2 and sqrt2 x sqrt2 products
        # read only the parts they have
        for left, right in itertools.product(elements, repeat=2):
            for u, v in zip(elements[left], elements[right]):
                uv = u * v
                assert uv.terms == pairwise_product(u, v).terms
                if left == right == "rational" or {left, right} == {"root2"}:
                    assert all(c.bn == 0 for c in uv.terms.values())
                if {left, right} == {"rational", "root2"}:
                    assert all(c.an == 0 for c in uv.terms.values())


def test_int_fraction_and_field_scalars_as_operands():
    x = WeylElement.xgen(1, 0)
    half = Fraction(1, 2)
    for c, as_field in ((3, fs(3)), (half, fs(half)), (fs(half, 1), fs(half, 1))):
        const = WeylElement.constant(1, as_field)
        assert x * c == x.scale(as_field) == c * x == x * const
        assert x + c == x + const
        assert x - c == x - const
    for bad in (0.5, None):
        for op in (lambda: x * bad, lambda: bad * x, lambda: x + bad, lambda: x - bad):
            with pytest.raises(TypeError):
                op()


def test_term_containers_hold_field_scalars_only():
    from spnil.poly import MultiPoly

    makers = (lambda c: MultiPoly(("x",), {(1,): c}),
              lambda c: WeylElement(1, {((1,), (0,)): c}),
              lambda c: OscVector(1, {(1,): c}))
    for make in makers:
        for bad in (0.5, "2", None):
            with pytest.raises(TypeError):
                make(bad)
        two, twin = make(2), make(fs(2))
        assert two == twin and hash(two) == hash(twin) and len({two, twin}) == 1
        assert [type(c) for c in two.terms.values()] == [FieldScalar]
        assert make(Fraction(1, 2)) == make(fs(Fraction(1, 2)))
        assert make(0).terms == {}
    x2 = MultiPoly(("x",), {(1,): 2})
    assert [type(c) for c in (x2 * x2).terms.values()] == [FieldScalar]


def test_scalar_entry_points_refuse_strings_and_floats():
    from spnil.cherednik import Params
    from spnil.poly import MultiPoly

    x = MultiPoly.variable(("x",), 0)
    w = WeylElement.xgen(1, 0)
    v = OscVector.vacuum(1)
    makers = (lambda c: MultiPoly.constant(("x",), c), x.scale,
              lambda c: WeylElement.constant(1, c), w.scale, v.scale,
              lambda c: Params.of(c, 1), lambda c: Params.of(1, c),
              lambda c: MatF([[c]]), MatF.identity(2).scale,
              lambda c: MatF.unit(2, 0, 1, c), lambda c: omega([c, 1], [1, 0]),
              lambda c: raw_square([c, 1]))
    for make in makers:
        for bad in ("1/2", 0.5):
            with pytest.raises(TypeError):
                make(bad)
        assert make(Fraction(1, 2)) == make(fs(Fraction(1, 2)))


def test_term_classes_share_one_vector_space_contract():
    from spnil.poly import MultiPoly

    # per class: an element, one in another space, and malformed keys
    cases = (
        (MultiPoly.variable(("x",), 0), MultiPoly.variable(("x", "y"), 0),
         lambda key: MultiPoly(("x",), {key: 0}), [(1, 2), ()]),
        (WeylElement.xgen(1, 0) + 1, WeylElement.xgen(2, 0),
         lambda key: WeylElement(1, {key: 0}), [((1, 0), (0,)), ((1,), (-1,))]),
        (OscVector.vacuum(1), OscVector.vacuum(2),
         lambda key: OscVector(1, {key: 0}), [(1, 1), (2,)]),
    )
    for a, other, make, malformed in cases:
        with pytest.raises(ValueError):
            a + other
        if not isinstance(a, OscVector):
            with pytest.raises(ValueError):
                a * other
        assert not a == other and a != other
        assert (a - a).is_zero() and a.scale(0).is_zero()
        assert bool(a) and not bool(a - a)
        if isinstance(a, OscVector):
            # no constants in the module, so not even 0 adds to a vector
            with pytest.raises(TypeError):
                0 + a
            with pytest.raises(TypeError):
                0 - a
        else:
            assert 0 + a == a and 0 - a == -a
        twin = a + a - a
        assert twin is not a and twin == a and hash(twin) == hash(a)
        for key in malformed:
            # the key rule runs even where the coefficient is zero
            with pytest.raises(ValueError):
                make(key)
        assert make(next(iter(a.terms))).is_zero()
    # x @ y has no entries, and entry [0][1] of y @ x is b * a
    a, b = (MultiPoly.variable(("a", "b"), i) for i in (0, 1))
    commutator = bracket(MatF._of(2, {0: {1: a}}), MatF._of(2, {0: {0: b}}))
    assert commutator.entries[0][1] == -(b * a)


def test_field_commutator_matches_dense_sums():
    rng = random.Random(612)
    for n in (1, 2):
        size = sp_dim(n)
        for density in (0.2, 1.0):
            a, b = [[[rand_scalar(rng) if rng.random() < density else FieldScalar(0)
                      for _ in range(size)] for _ in range(size)] for _ in range(2)]
            want = [[sum((a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(size)),
                         FieldScalar(0)) for j in range(size)] for i in range(size)]
            assert LinearVectorField(n, a).commutator(LinearVectorField(n, b)).mat == MatF(want)


def apply_field(field, p):
    """The linear vector field acting as a derivation on a polynomial in the
    sp coordinate registry: coordinate k goes to the linear form of column k
    of field.mat."""
    from spnil.poly import MultiPoly

    size = field.mat.size
    if len(p.registry) != size:
        raise ValueError("registry does not match sp dimension")
    out = MultiPoly.zero(p.registry)
    for k in range(size):
        dk = p.partial(k)
        if dk.is_zero():
            continue
        image = MultiPoly.linear(p.registry,
                                 {l: row[k] for l, row in enumerate(field.mat.entries)})
        out = out + dk * image
    return out


def test_theta0_moves_root_coordinates_by_their_weight():
    from spnil.poly import MultiPoly

    n = 1
    h, e, f = sp_basis(n)
    reg = ("gh", "ge", "gf")
    field = theta0(h)
    # basis order is (h, e, f): labels move by b -> [h, b]
    ve = MultiPoly.variable(reg, 1)
    vf = MultiPoly.variable(reg, 2)
    vh = MultiPoly.variable(reg, 0)
    assert apply_field(field, ve) == ve.scale(fs(2))
    assert apply_field(field, vf) == vf.scale(fs(-2))
    assert apply_field(field, vh).is_zero()
    # derivation property on a product
    p = ve * vf + vh * vh
    assert apply_field(field, p).is_zero()


def test_osc_vector_validation_and_vacuum():
    with pytest.raises(ValueError, match="odd"):
        OscVector(1, {(2,): ONE})
    with pytest.raises(ValueError, match="width"):
        OscVector(2, {(1,): ONE})
    vac = OscVector.vacuum(2)
    assert vac.terms == {(-1, -1): ONE}
    assert not vac.is_zero()
    assert (vac - vac).is_zero()


def test_osc_apply_cartan_weights():
    # theta1(H_i) acts on a monomial with doubled exponent e by (e + 1)/2
    for n in (1, 2):
        basis = sp_basis(n)
        vac = OscVector.vacuum(n)
        for i in range(n):
            h = theta1(basis[i])
            assert osc_apply(h, vac).is_zero()
            exp = tuple(5 if j == i else -1 for j in range(n))
            st = OscVector(n, {exp: ONE})
            assert osc_apply(h, st) == st.scale(fs(3))


def test_osc_apply_raising_from_vacuum():
    vac = OscVector.vacuum(1)
    datum = RootDatumC(1)
    e = datum.positive_roots[0].vec
    up = osc_apply(theta1(e), vac)
    # 1/2 x^2 on x^(-1/2) gives 1/2 x^(3/2)
    assert up.terms == {(3,): HALF}


def test_weight_zero_scalar_matches_vacuum_action():
    for n in (1, 2, 3):
        datum = RootDatumC(n)
        vac = OscVector.vacuum(n)
        for r in datum.positive_roots:
            want = fs(Fraction(-3, 16)) if r.length == "long" else fs(Fraction(-1, 8))
            assert weight_zero_scalar(n, r) == want
            prod = theta1(r.vec) * theta1(datum.opposite(r).vec)
            assert osc_apply(prod, vac) == vac.scale(want)
