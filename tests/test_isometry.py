import random
from fractions import Fraction

import pytest

from hwfib.exact import LinForm
from hwfib.isometry import (
    DiagIsometry,
    apply,
    component,
    compose,
    direct_sum,
    inverse,
    rotational_part,
)

from _oracles import hom_identity, hom_matrix, hom_mul

F = Fraction
HALF = F(1, 2)


def iso(signs, trans):
    return DiagIsometry(tuple(signs), tuple(F(t) for t in trans))


def sym(sign, form):
    """A symbolic element of E(1): x -> sign*x + form."""
    return DiagIsometry((sign,), (form,))


def d(j):
    return LinForm.symbol(j)


G0 = iso((1, -1, -1), (HALF, HALF, 0))  # 3-dim cyclic family, generator 0
G1 = iso((-1, 1, -1), (0, HALF, HALF))


def random_iso(rng, dim):
    return iso(
        [rng.choice((1, -1)) for _ in range(dim)],
        [F(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(dim)],
    )


def assert_matches_hom(g):
    # homogeneous-matrix representation is the reference semantics
    return hom_matrix(g.signs, g.translation)


def test_compose_identity():
    e = DiagIsometry.identity(3)
    assert compose(e, G0) == G0
    assert compose(G0, e) == G0


def test_compose_against_homogeneous_matrices():
    expected = hom_mul(assert_matches_hom(G0), assert_matches_hom(G0))
    got = compose(G0, G0)
    assert assert_matches_hom(got) == expected
    assert got == iso((1, 1, 1), (1, 0, 0))


def test_compose_symbolic_e1():
    a = sym(1, d(0))
    b = sym(-1, d(1))
    assert compose(a, b) == sym(-1, d(0) + d(1))


def test_symbolic_compose_translation_examples():
    # (s, g)(t, f) has translation s*f + g
    assert compose(sym(1, d(0)), sym(-1, d(1))).translation == (d(0) + d(1),)
    assert compose(sym(-1, d(1)), sym(1, d(1))).translation[0].is_zero()
    assert compose(sym(-1, d(1)), sym(1, d(0).scaled(2))) == sym(-1, d(1) - d(0).scaled(2))


def test_symbolic_compose_translation_identities():
    rng = random.Random(2)
    for _ in range(100):
        f = LinForm(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
            tuple((j, rng.randint(-5, 5)) for j in range(rng.randint(0, 5))),
        )
        s = rng.choice((1, -1))
        assert compose(sym(1, f), sym(s, LinForm.zero())) == sym(s, f)
        assert compose(sym(-1, f), sym(s, f)) == sym(-s, LinForm.zero())


def test_symbolic_isometry_rejects_bad_sign_and_mixed_entries():
    with pytest.raises(ValueError):
        DiagIsometry((2,), (d(0),))
    with pytest.raises(ValueError):
        DiagIsometry((1, 1), (d(0), F(1, 2)))
    with pytest.raises(ValueError):
        DiagIsometry((1, 1), (d(0),))


def test_symbolic_identity_and_truthiness():
    g = sym(-1, d(0) + LinForm.const(F(1, 2)))
    e = g.identity_like()
    assert e == sym(1, LinForm.zero())
    assert type(e.translation[0]) is LinForm
    assert e.is_identity() and not g.is_identity()
    assert compose(e, g) == g == compose(g, e)
    assert not sym(1, d(0)).is_identity() and not sym(1, LinForm.const(1)).is_identity()
    assert type(G0.identity_like().translation[0]) is Fraction
    assert str(sym(1, d(0) + d(1))) == "(diag(+), (d0 + d1))"


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(G0, DiagIsometry.identity(2))


def test_inverse_examples():
    e = DiagIsometry.identity(4)
    assert inverse(e) == e
    assert inverse(sym(1, d(0))) == sym(1, -d(0))
    assert inverse(sym(-1, d(0))) == sym(-1, d(0))
    refl = iso((-1,), (HALF,))
    assert inverse(refl) == refl
    # oracle: product of homogeneous matrices is the identity matrix
    assert hom_mul(assert_matches_hom(refl), assert_matches_hom(refl)) == hom_identity(1)


def test_inverse_law_random():
    rng = random.Random(10)
    for _ in range(200):
        g = random_iso(rng, rng.randint(1, 6))
        assert compose(g, inverse(g)).is_identity()
        assert compose(inverse(g), g).is_identity()


def test_group_laws_random_triples():
    rng = random.Random(11)
    for _ in range(200):
        dim = rng.randint(1, 5)
        g, h, k = (random_iso(rng, dim) for _ in range(3))
        assert compose(compose(g, h), k) == compose(g, compose(h, k))
        e = DiagIsometry.identity(dim)
        assert compose(e, g) == g and compose(g, e) == g


def test_symbolic_group_laws_random():
    rng = random.Random(12)

    def rand_sym():
        coeffs = tuple((j, rng.randint(-4, 4)) for j in range(rng.randint(0, 4)))
        return sym(rng.choice((1, -1)), LinForm(rng.randint(-3, 3), coeffs))

    for _ in range(200):
        a, b, c = rand_sym(), rand_sym(), rand_sym()
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert compose(a, inverse(a)).is_identity()
        assert compose(inverse(a), a).is_identity()


def _random_form(rng):
    coeffs = tuple(
        (j, rng.choice((rng.randint(-3, 3), F(rng.randint(-6, 6), rng.choice((2, 3))))))
        for j in rng.sample(range(6), rng.randint(0, 3))
    )
    return LinForm(F(rng.randint(-4, 4), rng.choice((1, 2))), coeffs)


def test_compose_and_inverse_results_are_normalised():
    # compose and inverse skip the constructor's checks; their results must
    # be what the constructor would make of them, with int signs and entries
    # of the operands' type, each LinForm in its own normal form
    rng = random.Random(16)
    for _ in range(300):
        dim = rng.randint(1, 4)
        if rng.random() < 0.5:
            g, h = random_iso(rng, dim), random_iso(rng, dim)
            kind = Fraction
        else:
            g, h = (
                DiagIsometry(
                    [rng.choice((1, -1)) for _ in range(dim)],
                    [_random_form(rng) for _ in range(dim)],
                )
                for _ in range(2)
            )
            kind = LinForm
        for r in (compose(g, h), compose(h, g), inverse(g), compose(g, inverse(g))):
            assert r == DiagIsometry(r.signs, r.translation)
            assert hash(r) == hash(DiagIsometry(r.signs, r.translation))
            assert all(type(s) is int for s in r.signs)
            assert all(type(t) is kind for t in r.translation)
            if kind is LinForm:
                for t in r.translation:
                    again = LinForm(t.constant, t.coeffs)
                    assert t.coeffs == again.coeffs
                    assert type(t.constant) is type(again.constant)
                    assert [type(c) for _, c in t.coeffs] == [type(c) for _, c in again.coeffs]


def test_rotational_part():
    assert rotational_part(G0) == (1, -1, -1)
    assert rotational_part(DiagIsometry.identity(3)) == (1, 1, 1)
    assert rotational_part(compose(G0, G1)) == (-1, -1, 1)


def test_rotational_part_is_homomorphism():
    rng = random.Random(13)
    for _ in range(200):
        dim = rng.randint(1, 5)
        g, h = random_iso(rng, dim), random_iso(rng, dim)
        prod = rotational_part(compose(g, h))
        assert prod == tuple(a * b for a, b in zip(rotational_part(g), rotational_part(h)))


def test_component_examples():
    assert component(G0, 0) == (1, HALF)
    assert component(G0, 2) == (-1, 0)
    e = DiagIsometry.identity(3)
    for i in range(3):
        assert component(e, i) == (1, 0)
    with pytest.raises(IndexError):
        component(G0, 3)


def test_component_is_homomorphism():
    rng = random.Random(14)
    for _ in range(200):
        dim = rng.randint(1, 5)
        g, h = random_iso(rng, dim), random_iso(rng, dim)
        gh = compose(g, h)
        for i in range(dim):
            sg, tg = component(g, i)
            sh, th = component(h, i)
            assert component(gh, i) == (sg * sh, sg * th + tg)


def test_direct_sum_examples():
    assert direct_sum([(1, HALF), (-1, HALF), (-1, 0)]) == G0
    assert direct_sum([(1, 0)] * 4) == DiagIsometry.identity(4)
    # two commuting translation pairs reassemble to unit translations
    assert direct_sum([(1, 1), (1, 0)]) == iso((1, 1), (1, 0))
    assert direct_sum([(1, 0), (1, 1)]) == iso((1, 1), (0, 1))


def test_direct_sum_round_trip_1000():
    rng = random.Random(15)
    for _ in range(1000):
        g = random_iso(rng, rng.randint(1, 7))
        assert direct_sum([component(g, i) for i in range(g.dim)]) == g


def test_apply_examples():
    e = DiagIsometry.identity(3)
    assert apply(e, (F(1, 4), 0, 1)) == (F(1, 4), 0, 1)
    assert apply(G0, (0, 0, 0)) == (HALF, HALF, 0)
    refl = iso((-1,), (HALF,))
    assert apply(refl, (HALF,)) == (0,)
    with pytest.raises(ValueError):
        apply(G0, (0, 0))


def test_json_round_trip():
    data = G0.to_json_dict()
    assert data == {"signs": [1, -1, -1], "translation": ["1/2", "1/2", "0"]}
    assert DiagIsometry.from_json_dict(data) == G0
