import random
from fractions import Fraction

import pytest

from hwfib.isometry import DiagIsometry

from _oracles import hom_identity, hom_matrix, hom_mul

F = Fraction
HALF = F(1, 2)


def iso(signs, trans):
    return DiagIsometry(tuple(signs), tuple(F(t) for t in trans))


# The symbolic sequence packs the linear form sum c_j d_j into the int
# sum c_j B^j; these tests use B = 2^12, enough for coefficients below 2^11.
B = 1 << 12


def form(*coeffs):
    """The packed int of the linear form with these coefficients of d_0, d_1, ..."""
    return sum(c * B**j for j, c in enumerate(coeffs))


def sym(sign, packed):
    """A symbolic element of E(1), x -> sign*x + form, with its int
    translation kept as it is (the public constructor makes Fractions)."""
    return DiagIsometry._normal((sign,), (packed,))


def d(j):
    return B**j


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
    assert e.compose(G0) == G0
    assert G0.compose(e) == G0


def test_compose_against_homogeneous_matrices():
    expected = hom_mul(assert_matches_hom(G0), assert_matches_hom(G0))
    got = G0.compose(G0)
    assert assert_matches_hom(got) == expected
    assert got == iso((1, 1, 1), (1, 0, 0))


def test_compose_symbolic_e1():
    a = sym(1, d(0))
    b = sym(-1, d(1))
    assert a.compose(b) == sym(-1, d(0) + d(1))


def test_symbolic_compose_translation_examples():
    # (s, g)(t, f) has translation s*f + g
    assert sym(1, d(0)).compose(sym(-1, d(1))).translation == (form(1, 1),)
    assert sym(-1, d(1)).compose(sym(1, d(1))).translation == (0,)
    assert sym(-1, d(1)).compose(sym(1, 2 * d(0))) == sym(-1, form(-2, 1))


def test_symbolic_compose_translation_identities():
    rng = random.Random(2)
    for _ in range(100):
        f = form(*(rng.randint(-5, 5) for _ in range(rng.randint(0, 5))))
        s = rng.choice((1, -1))
        assert sym(1, f).compose(sym(s, 0)) == sym(s, f)
        assert sym(-1, f).compose(sym(s, f)) == sym(-s, 0)


def test_public_constructor_rejects_bad_sign_and_length_and_makes_fractions():
    with pytest.raises(ValueError):
        DiagIsometry((2,), (d(0),))
    with pytest.raises(ValueError):
        DiagIsometry((1, 1), (d(0),))
    g = DiagIsometry((1, 1), (d(1), F(1, 2)))
    assert all(type(t) is Fraction for t in g.translation)
    assert g.translation == (F(B), F(1, 2))


def test_symbolic_identity_and_truthiness():
    g = sym(-1, form(1, -3))
    e = g.identity_like()
    assert e == sym(1, 0)
    assert type(e.translation[0]) is int
    assert e.is_identity() and not g.is_identity()
    assert e.compose(g) == g == g.compose(e)
    assert not sym(1, d(0)).is_identity() and not sym(1, d(3)).is_identity()
    assert type(G0.identity_like().translation[0]) is Fraction


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        G0.compose(DiagIsometry.identity(2))


def test_inverse_examples():
    e = DiagIsometry.identity(4)
    assert e.inverse() == e
    assert sym(1, d(0)).inverse() == sym(1, -d(0))
    assert sym(-1, d(0)).inverse() == sym(-1, d(0))
    refl = iso((-1,), (HALF,))
    assert refl.inverse() == refl
    # oracle: product of homogeneous matrices is the identity matrix
    assert hom_mul(assert_matches_hom(refl), assert_matches_hom(refl)) == hom_identity(1)


def test_inverse_law_random():
    rng = random.Random(10)
    for _ in range(200):
        g = random_iso(rng, rng.randint(1, 6))
        assert g.compose(g.inverse()).is_identity()
        assert g.inverse().compose(g).is_identity()


def test_group_laws_random_triples():
    rng = random.Random(11)
    for _ in range(200):
        dim = rng.randint(1, 5)
        g, h, k = (random_iso(rng, dim) for _ in range(3))
        assert g.compose(h).compose(k) == g.compose(h.compose(k))
        e = DiagIsometry.identity(dim)
        assert e.compose(g) == g and g.compose(e) == g


def test_symbolic_group_laws_random():
    rng = random.Random(12)

    def rand_sym():
        coeffs = (rng.randint(-4, 4) for _ in range(rng.randint(0, 4)))
        return sym(rng.choice((1, -1)), form(*coeffs))

    for _ in range(200):
        a, b, c = rand_sym(), rand_sym(), rand_sym()
        assert a.compose(b).compose(c) == a.compose(b.compose(c))
        assert a.compose(a.inverse()).is_identity()
        assert a.inverse().compose(a).is_identity()


def test_compose_and_inverse_results_are_normalised():
    # compose and inverse skip the constructor's checks; their results must
    # equal what the constructor would make of them, with int signs and
    # entries of the operands' type: Fraction, or int for packed forms
    rng = random.Random(16)
    for _ in range(300):
        dim = rng.randint(1, 4)
        if rng.random() < 0.5:
            g, h = random_iso(rng, dim), random_iso(rng, dim)
            kind = Fraction
        else:
            g, h = (
                DiagIsometry._normal(
                    tuple(rng.choice((1, -1)) for _ in range(dim)),
                    tuple(form(*(rng.randint(-6, 6) for _ in range(3))) for _ in range(dim)),
                )
                for _ in range(2)
            )
            kind = int
        for r in (g.compose(h), h.compose(g), g.inverse(), g.compose(g.inverse())):
            assert r == DiagIsometry(r.signs, r.translation)
            assert hash(r) == hash(DiagIsometry(r.signs, r.translation))
            assert all(type(s) is int for s in r.signs)
            assert all(type(t) is kind for t in r.translation)


def test_rotational_part():
    assert G0.signs == (1, -1, -1)
    assert DiagIsometry.identity(3).signs == (1, 1, 1)
    assert G0.compose(G1).signs == (-1, -1, 1)


def test_rotational_part_is_homomorphism():
    rng = random.Random(13)
    for _ in range(200):
        dim = rng.randint(1, 5)
        g, h = random_iso(rng, dim), random_iso(rng, dim)
        prod = g.compose(h).signs
        assert prod == tuple(a * b for a, b in zip(g.signs, h.signs))


def test_component_is_homomorphism():
    rng = random.Random(14)
    for _ in range(200):
        dim = rng.randint(1, 5)
        g, h = random_iso(rng, dim), random_iso(rng, dim)
        gh = g.compose(h)
        for i in range(dim):
            sg, tg = g.signs[i], g.translation[i]
            sh, th = h.signs[i], h.translation[i]
            assert (gh.signs[i], gh.translation[i]) == (sg * sh, sg * th + tg)


def test_apply_examples():
    e = DiagIsometry.identity(3)
    assert e.apply((F(1, 4), 0, 1)) == (F(1, 4), 0, 1)
    assert G0.apply((0, 0, 0)) == (HALF, HALF, 0)
    refl = iso((-1,), (HALF,))
    assert refl.apply((HALF,)) == (0,)
    with pytest.raises(ValueError):
        G0.apply((0, 0))
