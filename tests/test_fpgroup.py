import random
from fractions import Fraction

import pytest

from hwfib.fpgroup import (
    GenImages,
    Presentation,
    abelianization,
    concat,
    evaluate,
    fibonacci_presentation,
    free_reduce,
    gen,
    relator_matrix,
    shift,
    verify_relators,
    word,
    word_inverse,
)
from hwfib.isometry import DiagIsometry

from _oracles import divisors_by_minor_gcds, hom_matrix, hom_mul

F = Fraction
HALF = F(1, 2)

G0 = DiagIsometry((1, -1, -1), (HALF, HALF, 0))
G1 = DiagIsometry((-1, 1, -1), (0, HALF, HALF))


def cyclic3_images():
    # the six images of a_0..a_5 for the 3-dimensional cyclic family:
    # first two are the group generators, the rest follow the length-(n-1)
    # product recursion
    imgs = [G0, G1]
    for idx in range(2, 6):
        acc = imgs[idx - 2]
        acc = acc.compose(imgs[idx - 1])
        imgs.append(acc)
    return GenImages(tuple(imgs))


def test_fibonacci_presentation_f26():
    p = fibonacci_presentation(2, 6)
    assert p.generator_count == 6
    assert len(p.relators) == 6
    assert p.relators[0] == ((0, 1), (1, 1), (2, -1))
    assert p.relators[5] == ((5, 1), (0, 1), (1, -1))


def test_fibonacci_presentation_degenerate():
    p = fibonacci_presentation(1, 1)
    assert p.generator_count == 1
    assert p.relators == ((),)


def test_fibonacci_presentation_f4_10():
    p = fibonacci_presentation(4, 10)
    assert p.relators[0] == ((0, 1), (1, 1), (2, 1), (3, 1), (4, -1))
    assert len(p.relators[0]) == 5


def test_fibonacci_presentation_equals_the_checked_build():
    # the direct build skips the public constructor's letter checks and
    # free reduction; only n = 1 has a relator that reduces
    differs = []
    for r in range(1, 30):
        for n in range(1, 40):
            raw = [
                tuple(((i + j) % n, 1) for j in range(r)) + (((i + r) % n, -1),)
                for i in range(n)
            ]
            checked = Presentation(n, raw)
            assert fibonacci_presentation(r, n) == checked, (r, n)
            if checked.relators != tuple(raw):
                differs.append((r, n))
    assert differs == [(r, 1) for r in range(1, 30)]
    assert fibonacci_presentation(3, 1).relators == (((0, 1), (0, 1)),)


def test_presentation_from_input_keeps_its_checks():
    assert Presentation(2, [((0, 1), (1, 1), (1, -1), (0, 1))]).relators == (((0, 1), (0, 1)),)
    for bad in ([((2, 1),)], [((-1, 1),)], [((0, 2),)]):
        with pytest.raises(ValueError):
            Presentation(2, bad)


def test_fibonacci_presentation_rejects_zero():
    with pytest.raises(ValueError):
        fibonacci_presentation(0, 5)
    with pytest.raises(ValueError):
        fibonacci_presentation(2, 0)


def test_free_reduce():
    assert free_reduce(word([(0, 1), (0, -1)])) == ()
    assert free_reduce(word([(1, 1), (2, 1), (2, -1), (1, 1)])) == ((1, 1), (1, 1))
    assert free_reduce(()) == ()
    # idempotent on random words
    rng = random.Random(20)
    for _ in range(100):
        w = word([(rng.randint(0, 3), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))])
        once = free_reduce(w)
        assert free_reduce(once) == once


def test_shift():
    assert shift(word([(1, 1), (2, 1)]), 1, 6) == ((0, 1), (1, 1))
    w = word([(0, 1), (3, -1), (5, 1)])
    assert shift(w, 0, 6) == w
    assert shift(gen(0), 1, 6) == ((5, 1),)
    assert shift(w, 6, 6) == w


def test_shift_stabilizes_fibonacci_relator_set():
    for n in (3, 5, 7):
        p = fibonacci_presentation(n - 1, 2 * n)
        rels = {free_reduce(r) for r in p.relators}
        shifted = {free_reduce(shift(r, 1, 2 * n)) for r in p.relators}
        assert shifted == rels


def test_evaluate_empty_and_unreduced():
    imgs = cyclic3_images()
    assert evaluate((), imgs).is_identity()
    assert evaluate(word([(0, 1), (0, -1)]), imgs).is_identity()


def test_evaluate_against_homogeneous_product():
    imgs = cyclic3_images()
    got = evaluate(word([(0, 1), (1, 1)]), imgs)
    expected = hom_mul(hom_matrix(G0.signs, G0.translation), hom_matrix(G1.signs, G1.translation))
    assert hom_matrix(got.signs, got.translation) == expected
    assert got == G0.compose(G1)


def test_evaluate_out_of_range():
    imgs = cyclic3_images()
    with pytest.raises(IndexError):
        evaluate(gen(6), imgs)


def test_evaluate_is_monoid_homomorphism():
    imgs = cyclic3_images()
    rng = random.Random(21)
    for _ in range(150):
        u = word([(rng.randint(0, 5), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))])
        v = word([(rng.randint(0, 5), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))])
        assert evaluate(concat(u, v), imgs) == evaluate(u, imgs).compose(evaluate(v, imgs))
        assert evaluate(free_reduce(u), imgs) == evaluate(u, imgs)
        assert evaluate(word_inverse(u), imgs) == evaluate(u, imgs).inverse()


def test_verify_relators_cyclic3():
    p = fibonacci_presentation(2, 6)
    assert verify_relators(p, cyclic3_images()) == (True,) * 6


def test_verify_relators_trivial_homomorphism():
    p = fibonacci_presentation(2, 6)
    e = DiagIsometry.identity(3)
    assert all(verify_relators(p, GenImages((e,) * 6)))


def test_verify_relators_detects_bad_images():
    p = fibonacci_presentation(2, 6)
    good = cyclic3_images()
    # swap the images of a_0 and a_1, keep the rest
    swapped = GenImages((good.images[1], good.images[0]) + good.images[2:])
    trivial = verify_relators(p, swapped)
    assert not all(trivial)
    # oracle: relator 0 = a_0 a_1 a_2^(-1) evaluated directly
    direct = G1.compose(G0).compose(good.images[2].inverse())
    assert not direct.is_identity()
    assert 0 in [i for i, ok in enumerate(trivial) if not ok]


def test_derived_relation_under_verified_images():
    # a_i a_(i+n) = a_(i+n-1)^2 holds for any relator-verified image set
    n = 3
    imgs = cyclic3_images()
    two_n = 2 * n
    full = list(imgs.images)
    # extend images cyclically for index arithmetic
    for i in range(two_n):
        lhs = full[i].compose(full[(i + n) % two_n])
        rhs = full[(i + n - 1) % two_n].compose(full[(i + n - 1) % two_n])
        assert lhs == rhs


def test_relator_matrix_and_abelianization_f26():
    p = fibonacci_presentation(2, 6)
    m = relator_matrix(p)
    assert m[0] == [1, 1, -1, 0, 0, 0]
    assert abelianization(p) == (1, 1, 1, 1, 4, 4)
    assert divisors_by_minor_gcds(m) == (1, 1, 1, 1, 4, 4)
    nontrivial = tuple(d for d in abelianization(p) if d not in (0, 1))
    assert nontrivial == (4, 4)
    order = 1
    for x in abelianization(p):
        order *= max(x, 1)
    assert order == 16


def test_abelianization_free_group():
    p = Presentation(2, ())
    assert abelianization(p) == (0, 0)


def test_abelianization_f4_10_two_rank():
    p = fibonacci_presentation(4, 10)
    divisors = abelianization(p)
    evens = [x for x in divisors if x == 0 or x % 2 == 0]
    assert len(evens) >= 4
    # oracle: 2-rank = generators - rank of the relator matrix over GF(2)
    m = [[v % 2 for v in row] for row in relator_matrix(p)]
    rank2 = _gf2_rank(m)
    assert len(evens) == 10 - rank2


@pytest.mark.parametrize("n", range(3, 162, 2))
def test_abelianization_of_hw_family_is_4_power_plus_4_times_n_minus_2(n):
    # F(n-1, 2n) maps onto the n-dimensional Hantzsche-Wendt groups; its
    # abelianization is (Z/4)^(n-2) + Z/(4(n-2)), sharper than the 2-rank.
    # Every odd n up to 161, where 2n reaches the abelianize cap of 322
    divisors = abelianization(fibonacci_presentation(n - 1, 2 * n))
    assert [x for x in divisors if x != 1] == [4] * (n - 2) + [4 * (n - 2)]


def _gf2_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0])
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_abelianization_order_equals_determinant_f26():
    from _oracles import det_int

    p = fibonacci_presentation(2, 6)
    order = 1
    for x in abelianization(p):
        order *= max(x, 1)
    assert order == abs(det_int(relator_matrix(p)))


def test_presentation_validates_indices():
    with pytest.raises(ValueError):
        Presentation(2, (word([(2, 1)]),))
