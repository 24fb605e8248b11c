import random
from fractions import Fraction

import pytest

from hwfib.exact import (
    LinForm,
    format_rational,
    hermite_normal_form,
    parse_rational,
    rational,
    smith_normal_form,
)
from hwfib.isometry import DiagIsometry

from _oracles import det_int, divisors_by_minor_gcds, in_hnf_shape, unimodular_2x2


def test_rational_construction():
    assert rational(1, 2) == Fraction(1, 2)
    assert rational(2, 4) == Fraction(1, 2)
    assert rational(3, -6) == Fraction(-1, 2)
    assert rational(3, -6).denominator == 2
    assert rational(0, 7) == 0


def test_rational_zero_denominator():
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        rational(1, 0)


def test_rational_wire_format():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(0) == "0"
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-7") == -7
    for q in (Fraction(0), Fraction(5, 3), Fraction(-9, 4), Fraction(12)):
        assert parse_rational(format_rational(q)) == q


def test_field_axioms_on_random_triples():
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (
            Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a != 0:
            assert a * (1 / a) == 1


# ---------------------------------------------------------------------------
# linear forms


def d(j):
    return LinForm.symbol(j)


def test_linform_basics():
    f = d(0) + d(1).scaled(2)
    assert f.coefficient(0) == 1
    assert f.coefficient(1) == 2
    assert f.coefficient(5) == 0
    assert not f.is_zero()
    assert LinForm.zero().is_zero()
    assert (f - f).is_zero()


def test_linform_no_zero_coefficients_stored():
    f = LinForm(coeffs=((2, 0), (1, 3)))
    assert f.coeffs == ((1, 3),)
    g = d(4) - d(4)
    assert g.coeffs == ()


def test_linform_str():
    assert str(LinForm.zero()) == "0"
    assert str(d(0) + d(2)) == "d0 + d2"
    assert str(d(1).scaled(-2) + LinForm.const(Fraction(1, 2))) == "-2*d1 + 1/2"
    assert str(LinForm.const(3) - d(0)) == "-d0 + 3"


# ---------------------------------------------------------------------------
# Hermite normal form


def test_hnf_identity():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    h, rank = hermite_normal_form(eye)
    assert h == eye
    assert rank == 3


def test_hnf_zero_matrix():
    zero = [[0, 0], [0, 0], [0, 0]]
    h, rank = hermite_normal_form(zero)
    assert h == zero
    assert rank == 0


def test_hnf_two_by_two_against_unimodular_search():
    m = [[2, 0], [1, 1]]
    # oracle: scan small unimodular transforms U, collect U*M in HNF shape
    found = set()
    for u in unimodular_2x2():
        cand = [
            [u[0][0] * m[0][0] + u[0][1] * m[1][0], u[0][0] * m[0][1] + u[0][1] * m[1][1]],
            [u[1][0] * m[0][0] + u[1][1] * m[1][0], u[1][0] * m[0][1] + u[1][1] * m[1][1]],
        ]
        if in_hnf_shape(cand):
            found.add(tuple(map(tuple, cand)))
    assert found == {((1, 1), (0, 2))}
    h, rank = hermite_normal_form(m)
    assert h == [[1, 1], [0, 2]]
    assert rank == 2


def _random_matrix(rng, nrows, ncols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def _row_in_span(rows, vec):
    # membership via HNF of the augmented stack: the span is unchanged
    # exactly when vec already lies in the row lattice
    base, _ = hermite_normal_form(rows)
    aug, _ = hermite_normal_form(rows + [list(vec)])
    return base + [[0] * len(vec)] == aug


def test_hnf_shape_idempotence_and_span():
    rng = random.Random(3)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        h, rank = hermite_normal_form(m)
        assert in_hnf_shape(h)
        assert rank == sum(1 for row in h if any(row))
        again, rank2 = hermite_normal_form(h)
        assert again == h and rank2 == rank
        # mutual lattice membership of all rows
        assert all(_row_in_span(h, row) for row in m)
        assert all(_row_in_span(m, row) for row in h)


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_diag_2_3():
    m = [[2, 0], [0, 3]]
    assert divisors_by_minor_gcds(m) == (1, 6)
    assert smith_normal_form(m) == (1, 6)


def test_snf_identity():
    for k in (1, 2, 4):
        eye = [[int(i == j) for j in range(k)] for i in range(k)]
        assert smith_normal_form(eye) == tuple([1] * k)


def test_snf_fibonacci_circulant():
    first = [1, 1, -1, 0, 0, 0]
    m = [first[-i:] + first[:-i] for i in range(6)]
    expected = divisors_by_minor_gcds(m)
    assert expected == (1, 1, 1, 1, 4, 4)
    assert smith_normal_form(m) == expected


def test_snf_rank_deficient_and_rectangular():
    assert smith_normal_form([[2, 0], [4, 0]]) == (2, 0)
    assert smith_normal_form([[0, 0], [0, 0]]) == (0, 0)
    assert smith_normal_form([[2, 4, 6]]) == (2,)
    assert smith_normal_form([]) == ()


def test_snf_matches_minor_gcd_oracle_on_random_matrices():
    rng = random.Random(4)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -5, 5)
        assert smith_normal_form(m) == divisors_by_minor_gcds(m)


def test_snf_divisibility_chain_and_determinant():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 5)
        m = _random_matrix(rng, n, n, -4, 4)
        divisors = smith_normal_form(m)
        for a, b in zip(divisors, divisors[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        det = det_int(m)
        if det != 0:
            prod = 1
            for v in divisors:
                prod *= v
            assert prod == abs(det)


def _random_form(rng, partner=None):
    """A form with int and Fraction values; given a partner form, about a
    third of the partner's symbols get a coefficient that cancels it and a
    third one that sums with it to a whole number."""
    coeffs = {}
    for j in rng.sample(range(8), rng.randint(0, 5)):
        coeffs[j] = rng.choice(
            (rng.randint(-3, 3), Fraction(rng.randint(-6, 6), rng.choice((2, 3, 4))))
        )
    constant = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
    if partner is not None:
        for j, c in partner.coeffs:
            roll = rng.random()
            if roll < 1 / 3:
                coeffs[j] = -c
            elif roll < 2 / 3:
                coeffs[j] = rng.randint(-2, 2) - c
        if rng.random() < 0.5:
            constant = rng.randint(-2, 2) - partner.constant
    return LinForm(constant, tuple(coeffs.items()))


def _assert_normal(r):
    renormalized = LinForm(r.constant, r.coeffs)
    assert r.coeffs == renormalized.coeffs
    assert [type(c) for _, c in r.coeffs] == [type(c) for _, c in renormalized.coeffs]
    assert type(r.constant) is type(renormalized.constant)
    assert all(c != 0 for _, c in r.coeffs)
    assert all(type(c) is int for _, c in r.coeffs if Fraction(c).denominator == 1)
    assert r == renormalized and hash(r) == hash(renormalized)


def test_linform_results_stay_in_normal_form():
    rng = random.Random(17)
    factors = (1, -1, 2, -2, Fraction(1, 2))
    for _ in range(400):
        f = _random_form(rng)
        g = _random_form(rng, partner=f)
        results = [f + g, f - g, g - f, -f, f - f, f + (-f)]
        results += [f.scaled(q) for q in factors]
        # the translation update of a symbolic E(1) composition: s*f + g
        results += [
            DiagIsometry((s,), (g,)).compose(DiagIsometry((1,), (f,))).translation[0]
            for s in (1, -1)
        ]
        for r in results:
            _assert_normal(r)
        assert (f + g) - g == f and hash((f + g) - g) == hash(f)
        assert f.scaled(2).scaled(Fraction(1, 2)) == f
