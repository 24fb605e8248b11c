import random
import signal
import time
from fractions import Fraction
from math import prod

import pytest

from hwfib.exact import (
    format_rational,
    parse_rational,
    smith_normal_form,
)
from hwfib.fpgroup import fibonacci_presentation, relator_matrix

from _oracles import (
    bareiss_det,
    dense_smith_normal_form,
    det_int,
    divisors_by_minor_gcds,
    hermite_normal_form,
    in_hnf_shape,
    minor_gcd,
    unimodular_2x2,
)

# Each test here may run this long before it fails: a looping Smith normal
# form then fails the suite instead of hanging it.  The slowest test takes
# about 2 s on a 2-core x86-64 VM.
WATCHDOG_S = 120


@pytest.fixture(autouse=True)
def watchdog():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran past the {WATCHDOG_S} s watchdog")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_rational_wire_format():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(0) == "0"
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-7") == -7
    for q in (Fraction(0), Fraction(5, 3), Fraction(-9, 4), Fraction(12)):
        assert parse_rational(format_rational(q)) == q
    # Fraction would read the first two as 10^9999 and 10^10000000
    for text in ("1e9999", "1E10000000", "1/2e3"):
        with pytest.raises(ValueError):
            parse_rational(text)


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
# Hermite normal form (the test oracle the direct lattice forms are
# checked against)


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


def test_snf_reads_entries_as_integers():
    # entries go through operator.index: ints and bools are taken, and
    # nothing is truncated into an int
    assert smith_normal_form([[True, False], [False, 3]]) == (1, 3)
    for bad in ([[2.5, 0], [0, 3]], [[Fraction(7, 2)]], [["4"]], [[4.0]]):
        with pytest.raises(TypeError):
            smith_normal_form(bad)


def test_snf_former_growth_cases_match_bareiss_determinant():
    # an elimination by xgcd row and column combinations took about 95 s
    # on these three together, its entries growing to millions of bits;
    # the determinants are nonzero, so the divisors must multiply to |det|
    mats = [relator_matrix(fibonacci_presentation(r, n)) for r, n in ((162, 92), (322, 60), (162, 220))]
    start = time.perf_counter()
    results = [smith_normal_form(m) for m in mats]
    elapsed = time.perf_counter() - start
    for m, divisors in zip(mats, results):
        det = bareiss_det(m)
        assert det != 0
        assert prod(divisors) == abs(det)
        assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
    assert elapsed < 5


def test_snf_fast_paths_match_dense_elimination_on_fibonacci_grid():
    # includes F(3, 10), F(5, 16) and F(7, 14), whose dense eliminations
    # mix xgcd column operations with exact clears of the pivot row, and
    # whose nearest-remainder eliminations go back to the pivot scan
    for r in range(1, 30):
        for n in range(1, 40):
            m = relator_matrix(fibonacci_presentation(r, n))
            assert smith_normal_form(m) == dense_smith_normal_form(m), (r, n)


def test_snf_fast_paths_match_dense_elimination_on_random_matrices():
    # zero twice as likely as any other entry, so that rank-deficient
    # matrices, non-unit pivots, nonzero remainders (xgcd steps in the
    # dense oracle) and divisibility sweeps all occur.  Each matrix M is
    # also taken as k*M, whose content k the elimination divides out at
    # once, and as diag(1, 1, k*M), where that content appears only after
    # two unit pivots
    entries = (0, 0, 1, -1, 2, -3, 4, 6, 9, -12)
    scales = (2, 3, 4, 6, 12)
    rng = random.Random(6)
    for index in range(3000):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)]
        divisors = smith_normal_form(m)
        assert divisors == dense_smith_normal_form(m), m
        if nrows <= 4 and ncols <= 4:
            prod = 1
            for k, d in enumerate(divisors, start=1):
                prod *= d
                assert prod == minor_gcd(m, k), m
        k = scales[index % len(scales)]
        scaled = tuple(k * d for d in divisors)
        km = [[k * v for v in row] for row in m]
        assert smith_normal_form(km) == scaled == dense_smith_normal_form(km), km
        block = [[1, 0] + [0] * ncols, [0, 1] + [0] * ncols]
        block += [[0, 0] + row for row in km]
        assert smith_normal_form(block) == (1, 1) + scaled == dense_smith_normal_form(block), block
