"""Acceptance suite: one test per acceptance criterion.

Every check is exact (zero tolerance); each test prints a one-line verdict,
visible with ``pytest tests/test_acceptance.py -v -s``.  The golden survey
count in criterion 3 was computed once by the brute-force oracle path
(torsion_oracle over the full enumeration) and must stay stable.
"""

import random
import time
from fractions import Fraction

from hwfib.epimorphism import (
    build_epimorphism,
    verify_main_theorem,
    verify_periodicity,
)
from hwfib.fpgroup import (
    GenImages,
    abelianization,
    concat,
    evaluate,
    fibonacci_presentation,
    free_reduce,
    shift,
    word,
)
from hwfib.hwgroup import (
    candidate_count,
    candidate_from_index,
    classify,
    cyclic_hw,
    is_crystallographic,
    is_torsion_free,
)
from hwfib.isometry import DiagIsometry

from _oracles import component_images, torsion_oracle

# Golden value for criterion 3: number of Hantzsche-Wendt candidates among
# the 64 translation assignments over {0, 1/2}^3 per generator in dimension
# 3, as counted by the brute-force oracle path.
N3_SURVEY_HW_COUNT = 8

SYMBOLIC_DIMENSIONS = (3, 5, 7, 9, 11, 13)


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion}: {status}{suffix}")
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_1_symbolic_periodicity():
    started = time.perf_counter()
    failures = [
        (n, k)
        for n in SYMBOLIC_DIMENSIONS
        for k in range(n)
        if not verify_periodicity(n, k)
    ]
    elapsed = time.perf_counter() - started
    _report(
        "1 symbolic periodicity",
        not failures and elapsed < 1.0,
        f"all (n,k) for n in {SYMBOLIC_DIMENSIONS}, {elapsed:.3f}s",
    )


def test_criterion_2_main_theorem_cyclic_family():
    worst = 0.0
    ok = True
    for n in range(3, 14, 2):
        started = time.perf_counter()
        report = verify_main_theorem(cyclic_hw(n))
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        ok = ok and report.passed and elapsed < 1.0
        assert report.relators_trivial == (True,) * (2 * n)
        assert report.surjective
    _report("2 main theorem, cyclic family n=3..13", ok, f"worst runtime {worst:.3f}s")


def test_criterion_3_exhaustive_n3_survey():
    total = candidate_count(3)
    disagreements = []
    hw_indices = []
    failures = []
    for idx in range(total):
        candidate = candidate_from_index(3, idx)
        if is_crystallographic(candidate):
            if is_torsion_free(candidate) != torsion_oracle(candidate):
                disagreements.append(idx)
        if classify(candidate).hantzsche_wendt:
            hw_indices.append(idx)
            if not verify_main_theorem(candidate).passed:
                failures.append(idx)
    ok = (
        total == 64
        and not disagreements
        and not failures
        and len(hw_indices) == N3_SURVEY_HW_COUNT
    )
    _report(
        "3 exhaustive n=3 survey",
        ok,
        f"{total} candidates, {len(hw_indices)} hantzsche-wendt, "
        f"{len(disagreements)} torsion disagreements, {len(failures)} theorem failures",
    )


def test_criterion_4_n5_sample_survey():
    rng = random.Random(42)
    total = candidate_count(5)
    started = time.perf_counter()
    hw = 0
    failures = []
    for _ in range(10_000):
        idx = rng.randrange(total)
        candidate = candidate_from_index(5, idx)
        if classify(candidate).hantzsche_wendt:
            hw += 1
            if not verify_main_theorem(candidate).passed:
                failures.append(idx)
    elapsed = time.perf_counter() - started
    _report(
        "4 n=5 sample survey",
        not failures and elapsed < 10.0,
        f"10000 candidates, {hw} hantzsche-wendt, 0 theorem failures, {elapsed:.1f}s",
    )


def test_criterion_5_abelianization_consistency():
    divisors = abelianization(fibonacci_presentation(2, 6))
    nontrivial = tuple(x for x in divisors if x not in (0, 1))
    order = 1
    for x in divisors:
        order *= max(x, 1)
    ok = nontrivial == (4, 4) and order == 16
    detail = [f"F(2,6): divisors {divisors}, order {order}"]
    for n in range(5, 14, 2):
        divs = abelianization(fibonacci_presentation(n - 1, 2 * n))
        two_rank = sum(1 for x in divs if x == 0 or x % 2 == 0)
        ok = ok and two_rank >= n - 1
        detail.append(f"n={n}: 2-rank {two_rank} >= {n - 1}")
    _report("5 abelianization consistency", ok, "; ".join(detail))


def test_criterion_6_property_suites():
    rng = random.Random(99)

    def random_iso(dim):
        return DiagIsometry(
            tuple(rng.choice((1, -1)) for _ in range(dim)),
            tuple(Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(dim)),
        )

    # group laws
    for _ in range(300):
        dim = rng.randint(1, 6)
        g, h, k = (random_iso(dim) for _ in range(3))
        assert g.compose(h).compose(k) == g.compose(h.compose(k))
        assert g.compose(g.inverse()).is_identity()
        assert DiagIsometry.identity(dim).compose(g) == g

    # decomposition round trip on 1000 random isometries: the coordinates
    # (sign, translation) reassemble to the same element
    for _ in range(1000):
        g = random_iso(rng.randint(1, 7))
        parts = [(g.signs[i], g.translation[i]) for i in range(g.dim)]
        assert DiagIsometry(*zip(*parts)) == g

    # evaluate is a homomorphism on concatenation
    imgs = build_epimorphism(cyclic_hw(3))
    for _ in range(300):
        u = word([(rng.randint(0, 5), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))])
        v = word([(rng.randint(0, 5), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))])
        assert evaluate(concat(u, v), imgs) == evaluate(u, imgs).compose(evaluate(v, imgs))

    # shift by 2n is the identity and the relator set is shift-stable
    for n in (3, 5, 7):
        presentation = fibonacci_presentation(n - 1, 2 * n)
        rels = {free_reduce(r) for r in presentation.relators}
        for r in presentation.relators:
            assert shift(r, 2 * n, 2 * n) == r
        assert {free_reduce(shift(r, 1, 2 * n)) for r in presentation.relators} == rels

    # every coordinate of the cyclic candidates matches its one-dimensional
    # component images on the generators
    for n in (3, 5):
        c = cyclic_hw(n)
        for j in range(n):
            imgs_j = component_images(c, j)
            for i, g in enumerate(c.generators):
                img = imgs_j.images[i]
                assert (img.signs[0], img.translation[0]) == (g.signs[j], g.translation[j])

    _report("6 property suites", True, "group laws, round trip, homomorphy, shift stability")
