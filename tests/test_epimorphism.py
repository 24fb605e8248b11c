import dataclasses
import random
from fractions import Fraction

import pytest

from hwfib.epimorphism import (
    build_epimorphism,
    build_epimorphism_by_components,
    component_images,
    symbolic_sequence,
    verify_addrel,
    verify_main_theorem,
    verify_periodicity,
)
from hwfib.exact import LinForm
from hwfib.fpgroup import (
    GenImages,
    concat,
    evaluate,
    fibonacci_presentation,
    gen,
    shift,
    verify_relators,
    word,
)
from hwfib.hwgroup import build_candidate, candidate_count, candidate_from_index, cyclic_hw
from hwfib.isometry import DiagIsometry, component, compose

F = Fraction
HALF = F(1, 2)


def d(j):
    return LinForm.symbol(j)


def sym(sign, form):
    """A symbolic element of E(1): x -> sign*x + form."""
    return DiagIsometry((sign,), (form,))


def numeric_sequence(n, k, values, length):
    """Oracle: run the product recursion in plain rational E(1) arithmetic
    for concrete seed translations."""
    terms = [(1 if i == k else -1, F(values[i])) for i in range(n - 1)]
    for idx in range(n - 1, length):
        sign, trans = terms[idx - (n - 1)]
        for m in range(idx - (n - 1) + 1, idx):
            s2, t2 = terms[m]
            sign, trans = sign * s2, sign * t2 + trans
        terms.append((sign, trans))
    return terms


def substitute(form, values):
    total = F(form.constant)
    for j, c in form.coeffs:
        total += F(c) * F(values[j])
    return total


def test_symbolic_sequence_first_derived_terms():
    seq = symbolic_sequence(3, 0)
    assert seq.terms[0] == sym(1, d(0))
    assert seq.terms[1] == sym(-1, d(1))
    assert seq.terms[2] == sym(-1, d(0) + d(1))
    assert seq.terms[3] == sym(1, -d(0))
    # the recursion forces the +2 coefficient here: term 4 is the product of
    # terms 2 and 3, whose leading sign flips -d0 back to +d0
    assert seq.terms[4] == sym(-1, d(0).scaled(2) + d(1))
    assert len(seq.terms) == 3 * 3 - 1


def test_symbolic_terms_match_numeric_recursion():
    rng = random.Random(40)
    for n in (3, 5, 7):
        for k in range(n):
            seq = symbolic_sequence(n, k)
            values = [F(rng.randint(-12, 12), rng.choice((1, 2, 3))) for _ in range(n - 1)]
            expected = numeric_sequence(n, k, values, 3 * n - 1)
            for term, (sign, trans) in zip(seq.terms, expected):
                assert term.signs == (sign,)
                assert substitute(term.translation[0], values) == trans


def test_symbolic_sequence_general_n_shape():
    # the first derived term collects every seed symbol with alternating
    # signs from index 2 on
    for n in (5, 7):
        seq = symbolic_sequence(n, 0)
        expected = d(0) + d(1)
        for j in range(2, n - 1):
            expected = expected + d(j).scaled((-1) ** (j + 1))
        assert seq.terms[n - 1] == sym(-1, expected)
        assert seq.terms[n] == sym(1, -d(0))


def test_symbolic_sequence_validation():
    with pytest.raises(ValueError):
        symbolic_sequence(4, 0)
    with pytest.raises(ValueError):
        symbolic_sequence(3, 3)
    with pytest.raises(ValueError):
        symbolic_sequence(1, 0)


def test_verify_periodicity_small():
    assert verify_periodicity(3, 0)
    seq = symbolic_sequence(3, 0)
    assert seq.terms[6] == seq.terms[0] == sym(1, d(0))
    assert verify_periodicity(3, 1)
    assert verify_periodicity(3, 2)


def test_verify_periodicity_all_dimensions():
    for n in (3, 5, 7, 9, 11, 13):
        for k in range(n):
            assert verify_periodicity(n, k), (n, k)


def test_verify_addrel():
    assert verify_addrel(3, 0)
    seq = symbolic_sequence(3, 0)
    lhs = seq.terms[3]
    rhs = seq.terms[0].inverse().compose(seq.terms[2].compose(seq.terms[2]))
    assert lhs == rhs
    assert verify_addrel(5, 2)
    for n in (3, 5, 7):
        for k in range(n):
            assert verify_addrel(n, k)


def test_sequence_checks_fail_on_a_perturbed_term():
    # index 0 is a seed both checks read; index 2n is the term the
    # periodicity check compares with it and an addrel left-hand side
    for n in (3, 5, 7):
        for k in range(n):
            seq = symbolic_sequence(n, k)
            assert seq.periodic() and seq.recursion_consistent()
            for idx in (0, 2 * n):
                terms = list(seq.terms)
                term = terms[idx]
                terms[idx] = sym(term.signs[0], term.translation[0] + LinForm.const(1))
                bad = dataclasses.replace(seq, terms=tuple(terms))
                assert not bad.periodic(), (n, k, idx)
                assert not bad.recursion_consistent(), (n, k, idx)


def test_addrel_numeric_substitution():
    # substituting d_j := j/2 reproduces the identity in rational E(1)
    n, k = 5, 0
    values = [F(j, 2) for j in range(n - 1)]
    terms = numeric_sequence(n, k, values, 3 * n - 1)
    for i in range(1, 2 * n):
        s_prev, t_prev = terms[i - 1]
        inv = (s_prev, -t_prev if s_prev > 0 else t_prev)
        s_sq, t_sq = terms[i + n - 2]
        sq = (s_sq * s_sq, s_sq * t_sq + t_sq)
        combined = (inv[0] * sq[0], inv[0] * sq[1] + inv[1])
        assert terms[i + n - 1] == combined


def test_component_images_cyclic3():
    c = cyclic_hw(3)
    imgs0 = component_images(c, 0)
    assert imgs0.images == (
        DiagIsometry((1,), (HALF,)),
        DiagIsometry((-1,), (F(0),)),
    )
    imgs2 = component_images(c, 2)
    assert imgs2.images == (
        DiagIsometry((-1,), (F(0),)),
        DiagIsometry((-1,), (HALF,)),
    )


def test_component_images_sign_pattern():
    rng = random.Random(41)
    for n in (3, 5):
        c = candidate_from_index(n, rng.randrange(candidate_count(n)))
        for j in range(n):
            signs = [img.signs[0] for img in component_images(c, j).images]
            plus = signs.count(1)
            assert plus == (1 if j <= n - 2 else 0)
    with pytest.raises(IndexError):
        component_images(cyclic_hw(3), 3)


def test_build_epimorphism_cyclic3():
    c = cyclic_hw(3)
    imgs = build_epimorphism(c)
    assert len(imgs.images) == 6
    assert imgs.images[0] == DiagIsometry((1, -1, -1), (HALF, HALF, 0))
    assert imgs.images[2] == compose(imgs.images[0], imgs.images[1])


def test_build_epimorphism_two_routes_agree():
    rng = random.Random(42)
    for c in (cyclic_hw(3), cyclic_hw(5), cyclic_hw(7)):
        assert build_epimorphism(c) == build_epimorphism_by_components(c)
    for _ in range(25):
        c = candidate_from_index(3, rng.randrange(candidate_count(3)))
        assert build_epimorphism(c) == build_epimorphism_by_components(c)


def test_verify_main_theorem_cyclic_family():
    for n in range(3, 14, 2):
        report = verify_main_theorem(cyclic_hw(n))
        assert report.relators_trivial == (True,) * (2 * n)
        assert report.surjective
        assert report.classification.hantzsche_wendt
        assert report.verdict == "pass"
        assert report.problems() == []


def test_verify_main_theorem_zero_translations():
    c = build_candidate(3, [(0, 0, 0), (0, 0, 0)])
    report = verify_main_theorem(c)
    # the relators are still checkable (and trivial: the sign parts alone
    # satisfy the recursion), but the candidate is no Hantzsche-Wendt group
    assert report.homomorphism
    assert report.surjective
    assert report.verdict == "fail"
    assert "candidate is not torsion-free" in report.problems()


def test_verification_report_json_shape():
    report = verify_main_theorem(cyclic_hw(3))
    data = report.to_json_dict()
    assert data["candidate"] == {
        "dim": 3,
        "translations": [["1/2", "1/2", "0"], ["0", "1/2", "1/2"]],
    }
    assert data["relators"][0] == {"index": 0, "trivial": True}
    assert len(data["relators"]) == 6
    assert data["surjective"] is True
    assert data["verdict"] == "pass"
    assert data["problems"] == []


def test_shift_consistency_with_symbolic_images():
    # images a_i -> term (k+i) form a homomorphism, and precomposing with
    # the k-fold shift automorphism recovers term j as the image of a_j
    for n in (3, 5):
        presentation = fibonacci_presentation(n - 1, 2 * n)
        for k in range(n):
            seq = symbolic_sequence(n, k)
            imgs = GenImages(seq.terms[k : k + 2 * n])
            assert verify_relators(presentation, imgs).passed
            for j in range(n - 1):
                shifted = shift(gen(j), k, 2 * n)
                assert evaluate(shifted, imgs) == seq.terms[j]


def test_direct_sum_naturality_on_random_words():
    c = cyclic_hw(5)
    gen_imgs = GenImages(c.generators)
    comp_imgs = [component_images(c, j) for j in range(5)]
    rng = random.Random(43)
    for _ in range(500):
        w = word(
            [(rng.randint(0, 3), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))]
        )
        full = evaluate(w, gen_imgs)
        for j in range(5):
            one = evaluate(w, comp_imgs[j])
            assert (one.signs[0], one.translation[0]) == component(full, j)


def test_epimorphism_images_homomorphy():
    c = cyclic_hw(3)
    imgs = build_epimorphism(c)
    rng = random.Random(44)
    for _ in range(200):
        u = word([(rng.randint(0, 5), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))])
        v = word([(rng.randint(0, 5), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))])
        assert evaluate(concat(u, v), imgs) == compose(evaluate(u, imgs), evaluate(v, imgs))
