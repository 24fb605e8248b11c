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

from _oracles import sparse_symbolic_terms

F = Fraction
HALF = F(1, 2)


def term(seq, i):
    """Term i of a symbolic sequence as (sign, coefficients of d_0..d_(n-2))."""
    return seq.terms[i].signs[0], seq.coefficients(i)


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


def substitute(coeffs, values):
    return sum((c * F(v) for c, v in zip(coeffs, values)), F(0))


def test_symbolic_sequence_first_derived_terms():
    seq = symbolic_sequence(3, 0)
    assert term(seq, 0) == (1, (1, 0))
    assert term(seq, 1) == (-1, (0, 1))
    assert term(seq, 2) == (-1, (1, 1))
    assert term(seq, 3) == (1, (-1, 0))
    # the recursion forces the +2 coefficient here: term 4 is the product of
    # terms 2 and 3, whose leading sign flips -d0 back to +d0
    assert term(seq, 4) == (-1, (2, 1))
    assert len(seq.terms) == 3 * 3 - 1


def test_coefficients_match_sparse_oracle_and_bound():
    # the packing base B = 2^(3n) is one-to-one only while every compared
    # coefficient stays below B/2: check the norm lemma behind that on the
    # oracle's terms, and the decoded terms against the oracle
    for n in range(3, 22, 2):
        half_base = 1 << (3 * n - 1)
        for k in range(n):
            seq = symbolic_sequence(n, k)
            expected = sparse_symbolic_terms(n, k)
            assert len(seq.terms) == len(expected) == 3 * n - 1
            norms = []
            for i, (sign, coeffs) in enumerate(expected):
                assert term(seq, i) == (sign, tuple(coeffs.get(j, 0) for j in range(n - 1)))
                assert all(abs(c) <= 2**i and abs(c) < half_base for c in coeffs.values())
                norms.append(sum(abs(c) for c in coeffs.values()))
                assert norms[i] <= 2**i, (n, k, i)
            # the right side of recursion_consistent, (term i-1)^-1 (term i+n-2)^2
            for i in range(1, 2 * n):
                assert norms[i - 1] + 2 * norms[i + n - 2] <= 3 * 2 ** (3 * n - 3) < half_base


def _with_terms(seq, *coeff_tuples):
    """``seq`` with its terms replaced by sign +1 and the given coefficient
    tuples, packed as d_j -> B^j with B = 2^(3n)."""
    shift = 3 * seq.n
    return dataclasses.replace(
        seq,
        terms=tuple(
            DiagIsometry._normal((1,), (sum(c << (shift * j) for j, c in enumerate(cs)),))
            for cs in coeff_tuples
        ),
    )


def test_translation_text():
    seq = symbolic_sequence(5, 0)
    assert seq.translation_text(0) == "d0"
    assert seq.translation_text(4) == "d0 + d1 - d2 + d3"
    assert seq.translation_text(5) == "-d0"
    assert seq.translation_text(6) == "2*d0 + d1"
    made = _with_terms(seq, (0, -2, 0, 1), (1, 0, -3, -1), (0, 0, 0, 0))
    assert made.translation_text(0) == "-2*d1 + d3"
    assert made.translation_text(1) == "d0 - 3*d2 - d3"
    assert made.translation_text(2) == "0"
    # term_text adds the sign; str() of a term shows the packed int
    assert [seq.term_text(i) for i in (0, 1, 6)] == ["(+1, d0)", "(-1, d1)", "(-1, 2*d0 + d1)"]


def test_coefficients_round_trip_balanced_digits():
    seq = symbolic_sequence(5, 1)
    half = 1 << (3 * 5 - 1)
    cases = [(0, 0, 0, 0), (1 - half, half - 1, -1, 1), (-half, 0, half - 1, -half), (3, -7, 0, 5)]
    made = _with_terms(seq, *cases)
    for i, cs in enumerate(cases):
        assert made.coefficients(i) == cs


def test_symbolic_terms_match_numeric_recursion():
    rng = random.Random(40)
    for n in (3, 5, 7):
        for k in range(n):
            seq = symbolic_sequence(n, k)
            values = [F(rng.randint(-12, 12), rng.choice((1, 2, 3))) for _ in range(n - 1)]
            expected = numeric_sequence(n, k, values, 3 * n - 1)
            for i, (sign, trans) in enumerate(expected):
                assert seq.terms[i].signs == (sign,)
                assert substitute(seq.coefficients(i), values) == trans


def test_symbolic_sequence_general_n_shape():
    # the first derived term collects every seed symbol with alternating
    # signs from index 2 on
    for n in (5, 7):
        seq = symbolic_sequence(n, 0)
        expected = (1, 1) + tuple((-1) ** (j + 1) for j in range(2, n - 1))
        assert term(seq, n - 1) == (-1, expected)
        assert term(seq, n) == (1, (-1,) + (0,) * (n - 2))


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
    assert seq.terms[6] == seq.terms[0]
    assert term(seq, 6) == (1, (1, 0))
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
    # periodicity check compares with it and an addrel left-hand side.
    # Adding B^j to a packed translation adds d_j to its form.
    for n in (3, 5, 7):
        base = 1 << (3 * n)
        for k in range(n):
            seq = symbolic_sequence(n, k)
            assert seq.periodic() and seq.recursion_consistent()
            for idx in (0, 2 * n):
                for j in range(n - 1):
                    terms = list(seq.terms)
                    (sign,), (trans,) = terms[idx].signs, terms[idx].translation
                    terms[idx] = DiagIsometry._normal((sign,), (trans + base**j,))
                    bad = dataclasses.replace(seq, terms=tuple(terms))
                    assert bad.coefficients(idx)[j] == seq.coefficients(idx)[j] + 1
                    assert not bad.periodic(), (n, k, idx, j)
                    assert not bad.recursion_consistent(), (n, k, idx, j)


def test_coefficients_rejects_what_is_not_a_form_in_the_seeds():
    # n = 3 has seeds d_0, d_1; B^2 would be a third symbol
    with pytest.raises(AssertionError):
        _with_terms(symbolic_sequence(3, 0), (0, 0, 1)).coefficients(0)


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
