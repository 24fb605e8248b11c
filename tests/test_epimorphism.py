import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import pytest

from hwfib import epimorphism
from hwfib.cli import MAX_SYMBOLIC_DIM
from hwfib.epimorphism import (
    SymSequence,
    _base_bits,
    _periodic,
    _product_recursion,
    _recursion_consistent,
    _relator_certificate,
    _symbolic_terms,
    build_epimorphism,
    symbolic_checks,
    symbolic_sequence,
    verify_addrel,
    verify_main_theorem,
    verify_periodicity,
)
from hwfib.fpgroup import (
    GenImages,
    evaluate,
    fibonacci_presentation,
    shift,
    verify_relators,
    word,
)
from hwfib.hwgroup import HWCandidate, candidate_count, candidate_from_index, cyclic_hw
from hwfib.isometry import DiagIsometry

from _oracles import (
    build_epimorphism_by_components,
    component_images,
    relators_by_candidate,
    sparse_symbolic_terms,
    symbolic_checks_per_k,
    window_fold_recursion,
)
from test_cli import CANDIDATE_FILES, NONCRYST5, SCALED9
from test_hwgroup import ORACLE_CANDIDATES

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
    # the decoded terms against the oracle, and on the oracle's terms the
    # bound that the packed run checks: every coefficient in [-4, 4), which
    # keeps sums of up to 8(n-1)/4 terms below the base B
    for n in range(3, 22, 2):
        assert 1 << _base_bits(n) > 8 * (n - 1) >= 4 * max(4, n)
        for k in range(n):
            seq = symbolic_sequence(n, k)
            expected = sparse_symbolic_terms(n, k)
            assert len(seq.terms) == len(expected) == 3 * n - 1
            for i, (sign, coeffs) in enumerate(expected):
                assert term(seq, i) == (sign, tuple(coeffs.get(j, 0) for j in range(n - 1)))
                assert all(-4 <= c < 4 for c in coeffs.values()), (n, k, i)


def _with_terms(seq, *coeff_tuples):
    """``seq`` with its terms replaced by sign +1 and the given coefficient
    tuples, packed as d_j -> B^j with B = 2^_base_bits(n)."""
    shift = _base_bits(seq.n)
    return SymSequence(
        seq.n,
        seq.k,
        tuple(
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
    half = 1 << (_base_bits(5) - 1)
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
    with pytest.raises(ValueError):
        symbolic_checks(4)


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
        base = 1 << _base_bits(n)
        for k in range(n):
            seq = symbolic_sequence(n, k)
            assert seq.periodic() and seq.recursion_consistent()
            for idx in (0, 2 * n):
                for j in range(n - 1):
                    terms = list(seq.terms)
                    (sign,), (trans,) = terms[idx].signs, terms[idx].translation
                    terms[idx] = DiagIsometry._normal((sign,), (trans + base**j,))
                    bad = SymSequence(n, k, tuple(terms))
                    assert bad.coefficients(idx)[j] == seq.coefficients(idx)[j] + 1
                    assert not bad.periodic(), (n, k, idx, j)
                    assert not bad.recursion_consistent(), (n, k, idx, j)


def _column(terms, c):
    """Coordinate c of each term of a run, as E(1) values."""
    return tuple(DiagIsometry._normal((t.signs[c],), (t.translation[c],)) for t in terms)


@pytest.mark.parametrize("n", range(3, 62, 2))
def test_all_k_checks_match_the_per_k_oracle(n):
    # one run on all n coordinates: coordinate k of each of its 3n-1 terms
    # is the term of sequence k
    assert symbolic_checks(n) == symbolic_checks_per_k(n) == ((True, True),) * n
    terms = _symbolic_terms(n, range(n))
    assert len(terms) == 3 * n - 1
    for k in range(n):
        assert _column(terms, k) == symbolic_sequence(n, k).terms, (n, k)


def test_symbolic_run_passes_its_check_at_every_dimension_symbolic_accepts():
    # the run on all n coordinates raises ArithmeticError if a coefficient
    # leaves [-4, 4); verify and symbolic accept no odd n above the cap
    for n in range(3, MAX_SYMBOLIC_DIM + 1, 2):
        assert symbolic_checks(n) == ((True, True),) * n, n


def test_symbolic_run_refuses_a_coefficient_outside_its_range(monkeypatch):
    # set the coefficient of d_j at coordinate c of stored term idx to each
    # value: [-4, 4) passes the check, -5 and 4 raise
    recursion = epimorphism._product_recursion
    for n in (3, 5, 7):
        bits = _base_bits(n)
        clean = _symbolic_terms(n, range(n))
        for idx, c, j in ((0, 0, 0), (n - 1, n - 1, n - 2), (2 * n, n // 2, 1), (3 * n - 2, 1, 0)):
            now = SymSequence(n, c, _column(clean, c)).coefficients(idx)[j]
            for value in (-5, -4, 3, 4):
                def perturbed(seeds, length, value=value):
                    terms = recursion(seeds, length)
                    g = terms[idx]
                    trans = list(g.translation)
                    trans[c] += (value - now) << (bits * j)
                    terms[idx] = DiagIsometry._normal(g.signs, tuple(trans))
                    return terms

                with monkeypatch.context() as patch:
                    patch.setattr(epimorphism, "_product_recursion", perturbed)
                    if -4 <= value < 4:
                        terms = _symbolic_terms(n, range(n))
                        assert SymSequence(n, c, _column(terms, c)).coefficients(idx)[j] == value
                    else:
                        with pytest.raises(ArithmeticError, match=f"term {idx} of the symbolic run"):
                            _symbolic_terms(n, range(n))


@pytest.mark.parametrize("n", [3, 5, 7])
def test_all_k_checks_fail_at_the_perturbed_coordinate_only(n):
    # Both checks read terms 0 and 2n; only recursion_consistent reads term
    # n-1.  Perturbing coordinate c of one term, its translation by d_j
    # (B^j packed) or its sign, must fail the checks that read that term at
    # k = c and nowhere else.
    base = 1 << _base_bits(n)
    terms = _symbolic_terms(n, range(n))
    clean = (True,) * n
    assert _periodic(n, terms) == _recursion_consistent(n, terms) == clean
    for idx, reads_periodic in ((0, True), (2 * n, True), (n - 1, False)):
        for c in range(n):
            only_c = tuple(k != c for k in range(n))
            signs, trans = terms[idx].signs, terms[idx].translation
            changes = [
                (signs, trans[:c] + (trans[c] + base**j,) + trans[c + 1:]) for j in range(n - 1)
            ]
            changes.append((signs[:c] + (-signs[c],) + signs[c + 1:], trans))
            for changed in changes:
                bad = list(terms)
                bad[idx] = DiagIsometry._normal(*changed)
                assert _periodic(n, bad) == (only_c if reads_periodic else clean), (idx, c)
                assert _recursion_consistent(n, bad) == only_c, (idx, c)


def test_coefficients_rejects_what_is_not_a_form_in_the_seeds():
    # n = 3 has seeds d_0, d_1; B^2 would be a third symbol
    with pytest.raises(ArithmeticError):
        _with_terms(symbolic_sequence(3, 0), (0, 0, 1)).coefficients(0)


def test_hand_built_term_with_a_further_symbol_is_refused_under_python_o():
    # python -O drops asserts, and with the check gone this term would decode
    # to (0, 0) and print as 0
    code = (
        "from hwfib.epimorphism import SymSequence, _base_bits\n"
        "from hwfib.isometry import DiagIsometry\n"
        "seq = SymSequence(3, 0, (DiagIsometry._normal((1,), (1 << 2 * _base_bits(3),)),))\n"
        "for read in (seq.coefficients, seq.translation_text):\n"
        "    try:\n"
        "        print(read(0))\n"
        "    except ArithmeticError as exc:\n"
        "        print(exc)\n"
    )
    src = str(pathlib.Path(epimorphism.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert result.stdout.splitlines() == ["term 0 does not decode to a form in d_0..d_1"] * 2


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
    assert imgs.images[2] == imgs.images[0].compose(imgs.images[1])


def test_build_epimorphism_two_routes_agree():
    rng = random.Random(42)
    for c in (cyclic_hw(3), cyclic_hw(5), cyclic_hw(7)):
        assert build_epimorphism(c) == build_epimorphism_by_components(c)
    for _ in range(25):
        c = candidate_from_index(3, rng.randrange(candidate_count(3)))
        assert build_epimorphism(c) == build_epimorphism_by_components(c)


def _seeded_half_integer_candidates():
    rng = random.Random(43)
    out = [
        candidate_from_index(n, rng.randrange(candidate_count(n)))
        for n in (5, 7) for _ in range(10)
    ]
    out += [
        HWCandidate(n, [[F(rng.randint(-5, 5), 2) for _ in range(n)] for _ in range(n - 1)])
        for n in (5, 7) for _ in range(10)
    ]
    return out


RECURSION_SEEDS = {
    "cyclic": lambda: [cyclic_hw(n).generators for n in range(3, 14, 2)],
    "seeded": lambda: [c.generators for c in _seeded_half_integer_candidates()],
    "scaled": lambda: [c.generators for c in ORACLE_CANDIDATES["scaled"]()],
    # the seeds of symbolic_sequence: d_i packed as B^i with B = 2^_base_bits(n)
    "packed": lambda: [
        [DiagIsometry._normal((1 if i == k else -1,), (1 << (_base_bits(n) * i),)) for i in range(n - 1)]
        for n in range(3, 22, 2) for k in range(n)
    ],
}


@pytest.mark.parametrize("name", sorted(RECURSION_SEEDS))
def test_product_recursion_matches_window_fold(name):
    # the prefix quotients against the fold of each window, term for term,
    # over the 3n-1 terms of a symbolic sequence (build_epimorphism takes
    # the first 2n); the entries keep the seeds' type, Fraction or int
    for seeds in RECURSION_SEEDS[name]():
        length = 3 * len(seeds) + 2
        terms = _product_recursion(seeds, length)
        assert terms == window_fold_recursion(seeds, length)
        kind = type(seeds[0].translation[0])
        assert all(type(t) is kind for g in terms for t in g.translation)


def test_verify_main_theorem_cyclic_family():
    for n in range(3, 14, 2):
        report = verify_main_theorem(cyclic_hw(n))
        assert report.relators_trivial == (True,) * (2 * n)
        assert report.surjective
        assert report.classification.hantzsche_wendt
        assert report.verdict == "pass"
        assert report.problems() == []


def test_verify_main_theorem_zero_translations():
    c = HWCandidate(3, [(0, 0, 0), (0, 0, 0)])
    report = verify_main_theorem(c)
    # the relators are still checkable (and trivial: the sign parts alone
    # satisfy the recursion), but the candidate is no Hantzsche-Wendt group
    assert report.homomorphism
    assert report.surjective
    assert report.verdict == "fail"
    assert "candidate is not torsion-free" in report.problems()


def _seeded_indices(n, count, seed):
    rng = random.Random(seed)
    return [candidate_from_index(n, rng.randrange(candidate_count(n))) for _ in range(count)]


def _random_half_units(count, seed):
    # half units in [-9, 9]: mostly not Hantzsche-Wendt, many not even
    # crystallographic
    rng = random.Random(seed)
    return [
        HWCandidate(n, [[F(rng.randint(-9, 9), 2) for _ in range(n)] for _ in range(n - 1)])
        for n in (3, 5, 7) for _ in range(count)
    ]


CERTIFICATE_ORACLE_CANDIDATES = {
    "n3-all": lambda: [candidate_from_index(3, idx) for idx in range(64)],
    "n5-sample": lambda: _seeded_indices(5, 2000, seed=53),
    "n7-sample": lambda: _seeded_indices(7, 200, seed=54),
    "files": lambda: [CANDIDATE_FILES[name]() for name in (SCALED9, NONCRYST5)],
    "random": lambda: _random_half_units(100, seed=55),
    "cyclic": lambda: [cyclic_hw(n) for n in range(3, 22, 2)],
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_ORACLE_CANDIDATES))
def test_certificate_matches_per_candidate_relators(name):
    # the relator verdicts of the certificate of each dimension against the
    # relators evaluated on each candidate's own images over Fraction
    for c in CERTIFICATE_ORACLE_CANDIDATES[name]():
        report = verify_main_theorem(c)
        assert report.relators_trivial == relators_by_candidate(c) == (True,) * (2 * c.dim), c
        assert report.surjective


def test_verify_builds_no_images_per_candidate(monkeypatch):
    def refuse(c):
        raise AssertionError("verify_main_theorem built the images of a candidate")

    monkeypatch.setattr(epimorphism, "build_epimorphism", refuse)
    _relator_certificate.cache_clear()
    for n in (3, 5):
        assert verify_main_theorem(cyclic_hw(n)).verdict == "pass"


def _generic_images(n):
    """The images of the certificate of dimension n: the first 2n terms of
    the run on all n coordinates."""
    return GenImages(_symbolic_terms(n, range(n))[: 2 * n])


@pytest.mark.parametrize("n", [3, 5, 7])
def test_generic_images_fail_wrong_presentations(n):
    # the certificate can say no: the same images break the relators of
    # Fibonacci presentations with the wrong length or period
    images = _generic_images(n)
    assert verify_relators(fibonacci_presentation(n - 1, 2 * n), images) == (True,) * (2 * n)
    assert _relator_certificate(n) == (True,) * (2 * n)
    shorter = verify_relators(fibonacci_presentation(n - 2, 2 * n), images)
    assert shorter == (False,) * (2 * n)
    period = verify_relators(fibonacci_presentation(n - 1, 2 * n - 2), images)
    assert period.count(False) == n - 1


@pytest.mark.parametrize("n", [3, 5, 13])
def test_generic_images_are_the_symbolic_sequences(n):
    # coordinate j of the generic images in E(n) is the symbolic sequence
    # with its +1 seed at k = j (none at j = n-1)
    images = _generic_images(n).images
    assert len(images) == 2 * n
    for j in range(n):
        column = tuple(DiagIsometry._normal((g.signs[j],), (g.translation[j],)) for g in images)
        assert column == symbolic_sequence(n, j).terms[: 2 * n], (n, j)


@lru_cache(maxsize=None)
def _sign_and_coefficients(n, j):
    """Sign and coefficients of terms 0..2n-1 of symbolic_sequence(n, j),
    built and decoded once per (n, j)."""
    seq = symbolic_sequence(n, j)
    return tuple((seq.terms[m].signs[0], seq.coefficients(m)) for m in range(2 * n))


SPECIALISATION_CANDIDATES = {
    "n3-all": lambda: [candidate_from_index(3, idx) for idx in range(64)],
    "n5-sample": lambda: _seeded_indices(5, 200, seed=56),
    "n7-sample": lambda: _seeded_indices(7, 50, seed=57),
    "cyclic": lambda: [cyclic_hw(n) for n in range(3, 14, 2)],
    "random": lambda: _random_half_units(20, seed=58),
}


@pytest.mark.parametrize("name", sorted(SPECIALISATION_CANDIDATES))
def test_images_specialise_the_symbolic_sequences(name):
    # the lemma the certificate rests on: coordinate j of a candidate's image
    # m is term m of symbolic_sequence(n, j) evaluated at d_i = t_i[j]
    for c in SPECIALISATION_CANDIDATES[name]():
        n = c.dim
        images = build_epimorphism(c).images
        for j in range(n):
            t = [g.translation[j] for g in c.generators]
            for m, (sign, coeffs) in enumerate(_sign_and_coefficients(n, j)):
                value = sum(a * d for a, d in zip(coeffs, t))
                assert (images[m].signs[j], images[m].translation[j]) == (sign, value), (c, j, m)


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
            assert all(verify_relators(presentation, imgs))
            for j in range(n - 1):
                shifted = shift(word([(j, 1)]), k, 2 * n)
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
            assert (one.signs[0], one.translation[0]) == (full.signs[j], full.translation[j])


def test_epimorphism_images_homomorphy():
    c = cyclic_hw(3)
    imgs = build_epimorphism(c)
    rng = random.Random(44)
    for _ in range(200):
        u = word([(rng.randint(0, 5), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))])
        v = word([(rng.randint(0, 5), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))])
        assert evaluate(u + v, imgs) == evaluate(u, imgs).compose(evaluate(v, imgs))
