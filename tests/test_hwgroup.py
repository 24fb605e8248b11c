import json
import random
from fractions import Fraction
from itertools import islice, product

import pytest

from hwfib import hwgroup
from hwfib.hwgroup import (
    build_candidate,
    candidate_count,
    candidate_from_index,
    candidate_from_json_dict,
    candidate_indices,
    candidate_to_json_dict,
    classify,
    classify_index,
    cyclic_hw,
    enumerate_candidates,
    is_crystallographic,
    is_hantzsche_wendt,
    is_torsion_free,
    orbit_key,
    standard_signs,
    translation_lattice,
)
from hwfib.hwgroup import (
    _index_words,
    _normal_generator_words,
    _reduced_echelon,
    _rep_units_raw,
    _schreier_lattice,
    _torsion_classes,
)
from hwfib.isometry import DiagIsometry

from _oracles import (
    conjugate_diagonal,
    entry_value,
    hnf_torsion_classes,
    hnf_torsion_exists,
    holonomy,
    lattice_contains,
    lattice_from_scaled,
    lattice_from_vectors,
    lattice_reduce,
    parity_torsion_classes,
    schreier_lattice,
    torsion_oracle,
)

F = Fraction
HALF = F(1, 2)


def word_ball_lattice(c, max_len):
    """Oracle: collect translations of all products of generators and their
    inverses up to the given length that have trivial rotational part."""
    letters = []
    for g in c.generators:
        letters.append(g)
        letters.append(g.inverse())
    frontier = [DiagIsometry.identity(c.dim)]
    translations = set()
    for _ in range(max_len):
        frontier = [f.compose(l) for f in frontier for l in letters]
        # dedupe to keep the ball small
        frontier = list(dict.fromkeys(frontier))
        for f in frontier:
            if all(s == 1 for s in f.signs) and any(f.translation):
                translations.add(f.translation)
    return lattice_from_vectors(c.dim, sorted(translations))


def test_build_candidate_cyclic3():
    c = build_candidate(3, [(HALF, HALF, 0), (0, HALF, HALF)])
    assert c == cyclic_hw(3)
    assert c.generators[0] == DiagIsometry((1, -1, -1), (HALF, HALF, 0))
    assert c.generators[1] == DiagIsometry((-1, 1, -1), (0, HALF, HALF))


def test_build_candidate_rejects_even_dimension():
    with pytest.raises(ValueError, match="odd"):
        build_candidate(4, [(0,) * 4] * 3)


def test_build_candidate_rejects_non_half_integer():
    with pytest.raises(ValueError, match="half-integer"):
        build_candidate(3, [(F(1, 3), 0, 0), (0, 0, 0)])


def test_cyclic_hw_5():
    c = cyclic_hw(5)
    assert len(c.generators) == 4
    assert c.generators[2].translation == (0, 0, HALF, HALF, 0)
    assert c.generators[2].signs == (-1, -1, 1, -1, -1)


def test_cyclic_hw_rejects_even():
    with pytest.raises(ValueError):
        cyclic_hw(2)


def test_holonomy_table_cyclic3():
    table = holonomy(cyclic_hw(3))
    assert len(table) == 4
    assert set(table) == {(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)}
    rep = table[(-1, -1, 1)]
    assert rep.translation == (HALF, 0, -HALF)
    # oracle: the representative is the product of the two generators
    c = cyclic_hw(3)
    assert rep == c.generators[0].compose(c.generators[1])


def test_holonomy_table_sizes_and_orientation():
    # classify reports the holonomy of the standard sign patterns without
    # computing it; the breadth-first closure computes it
    for c in [cyclic_hw(n) for n in range(3, 10, 2)] + _scaled_sample():
        table = holonomy(c)
        cl = classify(c)
        assert len(table) == cl.holonomy_order == 2 ** (c.dim - 1), c
        for signs in table:
            assert sum(1 for s in signs if s < 0) % 2 == 0
        assert cl.orientation_preserving, c


def test_holonomy_representatives_live_in_group():
    # every representative must be reachable as a product of generators:
    # check its sign is right and its translation differs from some word
    # product by a lattice vector
    c = cyclic_hw(3)
    table = holonomy(c)
    lat = translation_lattice(c)
    ball = {}
    letters = [c.generators[0], c.generators[1]]
    frontier = [DiagIsometry.identity(3)]
    for _ in range(4):
        frontier = [f.compose(l) for f in frontier for l in letters]
        for f in frontier:
            ball.setdefault(f.signs, f)
    for signs, rep in table.items():
        if signs == (1, 1, 1):
            assert rep.is_identity()
            continue
        witness = ball[signs]
        diff = rep.compose(witness.inverse())
        assert all(s == 1 for s in diff.signs)
        assert lattice_contains(lat, diff.translation)


def test_translation_lattice_cyclic_is_standard():
    for n in (3, 5):
        lat = translation_lattice(cyclic_hw(n))
        assert lat.rank == n
        assert lat.den == 1
        assert lat.basis == tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )


def test_translation_lattice_matches_word_ball_oracle():
    assert translation_lattice(cyclic_hw(3)) == word_ball_lattice(cyclic_hw(3), 4)
    assert translation_lattice(cyclic_hw(5)) == word_ball_lattice(cyclic_hw(5), 6)


def test_translation_lattice_zero_candidate():
    c = build_candidate(3, [(0, 0, 0), (0, 0, 0)])
    lat = translation_lattice(c)
    assert lat.rank == 0
    assert not is_crystallographic(c)


def test_translation_lattice_contains_squared_generators():
    rng = random.Random(30)
    for _ in range(50):
        c = candidate_from_index(3, rng.randrange(candidate_count(3)))
        lat = translation_lattice(c)
        for g in c.generators:
            sq = g.compose(g)
            assert all(s == 1 for s in sq.signs)
            assert lattice_contains(lat, sq.translation)


def test_is_crystallographic_cyclic():
    assert is_crystallographic(cyclic_hw(3))
    assert is_crystallographic(cyclic_hw(7))


def test_is_torsion_free_cyclic():
    assert is_torsion_free(cyclic_hw(3))
    assert torsion_oracle(cyclic_hw(3))


def test_is_torsion_free_normalises_once(monkeypatch):
    calls = []

    def counted(c):
        calls.append(c)
        return _rep_units_raw(c)

    monkeypatch.setattr(hwgroup, "_rep_units_raw", counted)
    assert is_torsion_free(cyclic_hw(5))
    assert len(calls) == 1


def test_is_torsion_free_requires_crystallographic():
    # this candidate's translations never move the first coordinate, so the
    # lattice cannot reach full rank and the torsion test is undefined
    c = build_candidate(3, [(0, 0, 0), (0, HALF, HALF)])
    assert not is_crystallographic(c)
    with pytest.raises(ValueError, match=r"crystallographic .*\(translation lattice has rank 2 < 3\)"):
        is_torsion_free(c)
    with pytest.raises(ValueError, match="crystallographic"):
        torsion_oracle(c)
    # the group visibly has torsion (generator 0 squares to the identity),
    # and the classifier reports it as not Hantzsche-Wendt
    sq = c.generators[0].compose(c.generators[0])
    assert sq.is_identity()
    assert not is_hantzsche_wendt(c)


def test_torsion_detection_example():
    c = build_candidate(3, [(HALF, HALF, 0), (0, HALF, 0)])
    if is_crystallographic(c):
        assert is_torsion_free(c) == torsion_oracle(c)


def test_torsion_agreement_exhaustive_n3():
    disagreements = []
    for idx in range(candidate_count(3)):
        c = candidate_from_index(3, idx)
        if not is_crystallographic(c):
            continue
        if is_torsion_free(c) != torsion_oracle(c):
            disagreements.append(idx)
    assert disagreements == []


def test_torsion_agreement_random_n5():
    rng = random.Random(31)
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 20000:
        attempts += 1
        c = candidate_from_index(5, rng.randrange(candidate_count(5)))
        if not is_crystallographic(c):
            continue
        assert is_torsion_free(c) == torsion_oracle(c)
        checked += 1
    assert checked == 1000


def _sample(n, count, seed):
    rng = random.Random(seed)
    return [candidate_from_index(n, rng.randrange(candidate_count(n))) for _ in range(count)]


def _wide_sample():
    # translations beyond {0, 1/2}, and Hantzsche-Wendt groups conjugated by
    # an integer translation, whose half units are dense and large
    rng = random.Random(35)
    out = [
        build_candidate(5, [[F(rng.randint(-3, 3), 2) for _ in range(5)] for _ in range(4)])
        for _ in range(300)
    ]
    for n in (3, 5, 7):
        for _ in range(5):
            v = [rng.randint(-3, 3) for _ in range(n)]
            out.append(build_candidate(n, [
                tuple(t + x - s * x for s, t, x in zip(g.signs, g.translation, v))
                for g in cyclic_hw(n).generators
            ]))
    return out


def _scaled_sample():
    # candidates conjugated by x -> diag(s) x + w with w in Z/4: cyclic
    # n=3..9 and seeded n=5 Hantzsche-Wendt groups with odd s (units such as
    # 3 and -5, moduli m_j = |s_j|), and seeded n=5 candidates of every
    # class with s in {1, 2, 3, 6}.  An odd s is +-1 mod 4, so the mod-4
    # words would hide a missing scaling step; an even s does not, and a
    # coordinate with m_j = 0 and a nonzero common unit needs the shift
    rng = random.Random(36)
    idx_rng = random.Random(37)
    hw5 = []
    while len(hw5) < 12:
        c = candidate_from_index(5, idx_rng.randrange(candidate_count(5)))
        if is_hantzsche_wendt(c):
            hw5.append(c)
    odd = [cyclic_hw(n) for n in range(3, 10, 2) for _ in range(3)] + hw5
    out = []
    for c, scales in [(c, (1, 3, 5, 7, -1, -3)) for c in odd] + [
        (c, (1, 2, 3, 6)) for c in _sample(5, 60, seed=38)
    ]:
        out.append(conjugate_diagonal(
            c,
            [rng.choice(scales) for _ in range(c.dim)],
            [F(rng.randint(-9, 9), 4) for _ in range(c.dim)],
        ))
    return out


ORACLE_CANDIDATES = {
    "n3-all": lambda: list(enumerate_candidates(3)),
    "n5-sample": lambda: _sample(5, 2000, seed=33),
    "n7-sample": lambda: _sample(7, 100, seed=34),
    "cyclic": lambda: [cyclic_hw(n) for n in range(3, 12, 2)],
    "wide": _wide_sample,
    "scaled": _scaled_sample,
}


def _own_bits(lows):
    return all(u >> i & 1 for i, u in enumerate(lows))


def _sign_masks(classes):
    """The sign vectors of hnf_torsion_classes as the masks of the
    coordinates they negate."""
    return {sum(1 << j for j, s in enumerate(signs) if s == -1) for signs in classes}


@pytest.mark.parametrize("name", sorted(ORACLE_CANDIDATES))
def test_classify_matches_schreier_and_hnf_oracles(name):
    # the Schreier lattice and the per-class HNF torsion test are the
    # previous implementation of translation_lattice and classify; the walk
    # gives the torsion classes of candidates whose generators all have
    # their own bit, and torsion_free of every candidate
    own = 0
    for c in ORACLE_CANDIDATES[name]():
        lat = schreier_lattice(c)
        assert translation_lattice(c) == lat, c
        cl = classify(c)
        assert cl.crystallographic == is_crystallographic(c) == (lat.rank == c.dim), c
        torsion = hnf_torsion_classes(c)
        _, lows = _rep_units_raw(c)
        if _own_bits(lows):
            own += 1
            assert set(_torsion_classes(c.dim, lows)) == _sign_masks(torsion), c
        assert cl.torsion_free == (not hnf_torsion_exists(c)) == (not torsion), c
        assert cl.holonomy_order == 2 ** (c.dim - 1) and cl.orientation_preserving
    assert own


def _general_sample():
    # units in [-9, 9]: moduli far from 1, and coordinates with m_j = 0
    rng = random.Random(39)
    return [
        build_candidate(n, [[F(rng.randint(-9, 9), 2) for _ in range(n)] for _ in range(n - 1)])
        for n in (3, 5, 7)
        for _ in range(700 if n < 7 else 600)
    ]


LATTICE_CANDIDATES = {
    "n3-all": lambda: list(enumerate_candidates(3)),
    "n5-sample": lambda: _sample(5, 3000, seed=40),
    "n7-sample": lambda: _sample(7, 300, seed=41),
    "cyclic": lambda: [cyclic_hw(n) for n in range(3, 16, 2)],
    "general": _general_sample,
}


@pytest.mark.parametrize("name", sorted(LATTICE_CANDIDATES))
def test_translation_lattice_is_the_hnf_of_its_generators(name):
    # translation_lattice writes the Hermite form without elimination; the
    # general HNF of the rows 2 m_j e_j and m.b, b in V, is the reference
    for c in LATTICE_CANDIDATES[name]():
        n = c.dim
        mods, lows = _rep_units_raw(c)
        rows = [[2 * m if k == j else 0 for k in range(n)] for j, m in enumerate(mods) if m]
        rows += [
            [m if b >> j & 1 else 0 for j, m in enumerate(mods)]
            for b in _normal_generator_words(lows)
        ]
        lat = translation_lattice(c)
        assert lat == lattice_from_scaled(n, rows, 1), c
        assert lat.rank == len(mods) - mods.count(0), c


def _lemma_candidates():
    """Every n=3 candidate and the general and scaled samples: moduli far
    from 1, coordinates with m_j = 0, and half units that are not 0 or 1
    mod 4 once normalised."""
    return list(enumerate_candidates(3)) + _general_sample() + _scaled_sample()


def _index_cases():
    """(dim, moduli, words) of seeded n=5..11 indices, whose normalised
    words are the index words classify_index reads."""
    cases = []
    rng = random.Random(43)
    for n, count in ((5, 400), (7, 150), (9, 40), (11, 12)):
        for _ in range(count):
            idx = rng.randrange(candidate_count(n))
            mods, lows = _rep_units_raw(candidate_from_index(n, idx))
            assert lows == _index_words(n, idx)
            cases.append((n, mods, lows))
    return cases


def _high_bits(c, mods):
    """Bit j of word i is bit 1 of unit j of g_i once normalised: the half
    units mod 4, which no verdict reads."""
    return [
        sum(((u[j] // m if m else u[j]) >> 1 & 1) << j for j, m in enumerate(mods))
        for u in c.units
    ]


def _in_span(pivots, v):
    for p, b in pivots.items():
        if v & p:
            v ^= b
    return not v


def test_column_mask_is_the_or_of_the_basis_and_the_nonzero_moduli():
    partial = 0
    cases = [(c.dim, *_rep_units_raw(c)) for c in _lemma_candidates()] + _index_cases()
    for n, mods, lows in cases:
        span = 0
        for b in _reduced_echelon(_normal_generator_words(lows)).values():
            span |= b
        mask = _schreier_lattice(n, lows)
        assert mask == span == sum(1 << j for j, m in enumerate(mods) if m), (n, lows)
        partial += 0 < mask < (1 << n) - 1
    assert partial > 100  # candidates of every rank, not only 0 and n


def test_own_bit_lemma_parity_decides_torsion():
    # the lemma of the hwgroup docstring, for words in which every generator
    # has its own bit, as every Hantzsche-Wendt candidate's do: V holds
    # e_0..e_(n-2), its basis has rank n exactly when the candidate is
    # crystallographic, and the parity walk finds the classes of the HNF
    # oracle, whatever the half units mod 4
    cases = []
    for c in _lemma_candidates():
        mods, lows = _rep_units_raw(c)
        if _own_bits(lows):
            cases.append((c.dim, lows, _sign_masks(hnf_torsion_classes(c)), any(_high_bits(c, mods))))
    cases += [(n, lows, parity_torsion_classes(n, lows), False)
              for n, _, lows in _index_cases() if _own_bits(lows)]
    rng = random.Random(47)
    for n, count in ((7, 200), (9, 60), (11, 16), (13, 6)):
        own = sum(1 << (i * n + i) for i in range(n - 1))
        for _ in range(count):
            lows = _index_words(n, rng.randrange(candidate_count(n)) | own)
            cases.append((n, lows, parity_torsion_classes(n, lows), False))
    seen = set()
    for n, lows, expected, high in cases:
        pivots = _reduced_echelon(_normal_generator_words(lows))
        assert all(_in_span(pivots, 1 << i) for i in range(n - 1)), (n, lows)
        cryst = _schreier_lattice(n, lows) == (1 << n) - 1
        assert (len(pivots) == n) == cryst, (n, lows)
        torsion = set(_torsion_classes(n, lows))
        assert torsion == expected, (n, lows)
        seen.add((cryst, bool(torsion), high))
    # both ranks, with and without torsion, with high words zero and not
    assert {(True, True, True), (True, False, True), (False, True, True),
            (True, True, False), (True, False, False), (False, True, False)} <= seen


def test_singleton_class_has_torsion_exactly_when_its_own_bit_is_0():
    # the lemma that lets classify skip the walk: the class of g_i alone
    # holds torsion exactly when bit i of its word is 0, whether m_i is 1 or
    # 0 and whatever the half unit mod 4; the walk tests that class by the
    # own bit for every candidate
    seen = set()
    for c in _lemma_candidates():
        n = c.dim
        full = (1 << n) - 1
        mods, lows = _rep_units_raw(c)
        highs = _high_bits(c, mods)
        oracle = _sign_masks(hnf_torsion_classes(c))
        torsion = set(_torsion_classes(n, lows))
        for i, u in enumerate(lows):
            own = u >> i & 1
            singleton = full ^ (1 << i)
            assert (singleton in torsion) == (singleton in oracle) == (not own), (c, i)
            seen.add((own, mods[i] != 0, highs[i] >> i & 1))
    assert {(0, False, 0), (0, True, 0), (0, True, 1), (1, True, 0), (1, True, 1)} <= seen


def test_is_hantzsche_wendt_cyclic_family():
    for n in (3, 5, 7):
        assert is_hantzsche_wendt(cyclic_hw(n))


def test_is_hantzsche_wendt_zero_translations():
    assert not is_hantzsche_wendt(build_candidate(3, [(0, 0, 0), (0, 0, 0)]))


def test_classification_invariant_under_integer_conjugation():
    # conjugating all generators by a common integer translation must not
    # change the classification
    rng = random.Random(32)
    shifts = [(1, 0, 0), (0, 1, -1), (2, -1, 3)]
    for _ in range(30):
        c = candidate_from_index(3, rng.randrange(candidate_count(3)))
        base = classify(c)
        for v in shifts:
            moved = build_candidate(
                3,
                [
                    tuple(
                        t + x - s * x
                        for s, t, x in zip(g.signs, g.translation, v)
                    )
                    for g in c.generators
                ],
            )
            assert classify(moved) == base


def _flips(n):
    """F_k for each coordinate k: bit i*n+k of an index for every generator
    i != k, the units that conjugating by the translation e_k/4 moves."""
    return [sum(1 << (i * n + k) for i in range(n - 1) if i != k) for k in range(n)]


def _cyclic_index(n):
    # cyclic_hw(n) as an enumerated candidate: generator i translates by 1/2
    # along coordinates i and i+1
    return sum(3 << (i * n + i) for i in range(n - 1))


def _orbit_inputs():
    yield 3, range(64)
    for n, count, seed in ((5, 2000, 61), (7, 200, 62), (9, 100, 63)):
        # the cyclic index puts a Hantzsche-Wendt orbit in every sample
        yield n, [_cyclic_index(n)] + list(candidate_indices(n, count, seed))


ORBIT_INPUTS = list(_orbit_inputs())
ORBIT_IDS = [f"n{n}" for n, _ in ORBIT_INPUTS]


@pytest.mark.parametrize("n, indices", ORBIT_INPUTS, ids=ORBIT_IDS)
def test_translation_orbit_keeps_the_classification(n, indices):
    flips = _flips(n)
    hw = 0
    for idx in indices:
        cl = classify_index(n, idx)
        hw += cl.hantzsche_wendt
        for f in flips:
            assert classify_index(n, idx ^ f) == cl, (idx, f)
    assert hw > 0


@pytest.mark.parametrize("n, indices", ORBIT_INPUTS, ids=ORBIT_IDS)
def test_orbit_key_is_a_member_shared_by_the_orbit(n, indices):
    flips = _flips(n)
    key = orbit_key(n)
    for idx in indices:
        k = key(idx)
        assert all(key(idx ^ f) == k for f in flips), idx
        # idx ^ k is a sum of flips: in each column all of F_k or none of it
        moved = idx ^ k
        assert moved & ~sum(flips) == 0 and all(moved & f in (0, f) for f in flips), idx


def test_dim3_splits_into_eight_orbits_of_eight():
    key = orbit_key(3)
    sizes = {}
    for idx in range(64):
        sizes[key(idx)] = sizes.get(key(idx), 0) + 1
    assert sorted(sizes.values()) == [8] * 8


@pytest.mark.parametrize("n, indices", ORBIT_INPUTS[:2], ids=ORBIT_IDS[:2])
def test_flip_is_a_conjugation(n, indices):
    # the proof in the hwgroup docstring: conjugate by x -> D x + e_k/4, D = -1
    # at k only, then invert g_k (no generator fixes k = n-1); that gives
    # the candidate at idx ^ F_k
    for idx in indices[:64 if n == 3 else 20]:
        c = candidate_from_index(n, idx)
        for k, f in enumerate(_flips(n)):
            scale = [-1 if j == k else 1 for j in range(n)]
            shift = [F(1, 4) if j == k else 0 for j in range(n)]
            gens = list(conjugate_diagonal(c, scale, shift).generators)
            if k < n - 1:
                gens[k] = gens[k].inverse()
            assert [g.translation for g in gens] == list(candidate_from_index(n, idx ^ f).translations)


def test_orbit_key_refuses_what_classify_index_refuses():
    for n in (1, 4):
        with pytest.raises(ValueError):
            orbit_key(n)


def test_enumerate_candidates_n3():
    candidates = list(enumerate_candidates(3))
    assert len(candidates) == 64
    assert candidate_count(5) == 1_048_576
    assert cyclic_hw(3) in candidates
    assert len(set(candidates)) == 64


def test_enumerate_candidates_sampling_deterministic():
    a = [candidate_to_json_dict(c) for c in enumerate_candidates(5, sample=25, seed=42)]
    b = [candidate_to_json_dict(c) for c in enumerate_candidates(5, sample=25, seed=42)]
    other = [candidate_to_json_dict(c) for c in enumerate_candidates(5, sample=25, seed=7)]
    assert a == b
    assert a != other


def test_candidate_indices_lazy_and_shared_with_enumeration():
    # a sample of 10^12 would need terabytes if drawn up front
    head = list(islice(candidate_indices(5, sample=10**12, seed=7), 3))
    assert head == list(islice(candidate_indices(5, sample=3, seed=7), 3))
    assert list(candidate_indices(3)) == list(range(64))
    sampled = [candidate_from_index(5, i) for i in candidate_indices(5, sample=25, seed=42)]
    assert sampled == list(enumerate_candidates(5, sample=25, seed=42))


def test_sampling_defaults_to_seed_zero():
    # unseeded calls agree with each other and with the CLI's default seed 0
    # instead of drawing from the operating system
    first = list(candidate_indices(5, 50))
    assert first == list(candidate_indices(5, 50)) == list(candidate_indices(5, 50, seed=0))
    assert list(enumerate_candidates(5, 5)) == [candidate_from_index(5, i) for i in first[:5]]


def test_candidate_json_round_trip():
    c = cyclic_hw(3)
    data = candidate_to_json_dict(c)
    assert data == {
        "dim": 3,
        "translations": [["1/2", "1/2", "0"], ["0", "1/2", "1/2"]],
    }
    assert candidate_from_json_dict(data) == c
    with pytest.raises(ValueError):
        candidate_from_json_dict({"dim": 3})


def _load_outcome(data):
    """The translations the loader reads from data, as candidate_to_json_dict
    writes them, or the message of the ValueError it raises."""
    try:
        c = candidate_from_json_dict(data)
    except ValueError as exc:
        return str(exc)
    return candidate_to_json_dict(c)["translations"]


def _int_refusal(digits):
    try:
        int(digits)
    except ValueError as exc:
        return f"malformed candidate description: {exc}"
    raise AssertionError("int read the digits")


def _refused(body):
    return f"malformed candidate description: {body!r} is not an ASCII rational p/q or decimal"


_ZERO_DENOMINATOR = "malformed candidate description: 1/0 has a zero denominator"
_ENTRY_TYPE = (
    "malformed candidate description: generator 0 translation entry must be a string or a "
    "number, got "
)
# Entry (0, 0) of the cyclic candidate of dimension 3, in other spellings,
# and the loader's outcome: the text candidate_to_json_dict writes for it,
# or the error message.  Recorded from the loader that read every entry
# through Fraction, on Python 3.11, except the rows of 1_0/2, 1 / 2, the
# Unicode digits, 1/0, the exponents and the refused literals, which come
# from the one ASCII reader, parse_half: Fraction read the first three on
# some interpreters and named itself in the messages.  Every row holds on
# every interpreter; only the message for too many digits is the
# interpreter's own.
LOADER_CORPUS = [
    ("1/2", "1/2"), ("2/4", "1/2"), ("+1/2", "1/2"), (" -3/2 ", "-3/2"), ("4/2", "2"),
    ("1/1", "1"), ("-0", "0"), ("007/2", "7/2"), ("1/02", "1/2"), ("-5/2", "-5/2"),
    ("\t3\n", "3"), ("\xa01/2\u2003", "1/2"), ("0.5", "1/2"), (".5", "1/2"), ("1.", "1"),
    ("١/٢", _refused("١/٢")), ("１/2", _refused("１/2")),
    ("1_0/2", _refused("1_0/2")),
    ("9" * 5000 + "/2", _int_refusal("9" * 5000)),
    ("1/3", "generator 0 translation entry 1/3 is not a half-integer"),
    ("2/6", "generator 0 translation entry 1/3 is not a half-integer"),
    ("1/4", "generator 0 translation entry 1/4 is not a half-integer"),
    ("1/0", _ZERO_DENOMINATOR),
    ("1e3", _refused("1e3")), ("1E3", _refused("1E3")),
    ("abc", _refused("abc")), ("", _refused("")), ("/2", _refused("/2")),
    ("1 / 2", _refused("1 / 2")), ("1/2/2", _refused("1/2/2")),
    ("+-1", _refused("+-1")), ("--1", _refused("--1")),
    ("1/+2", _refused("1/+2")), ("-1/-2", _refused("-1/-2")),
    ("½", _refused("½")), ("²", _refused("²")), ("1/²", _refused("1/²")),
    ("inf", _refused("inf")),
    ("nan", _refused("nan")),
    # JSON numbers are read through their str
    (1, "1"), (-3, "-3"), (0, "0"), (0.5, "1/2"), (1.5, "3/2"), (1e3, "1000"),
    (10**30, str(10**30)), (-(10**30) - 1, str(-(10**30) - 1)),
    # other JSON values are refused by their type; the Fraction loader read
    # true and null as exponent notation and [1] as an invalid literal
    (True, _ENTRY_TYPE + "boolean"), (None, _ENTRY_TYPE + "null"), ([1], _ENTRY_TYPE + "array"),
]


@pytest.mark.parametrize("text, expected", LOADER_CORPUS, ids=lambda v: repr(v)[:20])
def test_loader_reads_every_spelling_as_fraction_did(text, expected):
    got = _load_outcome({"dim": 3, "translations": [[text, "1/2", "0"], ["0", "1/2", "1/2"]]})
    assert (got[0][0] if isinstance(got, list) else got) == expected


# Which error wins when several apply, recorded from the same loader.  The
# rows of "101", ["110", "011"] and [1, 2] come from the loader that checks
# JSON types: the one before read a string row by its characters, so that
# ["110", "011"] loaded, and failed on iterating a number.  The row of [3]
# comes from the loader that checks the top-level type: the one before
# refused it by indexing a list with "dim"
LOADER_PRECEDENCE = [
    ({"dim": 3.5, "translations": [["abc", "0", "0"], ["0", "0", "0"]]},
     "malformed candidate description: dim must be an integer, got 3.5"),
    ({"dim": 4, "translations": [["abc"] * 4] * 3}, _refused("abc")),
    ({"dim": 4, "translations": [["1/3"] * 4] * 3},
     "dimension must be odd and >= 3 (Hantzsche-Wendt groups exist only in odd "
     "dimensions); got 4"),
    ({"dim": 3, "translations": [["1/3", "0"], ["0", "0", "0"]]},
     "translation 0 has length 2, expected 3"),
    ({"dim": 3, "translations": [["1/3", "0", "0"], ["0", "0"]]},
     "translation 1 has length 2, expected 3"),
    ({"dim": 3, "translations": [["1/3", "0", "0"]] * 3}, "expected 2 generators, got 3"),
    ({"dim": 3, "translations": [["1/3", "0", "0"], ["0", "1/0", "0"]]}, _ZERO_DENOMINATOR),
    ({"dim": 3, "translations": [["0", "1/3", "0"], ["2/3", "0", "0"]]},
     "generator 0 translation entry 1/3 is not a half-integer"),
    ({"dim": 3, "translations": [["1e3", "abc", "0"], ["0", "0", "0"]]}, _refused("1e3")),
    ({"dim": 3}, "malformed candidate description: 'translations'"),
    ({"translations": []}, "malformed candidate description: 'dim'"),
    ([3], "candidate description must be a JSON object, got array"),
    ({"dim": 3, "translations": "101"},
     "malformed candidate description: translations must be a JSON array, got string"),
    ({"dim": 3, "translations": ["110", "011"]},
     "malformed candidate description: translation 0 must be a JSON array, got string"),
    ({"dim": 1, "translations": []},
     "dimension must be odd and >= 3 (Hantzsche-Wendt groups exist only in odd "
     "dimensions); got 1"),
    ({"dim": 5, "translations": []}, "expected 4 generators, got 0"),
    ({"dim": -1, "translations": [["0"]]}, "translation 0 has length 1, expected -1"),
    ({"dim": 3, "translations": [1, 2]},
     "malformed candidate description: translation 0 must be a JSON array, got number"),
]


@pytest.mark.parametrize("data, expected", LOADER_PRECEDENCE, ids=lambda v: repr(v)[:30])
def test_loader_error_precedence(data, expected):
    assert _load_outcome(data) == expected


@pytest.mark.parametrize("text, expected", [
    ('{"dim": 3, "translations": {"0": ["0", "0", "0"], "1": ["0", "0", "0"]}}',
     "translations must be a JSON array, got object"),
    ('{"dim": 3, "translations": [{"a": 0, "b": 0, "c": 0}, ["0", "0", "0"]]}',
     "translation 0 must be a JSON array, got object"),
    ('{"dim": 3, "translations": [["0", "0", "0"], null]}', "translation 1 must be a JSON array, got null"),
    ('{"dim": 3, "translations": [["0", "0", "0"], ["0", false, "0"]]}',
     "generator 1 translation entry must be a string or a number, got boolean"),
])
def test_loader_names_the_json_type_it_refuses(text, expected):
    # a row or a translations value that is not an array was read by its
    # characters, keys or items, and true, false and null through their str
    assert _load_outcome(json.loads(text)) == "malformed candidate description: " + expected


def test_loader_matches_grammar_oracle_on_random_texts():
    # texts near the canonical form p or p/q, q in {1, 2}: the loader gives
    # each the outcome of the oracle's grammar and Fraction's value
    rng = random.Random(21)
    pieces = ["", "+", "-", "0", "1", "7", "12", "/", "/1", "/2", "/3", "/0", " ", "_", ".",
              "\u0663", "\xb2", "\xa0", "e"]
    for _ in range(3000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(1, 6)))
        body = text.strip()
        try:
            t = entry_value(text)
        except ZeroDivisionError:
            expected = f"malformed candidate description: {body} has a zero denominator"
        else:
            if t is None:
                expected = _refused(body)
            elif t.denominator <= 2:
                expected = str(t)
            else:
                expected = f"generator 0 translation entry {t} is not a half-integer"
        got = _load_outcome({"dim": 3, "translations": [[text, "0", "0"], ["0", "0", "0"]]})
        assert (got[0][0] if isinstance(got, list) else got) == expected, text


def test_lattice_membership_and_reduction():
    lat = lattice_from_vectors(2, [(1, 1), (F(1, 2), -F(1, 2))])
    assert lat.rank == 2
    assert lattice_contains(lat, (F(3, 2), F(1, 2)))
    assert not lattice_contains(lat, (F(1, 4), 0))
    reduced = lattice_reduce(lat, (F(7, 2), F(5, 4)))
    assert lattice_contains(lat, tuple(a - b for a, b in zip((F(7, 2), F(5, 4)), reduced)))
    # reduction is canonical: reducing again changes nothing
    assert lattice_reduce(lat, reduced) == reduced


def test_lattice_canonical_form():
    a = lattice_from_vectors(2, [(2, 0), (1, 1)])
    b = lattice_from_vectors(2, [(1, 1), (0, 2), (3, 1)])
    assert a == b
    assert a.den == 1
    mixed = lattice_from_vectors(2, [(F(1, 2), 0), (0, F(1, 2))])
    assert mixed.den == 2
    assert mixed.basis == ((1, 0), (0, 1))


def test_standard_signs():
    assert standard_signs(3, 0) == (1, -1, -1)
    assert standard_signs(5, 3) == (-1, -1, -1, 1, -1)
