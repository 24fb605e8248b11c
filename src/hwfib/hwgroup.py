"""Hantzsche-Wendt candidate groups in the standard diagonal form.

A candidate in dimension n (odd) is the group G generated by n-1
isometries g_i whose linear parts are the standard sign matrices (+1 at
coordinate i only, -1 elsewhere) and whose translations t_i are
half-integer vectors.  This module classifies such candidates (the
crystallographic test, the torsion test, the holonomy), gives their
translation lattice, and enumerates the half-integer search space.

Classification runs on n-bit words.  Translations are counted in half
units, u_i = 2 t_i, and a holonomy class is the bitmask of the coordinates
its sign matrix negates.  ``classify`` takes an ``HWCandidate``;
``classify_index`` reads the words of an enumerated candidate straight from
the bits of its index.  Both run the same kernel, in three steps that keep
the names bench/tracing.py hooks: ``_rep_units_raw`` (normalise, for an
``HWCandidate`` only), ``_schreier_lattice`` and ``_torsion_exists``.

Holonomy.  Products of sign matrices are XORs of their masks.
HWCandidate enforces the standard patterns, so generator i has the mask
full ^ e_i (full = all n bits, e_i = bit i), i < n-1.  Over a nonempty S
of {0..n-2} the product is e_S when |S| is even and full ^ e_S when |S|
is odd.  Neither is 0: e_S is not, and full ^ e_S keeps bit n-1.  Two
subsets give the same product only when their symmetric difference gives
0, that is when they are equal, so the holonomy has order 2^(n-1).  The
popcount is |S| or n - |S|, even in both cases as n is odd, so every
determinant is +1.  Neither fact depends on the translations.

Lattice.  The kernel L of G -> (Z/2)^(n-1) is spanned by the holonomy
orbits of the translations of the g_i^2 and [g_i, g_j], its normal
generators.  The translation of g_i^2 is u_i[i] e_i; that of [g_i, g_j]
(j < i) is u_i[k] - u_j[k] off {i, j}, u_i[i] at i and -u_j[j] at j.  The
holonomy holds, for each j, the element A that is +1 only at j, and
v + Av = 2 v_j e_j; so 2M lies in L for M = (+) m_j Z, m_j the gcd of
coordinate j over those vectors, and a sign change moves a vector by an
element of 2M.  So L = 2M + span(vectors).  Hence m_j is the gcd of u_j[j]
(0 for j = n-1) and the differences of the u_i[j], i != j: those u_i[j]
are congruent mod m_j, and m_j divides u_j[j].

Normalisation.  Conjugating G by h(x) = D x + w, D a positive diagonal
matrix, changes nothing the classification reads: h commutes with the sign
matrices, so h g_i h^(-1) has the linear part of g_i and translation
D t_i + (1 - A_i) w, and an affine conjugate is crystallographic,
torsion-free and of the same holonomy exactly when G is.  In half units
h sends u_i[j] to d_j (u_i[j] + 4 w_j) for i != j, and to d_j u_j[j].
Where m_j > 0, let r_j in [0, m_j) be the common residue of the u_i[j],
i != j.  The shift w_j = -r_j / 4 makes them multiples of m_j, and the
scaling d_j = 1 / m_j divides coordinate j by m_j, so the new moduli are 1;
together they send every unit to floor(u_i[j] / m_j).  Reducing a unit mod
4 then multiplies a generator by a translation in 2M, which is already in
the group.  Where m_j = 0 the units are kept: the u_i[j] with i != j all
equal some c and u_j[j] = 0.  Conjugating by the translation -c e_j / 4
would make coordinate j zero in every element, and that conjugation moves
an element (A, a) only where A negates.  So a_j = 0 whenever A fixes j,
whatever the units, and the parity masks below have no bit j (they XOR
equal bits): such a coordinate needs neither shift nor scaling.  Every
generator is then two n-bit words, low (bit j is u mod 2) and high (bit j
is u div 2 mod 2).  An enumerated index is already in that form: its units
are 0 or 1, every m_j is 0 or 1, the low words are the index bits and the
high words are 0.

Lattice step.  With every m_j in {0, 1}, L is the set of integer vectors,
zero where m_j = 0, whose parity mask lies in the F2 space V spanned by the
parity masks of the normal generators: U_i & bit i for g_i^2 and
(U_i & ~bit j) ^ (U_j & ~bit i) for [g_i, g_j], U_i the low word of g_i.
Their OR, the crystallographic mask, holds the coordinates with m_j = 1;
the candidate is crystallographic when it holds all n.  Undoing the
scaling, the lattice of the candidate as given is the set of integer
vectors x, zero where m_j = 0, with x_j in m_j Z and parity mask (bit j is
x_j / m_j mod 2) in V.  ``translation_lattice`` writes its Hermite form
from the m_j and V alone.  Bring a basis of V to reduced echelon form with
each pivot at a word's lowest set bit, so that no word has a bit at
another word's pivot.  For each j with m_j > 0, in increasing order, take
the row m.b (m_k wherever b has bit k) when j is the pivot of the word b,
and 2 m_j e_j otherwise.  These rows lie in L and span it: 2 m_j e_j at a
pivot j is 2 m.b minus the rows 2 m_k e_k at the other bits k of b, none
of which is a pivot; so the rows span 2M, and m.v for v in V is a sum of
rows m.b modulo 2M.  Row j has the positive pivot m_j or 2 m_j at column
j and is zero before it.  Above a pivot k every entry is 0 when k is a
word's pivot, and 0 or m_k < 2 m_k otherwise.  So the rows are the
canonical Hermite form of L, with no elimination.

Torsion step.  An element (A, a + λ), λ in L, has a fixed point (and then
order two) exactly when a + λ vanishes on the coordinates F that A fixes:
when the half units of a are even on F (and 0 where m_j = 0, which holds
by the above) and the parity mask of a/2 on F lies in the projection of V
to F.  That reads a mod 4 only, so the walk over the holonomy classes
keeps the representative as two bit planes, and skips the projection test
when V is all of F2^n.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence

from .exact import ExactNumber, format_rational, parse_rational
from .isometry import DiagIsometry
from .record import Record

__all__ = [
    "HWCandidate",
    "Lattice",
    "Classification",
    "build_candidate",
    "cyclic_hw",
    "translation_lattice",
    "is_crystallographic",
    "is_torsion_free",
    "is_hantzsche_wendt",
    "classify",
    "classify_index",
    "candidate_indices",
    "enumerate_candidates",
    "candidate_count",
    "candidate_from_index",
    "candidate_to_json_dict",
    "candidate_from_json_dict",
]

HALF = Fraction(1, 2)


def standard_signs(n: int, i: int) -> tuple[int, ...]:
    """Sign vector of the i-th standard generator: +1 at coordinate i only."""
    return tuple(1 if j == i else -1 for j in range(n))


def _check_dim(n: int) -> None:
    if n % 2 == 0 or n < 3:
        raise ValueError(
            f"dimension must be odd and >= 3 (Hantzsche-Wendt groups exist "
            f"only in odd dimensions); got {n}"
        )


class HWCandidate(Record):
    """Generator data for a candidate group: dimension plus the n-1
    half-integer translations attached to the standard sign matrices."""

    __slots__ = ("dim", "generators")

    def __init__(self, dim: int, generators: Sequence[DiagIsometry]) -> None:
        _check_dim(dim)
        generators = tuple(generators)
        if len(generators) != dim - 1:
            raise ValueError(f"expected {dim - 1} generators, got {len(generators)}")
        for i, g in enumerate(generators):
            if g.signs != standard_signs(dim, i):
                raise ValueError(f"generator {i} does not carry the standard sign pattern")
            for t in g.translation:
                if t.denominator not in (1, 2):
                    raise ValueError(
                        f"generator {i} translation entry {t} is not a half-integer"
                    )
        self.dim = dim
        self.generators = generators

    @property
    def translations(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(g.translation for g in self.generators)


def build_candidate(
    n: int, translations: Sequence[Sequence[ExactNumber]]
) -> HWCandidate:
    """Candidate with the standard sign patterns and the given half-integer
    translations (one vector of length n per generator)."""
    gens = []
    for i, t in enumerate(translations):
        if len(t) != n:
            raise ValueError(f"translation {i} has length {len(t)}, expected {n}")
        gens.append(DiagIsometry(standard_signs(n, i), tuple(Fraction(x) for x in t)))
    return HWCandidate(n, tuple(gens))


def cyclic_hw(n: int) -> HWCandidate:
    """The classical cyclic family: generator i translates by (e_i + e_(i+1))/2."""
    translations = []
    for i in range(n - 1):
        vec = [Fraction(0)] * n
        vec[i] = HALF
        vec[i + 1] = HALF
        translations.append(tuple(vec))
    return build_candidate(n, translations)


# ---------------------------------------------------------------------------
# classification on n-bit words (see the module docstring)

def _xor_reduce(basis: Sequence[int], v: int) -> int:
    """v reduced by an F2 basis sorted by decreasing leading bit."""
    for b in basis:
        v = min(v, v ^ b)
    return v


def _xor_basis(words: Iterable[int], n: int) -> list[int]:
    """F2 basis of the span of n-bit words, sorted by decreasing leading
    bit; stops reading words once the span is all of F2^n."""
    pivots = [0] * n  # pivots[h]: the basis word with leading bit h
    rank = 0
    for v in words:
        while v:
            h = v.bit_length() - 1
            if not pivots[h]:
                pivots[h] = v
                rank += 1
                break
            v ^= pivots[h]
        if rank == n:
            break
    return [b for b in reversed(pivots) if b]


def _rep_units_raw(c: HWCandidate) -> tuple[list[int], list[int], list[int]]:
    """Normalising step of classify: the moduli m_j, then the low and high
    words of every generator after the conjugation that makes each nonzero
    m_j equal to 1 (see the module docstring)."""
    n = c.dim
    units = [
        [t.numerator * (2 // t.denominator) for t in g.translation]
        for g in c.generators
    ]
    mods = [0] * n
    lows = [0] * (n - 1)
    highs = [0] * (n - 1)
    for j in range(n):
        ref = units[1 if j == 0 else 0][j]
        m = mods[j] = gcd(
            units[j][j] if j < n - 1 else 0,
            *(u[j] - ref for i, u in enumerate(units) if i != j),
        )
        for i, u in enumerate(units):
            q = u[j] // m if m else u[j]
            lows[i] |= (q & 1) << j
            highs[i] |= (q >> 1 & 1) << j
    return mods, lows, highs


def _normal_generator_words(lows: Sequence[int]) -> Iterator[int]:
    """Parity masks of the translations of g_i^2 and [g_i, g_j]."""
    for i, u in enumerate(lows):
        bit = 1 << i
        yield u & bit
        for j, w in enumerate(lows[:i]):
            yield (u & ~(1 << j)) ^ (w & ~bit)


def _schreier_lattice(n: int, lows: Sequence[int]) -> tuple[int, list[int]]:
    """Lattice step of classify: the crystallographic mask (the coordinates
    with m_j = 1) and an F2 basis of the parity space V, sorted by
    decreasing leading bit.  A word's support lies in the span's, so the
    mask is the OR of the basis."""
    basis = _xor_basis(_normal_generator_words(lows), n)
    cryst = 0
    for b in basis:
        cryst |= b
    return cryst, basis


def _torsion_classes(
    n: int, lows: Sequence[int], highs: Sequence[int], basis: Sequence[int]
) -> Iterator[int]:
    """Sign masks of the holonomy classes that hold an element of finite
    order, at any lattice rank, from normalised words.

    Walks the 2^(n-1) - 1 non-identity classes in Gray-code order,
    right-multiplying a representative (A, a) by one generator per step,
    with a mod 4 kept as two bit planes: rl (a mod 2) and rh (a div 2
    mod 2).  A class holds torsion when rl vanishes on the coordinates F
    that A fixes and rh on F lies in the projection of V to F.
    """
    full = (1 << n) - 1
    span_all = len(basis) == n
    rl = rh = neg = 0
    for step in range(1, 1 << (n - 1)):
        k = (step & -step).bit_length() - 1
        low = lows[k]
        # a += A t_k: adding 1 where A fixes carries out of odd entries,
        # subtracting 1 where A negates borrows from even ones, so bit 1
        # flips where rl != neg; adding +-2 high is the same mod 4
        rh ^= low & (rl ^ neg) ^ highs[k]
        rl ^= low
        neg ^= full ^ (1 << k)
        if not rl & ~neg and (span_all or not _xor_reduce(
            _xor_basis((b & ~neg for b in basis), n), rh & ~neg
        )):
            yield neg


def _torsion_exists(
    n: int, lows: Sequence[int], highs: Sequence[int], basis: Sequence[int]
) -> bool:
    """Torsion step of classify: whether the walk of _torsion_classes finds
    a class with torsion; it stops at the first."""
    return next(_torsion_classes(n, lows, highs, basis), None) is not None


class Classification(Record):
    __slots__ = (
        "crystallographic",
        "torsion_free",
        "holonomy_order",
        "orientation_preserving",
        "hantzsche_wendt",
    )

    def __init__(
        self,
        crystallographic: bool,
        torsion_free: bool,
        holonomy_order: int,
        orientation_preserving: bool,
        hantzsche_wendt: bool,
    ) -> None:
        self.crystallographic = crystallographic
        self.torsion_free = torsion_free
        self.holonomy_order = holonomy_order
        self.orientation_preserving = orientation_preserving
        self.hantzsche_wendt = hantzsche_wendt

    def to_json_dict(self) -> dict:
        return {
            "crystallographic": self.crystallographic,
            "torsion_free": self.torsion_free,
            "holonomy_order": self.holonomy_order,
            "orientation_preserving": self.orientation_preserving,
            "hantzsche_wendt": self.hantzsche_wendt,
        }


def _classify_words(n: int, lows: Sequence[int], highs: Sequence[int]) -> Classification:
    """The classification kernel, on normalised words.  The lattice and
    torsion steps are looked up as module globals on every call, so
    wrappers installed on them see each candidate.  The holonomy is always
    the full orientation-preserving group of order 2^(n-1) (see the module
    docstring), so a candidate is Hantzsche-Wendt exactly when it is
    crystallographic and torsion-free."""
    cryst_mask, basis = _schreier_lattice(n, lows)
    cryst = cryst_mask == (1 << n) - 1
    torsion_free = not _torsion_exists(n, lows, highs, basis)
    return Classification(cryst, torsion_free, 2 ** (n - 1), True, cryst and torsion_free)


def classify(c: HWCandidate) -> Classification:
    _, lows, highs = _rep_units_raw(c)
    return _classify_words(c.dim, lows, highs)


def classify_index(
    n: int, idx: int
) -> tuple[tuple[tuple[int, ...], ...], Classification]:
    """Half units and classification of ``candidate_from_index(n, idx)``,
    read from the bits of idx without building the candidate: unit j of
    generator i is bit i*n+j, 1 for a translation by 1/2 and 0 for none.
    These are already normalised words (low words from the bits, high words
    zero).  Raises ValueError for an even or small n and an index out of
    range."""
    lows = _index_words(n, idx)
    units = tuple([_word_units(n, w) for w in lows])
    return units, _classify_words(n, lows, (0,) * (n - 1))


def is_crystallographic(c: HWCandidate) -> bool:
    """True when the pure translations span all of R^n, i.e. the group is
    discrete and cocompact: every modulus m_j is nonzero."""
    return all(_rep_units_raw(c)[0])


def is_torsion_free(c: HWCandidate) -> bool:
    """No non-identity holonomy class contains a finite-order element;
    defined for crystallographic candidates."""
    mods = _rep_units_raw(c)[0]
    if not all(mods):
        rank = len(mods) - mods.count(0)  # only for the message
        raise ValueError(
            "torsion test requires a crystallographic candidate "
            f"(translation lattice has rank {rank} < {c.dim})"
        )
    return classify(c).torsion_free


def is_hantzsche_wendt(c: HWCandidate) -> bool:
    """Crystallographic, torsion-free, full holonomy order 2^(n-1), and every
    holonomy matrix of determinant +1."""
    return classify(c).hantzsche_wendt


# ---------------------------------------------------------------------------
# translation lattice

class Lattice(Record):
    """Lattice of rational vectors: canonical-HNF integer basis rows divided
    by one global denominator.  Canonicity makes equality structural."""

    __slots__ = ("dim", "den", "basis")

    def __init__(self, dim: int, den: int, basis: tuple[tuple[int, ...], ...]) -> None:
        self.dim = dim
        self.den = den
        self.basis = basis

    @property
    def rank(self) -> int:
        return len(self.basis)


def _reduced_echelon(basis: Iterable[int]) -> dict[int, int]:
    """Reduced echelon form of independent F2 words, keyed by pivot: each
    word's pivot is its lowest set bit, and no word has a bit at another
    word's pivot."""
    pivots: dict[int, int] = {}
    for v in basis:
        # the words held are reduced, so each XOR clears one pivot bit of v
        for p, b in pivots.items():
            if v & p:
                v ^= b
        low = v & -v
        for p in pivots:
            if pivots[p] & low:
                pivots[p] ^= v
        pivots[low] = v
    return pivots


def translation_lattice(c: HWCandidate) -> Lattice:
    """Lattice of pure translations, its Hermite form written straight from
    the moduli m_j and the parity space V (see the module docstring)."""
    n = c.dim
    mods, lows, _ = _rep_units_raw(c)
    pivots = _reduced_echelon(_schreier_lattice(n, lows)[1])
    rows = []
    for j, m in enumerate(mods):
        if m:
            b = pivots.get(1 << j)
            if b is None:
                rows.append(tuple(2 * m if k == j else 0 for k in range(n)))
            else:
                rows.append(tuple(mk if b >> k & 1 else 0 for k, mk in enumerate(mods)))
    return Lattice(n, 1, tuple(rows))


# ---------------------------------------------------------------------------
# enumeration

def candidate_count(n: int) -> int:
    """Size of the search space: entries in {0, 1/2}, n per generator."""
    return 2 ** (n * (n - 1))


def _index_words(n: int, idx: int) -> list[int]:
    """The n-bit words of the candidate at idx: word i holds bits i*n to
    i*n+n-1, bit j for coordinate j of generator i."""
    _check_dim(n)
    if not 0 <= idx < candidate_count(n):
        raise ValueError(f"index {idx} out of range for dimension {n}")
    full = (1 << n) - 1
    return [idx >> (i * n) & full for i in range(n - 1)]


@lru_cache(maxsize=1 << 12)
def _word_units(n: int, word: int) -> tuple[int, ...]:
    """The half units of one generator, the n bits of its word lowest
    first.  A survey decodes every candidate from few distinct words, so
    they are cached; the bound holds all of them for n <= 11 and keeps a
    sampled survey at larger n from filling memory."""
    return tuple(word >> j & 1 for j in range(n))


def _index_units(n: int, idx: int) -> tuple[tuple[int, ...], ...]:
    """Half units of the candidate at idx, one tuple per generator."""
    return tuple([_word_units(n, w) for w in _index_words(n, idx)])


def candidate_from_index(n: int, idx: int) -> HWCandidate:
    """Bit i*n+j of idx decides whether generator i translates by 1/2 along
    coordinate j; indices enumerate the whole space deterministically."""
    return build_candidate(
        n, [[Fraction(u, 2) for u in vec] for vec in _index_units(n, idx)]
    )


def candidate_indices(
    n: int, sample: Optional[int] = None, seed: Optional[int] = None
) -> Iterator[int]:
    """Candidate indices in index order; or, when ``sample`` is given, that
    many uniform draws from ``range(candidate_count(n))`` (seeded, with
    replacement).  Lazy: each index is drawn when it is consumed."""
    total = candidate_count(n)
    if sample is None:
        yield from range(total)
    else:
        rng = random.Random(seed)
        for _ in range(sample):
            yield rng.randrange(total)


def enumerate_candidates(
    n: int, sample: Optional[int] = None, seed: Optional[int] = None
) -> Iterator[HWCandidate]:
    """The candidates at ``candidate_indices(n, sample, seed)``: all of them
    in index order, or a seeded sample drawn with replacement."""
    for idx in candidate_indices(n, sample, seed):
        yield candidate_from_index(n, idx)


# ---------------------------------------------------------------------------
# JSON wire format

def candidate_to_json_dict(c: HWCandidate) -> dict:
    return {
        "dim": c.dim,
        "translations": [
            [format_rational(t) for t in vec] for vec in c.translations
        ],
    }


def candidate_from_json_dict(data: dict) -> HWCandidate:
    try:
        dim = int(data["dim"])
        translations = [
            [parse_rational(str(t)) for t in vec] for vec in data["translations"]
        ]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed candidate description: {exc}") from exc
    return build_candidate(dim, translations)
