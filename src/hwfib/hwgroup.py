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
the candidate is crystallographic when it holds all n.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence

from .exact import ExactNumber, format_rational, hermite_normal_form, parse_rational
from .isometry import DiagIsometry

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


@dataclass(frozen=True)
class HWCandidate:
    """Generator data for a candidate group: dimension plus the n-1
    half-integer translations attached to the standard sign matrices."""

    dim: int
    generators: tuple[DiagIsometry, ...]

    def __post_init__(self) -> None:
        n = self.dim
        _check_dim(n)
        if len(self.generators) != n - 1:
            raise ValueError(f"expected {n - 1} generators, got {len(self.generators)}")
        for i, g in enumerate(self.generators):
            if g.signs != standard_signs(n, i):
                raise ValueError(f"generator {i} does not carry the standard sign pattern")
            for t in g.translation:
                if t.denominator not in (1, 2):
                    raise ValueError(
                        f"generator {i} translation entry {t} is not a half-integer"
                    )

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


@lru_cache(maxsize=None)
def _standard_holonomy(n: int) -> tuple[int, bool]:
    """The holonomy order 2^rank from the F2 rank of the sign masks of the
    standard generators (bit j set where the sign is -1, so generator i has
    every bit but i), and whether every holonomy matrix has determinant +1
    (products of masks are XORs, so even popcounts suffice).  HWCandidate
    enforces the standard sign patterns, so these depend on n alone."""
    full = (1 << n) - 1
    masks = [full ^ (1 << i) for i in range(n - 1)]
    orientation = all(bin(m).count("1") % 2 == 0 for m in masks)
    return 2 ** len(_xor_basis(masks, n)), orientation


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


@dataclass(frozen=True)
class Classification:
    crystallographic: bool
    torsion_free: bool
    holonomy_order: int
    orientation_preserving: bool
    hantzsche_wendt: bool

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
    wrappers installed on them see each candidate."""
    order, orientation = _standard_holonomy(n)
    cryst_mask, basis = _schreier_lattice(n, lows)
    cryst = cryst_mask == (1 << n) - 1
    torsion_free = not _torsion_exists(n, lows, highs, basis)
    hw = cryst and torsion_free and order == 2 ** (n - 1) and orientation
    return Classification(cryst, torsion_free, order, orientation, hw)


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
    units = _index_units(n, idx)
    full = (1 << n) - 1
    lows = [idx >> (i * n) & full for i in range(n - 1)]
    return units, _classify_words(n, lows, (0,) * (n - 1))


def is_crystallographic(c: HWCandidate) -> bool:
    """True when the pure translations span all of R^n, i.e. the group is
    discrete and cocompact: every modulus m_j is nonzero."""
    return all(_rep_units_raw(c)[0])


def is_torsion_free(c: HWCandidate) -> bool:
    """No non-identity holonomy class contains a finite-order element;
    defined for crystallographic candidates."""
    if not is_crystallographic(c):
        rank = translation_lattice(c).rank  # only for the message
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

@dataclass(frozen=True)
class Lattice:
    """Lattice of rational vectors: canonical-HNF integer basis rows divided
    by one global denominator.  Canonicity makes equality structural."""

    dim: int
    den: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    @classmethod
    def from_scaled(cls, dim: int, rows: Sequence[Sequence[int]], den: int) -> "Lattice":
        h, rank = hermite_normal_form(list(rows))
        basis = h[:rank]
        g = gcd(den, *(v for row in basis for v in row))
        if g > 1:
            den //= g
            basis = [[v // g for v in row] for row in basis]
        return cls(dim, den, tuple(tuple(row) for row in basis))


@lru_cache(maxsize=256)
def translation_lattice(c: HWCandidate) -> Lattice:
    """Lattice of pure translations: the integer vectors x with x_j in
    m_j Z whose parity mask (bit j is x_j / m_j mod 2) lies in V; spanned by
    2 m_j e_j and the basis of V with bit j read as m_j."""
    n = c.dim
    mods, lows, _ = _rep_units_raw(c)
    rows = [[2 * m if k == j else 0 for k in range(n)] for j, m in enumerate(mods) if m]
    rows += [
        [m if b >> j & 1 else 0 for j, m in enumerate(mods)]
        for b in _schreier_lattice(n, lows)[1]
    ]
    return Lattice.from_scaled(n, rows, 1)


# ---------------------------------------------------------------------------
# enumeration

def candidate_count(n: int) -> int:
    """Size of the search space: entries in {0, 1/2}, n per generator."""
    return 2 ** (n * (n - 1))


def _index_units(n: int, idx: int) -> tuple[tuple[int, ...], ...]:
    """Half units of the candidate at idx: bit i*n+j for coordinate j of
    generator i."""
    _check_dim(n)
    if not 0 <= idx < candidate_count(n):
        raise ValueError(f"index {idx} out of range for dimension {n}")
    return tuple(
        tuple((idx >> (i * n + j)) & 1 for j in range(n)) for i in range(n - 1)
    )


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
