"""Hantzsche-Wendt candidate groups in the standard diagonal form.

A candidate in dimension n (odd) is the group generated by n-1 isometries
whose linear parts are the standard sign matrices (+1 at exactly one
coordinate, -1 elsewhere) and whose translations are half-integer vectors.
This module classifies such candidates: the translation lattice from its
normal generators g_i^2 and [g_i, g_j] (a gcd per coordinate plus an F2
space of parity masks), the crystallographic test, the torsion test by a
Gray-code walk over the holonomy classes, the holonomy table, and
enumeration of the whole half-integer search space.

Internally translations are handled in "half units" (twice their value) and
sign matrices as bitmasks, so the per-candidate work runs on small ints.
The sign masks, and with them the holonomy order and orientation, are the
same for every candidate of a dimension and are computed once per n.
``classify`` takes an ``HWCandidate``; ``classify_index`` reads the half
units of an enumerated candidate straight from the bits of its index, so a
survey builds no Fractions or isometries for it.  Both run the same kernel.
The rest of the public surface is exact rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence

from .exact import ExactNumber, format_rational, hermite_normal_form, parse_rational
from .isometry import DiagIsometry

__all__ = [
    "HWCandidate",
    "Lattice",
    "HolonomyTable",
    "Classification",
    "build_candidate",
    "cyclic_hw",
    "holonomy",
    "translation_lattice",
    "is_crystallographic",
    "is_torsion_free",
    "torsion_oracle",
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
# holonomy table: breadth-first closure of the sign vectors

def _bfs_representatives(c: HWCandidate) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Sign vector and representative translation (half units) of every
    holonomy class, in breadth-first discovery order from the identity."""
    gens = tuple(zip((g.signs for g in c.generators), _rep_units_raw(c)[0]))
    identity = (1,) * c.dim
    order = [(identity, (0,) * c.dim)]
    seen = {identity}
    for signs, units in order:  # the list grows while it is walked
        for gsigns, gunits in gens:
            prod = tuple(a * b for a, b in zip(signs, gsigns))
            if prod not in seen:
                seen.add(prod)
                order.append(
                    (prod, tuple(s * b + t for s, b, t in zip(signs, gunits, units)))
                )
    return order


@dataclass(frozen=True)
class HolonomyTable:
    """One representative group element per holonomy sign-vector, in the
    order breadth-first closure discovered them."""

    entries: tuple[tuple[tuple[int, ...], DiagIsometry], ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def sign_vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(signs for signs, _ in self.entries)

    def representative(self, signs: tuple[int, ...]) -> DiagIsometry:
        for s, rep in self.entries:
            if s == signs:
                return rep
        raise KeyError(f"sign vector {signs} not in holonomy group")


def holonomy(c: HWCandidate) -> HolonomyTable:
    """Breadth-first closure of the generators' rotational parts, keeping the
    first representative found for each sign vector; always 2^(n-1) entries."""
    return HolonomyTable(tuple(
        (signs, DiagIsometry(signs, tuple(Fraction(u, 2) for u in units)))
        for signs, units in _bfs_representatives(c)
    ))


# ---------------------------------------------------------------------------
# classification from half units
#
# The kernel L of G -> (Z/2)^(n-1) is spanned by the holonomy orbits of the
# translations of the g_i^2 and [g_i, g_j], its normal generators.  The
# holonomy holds, for each j, the element A that is +1 only at j, and
# v + Av = 2 v_j e_j; so 2M lies in L for M = (+) m_j Z, m_j the gcd of
# coordinate j over those vectors.  A sign change moves a vector by an element
# of 2M, so L = 2M + span(vectors): the m_j plus an F2 space V of parity
# masks (bit j is v_j / m_j mod 2).  A holonomy class is the bitmask of the
# coordinates its sign matrix negates.  The three steps of classify keep the
# names bench/tracing.py hooks: _rep_units_raw, _schreier_lattice, _torsion_exists.

def _xor_reduce(basis: Sequence[int], v: int) -> int:
    """v reduced by an F2 basis sorted by decreasing leading bit."""
    for b in basis:
        v = min(v, v ^ b)
    return v


def _xor_basis(vectors: Iterable[int]) -> list[int]:
    """F2 basis of the span of the masks, sorted by decreasing leading bit."""
    basis: list[int] = []
    for v in vectors:
        v = _xor_reduce(basis, v)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


@lru_cache(maxsize=None)
def _standard_holonomy(n: int) -> tuple[tuple[int, ...], int, bool]:
    """The sign masks of the standard generators (bit j set where the sign
    is -1, so generator i has every bit but i), the holonomy order 2^rank
    from the F2 rank of the masks, and whether every holonomy matrix has
    determinant +1 (products of masks are XORs, so even popcounts suffice).
    HWCandidate enforces the standard sign patterns, so these depend on n
    alone."""
    full = (1 << n) - 1
    masks = tuple(full ^ (1 << i) for i in range(n - 1))
    order = 2 ** len(_xor_basis(masks))
    orientation = all(bin(m).count("1") % 2 == 0 for m in masks)
    return masks, order, orientation


def _rep_units_raw(c: HWCandidate):
    """Holonomy step of classify.  Returns the generators' translations in
    half units (integer u for the value u/2), then the masks, order and
    orientation of _standard_holonomy."""
    units = tuple(
        tuple(t.numerator * (2 // t.denominator) for t in g.translation)
        for g in c.generators
    )
    return (units, *_standard_holonomy(c.dim))


def _schreier_lattice(n: int, units: Sequence[Sequence[int]]):
    """Lattice step of classify, from normal generators (no Schreier
    vectors): the translations of the g_i^2 and [g_i, g_j] as integer
    vectors, the moduli m_j (gcd of coordinate j over them) and an F2 basis
    of their parity masks V.  The translation lattice is 2M + span(vectors).
    """
    vectors = []
    for i, u in enumerate(units):
        vectors.append([u[i] if k == i else 0 for k in range(n)])
        for j in range(i):
            w = units[j]
            vectors.append(
                [(u[k] if k != j else 0) - (w[k] if k != i else 0) for k in range(n)]
            )
    mods = [gcd(*(v[j] for v in vectors)) for j in range(n)]
    basis = _xor_basis(
        sum(((v[j] // m) & 1) << j for j, m in enumerate(mods) if m) for v in vectors
    )
    return mods, basis, vectors


def _torsion_classes(
    n: int, units: Sequence[Sequence[int]], masks: Sequence[int],
    mods: Sequence[int], basis: Sequence[int],
) -> Iterator[int]:
    """Sign masks of the holonomy classes that hold an element of finite
    order, at any lattice rank.

    Walks the 2^(n-1) - 1 non-identity classes in Gray-code order,
    right-multiplying a representative (A, a) by one generator per step.
    An element (A, a + λ) with λ in L has a fixed point (and then order two)
    exactly when a + λ vanishes on the coordinates F that A fixes: when a_j
    lies in m_j Z on F (a_j = 0 where m_j = 0) and the parity mask of a on F
    lies in the projection of V to F.
    """
    full = (1 << n) - 1
    moduli = [2 * m for m in mods]  # a_j in m_j Z, in half units
    # g_k times an element of 2M is still in G: reducing its half units mod
    # 2 * moduli keeps a candidate conjugated by a translation as sparse as
    # its standard form
    steps = [
        [(j, r) for j, (d, q) in enumerate(zip(u, moduli)) if (r := d % (2 * q) if q else d)]
        for u in units
    ]
    rep = [0] * n
    neg = bad = parity = 0
    for step in range(1, 1 << (n - 1)):
        k = (step & -step).bit_length() - 1
        for j, d in steps[k]:
            v = rep[j] = rep[j] - d if neg >> j & 1 else rep[j] + d
            q, r = divmod(v, moduli[j]) if moduli[j] else (0, v)
            bit = 1 << j
            bad = bad | bit if r else bad & ~bit
            parity = parity | bit if q & 1 else parity & ~bit
        neg ^= masks[k]
        fixed = full ^ neg
        if not bad & fixed and not _xor_reduce(
            _xor_basis(b & fixed for b in basis), parity & fixed
        ):
            yield neg


def _torsion_exists(
    n: int, units: Sequence[Sequence[int]], masks: Sequence[int],
    mods: Sequence[int], basis: Sequence[int],
) -> bool:
    """Torsion step of classify: whether the walk of _torsion_classes finds
    a class with torsion; it stops at the first."""
    return next(_torsion_classes(n, units, masks, mods, basis), None) is not None


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

    def basis_vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(
            tuple(Fraction(v, self.den) for v in row) for row in self.basis
        )

    @classmethod
    def from_scaled(cls, dim: int, rows: Sequence[Sequence[int]], den: int) -> "Lattice":
        h, rank = hermite_normal_form(list(rows))
        basis = h[:rank]
        g = gcd(den, *(v for row in basis for v in row))
        if g > 1:
            den //= g
            basis = [[v // g for v in row] for row in basis]
        return cls(dim, den, tuple(tuple(row) for row in basis))

    @classmethod
    def from_vectors(
        cls, dim: int, vectors: Sequence[Sequence[ExactNumber]]
    ) -> "Lattice":
        fracs = [[Fraction(v) for v in vec] for vec in vectors]
        den = lcm(*(v.denominator for vec in fracs for v in vec))
        rows = [[int(v * den) for v in vec] for vec in fracs]
        return cls.from_scaled(dim, rows, den)

    def scaled_basis(self, den: int) -> list[list[int]]:
        """Basis rows rescaled so vectors are rows/den; den must be a
        multiple of the stored denominator."""
        if den % self.den:
            raise ValueError(f"{den} is not a multiple of the lattice denominator {self.den}")
        f = den // self.den
        return [[v * f for v in row] for row in self.basis]

    def contains(self, vec: Sequence[ExactNumber]) -> bool:
        if len(vec) != self.dim:
            raise ValueError("dimension mismatch")
        scaled = []
        for v in vec:
            q = Fraction(v) * self.den
            if q.denominator != 1:
                return False
            scaled.append(q.numerator)
        return _in_hnf_span(self.basis, scaled)

    def reduce(self, vec: Sequence[ExactNumber]) -> tuple[Fraction, ...]:
        """Canonical representative of vec modulo the lattice, inside the
        fundamental cell of the HNF basis; requires full rank."""
        if self.rank != self.dim:
            raise ValueError("reduction needs a full-rank lattice")
        v = [Fraction(x) for x in vec]
        for row in self.basis:
            p = next(j for j, x in enumerate(row) if x)
            q = v[p] * self.den // row[p]  # floor of the basis coordinate
            if q:
                v = [a - q * Fraction(b, self.den) for a, b in zip(v, row)]
        return tuple(v)


def _in_hnf_span(hnf_rows: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Membership of an integer vector in the row lattice given by nonzero
    HNF rows."""
    pivots = {}
    for row in hnf_rows:
        for j, x in enumerate(row):
            if x:
                pivots[j] = row
                break
    v = list(vec)
    for j in range(len(v)):
        if v[j] == 0:
            continue
        row = pivots.get(j)
        if row is None:
            return False
        q, r = divmod(v[j], row[j])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return True


def _reduce_units(hnf_rows: Sequence[Sequence[int]], vec: Sequence[int]) -> list[int]:
    """Reduce an integer vector into the fundamental cell of an HNF basis
    (all in the same units); coordinates without a pivot are left alone."""
    v = list(vec)
    for row in hnf_rows:
        p = next(j for j, x in enumerate(row) if x)
        q = v[p] // row[p]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return v


@lru_cache(maxsize=256)
def translation_lattice(c: HWCandidate) -> Lattice:
    """Lattice of pure translations: spanned by the translations of the
    squares g_i^2 and commutators [g_i, g_j] together with 2 m_j e_j, where
    m_j is the gcd of coordinate j over those translations."""
    n = c.dim
    mods, _, vectors = _schreier_lattice(n, _rep_units_raw(c)[0])
    axes = [[2 * m if k == j else 0 for k in range(n)] for j, m in enumerate(mods) if m]
    return Lattice.from_scaled(n, vectors + axes, 1)


def is_crystallographic(c: HWCandidate) -> bool:
    """True when the pure translations span all of R^n, i.e. the group is
    discrete and cocompact: every modulus m_j is nonzero."""
    return all(_schreier_lattice(c.dim, _rep_units_raw(c)[0])[0])


# ---------------------------------------------------------------------------
# torsion

def _require_crystallographic(c: HWCandidate) -> None:
    if not is_crystallographic(c):
        rank = translation_lattice(c).rank  # only for the message
        raise ValueError(
            "torsion test requires a crystallographic candidate "
            f"(translation lattice has rank {rank} < {c.dim})"
        )


def is_torsion_free(c: HWCandidate) -> bool:
    """No non-identity holonomy class contains a finite-order element;
    defined for crystallographic candidates."""
    _require_crystallographic(c)
    return classify(c).torsion_free


def torsion_oracle(c: HWCandidate) -> bool:
    """Independent brute-force torsion test: per holonomy class, search for
    a fixed point of (A, a + λ) over lattice vectors λ whose basis
    coefficients lie in [-2, 2].  The representative a is first reduced into
    the fundamental HNF cell, which is what justifies the coefficient bound.
    Intended for n <= 5; must agree with is_torsion_free.
    """
    _require_crystallographic(c)
    rows2 = translation_lattice(c).scaled_basis(2)  # half units, like the representatives
    nrows = len(rows2)
    span = range(-2, 3)
    for signs, units in _bfs_representatives(c)[1:]:
        fixed = [j for j, s in enumerate(signs) if s == 1]
        reduced = _reduce_units(rows2, units)
        proj = [tuple(row[j] for j in fixed) for row in rows2]
        target = tuple(-reduced[j] for j in fixed)
        # meet-in-the-middle over the coefficient box
        half = nrows // 2
        left, right = proj[:half], proj[half:]
        left_sums = {
            tuple(sum(cf * row[i] for cf, row in zip(coeffs, left)) for i in range(len(fixed)))
            for coeffs in product(span, repeat=len(left))
        }
        for coeffs in product(span, repeat=len(right)):
            s = tuple(
                sum(cf * row[i] for cf, row in zip(coeffs, right))
                for i in range(len(fixed))
            )
            if tuple(t - x for t, x in zip(target, s)) in left_sums:
                return False
    return True


# ---------------------------------------------------------------------------
# classification

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


def _classify_units(n: int, units: Sequence[Sequence[int]]) -> Classification:
    """The classification kernel, on the generators' translations in half
    units.  The lattice and torsion steps are looked up as module globals
    on every call, so wrappers installed on them see each candidate."""
    masks, order, orientation = _standard_holonomy(n)
    mods, basis, _ = _schreier_lattice(n, units)
    cryst = all(mods)
    torsion_free = not _torsion_exists(n, units, masks, mods, basis)
    hw = cryst and torsion_free and order == 2 ** (n - 1) and orientation
    return Classification(cryst, torsion_free, order, orientation, hw)


def classify(c: HWCandidate) -> Classification:
    return _classify_units(c.dim, _rep_units_raw(c)[0])


def classify_index(
    n: int, idx: int
) -> tuple[tuple[tuple[int, ...], ...], Classification]:
    """Half units and classification of ``candidate_from_index(n, idx)``,
    read from the bits of idx without building the candidate: unit j of
    generator i is bit i*n+j, 1 for a translation by 1/2 and 0 for none.
    Raises ValueError for an even or small n and an index out of range."""
    units = _index_units(n, idx)
    return units, _classify_units(n, units)


def is_hantzsche_wendt(c: HWCandidate) -> bool:
    """Crystallographic, torsion-free, full holonomy order 2^(n-1), and every
    holonomy matrix of determinant +1."""
    return classify(c).hantzsche_wendt


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
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed candidate description: {exc}") from exc
    return build_candidate(dim, translations)
