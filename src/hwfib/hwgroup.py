"""Hantzsche-Wendt candidate groups in the standard diagonal form.

A candidate in dimension n (odd) is the group G generated by n-1
isometries g_i whose linear parts are the standard sign matrices (+1 at
coordinate i only, -1 elsewhere) and whose translations t_i are
half-integer vectors.  This module classifies such candidates (the
crystallographic test, the torsion test, the holonomy), gives their
translation lattice, and enumerates the half-integer search space.

A candidate stores its translations in half units, u_i = 2 t_i, n-1
tuples of ints (``HWCandidate.units``), read and written as text through
``exact.parse_half`` and ``exact.format_half``; the ``exact`` docstring
gives the grammar and says where ``fractions`` remains.

Classification runs on n-bit words.  A holonomy class is the bitmask of
the coordinates its sign matrix negates.  One kernel, ``_classify_lanes``,
classifies: it reads both flags of a batch of indices, crystallographic
and torsion-free, in one pass of bitwise operations on one int (see
Lanes), and ``_classification`` turns a flags byte into a
``Classification``.  ``classify`` normalises an ``HWCandidate`` and packs
its words into an index; ``classify_index`` and a survey's batches are
indices already.  The steps keep the names bench/tracing.py hooks:
``_rep_units_raw`` (normalise, for an ``HWCandidate`` only),
``_schreier_lattice`` and ``_torsion_exists``.

Holonomy.  Products of sign matrices are XORs of their masks.
A candidate stores no signs: generator i has the standard pattern, mask
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
generator g_i is then one n-bit word U_i, bit j the parity of its unit j;
the torsion step below shows that nothing else decides a verdict.  An
enumerated index is already in that form: its units are 0 or 1, every m_j
is 0 or 1, and the words are the index bits.

Lattice step.  With every m_j in {0, 1}, L is the set of integer vectors,
zero where m_j = 0, whose parity mask lies in the F2 space V spanned by the
parity masks of the normal generators: U_i & bit i for g_i^2 and
(U_i & ~bit j) ^ (U_j & ~bit i) for [g_i, g_j], U_i the word of g_i.
Their OR, the crystallographic mask, holds the coordinates with m_j = 1;
the candidate is crystallographic when it holds all n.  It needs no basis:
bit j of the word of [g_i, g_k] is U_i[j] ^ U_k[j] off {i, k}, U_i[i] at i
and U_k[k] at k, so bit j of the OR is set when U_j[j] is 1 or when column
j off the diagonal (the U_i[j], i != j) is not constant.  With D the OR of
U_i & bit i, O the OR of U_i & ~bit i and A the AND of U_i | bit i, the
mask is D | (O & ~A), as ``_schreier_lattice`` computes it.  Undoing the
scaling, the lattice of the candidate as given is the set of integer
vectors x, zero where m_j = 0, with x_j in m_j Z and parity mask (bit j is
x_j / m_j mod 2) in V.  ``translation_lattice`` writes its Hermite form
from the m_j and V alone.  Bring the normal generators' words to reduced
echelon form, dropping those that reduce to 0, with each pivot at a word's
lowest set bit, so that no word has a bit at another word's pivot.  For
each j with m_j > 0, in increasing order, take the row m.b (m_k wherever b
has bit k) when j is the pivot of the word b, and 2 m_j e_j otherwise.
These rows lie in L and span it: 2 m_j e_j at a pivot j is 2 m.b minus the
rows 2 m_k e_k at the other bits k of b, none of which is a pivot; so the
rows span 2M, and m.v for v in V is a sum of rows m.b modulo 2M.  Row j
has the positive pivot m_j or 2 m_j at column j and is zero before it.
Above a pivot k every entry is 0 when k is a word's pivot, and 0 or
m_k < 2 m_k otherwise.  So the rows are the canonical Hermite form of L,
with no elimination.

Torsion step.  An element (A, a + λ), λ in L, has a fixed point (and then
order two) exactly when a + λ vanishes on the coordinates F that A fixes:
when the half units of a are even on F (and 0 where m_j = 0, which holds
by the above) and the parity mask of a/2 on F lies in the projection of V
to F.  When every g_i has its own bit, bit i of U_i, as every
Hantzsche-Wendt candidate does, the parity of a alone decides (the own-bit
lemma).  V then holds every e_i = U_i & bit i, i < n-1, so V is all of
F2^n when its OR, the mask, has bit n-1, that is when the candidate is
crystallographic, and is spanned by e_0..e_(n-2) otherwise.  At rank n
the projection of V to F is all of F2^F.  At rank n-1 it lacks only bit
n-1, which F holds in the classes that fix n-1, the products of evenly
many generators.  There m_(n-1) = 0, every g_i acts on coordinate n-1 as
one reflection x -> c - x, and so a_(n-1) = 0.  The translation of a
product is the sum of its factors' translations up to sign, so a mod 2 is
the XOR of their words, and the walk over the holonomy classes keeps it
as one bit plane.  Without the own bit no walk is needed: the class of g_i
alone fixes only F = {i}, and holds torsion exactly when bit i of U_i is
0, whatever V.  If m_i = 1 the mask has bit i, so the projection of V to
{i} is all of F2; if m_i = 0 then u_i[i] = 0, as m_i divides it.  This
needs normalised words: on raw units, u_i[i] even says nothing of
a_i / m_i.  So the kernel walks only when every g_i has its own bit.

Lanes.  ``_classify_lanes`` packs each index of a batch into a lane of
w = ceil(n(n-1)/8) bytes of one int, so that word i of the lane is bits
i*n to i*n+n-1 and the lane has more than n bits, as n(n-1) > n.  A
pattern below 2^n times the int with bit 0 of every lane set is that
pattern in every lane, and a bitwise operation never mixes two lanes.
Shifting the int down by i*n and masking with n ones per lane gives word i
of every lane at once; on these words ``_schreier_lattice``, given that
pattern, computes every lane's crystallographic mask, each bit j read from
column j alone, and adding 1 at bit 0 of a lane carries into its bit n
exactly when the mask holds all n bits.  By the own-bit lemma a lane that
lacks an own bit holds torsion; the AND over i of word i shifted down by i
marks the lanes with every own bit, and only those walk, one at a time
through ``_torsion_exists``: 1 in 2^(n-1) of uniform draws.  Byte 0 of each
lane, read back with a stride of w bytes, is that lane's flags byte.

Translation orbits.  Let F_k be the bits i*n+k of an index over the
generators i != k: unit k of every generator but g_k.  The candidates at
idx and idx ^ F_k have the same classification.  Conjugating by the
translation e_k/4 adds (1 - A_i) e_k/4 to t_i: one half unit at
coordinate k of every g_i with i != k, as A_i negates k, and nothing to
g_k, as A_k fixes k.  So unit 0 goes to 1 and unit 1 goes to 2.
Conjugating then by the reflection x_k -> 1/2 - x_k, the diagonal map
D x + e_k/2 with D = -1 at k only, sends a unit v at coordinate k of g_i,
i != k, to 2 - v: 1 stays 1 and 2 becomes 0.  So the 2 is not read as 0
modulo the lattice, which need not hold the translation e_k it adds; an
isometry makes it 0, and the classification reads that 0 as the bit it
is.  The reflection negates unit k of g_k and leaves every other unit.  Last,
replace g_k by its inverse (A_k, -A_k t_k): that negates coordinate k of
t_k and keeps the others, which A_k negates, so unit k of g_k is back to
its value, and the group is the same group.  (For k = n-1 there is no
g_k: every generator negates coordinate n-1.)  The generators are now
those of the candidate at idx ^ F_k, so that candidate is the conjugate of the one
at idx by the isometry D x + e_k/4: it is crystallographic, torsion-free
and of the same holonomy exactly when the other is, and the verdict, read
from the classification and the relator certificate of the dimension, is
the same too.  The F_k lie in distinct columns k, and each is nonzero as
n - 1 >= 2 generators exist, so they generate a free action of (Z/2)^n on
the indices: 2^(n(n-2)) orbits of 2^n indices, 8 at n = 3 and 2^15 at
n = 5.
"""

from __future__ import annotations

import random
from itertools import compress, repeat
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence

from .exact import ExactNumber, format_half, parse_half
from .isometry import DiagIsometry
from .record import Record

__all__ = [
    "HWCandidate",
    "Lattice",
    "Classification",
    "cyclic_hw",
    "translation_lattice",
    "classify",
    "classify_index",
    "candidate_indices",
    "candidate_count",
    "candidate_from_index",
    "candidate_to_json_dict",
    "candidate_from_json_dict",
]

def standard_signs(n: int, i: int) -> tuple[int, ...]:
    """Sign vector of the i-th standard generator: +1 at coordinate i only."""
    return tuple(1 if j == i else -1 for j in range(n))


def _check_dim(n: int) -> None:
    if n % 2 == 0 or n < 3:
        raise ValueError(
            f"dimension must be odd and >= 3 (Hantzsche-Wendt groups exist "
            f"only in odd dimensions); got {n}"
        )


def _check_length(n: int, i: int, row: Sequence) -> None:
    if len(row) != n:
        raise ValueError(f"translation {i} has length {len(row)}, expected {n}")


def _row_units(i: int, doubled: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Half units of the translation of generator i from its doubled
    entries 2t, each the numerator and denominator that ``parse_half``
    returns; every denominator must be 1."""
    out = []
    for p, q in doubled:
        if q != 1:
            # t = p/(2q), and p is prime to q
            g = gcd(p, 2)
            raise ValueError(
                f"generator {i} translation entry {p // g}/{2 * q // g} is not a half-integer"
            )
        out.append(p)
    return tuple(out)


def _refuse_float(i: int, value) -> None:
    """Refuse a float entry of generator i: it holds the nearest binary
    value, not the text it was written from, so its str need not be that
    text (0.50000000000000001 reads as 0.5, 1e16 as '1e+16')."""
    if isinstance(value, float):
        raise ValueError(
            f"generator {i} translation entry is a float, which is not exact: "
            "parse the JSON with parse_float=str"
        )


def _checked_units(n: int, rows: Sequence[Sequence]) -> tuple[tuple[int, ...], ...]:
    """The half units of the candidate of dimension n whose generator i has
    the doubled translation rows[i] (see ``_row_units``): the dimension,
    the count and the half-integers checked, in that order.  The checked
    tail of ``HWCandidate`` and ``candidate_from_json_dict``."""
    _check_dim(n)
    if len(rows) != n - 1:
        raise ValueError(f"expected {n - 1} generators, got {len(rows)}")
    return tuple(_row_units(i, row) for i, row in enumerate(rows))


class HWCandidate(Record):
    """Generator data for a candidate group: dimension plus the n-1
    half-integer translations attached to the standard sign matrices,
    stored as half units (``units[i][j]`` is twice entry j of the
    translation of generator i).

    The public constructor takes the dimension and one translation vector
    of length n per generator, and reads each entry through its str by
    ``parse_half``, refusing a Python float as the JSON loader does.  It
    checks each vector's length, then its entries, then the dimension, the
    count and the half-integers."""

    __slots__ = ("dim", "units")

    def __init__(self, dim: int, translations: Sequence[Sequence[ExactNumber]]) -> None:
        rows = []
        for i, t in enumerate(translations):
            _check_length(dim, i, t)
            for x in t:
                _refuse_float(i, x)
            rows.append([parse_half(str(x)) for x in t])
        self.dim = dim
        self.units = _checked_units(dim, rows)

    @property
    def generators(self) -> tuple[DiagIsometry, ...]:
        """The generators as ``DiagIsometry`` values over ``Fraction``, built
        anew from the units on every read: read it once into a local."""
        from fractions import Fraction

        return tuple(
            DiagIsometry._normal(standard_signs(self.dim, i), tuple(Fraction(u, 2) for u in row))
            for i, row in enumerate(self.units)
        )


def cyclic_hw(n: int) -> HWCandidate:
    """The classical cyclic family: generator i translates by (e_i + e_(i+1))/2."""
    _check_dim(n)
    return HWCandidate._normal(
        n, tuple(tuple(int(j in (i, i + 1)) for j in range(n)) for i in range(n - 1))
    )


# ---------------------------------------------------------------------------
# classification on n-bit words (see the module docstring)

def _rep_units_raw(c: HWCandidate) -> tuple[list[int], list[int]]:
    """Normalising step of classify: the moduli m_j, then the word of every
    generator after the conjugation that makes each nonzero m_j equal to 1
    (see the module docstring)."""
    n = c.dim
    units = c.units
    mods = [0] * n
    lows = [0] * (n - 1)
    for j in range(n):
        ref = units[1 if j == 0 else 0][j]
        m = mods[j] = gcd(
            units[j][j] if j < n - 1 else 0,
            *(u[j] - ref for i, u in enumerate(units) if i != j),
        )
        for i, u in enumerate(units):
            lows[i] |= ((u[j] // m if m else u[j]) & 1) << j
    return mods, lows


def _normal_generator_words(lows: Sequence[int]) -> Iterator[int]:
    """Parity masks of the translations of g_i^2 and [g_i, g_j]."""
    for i, u in enumerate(lows):
        bit = 1 << i
        yield u & bit
        for j, w in enumerate(lows[:i]):
            yield (u & ~(1 << j)) ^ (w & ~bit)


def _schreier_lattice(n: int, lows: Iterable[int], low: int = 1) -> int:
    """Lattice step of the kernel: the crystallographic mask, the
    coordinates with m_j = 1, read from the columns of the words (see the
    module docstring); in every lane of the words at once when low has bit
    0 of each lane set (see Lanes)."""
    diag = off = 0
    ones = low * ((1 << n) - 1)
    for i, u in enumerate(lows):
        bit = low << i
        diag |= u & bit
        off |= u & ~bit
        ones &= u | bit
    return diag | off & ~ones


def _torsion_classes(n: int, lows: Sequence[int]) -> Iterator[int]:
    """Sign masks of the holonomy classes that hold an element of finite
    order, from normalised words in which every generator has its own bit.

    Walks the 2^(n-1) - 1 non-identity classes in Gray-code order,
    right-multiplying a representative (A, a) by one generator per step,
    with a mod 2 kept as one bit plane rl.  By the own-bit lemma of the
    module docstring, a class holds torsion exactly when rl vanishes on the
    coordinates that A fixes.
    """
    full = (1 << n) - 1
    rl = neg = 0
    for step in range(1, 1 << (n - 1)):
        k = (step & -step).bit_length() - 1
        rl ^= lows[k]
        neg ^= full ^ (1 << k)
        if not rl & ~neg:
            yield neg


def _torsion_exists(n: int, lows: Sequence[int]) -> bool:
    """Torsion step of the kernel: whether the walk of _torsion_classes finds
    a class with torsion; it stops at the first."""
    return next(_torsion_classes(n, lows), None) is not None


class Classification(Record):
    __slots__ = (
        "crystallographic",
        "torsion_free",
        "holonomy_order",
        "orientation_preserving",
        "hantzsche_wendt",
    )

    def to_json_dict(self) -> dict:
        return dict(zip(self.__slots__, self._fields()))


def _classification(n: int, flags: int) -> Classification:
    """The classification of a candidate of dimension n with the flags byte
    of ``_classify_lanes``.  The holonomy is always the full
    orientation-preserving group of order 2^(n-1) (see the module
    docstring), so a candidate is Hantzsche-Wendt exactly when it is
    crystallographic and torsion-free."""
    return Classification(bool(flags & 1), bool(flags & 2), 2 ** (n - 1), True, flags == 3)


def classify(c: HWCandidate) -> Classification:
    n = c.dim
    idx = sum(w << i * n for i, w in enumerate(_rep_units_raw(c)[1]))
    return _classification(n, _classify_lanes(n, [idx])[0])


def classify_index(n: int, idx: int) -> Classification:
    """Classification of ``candidate_from_index(n, idx)``, read from the
    bits of idx without building the candidate: unit j of generator i is
    bit i*n+j, 1 for a translation by 1/2 and 0 for none.  These are
    already normalised words.  Raises ValueError for an even or small n and
    an index out of range."""
    _check_index(n, idx)
    return _classification(n, _classify_lanes(n, [idx])[0])


def _classify_lanes(n: int, indices: Sequence[int]) -> bytes:
    """The flags of the candidate at each of the indices, one byte each: bit
    0 crystallographic and bit 1 torsion-free, read from one lane per index
    of one int (see Lanes in the module docstring).  The lattice and
    torsion steps are looked up as module globals on every call, so
    wrappers installed on them see each batch and each walk.  It takes
    indices of dimension n in range, and checks them only in the lanes that
    walk."""
    width = (n * (n - 1) + 7) // 8
    size = width * len(indices)
    lanes = int.from_bytes(
        b"".join(map(int.to_bytes, indices, repeat(width), repeat("little"))), "little"
    )
    # bit 0 of every lane, and the n bits of a word in every lane
    low = int.from_bytes((b"\x01" + bytes(width - 1)) * len(indices), "little")
    fields = low * ((1 << n) - 1)
    words = (lanes >> (i * n) & fields for i in range(n - 1))
    cryst = (_schreier_lattice(n, words, low) + low) >> n & low
    # bit i*n+i of a lane is the own bit of generator i
    own = low
    for i in range(n - 1):
        own &= lanes >> (i * (n + 1))
    flags = bytearray((cryst | own << 1).to_bytes(size, "little")[::width])
    # by the own-bit lemma, only the lanes with every own bit walk
    walks = own.to_bytes(size, "little")[::width]
    for k, idx in compress(enumerate(indices), walks):
        if _torsion_exists(n, _index_words(n, idx)):
            flags[k] &= 1
    return bytes(flags)


# ---------------------------------------------------------------------------
# translation lattice

class Lattice(Record):
    """Lattice of rational vectors: canonical-HNF integer basis rows divided
    by one global denominator.  Canonicity makes equality structural."""

    __slots__ = ("dim", "den", "basis")

    @property
    def rank(self) -> int:
        return len(self.basis)


def _reduced_echelon(words: Iterable[int]) -> dict[int, int]:
    """Reduced echelon form of a basis of the span of F2 words, keyed by
    pivot: each word's pivot is its lowest set bit, and no word has a bit at
    another word's pivot."""
    pivots: dict[int, int] = {}
    for v in words:
        # the words held are reduced, so each XOR clears one pivot bit of v
        for p, b in pivots.items():
            if v & p:
                v ^= b
        if not v:
            continue
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
    mods, lows = _rep_units_raw(c)
    pivots = _reduced_echelon(_normal_generator_words(lows))
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


def _check_index(n: int, idx: int) -> None:
    _check_dim(n)
    if idx < 0 or idx >> (n * (n - 1)):
        raise ValueError(f"index {idx} out of range for dimension {n}")


def _index_words(n: int, idx: int) -> list[int]:
    """The n-bit words of the candidate at idx: word i holds bits i*n to
    i*n+n-1, bit j for coordinate j of generator i."""
    _check_index(n, idx)
    full = (1 << n) - 1
    return [idx >> (i * n) & full for i in range(n - 1)]


def _word_units(n: int, word: int) -> tuple[int, ...]:
    """The half units of one generator, the n bits of its word lowest
    first."""
    return tuple(word >> j & 1 for j in range(n))


def candidate_from_index(n: int, idx: int) -> HWCandidate:
    """Bit i*n+j of idx decides whether generator i translates by 1/2 along
    coordinate j; indices enumerate the whole space deterministically."""
    return HWCandidate._normal(n, tuple([_word_units(n, w) for w in _index_words(n, idx)]))


def candidate_indices(
    n: int, sample: Optional[int] = None, seed: int = 0
) -> Iterator[int]:
    """Candidate indices in index order; or, when ``sample`` is given, that
    many uniform draws with replacement, from ``random.Random(seed)`` (seed
    0 by default, as in the CLI).  Lazy: each index is drawn when consumed."""
    total = candidate_count(n)
    if sample is None:
        yield from range(total)
    else:
        rng = random.Random(seed)
        for _ in range(sample):
            yield rng.randrange(total)


# ---------------------------------------------------------------------------
# JSON wire format

def candidate_to_json_dict(c: HWCandidate) -> dict:
    return {
        "dim": c.dim,
        "translations": [[format_half(u) for u in row] for row in c.units],
    }


class _NumberText(str):
    """A JSON number that is not an integer, as its text in the file: the
    ``parse_float`` and ``parse_constant`` of ``cli``'s ``json.load``."""

    __slots__ = ()
    __repr__ = str.__str__


# The JSON names of the types json.load returns
_JSON_TYPES = {
    dict: "object", list: "array", str: "string", int: "number", float: "number",
    _NumberText: "number", bool: "boolean", type(None): "null",
}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _json_array(value, what: str) -> list:
    if type(value) is not list:
        raise ValueError(f"{what} must be a JSON array, got {_json_type(value)}")
    return value


def _doubled_entry(i: int, value) -> tuple[int, int]:
    """2t for entry t of generator i, a JSON string or number, as
    ``parse_half`` reads it from its str (see ``_refuse_float``)."""
    _refuse_float(i, value)
    if type(value) not in (str, int, _NumberText):
        raise ValueError(
            f"generator {i} translation entry must be a string or a number, "
            f"got {_json_type(value)}"
        )
    return parse_half(str(value))


def candidate_from_json_dict(data: dict) -> HWCandidate:
    """The candidate of a JSON description.  Every entry is read first, and
    the translations, each of their rows and each entry must have a JSON
    type that can hold them; then the lengths, the dimension, the count and
    the half-integers are checked, in that order."""
    if type(data) is not dict:
        raise ValueError(f"candidate description must be a JSON object, got {_json_type(data)}")
    try:
        dim = data["dim"]
        # a JSON integer only: int() would truncate 3.9 and overflow on 1e400
        if type(dim) is not int:
            raise ValueError(f"dim must be an integer, got {dim!r}")
        rows = [
            [_doubled_entry(i, t) for t in _json_array(vec, f"translation {i}")]
            for i, vec in enumerate(_json_array(data["translations"], "translations"))
        ]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed candidate description: {exc}") from exc
    for i, row in enumerate(rows):
        _check_length(dim, i, row)
    return HWCandidate._normal(dim, _checked_units(dim, rows))
