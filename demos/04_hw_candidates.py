#!/usr/bin/env python3
"""Hantzsche-Wendt candidates: translation lattice, torsion, the bit kernel.

A candidate in odd dimension n is generated by n-1 isometries with the
standard diagonal sign patterns and half-integer translations.  It is a
Hantzsche-Wendt group when it is crystallographic (full-rank translation
lattice) and torsion-free.  ``classify`` decides both on n-bit words; the
steps it runs are printed below for four candidates.
"""

from fractions import Fraction

from hwfib import (
    HWCandidate,
    candidate_count,
    candidate_from_index,
    classify,
    cyclic_hw,
    translation_lattice,
)
from hwfib.hwgroup import _rep_units_raw, _schreier_lattice, _torsion_classes, candidate_indices

HALF = Fraction(1, 2)


def show_kernel(c):
    """The moduli m_j and the normalised word of each generator, the
    crystallographic mask read from the columns of the words, whether one
    generator decides torsion, and else the first holonomy class the
    parity walk finds with torsion.  A word is printed bit 0 first."""
    n = c.dim
    bits = lambda w: format(w, f"0{n}b")[::-1]
    mods, lows = _rep_units_raw(c)
    print(f"  moduli m_j: {mods}")
    print(f"  words (unit parities): {[bits(u) for u in lows]}")
    print(f"  crystallographic mask: {bits(_schreier_lattice(n, lows))}")
    own = [i for i, u in enumerate(lows) if not u >> i & 1]
    if own:
        print(f"  generator {own[0]} has no bit of its own: its class has torsion, no walk runs")
    else:
        first = next(_torsion_classes(n, lows), None)
        print("  every generator has its own bit: the parity walk decides;",
              "first class with torsion (coordinates negated):",
              "none" if first is None else bits(first))
    print("  classification:", classify(c))


c = cyclic_hw(3)
print("the 3-dimensional cyclic candidate:")
for i, g in enumerate(c.generators):
    print(f"  generator {i}: {g}")
show_kernel(c)

lattice = translation_lattice(c)
print("translation lattice (Hermite form written from the m_j and the parity space V):")
print("  rank", lattice.rank, "basis", lattice.basis, "denominator", lattice.den)
print("torsion-free (parity walk over the holonomy classes):", classify(c).torsion_free)

# The same group scaled by 3: every modulus is 3, and the conjugation by
# x -> x/3 gives back the same words.
tripled = HWCandidate(3, [(3 * HALF, 3 * HALF, 0), (0, 3 * HALF, 3 * HALF)])
print("\nthe cyclic candidate scaled by 3:")
show_kernel(tripled)

# A candidate with an obvious order-two element: zero translations make
# every generator an involution.
zero = HWCandidate(3, [(0, 0, 0), (0, 0, 0)])
print("\nzero-translation candidate:")
show_kernel(zero)

# Every generator has its own bit, so no single generator decides; the
# walk finds a product of generators whose translation is even wherever
# its sign matrix fixes a coordinate.
owned = candidate_from_index(5, 285943)
print("\na 5-dimensional candidate with every own bit and torsion:")
show_kernel(owned)

# Exhaustive survey of dimension 3: all 2^6 = 64 half-integer assignments.
print(f"\nsurveying all {candidate_count(3)} candidates in dimension 3 ...")
candidates = (candidate_from_index(3, i) for i in candidate_indices(3))
hw = [cand for cand in candidates if classify(cand).hantzsche_wendt]
print(f"{len(hw)} of 64 are Hantzsche-Wendt groups; generators of the first:")
for i, g in enumerate(hw[0].generators):
    print(f"  generator {i}: {g}")
