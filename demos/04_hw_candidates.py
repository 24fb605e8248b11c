#!/usr/bin/env python3
"""Hantzsche-Wendt candidates: translation lattice, torsion, the bit kernel.

A candidate in odd dimension n is generated by n-1 isometries with the
standard diagonal sign patterns and half-integer translations.  It is a
Hantzsche-Wendt group when it is crystallographic (full-rank translation
lattice) and torsion-free.  ``classify`` decides both on n-bit words; the
steps it runs are printed below for three candidates.
"""

from fractions import Fraction

from hwfib import (
    build_candidate,
    candidate_count,
    classify,
    cyclic_hw,
    enumerate_candidates,
    is_torsion_free,
    translation_lattice,
)
from hwfib.hwgroup import _rep_units_raw, _schreier_lattice, _torsion_classes

HALF = Fraction(1, 2)


def show_kernel(c):
    """The moduli m_j and the normalised words of the generators, the
    crystallographic mask, a basis of the parity space V and the first
    holonomy class holding torsion.  A word is printed bit 0 first."""
    n = c.dim
    bits = lambda w: format(w, f"0{n}b")[::-1]
    mods, lows, highs = _rep_units_raw(c)
    cryst, basis = _schreier_lattice(n, lows)
    first = next(_torsion_classes(n, lows, highs, basis), None)
    print(f"  moduli m_j: {mods}")
    print(f"  low words: {[bits(u) for u in lows]}, high words: {[bits(u) for u in highs]}")
    print(f"  crystallographic mask: {bits(cryst)}")
    print(f"  parity space V: dimension {len(basis)}, basis {[bits(b) for b in basis]}")
    print("  first class with torsion (coordinates negated):",
          "none" if first is None else bits(first))
    print("  classification:", classify(c))


c = cyclic_hw(3)
print("the 3-dimensional cyclic candidate:")
for i, g in enumerate(c.generators):
    print(f"  generator {i}: {g}")
show_kernel(c)

lattice = translation_lattice(c)
print("translation lattice (Hermite form written from the m_j and V):")
print("  rank", lattice.rank, "basis", lattice.basis, "denominator", lattice.den)
print("torsion-free (Gray-code walk over the holonomy classes):", is_torsion_free(c))

# The same group scaled by 3: every modulus is 3, and the conjugation by
# x -> x/3 gives back the same words.
tripled = build_candidate(3, [(3 * HALF, 3 * HALF, 0), (0, 3 * HALF, 3 * HALF)])
print("\nthe cyclic candidate scaled by 3:")
show_kernel(tripled)

# A candidate with an obvious order-two element: zero translations make
# every generator an involution.
zero = build_candidate(3, [(0, 0, 0), (0, 0, 0)])
print("\nzero-translation candidate:")
show_kernel(zero)

# Exhaustive survey of dimension 3: all 2^6 = 64 half-integer assignments.
print(f"\nsurveying all {candidate_count(3)} candidates in dimension 3 ...")
hw = [cand for cand in enumerate_candidates(3) if classify(cand).hantzsche_wendt]
print(f"{len(hw)} of 64 are Hantzsche-Wendt groups; generators of the first:")
for i, g in enumerate(hw[0].generators):
    print(f"  generator {i}: {g}")
