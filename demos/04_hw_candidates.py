#!/usr/bin/env python3
"""Hantzsche-Wendt candidates: holonomy, translation lattice, torsion.

A candidate in odd dimension n is generated by n-1 isometries with the
standard diagonal sign patterns and half-integer translations.  It is a
Hantzsche-Wendt group when it is crystallographic (full-rank translation
lattice) and torsion-free.
"""

from fractions import Fraction

from hwfib import (
    build_candidate,
    candidate_count,
    classify,
    cyclic_hw,
    enumerate_candidates,
    holonomy,
    is_torsion_free,
    torsion_oracle,
    translation_lattice,
)

HALF = Fraction(1, 2)

c = cyclic_hw(3)
print("the 3-dimensional cyclic candidate:")
for i, g in enumerate(c.generators):
    print(f"  generator {i}: {g}")

table = holonomy(c)
print("\nholonomy closure:", len(table), "sign vectors")
for signs, rep in table.entries:
    print(f"  {signs}: representative {rep}")

lattice = translation_lattice(c)
print("\ntranslation lattice (normal generators g_i^2, [g_i, g_j], F2 parity masks):")
print("  rank", lattice.rank, "basis", lattice.basis, "denominator", lattice.den)

print("\ntorsion-free (Gray-code walk over the holonomy classes):", is_torsion_free(c))
print("torsion-free (bounded brute force):", torsion_oracle(c))
print("classification:", classify(c))

# A candidate with an obvious order-two element: zero translations make
# every generator an involution.
zero = build_candidate(3, [(0, 0, 0), (0, 0, 0)])
print("\nzero-translation candidate:", classify(zero))

# Exhaustive survey of dimension 3: all 2^6 = 64 half-integer assignments.
print(f"\nsurveying all {candidate_count(3)} candidates in dimension 3 ...")
hw = [cand for cand in enumerate_candidates(3) if classify(cand).hantzsche_wendt]
print(f"{len(hw)} of 64 are Hantzsche-Wendt groups; generators of the first:")
for i, g in enumerate(hw[0].generators):
    print(f"  generator {i}: {g}")
