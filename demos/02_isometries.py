#!/usr/bin/env python3
"""Affine isometries with diagonal ±1 linear part.

An element (B, b) acts by x -> Bx + b with B a diagonal sign matrix; the
product law is (A, a)(B, b) = (AB, Ab + a).  It acts coordinate by
coordinate: coordinate i of an element is the pair (sign, translation) at i.  The same product law runs
the symbolic sequence in E(1), whose translations are linear forms in formal
parameters d0, d1, ...
"""

from fractions import Fraction

from hwfib import DiagIsometry, symbolic_sequence

HALF = Fraction(1, 2)


def point(p):
    return "(" + ", ".join(map(str, p)) + ")"

g0 = DiagIsometry((1, -1, -1), (HALF, HALF, 0))
g1 = DiagIsometry((-1, 1, -1), (0, HALF, HALF))
print("g0 =", g0)
print("g1 =", g1)

# Composition and inverses are exact; squaring g0 produces a unit translation.
print("\ng0 * g0 =", g0.compose(g0))
print("g0 * g1 =", g0.compose(g1))
print("g0^-1   =", g0.inverse())
print("g0 * g0^-1 is identity:", g0.compose(g0.inverse()).is_identity())

# The rotational part, the sign vector, forgets translations and is a
# homomorphism.
print("\nrotational parts:", g0.signs, g0.compose(g1).signs)

# Acting on points.
print("\ng0 applied to the origin:", point(g0.apply((0, 0, 0))))
print("g0 applied to (1/4,0,1): ", point(g0.apply((Fraction(1, 4), 0, 1))))

# Every isometry decomposes into one-dimensional components along the
# coordinate axes, and the constructor reassembles it exactly from them.
parts = [(g0.signs[i], g0.translation[i]) for i in range(3)]
print("\ncomponents of g0:", [(s, str(t)) for s, t in parts])
print("reassembled components == g0:", DiagIsometry(*zip(*parts)) == g0)

# The same product law runs symbolically: the sequence for n=3, k=0 starts
# with the seeds x -> x + d0 and x -> -x + d1, and its next term is their
# product x -> -x + d0 + d1.
seq = symbolic_sequence(3, 0)
a, b, ab = seq.terms[:3]
print("\nsymbolic (x + d0) o (-x + d1) = x -> -x +", seq.translation_text(2))
print("equals compose of the seeds:  ", a.compose(b) == ab)
