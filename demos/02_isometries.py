#!/usr/bin/env python3
"""Affine isometries with diagonal ±1 linear part.

An element (B, b) acts by x -> Bx + b with B a diagonal sign matrix; the
product law is (A, a)(B, b) = (AB, Ab + a).  Components and direct sums
decompose the action coordinate by coordinate.  The translation entries may
also be formal linear forms, which is how the symbolic sequence runs in E(1).
"""

from fractions import Fraction

from hwfib import (
    DiagIsometry,
    LinForm,
    apply,
    component,
    compose,
    direct_sum,
    format_rational,
    inverse,
    rotational_part,
)

HALF = Fraction(1, 2)


def point(p):
    return "(" + ", ".join(format_rational(x) for x in p) + ")"

g0 = DiagIsometry((1, -1, -1), (HALF, HALF, 0))
g1 = DiagIsometry((-1, 1, -1), (0, HALF, HALF))
print("g0 =", g0)
print("g1 =", g1)

# Composition and inverses are exact; squaring g0 produces a unit translation.
print("\ng0 * g0 =", compose(g0, g0))
print("g0 * g1 =", compose(g0, g1))
print("g0^-1   =", inverse(g0))
print("g0 * g0^-1 is identity:", compose(g0, inverse(g0)).is_identity())

# The rotational part forgets translations and is a homomorphism.
print("\nrotational parts:", rotational_part(g0), rotational_part(compose(g0, g1)))

# Acting on points.
print("\ng0 applied to the origin:", point(apply(g0, (0, 0, 0))))
print("g0 applied to (1/4,0,1): ", point(apply(g0, (Fraction(1, 4), 0, 1))))

# Every isometry decomposes into one-dimensional components along the
# coordinate axes, and the direct sum reassembles it exactly.
parts = [component(g0, i) for i in range(3)]
print("\ncomponents of g0:", [(s, format_rational(t)) for s, t in parts])
print("direct_sum(components) == g0:", direct_sum(parts) == g0)

# The same type carries formal translations: in E(1) with translations d0 and
# d1, the product law gives the translation update d0 + d1 symbolically.
d0, d1 = LinForm.symbol(0), LinForm.symbol(1)
a, b = DiagIsometry((1,), (d0,)), DiagIsometry((-1,), (d1,))
print("\nsymbolic (x + d0) o (-x + d1) =", compose(a, b))
print("its inverse                   =", inverse(compose(a, b)))
