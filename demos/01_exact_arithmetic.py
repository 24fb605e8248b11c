#!/usr/bin/env python3
"""Exact scalars and integer normal forms.

Everything the package computes is exact: rationals with arbitrary-precision
integers, and canonical Hermite/Smith normal forms over Z.
"""

from hwfib import (
    format_rational,
    hermite_normal_form,
    rational,
    smith_normal_form,
)

# Rationals are fractions.Fraction values, always reduced, denominator > 0.
half = rational(1, 2)
print("rational(2, 4)  =", format_rational(rational(2, 4)))
print("rational(3, -6) =", format_rational(rational(3, -6)))

# Hermite normal form: the canonical basis of the row lattice.  Same span,
# unique shape, so lattice equality is plain list equality.
m = [[2, 0], [1, 1]]
h, rank = hermite_normal_form(m)
print("\nHNF of [[2,0],[1,1]] =", h, "rank", rank)
h2, _ = hermite_normal_form(h)
print("idempotent:", h2 == h)

# Smith normal form: elementary divisors d1 | d2 | ... of an integer matrix.
print("\nSNF of diag(2,3) =", smith_normal_form([[2, 0], [0, 3]]))

# The divisor chain of the relator matrix of the Fibonacci group F(2,6);
# this matrix is the 6x6 circulant with first row (1,1,-1,0,0,0).
first = [1, 1, -1, 0, 0, 0]
circulant = [first[-i:] + first[:-i] for i in range(6)]
print("SNF of the F(2,6) circulant =", smith_normal_form(circulant))
print("(product of divisors = 16 = order of the abelianized group)")
