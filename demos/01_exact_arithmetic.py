#!/usr/bin/env python3
"""Exact scalars, formal linear forms, and integer normal forms.

Everything the package computes is exact: rationals with arbitrary-precision
integers, linear forms with exact coefficients, and canonical Hermite/Smith
normal forms over Z.
"""

from hwfib import (
    DiagIsometry,
    LinForm,
    format_rational,
    hermite_normal_form,
    rational,
    smith_normal_form,
)

# Rationals are fractions.Fraction values, always reduced, denominator > 0.
half = rational(1, 2)
print("rational(2, 4)  =", format_rational(rational(2, 4)))
print("rational(3, -6) =", format_rational(rational(3, -6)))

# Linear forms are formal expressions over symbols d0, d1, ...; they model
# one-dimensional translations whose values are kept as parameters.  As the
# translation of an isometry x -> -x + d1 of the line, composing with
# x -> x + 2*d0 gives x -> -x - 2*d0 + d1.
d0, d1 = LinForm.symbol(0), LinForm.symbol(1)
print("\nd0 + d1                  =", d0 + d1)
reflect, shift = DiagIsometry((-1,), (d1,)), DiagIsometry((1,), (d0.scaled(2),))
print("(-x + d1) o (x + 2*d0)   =", reflect.compose(shift))
print("a form minus itself       =", d1 - d1)

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
