#!/usr/bin/env python3
"""Fibonacci presentations, the shift automorphism, and abelianization.

F(r, n) has n generators a_0..a_(n-1) and the n cyclic relators
a_i a_(i+1) ... a_(i+r-1) = a_(i+r) with indices mod n, stored here as the
length-(r+1) words a_i ... a_(i+r-1) a_(i+r)^(-1).
"""

from hwfib import (
    abelianization,
    fibonacci_presentation,
    free_reduce,
    relator_matrix,
    shift,
)


def word_text(w):
    """A word of (generator, exponent) letters as text, e.g. a0 a1 a2^-1."""
    return " ".join(f"a{i}" if e > 0 else f"a{i}^-1" for i, e in w)


p = fibonacci_presentation(2, 6)
print("F(2,6):", p.generator_count, "generators,", len(p.relators), "relators")
for i, rel in enumerate(p.relators):
    print(f"  relator {i}: {word_text(rel)}")

# The shift automorphism a_i -> a_(i-1) (subscripts mod 2n) permutes the
# relator set, which is why one verified quotient map generates a whole
# family of them.
shifted = {free_reduce(shift(r, 1, 6)) for r in p.relators}
print("\nshift by 1 permutes the relators:", shifted == set(p.relators))

# Abelianization via the Smith normal form of the exponent matrix.
print("\nrelator matrix row 0:", relator_matrix(p)[0])
print("divisors of F(2,6)^ab:", abelianization(p))
print("  -> the torsion part is C4 x C4, order 16")

for n in (5, 7, 9):
    divisors = abelianization(fibonacci_presentation(n - 1, 2 * n))
    evens = sum(1 for d in divisors if d == 0 or d % 2 == 0)
    print(
        f"F({n-1},{2*n})^ab: {len(divisors)} divisors, 2-rank {evens} "
        f"(>= {n-1}, the holonomy rank in dimension {n})"
    )
