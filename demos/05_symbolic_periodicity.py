#!/usr/bin/env python3
"""The symbolic one-dimensional engine.

Seed n-1 isometries of the line with formal translations d_0..d_(n-2) and
exactly one +1 sign (at position k), extend by the rule that each new term
is the product of the n-1 terms before it, and check that the sequence
repeats with period 2n.  Because the translations are formal linear forms,
kept exactly as integer coefficients, one run certifies the identity for
every real parameter value at once.
"""

from hwfib import symbolic_checks, symbolic_sequence, verify_addrel, verify_periodicity

n, k = 3, 0
seq = symbolic_sequence(n, k)
print(f"sequence for n={n}, k={k}:")
for i, term in enumerate(seq.terms):
    marker = ""
    if i >= 2 * n and term == seq.terms[i - 2 * n]:
        marker = f"   <- equals term {i - 2*n}"
    print(f"  term {i:2d}: {seq.term_text(i)}{marker}")

print("\nperiod 2n holds:", verify_periodicity(n, k))
print("one-step recursion (inverse times square) holds:", verify_addrel(n, k))

# The same checks at scale: every odd dimension up to 13 and every seed
# position, still exact and fast.  symbolic_checks runs all k at once, one
# recursion in E(n) whose coordinate k is the sequence for k.
for n in (3, 5, 7, 9, 11, 13):
    results = symbolic_checks(n)
    print(f"n={n:2d}: period {2*n} confirmed for all k in 0..{n-1}: {all(map(all, results))}")
