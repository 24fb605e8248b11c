#!/usr/bin/env python3
"""Building and verifying the Fibonacci quotient maps.

For a Hantzsche-Wendt candidate of dimension n, the images of the 2n
Fibonacci generators are: the n-1 group generators, then the remaining
images via the product recursion in E(n).  Verification checks all 2n
relators exactly once per dimension, on generic generators whose
translations are formal parameters; that check covers every candidate of
the dimension, and the first n-1 images are the generators by construction
(hence the map is onto).  The check is sound because of specialisation:
coordinate j of a candidate's images is the symbolic sequence with its +1
seed at k = j, evaluated at the candidate's translations.  The relators are
also checked here on the candidate's own images.
"""

import json

from hwfib import (
    build_epimorphism,
    candidate_from_index,
    classify,
    cyclic_hw,
    fibonacci_presentation,
    symbolic_sequence,
    verify_main_theorem,
    verify_relators,
)
from hwfib.hwgroup import candidate_indices

c = cyclic_hw(3)
imgs = build_epimorphism(c)
print("images of a_0..a_5 for the 3-dimensional cyclic group:")
for i, g in enumerate(imgs.images):
    print(f"  a_{i} -> {g}")

# Specialisation: coordinate j of image m is term m of the symbolic
# sequence symbolic_sequence(n, j), its form evaluated at d_i = t_i[j], the
# j-th translation entry of generator i.  This is why one check on generic
# translations covers every candidate of the dimension.
print("\nspecialisation of the symbolic sequences at coordinate j:")
agree = True
for j in range(c.dim):
    seq = symbolic_sequence(c.dim, j)
    d = [g.translation[j] for g in c.generators]
    for m, g in enumerate(imgs.images):
        value = sum(a * x for a, x in zip(seq.coefficients(m), d))
        agree &= (g.signs[j], g.translation[j]) == (seq.terms[m].signs[0], value)
    at = ", ".join(f"d{i}={x}" for i, x in enumerate(d))
    shown = imgs.images[2].translation[j]
    print(f"  j={j}: a_2 -> {seq.term_text(2)} at {at}, translation {shown}")
print("every coordinate of every image agrees:", agree)

presentation = fibonacci_presentation(2, 6)
print(
    "all 6 relators trivial on these images:",
    all(verify_relators(presentation, imgs)),
)

report = verify_main_theorem(c)
print("\nverification report:")
print(json.dumps(report.to_json_dict(), indent=2))

# The cyclic family passes in every odd dimension up to 13.
for n in range(3, 14, 2):
    r = verify_main_theorem(cyclic_hw(n))
    print(f"n={n:2d}: {len(r.relators_trivial)} relators trivial, verdict {r.verdict}")

# And the theorem holds for every Hantzsche-Wendt candidate, not just the
# cyclic ones: check the whole 3-dimensional survey.
failures = 0
hw = 0
for cand in (candidate_from_index(3, i) for i in candidate_indices(3)):
    if classify(cand).hantzsche_wendt:
        hw += 1
        failures += not verify_main_theorem(cand).passed
print(f"\ndimension-3 survey: {hw} Hantzsche-Wendt candidates, {failures} failures")
