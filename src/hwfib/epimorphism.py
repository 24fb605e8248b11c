"""Construction and machine verification of the quotient maps from the
Fibonacci group F(n-1, 2n) onto Hantzsche-Wendt candidate groups.

Both sides run one recursion, a_(i+n-1) = a_i a_(i+1) ··· a_(i+n-2), in
``_product_recursion`` over ``DiagIsometry`` values.  The one-dimensional
side is done symbolically: the seed isometries of E(1) carry formal
translations d_0..d_(n-2), and 2n-periodicity is checked as an exact
identity of linear forms; one computation certifies the statement for every
choice of real parameters at once.  A ``SymSequence`` is built once per
(n, k) and carries both of its checks (``periodic`` and
``recursion_consistent``); ``verify_periodicity`` and ``verify_addrel``
build one and run one check.  The n-dimensional side builds the 2n
generator images in E(n) from the half-integer generators and checks every
relator and the surjectivity of the assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from .exact import LinForm
from .fpgroup import GenImages, fibonacci_presentation, verify_relators
from .hwgroup import (
    Classification,
    HWCandidate,
    _check_dim,
    candidate_to_json_dict,
    classify,
)
from .isometry import DiagIsometry, component, direct_sum

__all__ = [
    "SymSequence",
    "symbolic_sequence",
    "verify_periodicity",
    "verify_addrel",
    "component_images",
    "build_epimorphism",
    "build_epimorphism_by_components",
    "VerificationReport",
    "verify_main_theorem",
]


def _check_dimension(n: int, k: int) -> None:
    _check_dim(n)
    if not 0 <= k <= n - 1:
        raise ValueError(f"rotation position k must satisfy 0 <= k <= {n - 1}, got {k}")


@dataclass(frozen=True)
class SymSequence:
    """The symbolic one-dimensional sequence for a given (n, k).

    The first n-1 terms are the seed generators: translation d_i at term i,
    sign +1 only at position k (no +1 seed when k = n-1).  Every later term
    is the left-to-right product of the n-1 terms before it, up to index
    3n-2, far enough to compare a full period against the seeds.  Both
    checks read the stored terms, so one build serves both and any listing
    of the terms.
    """

    n: int
    k: int
    terms: tuple[DiagIsometry, ...]

    def periodic(self) -> bool:
        """Exact check that the sequence has period 2n: term 2n+j equals
        term j, coefficient by coefficient, for every seed index j."""
        t, n = self.terms, self.n
        return all(t[2 * n + j] == t[j] for j in range(n - 1))

    def recursion_consistent(self) -> bool:
        """Check the derived one-step recursion: each term equals (previous
        seed-offset term)^(-1) times the square of its predecessor.  The
        terms themselves are built by the full (n-1)-term product, so this
        compares two independent routes to the same terms."""
        t, n = self.terms, self.n
        for i in range(1, 2 * n):
            prev = t[i + n - 2]
            if t[i + n - 1] != t[i - 1].inverse().compose(prev.compose(prev)):
                return False
        return True


def _product_recursion(seeds: Sequence[DiagIsometry], length: int) -> list[DiagIsometry]:
    """The seeds followed by the terms of the product recursion, ``length``
    terms in all: with n-1 seeds a_0..a_(n-2), every later term is the
    left-to-right product of the n-1 terms before it,
    a_(i+n-1) = a_i a_(i+1) ··· a_(i+n-2)."""
    terms = list(seeds)
    width = len(terms)
    while len(terms) < length:
        terms.append(reduce(DiagIsometry.compose, terms[-width:]))
    return terms


def symbolic_sequence(n: int, k: int) -> SymSequence:
    _check_dimension(n, k)
    seeds = [
        DiagIsometry((1 if i == k else -1,), (LinForm.symbol(i),)) for i in range(n - 1)
    ]
    return SymSequence(n, k, tuple(_product_recursion(seeds, 3 * n - 1)))


def verify_periodicity(n: int, k: int) -> bool:
    """``symbolic_sequence(n, k).periodic()``."""
    return symbolic_sequence(n, k).periodic()


def verify_addrel(n: int, k: int) -> bool:
    """``symbolic_sequence(n, k).recursion_consistent()``."""
    return symbolic_sequence(n, k).recursion_consistent()


def component_images(c: HWCandidate, j: int) -> GenImages:
    """Images of the n-1 group generators in E(1) at coordinate j: the sign
    at j and the j-th translation entry of each generator.  For j <= n-2
    exactly one image has sign +1 (generator j); for j = n-1 none does."""
    if not 0 <= j < c.dim:
        raise IndexError(f"coordinate {j} out of range for dimension {c.dim}")
    return GenImages(
        tuple(
            DiagIsometry((g.signs[j],), (g.translation[j],)) for g in c.generators
        )
    )


def build_epimorphism(c: HWCandidate) -> GenImages:
    """Images of a_0..a_(2n-1) in E(n): the first n-1 are the group
    generators, the rest follow the length-(n-1) product recursion."""
    return GenImages(tuple(_product_recursion(c.generators, 2 * c.dim)))


def build_epimorphism_by_components(c: HWCandidate) -> GenImages:
    """Independent route to the same images: run the recursion in E(1) for
    each coordinate separately and reassemble by direct sum."""
    sequences = [
        _product_recursion(component_images(c, j).images, 2 * c.dim)
        for j in range(c.dim)
    ]
    return GenImages(
        tuple(direct_sum(component(g, 0) for g in terms) for terms in zip(*sequences))
    )


@dataclass(frozen=True)
class VerificationReport:
    """Full machine-checked verdict for one candidate: does the generator
    assignment extend to a homomorphism from F(n-1, 2n), does it hit the
    generators, and is the target group actually Hantzsche-Wendt."""

    candidate: HWCandidate
    classification: Classification
    relators_trivial: tuple[bool, ...]
    surjective: bool

    @property
    def homomorphism(self) -> bool:
        return all(self.relators_trivial)

    @property
    def passed(self) -> bool:
        return (
            self.homomorphism
            and self.surjective
            and self.classification.hantzsche_wendt
        )

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def problems(self) -> list[str]:
        out = []
        for i, ok in enumerate(self.relators_trivial):
            if not ok:
                out.append(f"relator {i} does not map to the identity")
        if not self.surjective:
            out.append("generator images do not reproduce the group generators")
        cl = self.classification
        if not cl.crystallographic:
            out.append("candidate is not crystallographic")
        if not cl.torsion_free:
            out.append("candidate is not torsion-free")
        if cl.crystallographic and cl.torsion_free and not cl.hantzsche_wendt:
            out.append("holonomy is not the full orientation-preserving sign group")
        return out

    def to_json_dict(self) -> dict:
        return {
            "candidate": candidate_to_json_dict(self.candidate),
            "relators": [
                {"index": i, "trivial": ok}
                for i, ok in enumerate(self.relators_trivial)
            ],
            "surjective": self.surjective,
            "classification": self.classification.to_json_dict(),
            "problems": self.problems(),
            "verdict": self.verdict,
        }


def verify_main_theorem(c: HWCandidate) -> VerificationReport:
    """Check that F(n-1, 2n) surjects onto the candidate group: every one of
    the 2n relators must evaluate to the identity of E(n) under the built
    images, and the images of a_0..a_(n-2) must be exactly the group
    generators.  Failures are reported as data, never raised."""
    n = c.dim
    presentation = fibonacci_presentation(n - 1, 2 * n)
    images = build_epimorphism(c)
    relator_report = verify_relators(presentation, images)
    surjective = images.images[: n - 1] == c.generators
    return VerificationReport(
        candidate=c,
        classification=classify(c),
        relators_trivial=relator_report.trivial,
        surjective=surjective,
    )
