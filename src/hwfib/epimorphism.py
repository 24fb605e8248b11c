"""Construction and machine verification of the quotient maps from the
Fibonacci group F(n-1, 2n) onto Hantzsche-Wendt candidate groups.

The one-dimensional side is done symbolically: the seed isometries carry
formal translations d_0..d_(n-2), the sequence is extended by the
length-(n-1) product recursion, and 2n-periodicity is checked as an exact
identity of linear forms; one computation certifies the statement for every
choice of real parameters at once.  A ``SymSequence`` is built once per
(n, k) and carries both of its checks (``periodic`` and
``recursion_consistent``); ``verify_periodicity`` and ``verify_addrel``
build one and run one check.  The n-dimensional side builds the 2n
generator images by the same recursion in E(n) and checks every relator and
the surjectivity of the assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import LinForm
from .fpgroup import GenImages, fibonacci_presentation, verify_relators
from .hwgroup import (
    Classification,
    HWCandidate,
    candidate_to_json_dict,
    classify,
)
from .isometry import DiagIsometry, SymIsometry1, direct_sum

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
    if n % 2 == 0 or n < 3:
        raise ValueError(f"dimension must be odd and >= 3, got {n}")
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
    terms: tuple[SymIsometry1, ...]

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


def symbolic_sequence(n: int, k: int) -> SymSequence:
    _check_dimension(n, k)
    terms: list[SymIsometry1] = [
        SymIsometry1(1 if i == k else -1, LinForm.symbol(i)) for i in range(n - 1)
    ]
    for idx in range(n - 1, 3 * n - 1):
        acc = terms[idx - (n - 1)]
        for m in range(idx - (n - 1) + 1, idx):
            acc = acc.compose(terms[m])
        terms.append(acc)
    return SymSequence(n, k, tuple(terms))


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
    n = c.dim
    images: list[DiagIsometry] = list(c.generators)
    for idx in range(n - 1, 2 * n):
        acc = images[idx - (n - 1)]
        for m in range(idx - (n - 1) + 1, idx):
            acc = acc.compose(images[m])
        images.append(acc)
    return GenImages(tuple(images))


def build_epimorphism_by_components(c: HWCandidate) -> GenImages:
    """Independent route to the same images: run the recursion in E(1) for
    each coordinate separately and reassemble by direct sum."""
    n = c.dim
    sequences = []
    for j in range(n):
        terms = list(component_images(c, j).images)
        for idx in range(n - 1, 2 * n):
            acc = terms[idx - (n - 1)]
            for m in range(idx - (n - 1) + 1, idx):
                acc = acc.compose(terms[m])
            terms.append(acc)
        sequences.append(terms)
    images = []
    for idx in range(2 * n):
        images.append(
            direct_sum(
                [(sequences[j][idx].signs[0], sequences[j][idx].translation[0]) for j in range(n)]
            )
        )
    return GenImages(tuple(images))


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
