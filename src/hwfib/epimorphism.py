"""Construction and machine verification of the quotient maps from the
Fibonacci group F(n-1, 2n) onto Hantzsche-Wendt candidate groups.

Both sides run one recursion, a_(i+n-1) = a_i a_(i+1) ··· a_(i+n-2), in
``_product_recursion`` over ``DiagIsometry`` values.  The one-dimensional
side is done symbolically: the seed isometries of E(1) carry formal
translations d_0..d_(n-2), each linear form packed into one integer (see
``SymSequence``), and 2n-periodicity is checked as an exact identity of
linear forms; one computation certifies the statement for every choice of
real parameters at once.  A ``SymSequence`` is built once per
(n, k) and carries both of its checks (``periodic`` and
``recursion_consistent``); ``verify_periodicity`` and ``verify_addrel``
build one and run one check.  The n-dimensional side builds the 2n
generator images in E(n) from the half-integer generators and checks every
relator and the surjectivity of the assignment.
"""

from __future__ import annotations

from typing import Sequence

from .fpgroup import GenImages, fibonacci_presentation, verify_relators
from .hwgroup import (
    Classification,
    HWCandidate,
    _check_dim,
    candidate_to_json_dict,
    classify,
)
from .isometry import DiagIsometry, component, direct_sum
from .record import Record

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


class SymSequence(Record):
    """The symbolic one-dimensional sequence for a given (n, k).

    The first n-1 terms are the seed generators: translation d_i at term i,
    sign +1 only at position k (no +1 seed when k = n-1).  Every later term
    is the left-to-right product of the n-1 terms before it, up to index
    3n-2, far enough to compare a full period against the seeds.  Both
    checks read the stored terms, so one build serves both and any listing
    of the terms.

    Every translation is an integer linear form in d_0..d_(n-2) with
    constant 0, and it is stored packed: d_j is replaced by B^j with
    B = 2^(3n), so the stored entry is an ``int``.  The substitution is
    additive, so the product law of E(1) computes on the packed integers
    exactly what it computes on the forms.  It is one-to-one on the forms
    that get compared:

    * Lemma: the coefficients of term i have L1-norm N_i <= 2^i.  A seed
      has N = 1, and a product term is a signed sum of the n-1 terms before
      it, so N_i <= N_(i-n+1) + ... + N_(i-1) < 2^i.  Every coefficient of
      the 3n-1 stored terms is therefore at most 2^(3n-2) = B/4 in size.
    * The right side of ``recursion_consistent``, (term i-1)^(-1) times
      (term i+n-2)^2, has norm at most N_(i-1) + 2 N_(i+n-2)
      <= 3 * 2^(3n-3) < B/2 for i <= 2n-1.
    * A nonzero form whose coefficients c_j satisfy |c_j| < B packs to a
      nonzero integer: its top term c_m B^m has absolute value at least
      B^m, and the lower terms sum to at most (B-1)(B^m-1)/(B-1) < B^m.
      Both sides of every comparison have coefficients below B/2, so their
      difference is such a form: integer equality is equality of linear
      forms.  For the same reason the balanced base-B digits in
      [-B/2, B/2) of a stored term are its coefficients
      (``coefficients``).
    """

    __slots__ = ("n", "k", "terms")

    def __init__(self, n: int, k: int, terms: Sequence[DiagIsometry]) -> None:
        self.n = n
        self.k = k
        self.terms = tuple(terms)
        """The 3n-1 terms as isometries of the line whose translation entry
        is the packed ``int``, so printing a term shows that integer;
        ``term_text`` shows its sign and form."""

    def coefficients(self, i: int) -> tuple[int, ...]:
        """Coefficients of d_0..d_(n-2) in the translation of term i."""
        shift = 3 * self.n
        base = 1 << shift
        rest = self.terms[i].translation[0]
        out = []
        for _ in range(self.n - 1):
            digit = rest & (base - 1)
            if digit >= base >> 1:
                digit -= base
            out.append(digit)
            rest = (rest - digit) >> shift
        assert rest == 0, f"term {i} does not decode to a form in d_0..d_{self.n - 2}"
        return tuple(out)

    def translation_text(self, i: int) -> str:
        """The translation of term i as text, e.g. ``d0 + 2*d1 - d3``, or
        ``0``."""
        parts: list[str] = []
        for j, c in enumerate(self.coefficients(i)):
            if c == 0:
                continue
            body = f"d{j}" if abs(c) == 1 else f"{abs(c)}*d{j}"
            if parts:
                parts.append(f"{'-' if c < 0 else '+'} {body}")
            else:
                parts.append(f"-{body}" if c < 0 else body)
        return " ".join(parts) or "0"

    def term_text(self, i: int) -> str:
        """Term i as its sign and translation, e.g. ``(+1, d0 + d1)``."""
        return f"({'+' if self.terms[i].signs[0] > 0 else '-'}1, {self.translation_text(i)})"

    def periodic(self) -> bool:
        """Exact check that the sequence has period 2n: term 2n+j equals
        term j, coefficient by coefficient, for every seed index j."""
        t, n = self.terms, self.n
        return all(t[2 * n + j] == t[j] for j in range(n - 1))

    def recursion_consistent(self) -> bool:
        """Check the derived one-step recursion: each term equals (previous
        seed-offset term)^(-1) times the square of its predecessor.  The
        terms themselves are built as quotients of prefix products (see
        ``_product_recursion``), which never multiplies a term by its own
        predecessor, so this compares two routes to the same terms."""
        t, n = self.terms, self.n
        for i in range(1, 2 * n):
            prev = t[i + n - 2]
            if t[i + n - 1] != t[i - 1].inverse().compose(prev.compose(prev)):
                return False
        return True


def _product_recursion(seeds: Sequence[DiagIsometry], length: int) -> list[DiagIsometry]:
    """The seeds followed by the terms of the product recursion, ``length``
    terms in all: with w = n-1 seeds a_0..a_(w-1), every later term is the
    left-to-right product of the w terms before it,
    a_(i+w) = a_i a_(i+1) ··· a_(i+w-1).

    Each new term costs one inverse and two products, not w-1 products.
    Let Q_j = a_0 a_1 ··· a_(j-1) be the prefix products, Q_0 = 1.  Then
    Q_(i+w) = Q_i (a_i ··· a_(i+w-1)), so in any group the window product
    is the quotient a_i ··· a_(i+w-1) = Q_i^(-1) Q_(i+w), and the new term
    extends the prefixes by Q_(i+w+1) = Q_(i+w) a_(i+w).  The identity
    uses only the group axioms, so it holds exactly in E(n) over
    ``Fraction`` and in E(1) over ``int`` alike, and every term equals the
    one the direct (w-1)-fold product gives.  In particular the packed
    symbolic terms are unchanged: packing d_j -> B^j is additive, so the
    E(1) law computes on packed ints exactly what it computes on linear
    forms, and the packed prefix quotient is the packed form of the
    window product.  The prefixes Q_j are never compared, so their
    coefficients need no bound (Python ints do not overflow); only the
    stored terms are, and they are the same ints as before.
    """
    terms = list(seeds)
    width = len(terms)
    prefixes = [terms[0].identity_like()]
    for a in terms:
        prefixes.append(prefixes[-1].compose(a))
    for i in range(length - width):
        prefix = prefixes[i + width]
        a = prefixes[i].inverse().compose(prefix)
        terms.append(a)
        prefixes.append(prefix.compose(a))
    return terms


def symbolic_sequence(n: int, k: int) -> SymSequence:
    _check_dimension(n, k)
    # d_i packed as B^i with B = 2^(3n) (see SymSequence); _normal keeps
    # the ints that the public constructor would turn into Fractions
    seeds = [
        DiagIsometry._normal((1 if i == k else -1,), (1 << (3 * n * i),))
        for i in range(n - 1)
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


class VerificationReport(Record):
    """Full machine-checked verdict for one candidate: does the generator
    assignment extend to a homomorphism from F(n-1, 2n), does it hit the
    generators, and is the target group actually Hantzsche-Wendt."""

    __slots__ = ("candidate", "classification", "relators_trivial", "surjective")

    def __init__(
        self,
        candidate: HWCandidate,
        classification: Classification,
        relators_trivial: tuple[bool, ...],
        surjective: bool,
    ) -> None:
        self.candidate = candidate
        self.classification = classification
        self.relators_trivial = relators_trivial
        self.surjective = surjective

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
