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
build one and run one check.

The check for every k at once, ``symbolic_checks(n)``, runs one
recursion in E(m) per block of m coordinates instead of n recursions in
E(1).  One seed builder, ``_symbolic_terms``, serves it, the single
sequence and the relator certificate below: generator i has sign +1 only
at coordinate i and the packed translation B^i at every coordinate of the
block, so its seed at coordinate k is the seed of ``symbolic_sequence(n,
k)``.  Taking a coordinate is a homomorphism E(m) -> E(1)
(``isometry.component``), so coordinate k of every term, and of every
product and inverse that a check forms, is the E(1) value that
``symbolic_sequence(n, k)`` gives, the same packed int.  Two elements of
E(m) are equal exactly when they agree at every coordinate, so both
checks run coordinate by coordinate (``_agreement``) and give at
coordinate k exactly the verdicts of sequence k, and the packed-base
lemma of ``SymSequence`` holds at each coordinate as before.  The checks
of a ``SymSequence`` are the width-1 case of the same functions.  Block
widths come from one bit budget, ``SYMBOLIC_BLOCK_BITS``: in one block
the run would hold n times the packed ints of one sequence, and its
maximum RSS at n = 101 reads 75 MB against 23 MB in blocks of seven.

The n-dimensional side is certified once per dimension, not once per
candidate.  ``_relator_certificate(n)`` runs the recursion in E(n) from
generic seeds, generator i with the standard signs (+1 at coordinate i
only) and the translation d_i in every coordinate, packed as B^i with
B = 2^(3n), and evaluates the 2n relators of F(n-1, 2n) on the 2n images.
``verify_main_theorem`` reads its relator verdicts from that certificate,
so a candidate costs its classification only.  Two facts make this sound.

* Specialisation.  The law of E(n) acts coordinate by coordinate, and at
  coordinate j generator i has sign +1 exactly when i = j.  So coordinate j
  of the generic images, ``_symbolic_terms`` on the block range(n), is the
  sequence of ``symbolic_sequence(n, j)``
  (k = n-1 at the last coordinate, where no seed has sign +1).  A
  candidate's generators have the same signs, which ``HWCandidate``
  enforces, and translation t_i[j] at coordinate j.  Evaluating a form at
  d_i = t_i[j] is additive, and the E(1) law only adds and negates
  translations while multiplying signs, so evaluation commutes with
  products and inverses.  Hence coordinate j of any word in the
  candidate's images is the generic one evaluated at d_i = t_i[j], and a
  relator that is trivial generically (every sign +1, every form 0) is
  trivial for every candidate ``verify`` can load, Hantzsche-Wendt or not.
  The converse need not hold at special translations, but the certificate
  is trivial on all 2n relators at every dimension the command line
  accepts (the tests check each odd n from 3 to 21), so no verdict rests
  on it.
* The packed bound.  As in ``SymSequence``, the coefficients of image m
  have L1-norm at most 2^m <= 2^(2n-1).  A relator is a product of n
  factors, and the translation of a product is a signed sum of its
  factors' translations, so the relator and every partial product that
  ``evaluate`` forms have norm at most n 2^(2n-1) < 2^(3n-1) = B/2.  A form
  whose coefficients lie below B packs to 0 only when it is 0 (the
  ``SymSequence`` lemma), so a packed entry is 0 exactly when the form is
  0, and ``is_identity`` on the packed images decides generic triviality.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .fpgroup import GenImages, fibonacci_presentation, verify_relators
from .hwgroup import (
    Classification,
    HWCandidate,
    _check_dim,
    candidate_to_json_dict,
    classify,
)
from .isometry import DiagIsometry
from .record import Record

__all__ = [
    "SymSequence",
    "symbolic_sequence",
    "symbolic_checks",
    "verify_periodicity",
    "verify_addrel",
    "component_images",
    "build_epimorphism",
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
        return _periodic(self.n, self.terms)[0]

    def recursion_consistent(self) -> bool:
        """Check the derived one-step recursion: each term equals (previous
        seed-offset term)^(-1) times the square of its predecessor.  The
        terms themselves are built as quotients of prefix products (see
        ``_product_recursion``), which never multiplies a term by its own
        predecessor, so this compares two routes to the same terms."""
        return _recursion_consistent(self.n, self.terms)[0]


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
    # Q_i..Q_(i+w), the only prefixes later terms read
    prefixes = deque([terms[0].identity_like()])
    for a in terms:
        prefixes.append(prefixes[-1].compose(a))
    for _ in range(length - width):
        prefix = prefixes[-1]
        a = prefixes.popleft().inverse().compose(prefix)
        terms.append(a)
        prefixes.append(prefix.compose(a))
    return terms


def _symbolic_terms(n: int, block: range, length: int) -> list[DiagIsometry]:
    """The first ``length`` terms of the product recursion in E(m) from the
    generic seeds of dimension n restricted to the m coordinates of
    ``block``: generator i has sign +1 only at coordinate i and the packed
    translation B^i, B = 2^(3n), at every coordinate of the block.  Block
    range(n) gives the generic images, block (k,) the sequence of
    ``symbolic_sequence(n, k)``, and the all-k run takes range(n) in the
    blocks of ``_symbolic_blocks``."""
    # _normal keeps the ints that the public constructor would turn into
    # Fractions
    seeds = [
        DiagIsometry._normal(
            tuple(1 if j == i else -1 for j in block), (1 << (3 * n * i),) * len(block)
        )
        for i in range(n - 1)
    ]
    return _product_recursion(seeds, length)


# Bits of packed ints one block of the all-k run may hold.  A coordinate
# holds the 3n-1 terms and the n+1 live prefix products of the recursion,
# ints of at most about 3n^2 bits, so under 12 n^3 bits; the width counts
# 18 n^3 bits per coordinate, which leaves room for the check's
# temporaries and the allocator's slack (a coordinate adds about 3.3 MB,
# 8 n^3 bits, to the maximum RSS at n = 151).  2^27 bits, 16 MiB, takes
# n <= 21 in one block, n = 61 in two and n = 151 in blocks of two.
SYMBOLIC_BLOCK_BITS = 1 << 27


def _symbolic_blocks(n: int) -> list[range]:
    """The coordinates 0..n-1 cut into consecutive blocks of the width that
    ``SYMBOLIC_BLOCK_BITS`` allows, at least one."""
    width = max(1, SYMBOLIC_BLOCK_BITS // (18 * n**3))
    return [range(lo, min(lo + width, n)) for lo in range(0, n, width)]


def _agreement(pairs: Iterable[tuple[DiagIsometry, DiagIsometry]], width: int) -> tuple[bool, ...]:
    """For each of the ``width`` coordinates, whether every pair (a, b) of
    elements of E(width) agrees there, in sign and in translation.  Two
    elements are equal exactly when they agree at every coordinate, so one
    tuple comparison settles a pair that is equal."""
    ok = [True] * width
    for a, b in pairs:
        if a != b:
            for c, (s, t, x, y) in enumerate(zip(a.signs, b.signs, a.translation, b.translation)):
                if s != t or x != y:
                    ok[c] = False
    return tuple(ok)


def _periodic(n: int, terms: Sequence[DiagIsometry]) -> tuple[bool, ...]:
    """Per coordinate of the 3n-1 terms: term 2n+j equals term j for every
    seed index j."""
    return _agreement(((terms[2 * n + j], terms[j]) for j in range(n - 1)), terms[0].dim)


def _recursion_consistent(n: int, terms: Sequence[DiagIsometry]) -> tuple[bool, ...]:
    """Per coordinate of the 3n-1 terms: term i+n-1 equals
    (term i-1)^(-1) (term i+n-2)^2 for i = 1..2n-1."""
    def pairs():
        for i in range(1, 2 * n):
            prev = terms[i + n - 2]
            yield terms[i + n - 1], terms[i - 1].inverse().compose(prev.compose(prev))

    return _agreement(pairs(), terms[0].dim)


def symbolic_sequence(n: int, k: int) -> SymSequence:
    _check_dimension(n, k)
    return SymSequence(n, k, tuple(_symbolic_terms(n, range(k, k + 1), 3 * n - 1)))


def symbolic_checks(n: int) -> tuple[tuple[bool, bool], ...]:
    """``(periodic(), recursion_consistent())`` of ``symbolic_sequence(n, k)``
    for k = 0..n-1, from one recursion per block of coordinates in E(m)
    rather than n recursions in E(1) (see the module docstring)."""
    _check_dim(n)
    out: list[tuple[bool, bool]] = []
    for block in _symbolic_blocks(n):
        terms = _symbolic_terms(n, block, 3 * n - 1)
        out += zip(_periodic(n, terms), _recursion_consistent(n, terms))
    return tuple(out)


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
    from fractions import Fraction

    if not 0 <= j < c.dim:
        raise IndexError(f"coordinate {j} out of range for dimension {c.dim}")
    return GenImages(
        tuple(
            DiagIsometry((1 if i == j else -1,), (Fraction(row[j], 2),))
            for i, row in enumerate(c.units)
        )
    )


def build_epimorphism(c: HWCandidate) -> GenImages:
    """Images of a_0..a_(2n-1) in E(n): the first n-1 are the group
    generators, the rest follow the length-(n-1) product recursion."""
    return GenImages(tuple(_product_recursion(c.generators, 2 * c.dim)))


class VerificationReport(Record):
    """Full machine-checked verdict for one candidate: does the generator
    assignment extend to a homomorphism from F(n-1, 2n), does it hit the
    generators, and is the target group actually Hantzsche-Wendt.

    ``surjective`` is true by construction: ``_product_recursion`` returns
    its seeds first, so the images of a_0..a_(n-2) are the group
    generators.  The field stays for the JSON report and the text line."""

    __slots__ = ("candidate", "classification", "relators_trivial", "surjective")

    def __init__(
        self,
        candidate: Optional[HWCandidate],
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


def _generic_images(n: int) -> GenImages:
    """The 2n images in E(n) of the generic candidate of dimension n:
    generator i has the standard signs and the packed translation B^i,
    B = 2^(3n), in every coordinate (see the module docstring)."""
    return GenImages(_symbolic_terms(n, range(n), 2 * n))


@lru_cache(maxsize=None)
def _relator_certificate(n: int) -> tuple[bool, ...]:
    """Which of the 2n relators of F(n-1, 2n) are trivial on the generic
    images of dimension n, and so on every candidate of that dimension
    (see the module docstring)."""
    return verify_relators(fibonacci_presentation(n - 1, 2 * n), _generic_images(n)).trivial


def _certified_report(
    n: int, classification: Classification, candidate: Optional[HWCandidate] = None
) -> VerificationReport:
    """The report of a candidate of dimension n with the given
    classification, its relator verdicts read from the certificate.  The
    survey passes no candidate: it reads the verdict only."""
    return VerificationReport(candidate, classification, _relator_certificate(n), True)


def verify_main_theorem(c: HWCandidate) -> VerificationReport:
    """Check that F(n-1, 2n) surjects onto the candidate group: every one of
    the 2n relators must map to the identity of E(n), which the
    certificate of dimension n decides for every candidate at once, and the
    group must be Hantzsche-Wendt.  Failures are reported as data, never
    raised."""
    return _certified_report(c.dim, classify(c), c)
