"""Construction and machine verification of the quotient maps from the
Fibonacci group F(n-1, 2n) onto Hantzsche-Wendt candidate groups.

Both sides run one recursion, a_(i+n-1) = a_i a_(i+1) ··· a_(i+n-2), in
``_product_recursion`` over ``DiagIsometry`` values.  The paper's two
machine checks, symbolic 2n-periodicity in E(1) and the quotient map, are
one symbolic run per dimension, ``_symbolic_terms(n, coords)``: the
recursion in E(m) on m chosen coordinates from the generic seeds,
generator i with sign +1 only at coordinate i and the formal translation
d_i at every coordinate, each linear form in d_0..d_(n-2) packed into one
int.  Taking a coordinate, g -> (g.signs[i], g.translation[i]), is a
homomorphism E(m) -> E(1), so coordinate k of every term, and of every
product and inverse a check forms, is the E(1) value of the sequence for
k, the same packed int.

* Periodicity.  ``symbolic_sequence(n, k)`` is the run on coordinate k
  alone, and ``symbolic_checks(n)`` the run on all n coordinates.  Two
  elements of E(m) are equal exactly when they agree at every
  coordinate, so both checks run coordinate by coordinate
  (``_agreement``) and give at coordinate k exactly the verdicts of
  sequence k.  One computation on linear forms certifies the statement
  for every choice of real parameters at once.
* The quotient map, certified once per dimension, not once per
  candidate.  ``_relator_certificate(n)`` evaluates the 2n relators of
  F(n-1, 2n) on the first 2n terms of the run on all n coordinates, the
  generic images.  ``verify_main_theorem`` reads its relator verdicts
  from that certificate, so a candidate costs its classification only.
  This is sound by specialisation.  A candidate's generators have the
  standard signs by construction (``HWCandidate`` stores only the
  translations) and translation t_i[j] at coordinate j.  Evaluating a
  form at d_i = t_i[j] is additive, and the E(1) law only adds and
  negates translations while multiplying signs, so evaluation commutes
  with products and inverses.  Hence coordinate j of any word in the
  candidate's images is the generic one evaluated at d_i = t_i[j], and a
  relator that is trivial generically (every sign +1, every form 0) is
  trivial for every candidate ``verify`` can load, Hantzsche-Wendt or
  not.  The converse need not hold at special translations, but the
  certificate is trivial on all 2n relators at every dimension the
  command line accepts (the tests check each odd n from 3 to 21), so no
  verdict rests on it.
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

    Every translation is an integer linear form in d_0..d_(n-2), stored
    packed as in ``_symbolic_terms``, whose check keeps every coefficient
    in [-4, 4) and makes the comparisons of both checks exact.  ``terms``
    is the tuple of the 3n-1 terms as isometries of the line whose
    translation entry is the packed ``int``, so printing a term shows that
    integer; ``term_text`` shows its sign and form.
    """

    __slots__ = ("n", "k", "terms")

    def coefficients(self, i: int) -> tuple[int, ...]:
        """Coefficients of d_0..d_(n-2) in the translation of term i: the
        balanced base-B digits, in [-B/2, B/2), of its packed int;
        ``ArithmeticError`` if the int carries a further digit."""
        shift = _base_bits(self.n)
        base = 1 << shift
        rest = self.terms[i].translation[0]
        out = []
        for _ in range(self.n - 1):
            digit = rest & (base - 1)
            if digit >= base >> 1:
                digit -= base
            out.append(digit)
            rest = (rest - digit) >> shift
        if rest:
            raise ArithmeticError(f"term {i} does not decode to a form in d_0..d_{self.n - 2}")
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
    one the direct (w-1)-fold product gives, packed symbolic terms
    included.  The prefixes Q_j are never compared, so their coefficients
    need no bound (Python ints do not overflow), and ``_symbolic_terms``
    checks the stored terms only.
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


def _base_bits(n: int) -> int:
    """The b of the packing base B = 2^b of dimension n, the least power of
    two above 8(n-1)."""
    return (8 * (n - 1)).bit_length()


def _symbolic_terms(n: int, coords: Sequence[int]) -> list[DiagIsometry]:
    """The 3n-1 terms of the symbolic run of dimension n on ``coords``: the
    product recursion in E(m), m = len(coords), from the generic seeds,
    generator i with sign +1 only at coordinate i and translation d_i at
    every coordinate.  Coordinates range(n) give the generic images,
    (k,) the sequence of ``symbolic_sequence(n, k)``.

    A translation is an integer linear form in d_0..d_(n-2), stored
    packed: d_j is replaced by B^j, B = 2^``_base_bits(n)`` > 8(n-1).  The
    substitution is additive, so the law of E(m) computes on the packed
    ints exactly what it computes on the forms.  Every stored entry x is
    checked: x + 4(1 + B + ... + B^(n-2)) must have base-B digits in
    [0, 7] and no others, that is, x must pack a form whose coefficients
    lie in [-4, 4); else ``ArithmeticError``.  Lemma: when the check
    passes, that form is the true one, and packed equality decides every
    comparison the checks and the certificate make.

    * A nonzero form whose coefficients c_j satisfy |c_j| < B packs to a
      nonzero int: its top term c_t B^t has size at least B^t, and the
      lower terms sum to at most (B-1)(B^t-1)/(B-1) < B^t.  For the same
      reason the balanced base-B digits of the packing of a form with
      every |c_j| < B/2 are its coefficients (``coefficients``).
    * Let term m be the first stored term whose true form leaves
      [-4, 4).  A seed is d_i, so term m is a product term, a signed sum
      of the n-1 terms before it, and |c_j| <= 4(n-1) < B/2.  Had its
      packed int passed the check, the form that passed and the true one
      would differ by a form with |c_j| < B that packs to 0, so they
      would be equal.  The check therefore refuses term m.
    * A periodicity comparison involves 2 terms, a recursion comparison
      4, (term i+n-1) against (term i-1)^(-1) (term i+n-2)^2, and a
      relator of F(n-1, 2n) has n letters.  So the difference of two
      compared sides, or a relator, has |c_j| <= 4 max(4, n) <= 8(n-1) < B
      for n >= 3, and it packs to 0 exactly when it is 0.
    """
    bits = _base_bits(n)
    # _normal keeps the ints that the public constructor would turn into
    # Fractions
    seeds = [
        DiagIsometry._normal(
            tuple(1 if j == i else -1 for j in coords), (1 << (bits * i),) * len(coords)
        )
        for i in range(n - 1)
    ]
    terms = _product_recursion(seeds, 3 * n - 1)
    # 1 + B + ... + B^(n-2); a negative x + 4 ones has bits outside 7 ones
    ones = ((1 << (bits * (n - 1))) - 1) // ((1 << bits) - 1)
    offset, outside = 4 * ones, ~(7 * ones)
    for m, g in enumerate(terms):
        if any((x + offset) & outside for x in g.translation):
            raise ArithmeticError(
                f"term {m} of the symbolic run of dimension {n} has a "
                f"coefficient outside [-4, 4)"
            )
    return terms


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
    return SymSequence(n, k, tuple(_symbolic_terms(n, (k,))))


def symbolic_checks(n: int) -> tuple[tuple[bool, bool], ...]:
    """``(periodic(), recursion_consistent())`` of ``symbolic_sequence(n, k)``
    for k = 0..n-1, from one run on all n coordinates rather than n runs
    of one coordinate (see the module docstring)."""
    _check_dim(n)
    terms = _symbolic_terms(n, range(n))
    return tuple(zip(_periodic(n, terms), _recursion_consistent(n, terms)))


def verify_periodicity(n: int, k: int) -> bool:
    """``symbolic_sequence(n, k).periodic()``."""
    return symbolic_sequence(n, k).periodic()


def verify_addrel(n: int, k: int) -> bool:
    """``symbolic_sequence(n, k).recursion_consistent()``."""
    return symbolic_sequence(n, k).recursion_consistent()


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


@lru_cache(maxsize=None)
def _relator_certificate(n: int) -> tuple[bool, ...]:
    """Which of the 2n relators of F(n-1, 2n) are trivial on the generic
    images of dimension n, and so on every candidate of that dimension
    (see the module docstring)."""
    images = GenImages(_symbolic_terms(n, range(n))[: 2 * n])
    return verify_relators(fibonacci_presentation(n - 1, 2 * n), images)


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
