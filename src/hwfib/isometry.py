"""Affine isometries with diagonal ±1 linear part.

``DiagIsometry`` is an element (B, b) of E(n) whose orthogonal part is a
diagonal sign matrix, stored as a sign vector plus a translation of exact
rationals, under the semidirect-product law (A, a)(B, b) = (AB, A b + a).
The law only adds and negates translation entries, so it also runs on
plain ints; the symbolic sequence of ``epimorphism`` uses that for its
translations, linear forms packed into integers.  No operation changes a
value once it is built and all operations are pure.

``fractions`` is imported only where a ``Fraction`` is made; the ``exact``
docstring says why.
"""

from __future__ import annotations

from operator import mul
from typing import TYPE_CHECKING, Iterable, Sequence

from .exact import ExactNumber
from .record import Record

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "DiagIsometry",
    "compose",
    "inverse",
    "component",
    "direct_sum",
]


def _check_signs(signs: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(s) for s in signs)
    if any(s not in (1, -1) for s in out):
        raise ValueError(f"signs must be +1/-1, got {out}")
    return out


def _affine_entry(s: int, b, a):
    """One coordinate of A b + a, for the sign s of A; a - b is one
    operation where -b + a would be two."""
    return a + b if s > 0 else a - b


class DiagIsometry(Record):
    """Exact isometry x -> diag(signs) x + translation of R^n.

    The public constructor validates the signs, converts the translation
    entries to ``Fraction`` and checks the lengths.  ``compose`` and
    ``inverse`` build their results from operands that already passed, so
    they skip that pass.
    """

    __slots__ = ("signs", "translation")

    def __init__(self, signs: Iterable[int], translation: Iterable[ExactNumber]) -> None:
        from fractions import Fraction

        self.signs = _check_signs(signs)
        self.translation = tuple(
            t if type(t) is Fraction else Fraction(t) for t in translation
        )
        if len(self.signs) != len(self.translation):
            raise ValueError(
                f"sign vector has length {len(self.signs)} but translation "
                f"has length {len(self.translation)}"
            )

    @classmethod
    def _normal(cls, signs: tuple[int, ...], translation: tuple) -> "DiagIsometry":
        """Wrap int ±1 signs and equally many translation entries of one
        type, all ``Fraction`` or all ``int``, skipping the validation of
        the public constructor."""
        g = object.__new__(cls)
        g.signs = signs
        g.translation = translation
        return g

    # Record's equality without its loop over the fields: the symbolic
    # checks compare thousands of terms.  Defining __eq__ would otherwise
    # leave the class unhashable.
    def __eq__(self, other):
        if other.__class__ is not DiagIsometry:
            return NotImplemented
        return self.signs == other.signs and self.translation == other.translation

    __hash__ = Record.__hash__

    @property
    def dim(self) -> int:
        return len(self.signs)

    @classmethod
    def identity(cls, dim: int) -> "DiagIsometry":
        return cls((1,) * dim, (0,) * dim)

    def identity_like(self) -> "DiagIsometry":
        """The identity with zero translation entries of this isometry's own
        type (``Fraction()`` or ``int()``)."""
        return DiagIsometry._normal(
            (1,) * self.dim, tuple(type(t)() for t in self.translation)
        )

    def is_identity(self) -> bool:
        return all(s == 1 for s in self.signs) and not any(self.translation)

    def compose(self, other: "DiagIsometry") -> "DiagIsometry":
        """Product self∘other in E(n): (A,a)(B,b) = (AB, A b + a)."""
        signs = self.signs
        if len(signs) != len(other.signs):
            raise ValueError(f"dimension mismatch: {len(signs)} vs {len(other.signs)}")
        return DiagIsometry._normal(
            tuple(map(mul, signs, other.signs)),
            tuple(map(_affine_entry, signs, other.translation, self.translation)),
        )

    def inverse(self) -> "DiagIsometry":
        """(A, a)^(-1) = (A, -A a) since A is an involution."""
        return DiagIsometry._normal(
            self.signs,
            tuple(-t if s > 0 else t for s, t in zip(self.signs, self.translation)),
        )

    def apply(self, point: Sequence[ExactNumber]) -> tuple[Fraction, ...]:
        """Image B x + b of a rational point x."""
        from fractions import Fraction

        if len(point) != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {len(point)}")
        return tuple(
            s * Fraction(x) + t
            for s, x, t in zip(self.signs, point, self.translation)
        )

    def __str__(self) -> str:
        # str of a Fraction is its format_rational text
        return _text(self.signs, map(str, self.translation))


def _text(signs: Iterable[int], entries: Iterable[str]) -> str:
    """``(diag(+,-,...), (t,...))``: the text of an isometry with the given
    signs and translation entry texts."""
    sign_text = ",".join("+" if s > 0 else "-" for s in signs)
    return f"(diag({sign_text}), ({','.join(entries)}))"


# Exists only for bench/run.py, whose traced run imports this name to time
# the symbolic compose; the symbolic terms are 1-D DiagIsometry values.
SymIsometry1 = DiagIsometry


# Operation-style aliases; the methods above are the implementation.

def compose(g, h):
    """Exact product g∘h in E(n), numeric or symbolic."""
    return g.compose(h)


def inverse(g):
    return g.inverse()


def component(g: DiagIsometry, i: int) -> tuple[int, Fraction]:
    """Restriction of g to coordinate i, as an E(1) pair (sign, translation).

    Taking the i-th component is a group homomorphism: the component of a
    product is the E(1)-product of the components.
    """
    if not 0 <= i < g.dim:
        raise IndexError(f"coordinate index {i} out of range for dimension {g.dim}")
    return g.signs[i], g.translation[i]


def direct_sum(parts: Sequence[tuple[int, ExactNumber]]) -> DiagIsometry:
    """Reassemble an E(n) element from n one-dimensional (sign, translation)
    pairs acting on the coordinate axes; inverse of taking all components."""
    parts = list(parts)
    if not parts:
        raise ValueError("direct_sum needs at least one component")
    return DiagIsometry(
        tuple(s for s, _ in parts),
        tuple(t for _, t in parts),
    )
