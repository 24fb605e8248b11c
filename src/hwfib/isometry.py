"""Affine isometries with diagonal ±1 linear part.

``DiagIsometry`` is an element (B, b) of E(n) whose orthogonal part is a
diagonal sign matrix, stored as a sign vector plus a translation.  The
translation entries are either all exact rationals, for the groups
themselves, or all formal linear forms (``exact.LinForm``), so that
one-parameter families of groups can be manipulated symbolically; both carry
the same semidirect-product law (A, a)(B, b) = (AB, A b + a).  All values are
immutable and all operations pure, so they are safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .exact import ExactNumber, LinForm, format_rational, parse_rational

__all__ = [
    "DiagIsometry",
    "compose",
    "inverse",
    "rotational_part",
    "component",
    "direct_sum",
    "apply",
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


def _check_translation(entries: Iterable) -> tuple:
    out = tuple(entries)
    if any(isinstance(t, LinForm) for t in out):
        if not all(isinstance(t, LinForm) for t in out):
            raise ValueError("translation entries must be all rational or all LinForm")
        return out
    return tuple(t if type(t) is Fraction else Fraction(t) for t in out)


@dataclass(frozen=True)
class DiagIsometry:
    """Exact isometry x -> diag(signs) x + translation of R^n.

    The public constructor validates the signs, checks that the translation
    entries are all ``LinForm`` or else converts them to ``Fraction``, and
    checks the lengths.  ``compose`` and ``inverse`` build their results
    from operands that already passed, so they skip that pass.
    """

    signs: tuple[int, ...]
    translation: tuple[Fraction, ...] | tuple[LinForm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "signs", _check_signs(self.signs))
        object.__setattr__(self, "translation", _check_translation(self.translation))
        if len(self.signs) != len(self.translation):
            raise ValueError(
                f"sign vector has length {len(self.signs)} but translation "
                f"has length {len(self.translation)}"
            )

    @classmethod
    def _normal(cls, signs: tuple[int, ...], translation: tuple) -> "DiagIsometry":
        """Wrap int ±1 signs and equally many translation entries of one
        type, all ``Fraction`` or all ``LinForm``, skipping
        ``__post_init__``."""
        g = object.__new__(cls)
        object.__setattr__(g, "signs", signs)
        object.__setattr__(g, "translation", translation)
        return g

    @property
    def dim(self) -> int:
        return len(self.signs)

    @classmethod
    def identity(cls, dim: int) -> "DiagIsometry":
        return cls((1,) * dim, (Fraction(0),) * dim)

    def identity_like(self) -> "DiagIsometry":
        """The identity with zero translation entries of this isometry's own
        type (``Fraction()`` or ``LinForm()``)."""
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
        if len(point) != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {len(point)}")
        return tuple(
            s * Fraction(x) + t
            for s, x, t in zip(self.signs, point, self.translation)
        )

    def to_json_dict(self) -> dict:
        return {
            "signs": list(self.signs),
            "translation": [format_rational(t) for t in self.translation],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DiagIsometry":
        return cls(
            tuple(data["signs"]),
            tuple(parse_rational(t) for t in data["translation"]),
        )

    def __str__(self) -> str:
        # str of a Fraction is its format_rational text
        signs = ",".join("+" if s > 0 else "-" for s in self.signs)
        trans = ",".join(str(t) for t in self.translation)
        return f"(diag({signs}), ({trans}))"


# Exists only for bench/run.py, whose traced run imports this name to time
# the symbolic compose; the symbolic terms are 1-D DiagIsometry values.
SymIsometry1 = DiagIsometry


# Operation-style aliases; the methods above are the implementation.

def compose(g, h):
    """Exact product g∘h in E(n), numeric or symbolic."""
    return g.compose(h)


def inverse(g):
    return g.inverse()


def rotational_part(g: DiagIsometry) -> tuple[int, ...]:
    """Orthogonal part of (B, b), i.e. the sign vector of B."""
    return g.signs


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


def apply(g: DiagIsometry, point: Sequence[ExactNumber]) -> tuple[Fraction, ...]:
    """Image B x + b of a rational point under the isometry."""
    return g.apply(point)
