"""Free-group words, finite presentations, and homomorphism checking.

Words are tuples of (generator index, exponent) letters with exponent ±1.
The module provides the cyclically-presented Fibonacci presentations F(r, n),
the subscript-shift automorphism, evaluation of words in a concrete isometry
group, relator verification, and abelianization via the Smith normal form of
the relator exponent matrix.
"""

from __future__ import annotations

from typing import Iterable

from .exact import smith_normal_form
from .record import Record

__all__ = [
    "Word",
    "Presentation",
    "GenImages",
    "word",
    "word_inverse",
    "free_reduce",
    "shift",
    "fibonacci_presentation",
    "evaluate",
    "verify_relators",
    "relator_matrix",
    "abelianization",
]

# A letter is (generator index, exponent) with exponent +1 or -1; a word is a
# tuple of letters.  Higher powers are spelled out as repeated letters.
Letter = tuple[int, int]
Word = tuple[Letter, ...]


def word(letters: Iterable[Letter]) -> Word:
    out = []
    for idx, exp in letters:
        if idx < 0:
            raise ValueError(f"negative generator index {idx}")
        if exp not in (1, -1):
            raise ValueError(f"letter exponent must be +1 or -1, got {exp}")
        out.append((int(idx), int(exp)))
    return tuple(out)


def word_inverse(w: Word) -> Word:
    return tuple((i, -e) for i, e in reversed(w))


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain; idempotent."""
    stack: list[Letter] = []
    for letter in w:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def shift(w: Word, k: int, modulus: int) -> Word:
    """Apply the automorphism a_i -> a_(i-k) with subscripts mod ``modulus``,
    k times the single shift; exponents are unchanged."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if any(i >= modulus for i, _ in w):
        raise ValueError("word uses generator indices outside the modulus")
    return tuple(((i - k) % modulus, e) for i, e in w)


class Presentation(Record):
    """Finite presentation: generator count plus freely reduced relators."""

    __slots__ = ("generator_count", "relators")

    def __init__(self, generator_count: int, relators: Iterable[Word]) -> None:
        if generator_count < 0:
            raise ValueError("generator count must be nonnegative")
        reduced = []
        for r in relators:
            r = tuple(r)
            for i, e in r:
                if not 0 <= i < generator_count:
                    raise ValueError(
                        f"negative generator index {i}" if i < 0 else
                        f"relator uses generator {i} but only {generator_count} exist"
                    )
                if e != 1 and e != -1:
                    raise ValueError(f"letter exponent must be +1 or -1, got {e}")
            reduced.append(free_reduce(r))
        self.generator_count = generator_count
        self.relators = tuple(reduced)


def fibonacci_presentation(r: int, n: int) -> Presentation:
    """The Fibonacci presentation F(r, n): n generators a_0..a_(n-1) and the
    n cyclic relators a_i a_(i+1) ... a_(i+r-1) a_(i+r)^(-1), indices mod n."""
    if r < 1 or n < 1:
        raise ValueError(f"F(r, n) needs r >= 1 and n >= 1, got ({r}, {n})")
    letters = [(j % n, 1) for j in range(n + r)]
    relators = tuple(tuple(letters[i:i + r]) + ((letters[i + r][0], -1),) for i in range(n))
    if n == 1:
        # a_0^r a_0^(-1) reduces to a_0^(r-1)
        return Presentation(n, relators)
    # For n >= 2 every relator is freely reduced: its only inverse letter,
    # a_(i+r), follows a_(i+r-1), a different generator mod n.
    return Presentation._normal(n, relators)


class GenImages(Record):
    """Images of the generators a_0, a_1, ... in a concrete isometry group."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable) -> None:
        images = tuple(images)
        if not images:
            raise ValueError("at least one generator image is required")
        dims = {img.dim for img in images}
        if len(dims) != 1:
            raise ValueError(f"images live in different dimensions: {sorted(dims)}")
        self.images = images

    def __len__(self) -> int:
        return len(self.images)

    @property
    def identity(self):
        return self.images[0].identity_like()


def evaluate(w: Word, imgs: GenImages):
    """Left-to-right product of generator images along the word."""
    acc = imgs.identity
    for i, e in w:
        if not 0 <= i < len(imgs.images):
            raise IndexError(f"generator index {i} has no image")
        img = imgs.images[i]
        acc = acc.compose(img if e > 0 else img.inverse())
    return acc


def verify_relators(p: Presentation, imgs: GenImages) -> tuple[bool, ...]:
    """Whether each relator evaluates to the identity; all are true exactly
    when the assignment extends to a homomorphism.  Failures are recorded,
    not raised."""
    if len(imgs.images) < p.generator_count:
        raise ValueError(
            f"{p.generator_count} generators but only {len(imgs.images)} images"
        )
    return tuple(evaluate(r, imgs).is_identity() for r in p.relators)


def relator_matrix(p: Presentation) -> list[list[int]]:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    rows = []
    for rel in p.relators:
        row = [0] * p.generator_count
        for i, e in rel:
            row[i] += e
        rows.append(row)
    return rows


def abelianization(p: Presentation) -> tuple[int, ...]:
    """Elementary divisors of the abelianized group, one per generator;
    zeros indicate free rank."""
    divisors = smith_normal_form(relator_matrix(p))
    return divisors + (0,) * (p.generator_count - len(divisors))
