"""Exact scalar and integer-matrix arithmetic.

Everything in this module is exact: rationals are arbitrary-precision
``fractions.Fraction`` values, linear forms keep exact coefficients, and the
normal forms (Hermite, Smith) work over arbitrary-precision integers.  No
floating point appears anywhere in the package.  A ``LinForm`` is a formal
translation: ``isometry.DiagIsometry`` accepts one in place of each rational
translation entry, which is how the symbolic sequence runs in E(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

__all__ = [
    "Rational",
    "ExactNumber",
    "IntMatrix",
    "rational",
    "format_rational",
    "parse_rational",
    "LinForm",
    "hermite_normal_form",
    "smith_normal_form",
]

# Exact scalars.  Plain ints are admitted alongside Fraction so that
# integer-only computations (e.g. the symbolic recursion, whose coefficients
# never leave Z) stay in fast machine arithmetic; int and Fraction compare
# and hash consistently.
Rational = Fraction
ExactNumber = Union[int, Fraction]

# Integer matrices are plain row-major nested sequences.
IntMatrix = Sequence[Sequence[int]]


def rational(num: int, den: int = 1) -> Fraction:
    """Reduced rational number with positive denominator."""
    if den == 0:
        raise ZeroDivisionError("division by zero")
    return Fraction(num, den)


def format_rational(value: ExactNumber) -> str:
    """Render a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse the ``"p/q"`` / ``"p"`` wire format back into a rational."""
    return Fraction(text.strip())


def _exact(value: ExactNumber) -> ExactNumber:
    # collapse whole Fractions to int so arithmetic stays in the int fast
    # path; the exact type test skips the ABC machinery behind isinstance
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


@dataclass(frozen=True)
class LinForm:
    """Formal affine-linear expression ``constant + sum(q_j * d_j)``.

    The symbols ``d_0, d_1, ...`` are addressed by nonnegative index; the
    symbol universe is open-ended, so one type serves every dimension.

    Every form is kept in one normal form: coefficients sorted by symbol
    index, zero coefficients never stored, and whole values (constant
    included) stored as ``int``.  Equality and hashing are therefore
    coefficient-wise.  The public constructor validates and normalises its
    input.  The results of ``+``, ``-``, negation and ``scaled`` come from
    operands already in normal form, so they skip that pass: the arithmetic
    itself drops the coefficients that cancel and collapses the whole
    Fractions it creates.
    """

    constant: ExactNumber = 0
    coeffs: tuple[tuple[int, ExactNumber], ...] = ()

    def __post_init__(self) -> None:
        normalized = tuple(
            sorted((j, _exact(c)) for j, c in self.coeffs if c != 0)
        )
        object.__setattr__(self, "constant", _exact(self.constant))
        object.__setattr__(self, "coeffs", normalized)
        if any(j < 0 for j, _ in normalized):
            raise ValueError("symbol indices must be nonnegative")

    @classmethod
    def _normal(
        cls, constant: ExactNumber, coeffs: tuple[tuple[int, ExactNumber], ...]
    ) -> "LinForm":
        """Wrap a constant and coefficients that are already in normal form,
        skipping ``__post_init__``."""
        form = object.__new__(cls)
        object.__setattr__(form, "constant", constant)
        object.__setattr__(form, "coeffs", coeffs)
        return form

    @classmethod
    def zero(cls) -> "LinForm":
        return cls()

    @classmethod
    def const(cls, value: ExactNumber) -> "LinForm":
        return cls(constant=value)

    @classmethod
    def symbol(cls, j: int, coeff: ExactNumber = 1) -> "LinForm":
        """The single-term form ``coeff * d_j``."""
        return cls(coeffs=((j, coeff),))

    @classmethod
    def from_coeffs(
        cls, mapping: Mapping[int, ExactNumber], constant: ExactNumber = 0
    ) -> "LinForm":
        return cls(constant=constant, coeffs=tuple(mapping.items()))

    def coefficient(self, j: int) -> ExactNumber:
        for idx, c in self.coeffs:
            if idx == j:
                return c
        return 0

    def is_zero(self) -> bool:
        return self.constant == 0 and not self.coeffs

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other: "LinForm") -> "LinForm":
        if not isinstance(other, LinForm):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other: "LinForm") -> "LinForm":
        if not isinstance(other, LinForm):
            return NotImplemented
        return self._plus(other, -1)

    def _plus(self, other: "LinForm", sign: int) -> "LinForm":
        """``self + sign*other`` for sign ±1, without building ``-other``."""
        acc = dict(self.coeffs)
        for j, c in other.coeffs:
            total = _exact(acc.get(j, 0) + sign * c)
            if total:
                acc[j] = total
            else:
                del acc[j]
        return LinForm._normal(
            _exact(self.constant + sign * other.constant), tuple(sorted(acc.items()))
        )

    def __neg__(self) -> "LinForm":
        return LinForm._normal(
            -self.constant, tuple((j, -c) for j, c in self.coeffs)
        )

    def scaled(self, factor: ExactNumber) -> "LinForm":
        if factor == 1:
            return self
        if factor == -1:
            return -self
        if factor == 0:
            return LinForm._normal(0, ())
        return LinForm._normal(
            _exact(self.constant * factor),
            tuple((j, _exact(c * factor)) for j, c in self.coeffs),
        )

    def __str__(self) -> str:
        parts: list[str] = []
        for j, c in self.coeffs:
            if c == 1:
                term = f"d{j}"
            elif c == -1:
                term = f"-d{j}"
            else:
                term = f"{format_rational(c)}*d{j}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        if self.constant != 0 or not parts:
            c = self.constant
            if parts:
                parts.append(f"- {format_rational(-c)}" if c < 0 else f"+ {format_rational(c)}")
            else:
                parts.append(format_rational(c))
        return " ".join(parts)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def hermite_normal_form(mat: IntMatrix) -> tuple[list[list[int]], int]:
    """Row-style Hermite normal form of an integer matrix.

    Returns ``(H, rank)`` where ``H`` has the same shape as the input, spans
    the same row lattice, and is canonical: pivots are positive, entries above
    each pivot are reduced into ``[0, pivot)``, and the ``rank`` nonzero rows
    come first.  The form is unique, so lattice equality reduces to list
    equality.
    """
    h = [[int(v) for v in row] for row in mat]
    nrows = len(h)
    ncols = len(h[0]) if nrows else 0
    if any(len(row) != ncols for row in h):
        raise ValueError("ragged matrix")
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, nrows):
            if h[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        h[rank], h[pivot_row] = h[pivot_row], h[rank]
        for i in range(rank + 1, nrows):
            b = h[i][col]
            if b == 0:
                continue
            a = h[rank][col]
            if b % a == 0:
                q = b // a
                h[i] = [x - q * y for x, y in zip(h[i], h[rank])]
            else:
                g, x, y = _xgcd(a, b)
                u, v = a // g, b // g
                top = [x * p + y * q_ for p, q_ in zip(h[rank], h[i])]
                bot = [-v * p + u * q_ for p, q_ in zip(h[rank], h[i])]
                h[rank], h[i] = top, bot
        if h[rank][col] < 0:
            h[rank] = [-v for v in h[rank]]
        pivot = h[rank][col]
        for i in range(rank):
            q = h[i][col] // pivot
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[rank])]
        rank += 1
        if rank == nrows:
            break
    return h, rank


def smith_normal_form(mat: IntMatrix) -> tuple[int, ...]:
    """Elementary divisors ``d_1 | d_2 | ... | d_k`` of an integer matrix.

    Returns all ``min(rows, cols)`` diagonal entries of the Smith normal
    form, nonnegative, with trailing zeros when the rank is deficient.
    Pivots are chosen by smallest nonzero absolute value.  Entries can
    still grow large: on some F(r, n) relator matrices the elimination
    takes seconds to minutes.

    Invariant of pivot t: rows above t are finished and zero in every
    column from t on.  Once the column pass has cleared column t below
    the pivot, the pivot is the only nonzero entry of column t, and it
    stays so until an xgcd column operation mixes column t with another
    one (``column_dirty``).  Until then an exact clear of ``a[t][j]``
    changes that entry alone, so it is set to 0 in O(1) instead of
    updating every row, and no re-check of column t is needed.  A unit
    pivot divides everything, so it skips the divisibility sweep.
    """
    a = [[int(v) for v in row] for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    size = min(nrows, ncols)
    divisors: list[int] = []
    t = 0
    while t < size:
        # pivot: first entry of smallest nonzero absolute value in the
        # trailing submatrix, in row-major order; no entry is smaller than
        # a unit, so the scan stops at the first one
        best = None
        where = None
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                v = row[j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    where = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if where is None:
            break
        bi, bj = where
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]

        while True:
            # clear column t below the pivot
            for i in range(t + 1, nrows):
                b = a[i][t]
                if b == 0:
                    continue
                p = a[t][t]
                if b % p == 0:
                    q = b // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                else:
                    g, x, y = _xgcd(p, b)
                    u, v = p // g, b // g
                    top = [x * r + y * s for r, s in zip(a[t], a[i])]
                    bot = [-v * r + u * s for r, s in zip(a[t], a[i])]
                    a[t], a[i] = top, bot
            # clear row t right of the pivot; may dirty the column again
            column_dirty = False
            for j in range(t + 1, ncols):
                b = a[t][j]
                if b == 0:
                    continue
                p = a[t][t]
                if b % p == 0:
                    if not column_dirty:
                        a[t][j] = 0
                        continue
                    q = b // p
                    for row in a:
                        row[j] -= q * row[t]
                else:
                    g, x, y = _xgcd(p, b)
                    u, v = p // g, b // g
                    for row in a:
                        rt, rj = row[t], row[j]
                        row[t] = x * rt + y * rj
                        row[j] = -v * rt + u * rj
                    column_dirty = True
            if not column_dirty:
                break

        # divisibility sweep: the pivot must divide the trailing submatrix
        pivot = a[t][t]
        offender = None
        if abs(pivot) != 1:
            for i in range(t + 1, nrows):
                row = a[i]
                for j in range(t + 1, ncols):
                    if row[j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue

        divisors.append(abs(pivot))
        t += 1

    divisors.extend(0 for _ in range(size - len(divisors)))
    return tuple(divisors)
