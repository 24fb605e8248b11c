"""Exact scalar and integer-matrix arithmetic.

Everything in this module is exact: rationals are arbitrary-precision
``fractions.Fraction`` values, and the Smith normal form works over
arbitrary-precision integers.  No floating point appears anywhere in
the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

__all__ = [
    "ExactNumber",
    "IntMatrix",
    "format_rational",
    "parse_rational",
    "smith_normal_form",
]

# Exact scalars.  Plain ints are admitted alongside Fraction so that
# integer-only computations stay in fast int arithmetic; int and Fraction
# compare and hash consistently.
ExactNumber = Union[int, Fraction]

# Integer matrices are plain row-major nested sequences.
IntMatrix = Sequence[Sequence[int]]


def format_rational(value: ExactNumber) -> str:
    """Render a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Parse the ``"p/q"`` / ``"p"`` wire format back into a rational."""
    return Fraction(text.strip())


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
