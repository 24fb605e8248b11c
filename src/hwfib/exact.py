"""Exact scalar and integer-matrix arithmetic.

Everything in this module is exact: rationals are arbitrary-precision
``fractions.Fraction`` values, and the Smith normal form works over
arbitrary-precision integers.  No floating point appears anywhere in
the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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

    Trailing block.  Before pivot t the matrix is the direct sum of
    diag(d_1, ..., d_t) and a trailing block T, rows and columns t on:
    finished rows are zero from column t on, and rows from t on are zero
    left of column t.  So only T is kept, every row and column operation
    runs on T alone, and a finished pivot's row and column leave T.

    Content step.  When T holds no unit, its content g, the gcd of its
    entries, is computed; the gcd scan stops at the first gcd of 1.  If
    g > 1, T is divided by g, a running ``scale`` is multiplied by g, and
    every later divisor is the pivot's absolute value times ``scale``.
    This is exact.  SNF(g T) = g SNF(T), since T and T/g take the same
    operations.  And the sweep has already made the last pivot divide
    every entry of T, hence g, so d_t still divides every later divisor.
    Division keeps the order of absolute values, so the pivot the scan
    found stays the pivot.  On F(m-1, 2m) the pivots of 4 become units.

    Clean column.  Once the column pass has cleared column t below the
    pivot, the pivot is the only nonzero entry of column t, and it stays
    so until an xgcd column operation mixes column t with another one
    (``column_dirty``).  Until then an exact clear of ``a[t][j]`` changes
    that entry alone, so it is set to 0 in O(1) instead of updating every
    row, and no re-check of column t is needed.  A unit pivot divides
    everything: exact clears alone would finish its row, so the row pass
    and the divisibility sweep are skipped and row t leaves T as it is.
    """
    a = [list(map(int, row)) for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    size = min(nrows, ncols)
    divisors: list[int] = []
    scale = 1
    # a is the trailing block T: its row 0 and column 0 are row and
    # column t of the whole matrix
    while a and a[0]:
        # pivot: first entry of smallest nonzero absolute value in T, in
        # row-major order; no entry is smaller than a unit, so the scan
        # stops at the first one
        best = None
        where = None
        for i, row in enumerate(a):
            for j, v in enumerate(row):
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    where = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if where is None:
            break
        if best != 1:
            # content step
            g = 0
            for row in a:
                g = gcd(g, *row)
                if g == 1:
                    break
            if g != 1:
                a = [[v // g for v in row] for row in a]
                scale *= g
        bi, bj = where
        if bi:
            a[0], a[bi] = a[bi], a[0]
        if bj:
            for row in a:
                row[0], row[bj] = row[bj], row[0]

        while True:
            # clear column t below the pivot
            for i in range(1, len(a)):
                b = a[i][0]
                if b == 0:
                    continue
                p = a[0][0]
                if b % p == 0:
                    q = b // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[0])]
                else:
                    g, x, y = _xgcd(p, b)
                    u, v = p // g, b // g
                    top = [x * r + y * s for r, s in zip(a[0], a[i])]
                    bot = [-v * r + u * s for r, s in zip(a[0], a[i])]
                    a[0], a[i] = top, bot
            if abs(a[0][0]) == 1:
                break
            # clear row t right of the pivot; may dirty the column again
            column_dirty = False
            top = a[0]
            for j in range(1, len(top)):
                b = top[j]
                if b == 0:
                    continue
                p = top[0]
                if b % p == 0:
                    if not column_dirty:
                        top[j] = 0
                        continue
                    q = b // p
                    for row in a:
                        row[j] -= q * row[0]
                else:
                    g, x, y = _xgcd(p, b)
                    u, v = p // g, b // g
                    for row in a:
                        r0, rj = row[0], row[j]
                        row[0] = x * r0 + y * rj
                        row[j] = -v * r0 + u * rj
                    column_dirty = True
            if not column_dirty:
                break

        # divisibility sweep: the pivot must divide the rest of T (its
        # column below the pivot is zero by now)
        pivot = a[0][0]
        if abs(pivot) != 1:
            offender = next((row for row in a[1:] if any(v % pivot for v in row)), None)
            if offender is not None:
                a[0] = [x + y for x, y in zip(a[0], offender)]
                continue

        divisors.append(abs(pivot) * scale)
        del a[0]
        for row in a:
            del row[0]

    divisors.extend(0 for _ in range(size - len(divisors)))
    return tuple(divisors)
