"""Exact scalar and integer-matrix arithmetic.

Everything in this module is exact: the Smith normal form works over
arbitrary-precision integers, and a rational is a ``fractions.Fraction``
value.  No floating point appears anywhere in the package.

Half units.  Every translation the package reads or writes for a
candidate is a half-integer t, and it is kept as the int u = 2t.
``format_half`` writes u as ``str(Fraction(u, 2))`` writes it:
``str(u // 2)`` for even u, and ``"u/2"`` for odd u, which is prime to 2,
so that the fraction is in lowest terms.  ``parse_half`` is the one
reader of a candidate entry, for candidate files and the ``HWCandidate``
constructor alike.  After ``str.strip`` it takes ASCII
``[+-]?digits(/digits)?`` or a decimal ``[+-]?digits?.digits?`` with at
least one digit, and returns 2t as an int numerator and denominator in
lowest terms.  It reads no other spelling, so a file loads the same on
every interpreter.  Each digit string goes through ``int`` before a power
of ten is built from it, so the interpreter's limit on the digits of an
int bounds the work.

So the commands read and write candidates in ints, and this package
imports ``fractions`` only inside the functions that take or return a
``Fraction``: the import also loads ``numbers`` and ``decimal``, about
2 ms of every start of the command line (2-core x86-64 VM, Python
3.11.7).  The ``leave_fractions_out`` tests in ``tests/test_cli.py``
check that no command loads it, on canonical and other input.
"""

from __future__ import annotations

from math import gcd
from operator import index
from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "ExactNumber",
    "IntMatrix",
    "format_half",
    "parse_half",
    "smith_normal_form",
]

# Exact scalars.  Plain ints are admitted alongside Fraction so that
# integer-only computations stay in fast int arithmetic; int and Fraction
# compare and hash consistently.
ExactNumber = Union[int, "Fraction"]

# Integer matrices are plain row-major nested sequences.
IntMatrix = Sequence[Sequence[int]]


def format_half(u: int) -> str:
    """``str(Fraction(u, 2))``, the text of the half-integer u/2."""
    return f"{u}/2" if u & 1 else str(u // 2)


def parse_half(text: str) -> tuple[int, int]:
    """2t for the text of a rational t, as a numerator and a positive
    denominator in lowest terms (see the module docstring); the
    denominator is 1 exactly when t is a half-integer.  Other text raises
    ``ValueError``, and a zero denominator ``ZeroDivisionError``."""
    body = text.strip()
    head, slash, den = (body[1:] if body[:1] in ("+", "-") else body).partition("/")
    whole, point, frac = head.partition(".")
    digits = whole + frac
    if not (
        (digits + den).isascii() and (digits + den).isdigit()
        and (not slash or whole and den and not point)
    ):
        raise ValueError(f"{body!r} is not an ASCII rational p/q or decimal")
    p = int(digits)
    q = int(den) if slash else 10 ** len(frac)
    if not q:
        raise ZeroDivisionError(f"{body} has a zero denominator")
    g = gcd(2 * p, q)
    return (-2 * p if body[:1] == "-" else 2 * p) // g, q // g


def _nearest_quotient(b: int, p: int) -> int:
    """The q for which b - q*p lies in [-|p|/2, |p|/2]."""
    q, r = divmod(b, p)
    return q + 1 if 2 * abs(r) > abs(p) else q


def smith_normal_form(mat: IntMatrix) -> tuple[int, ...]:
    """Elementary divisors ``d_1 | d_2 | ... | d_k`` of an integer matrix.

    Returns all ``min(rows, cols)`` diagonal entries of the Smith normal
    form, nonnegative, with trailing zeros when the rank is deficient.
    Entries are read with ``operator.index``, so ints and bools are taken
    and floats, Fractions and strings raise ``TypeError``.

    Trailing block.  Before pivot t the matrix is the direct sum of
    diag(d_1, ..., d_t) and a trailing block T, rows and columns t on:
    finished rows are zero from column t on, and rows from t on are zero
    left of column t.  So only T is kept, every row and column operation
    runs on T alone, and a finished pivot's row and column leave T.

    Each pass takes as pivot p the first entry of smallest nonzero
    absolute value in T, in row-major order, and swaps it into the
    corner; no entry is smaller than a unit, so the scan stops at the
    first one.

    Content step.  When T holds no unit, its content g, the gcd of its
    entries, is computed; the gcd scan stops at the first gcd of 1.  If
    g > 1, T is divided by g, a running ``scale`` is multiplied by g, and
    every later divisor is the pivot's absolute value times ``scale``.
    This is exact.  SNF(g T) = g SNF(T), since T and T/g take the same
    operations.  And the sweep has already made the last pivot divide
    every entry of T, hence g, so d_t still divides every later divisor.
    Division keeps the order of absolute values, so the pivot the scan
    found stays the pivot.  On F(m-1, 2m) the pivots of 4 become units.

    Nearest remainders.  Each entry b below the pivot is cleared by
    row_i -= q row_t, with q the nearest quotient of b by p, which leaves
    in column t a remainder of absolute value at most |p|/2.  Swaps and
    adding a multiple of one row or column to another are unimodular, so
    no step changes the divisors.  If a remainder is nonzero, it is
    smaller than p, and the pass goes back to the scan.  Otherwise
    column t is clean: p is its only nonzero entry, so col_j -= q col_t
    changes row t alone, every other row being zero in column t.  Row
    t's entries are therefore replaced in place by their nearest
    remainders mod p, and if one is nonzero the pass goes back to the
    scan.  A unit pivot leaves no remainder, so it skips the row step.

    Divisibility sweep.  The pivot must divide the rest of T.  The first
    row that it does not divide is added to row t, which keeps p alone in
    column t and gives row t an entry that p does not divide, and the
    pass goes back to the scan.  A unit pivot divides everything and
    skips the sweep.  Otherwise |p| scale is emitted and p's row and
    column leave T.

    Termination.  Each pass that emits nothing lowers the smallest
    nonzero absolute value in T (by a remainder or by the content step),
    or, after the sweep, keeps it at the corner, where the scan finds it
    again and the next pass lowers it by a remainder of row t.  That
    value is a positive integer, and each emission shrinks T.
    """
    a = [list(map(index, row)) for row in mat]
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
        # pivot: first entry of smallest nonzero absolute value in T
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
        top = a[0]
        p = top[0]

        # clear column t below the pivot down to nearest remainders
        for i in range(1, len(a)):
            b = a[i][0]
            if b:
                q = _nearest_quotient(b, p)
                a[i] = [x - q * y for x, y in zip(a[i], top)]
        if any(row[0] for row in a[1:]):
            continue

        if abs(p) != 1:
            # column t is clean: reduce row t to nearest remainders mod p
            for j in range(1, len(top)):
                if top[j]:
                    top[j] -= _nearest_quotient(top[j], p) * p
            if any(top[1:]):
                continue
            # divisibility sweep
            offender = next((row for row in a[1:] if any(v % p for v in row)), None)
            if offender is not None:
                a[0] = [x + y for x, y in zip(top, offender)]
                continue

        divisors.append(abs(p) * scale)
        del a[0]
        for row in a:
            del row[0]

    divisors.extend(0 for _ in range(size - len(divisors)))
    return tuple(divisors)
