"""Independent brute-force oracles shared by the test modules.

Nothing here calls into hwfib's algorithms under test: determinants are
expanded by minors, divisor chains come from gcds of minors, lattices come
from word-ball enumeration or from Schreier generators over a breadth-first
closure of the holonomy, and isometries are multiplied as homogeneous
matrices over Fraction.  The Schreier lattice and the per-class torsion test
use hwfib's Hermite normal form, which test_exact checks against minor gcds.
The dense Smith normal form shares only ``exact._xgcd`` with the fast one
it checks; test_exact checks both against minor gcds.  The symbolic
sequence is rebuilt with one dict of coefficients per term, without
``DiagIsometry`` and without packing forms into integers.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd

from hwfib.exact import _xgcd
from hwfib.hwgroup import Lattice


def det_int(mat):
    """Integer determinant by expansion along the first row."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j, v in enumerate(mat[0]):
        if v == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * v * det_int(minor)
    return total


def minor_gcd(mat, k):
    """gcd of all k x k minors; by the Smith normal form it is d_1 ... d_k."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    g = 0
    for rows in combinations(range(nrows), k):
        for cols in combinations(range(ncols), k):
            g = gcd(g, det_int([[mat[i][j] for j in cols] for i in rows]))
    return g


def divisors_by_minor_gcds(mat):
    """Elementary divisors via d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    size = min(nrows, ncols)
    divisors = []
    prev = 1
    for k in range(1, size + 1):
        g = minor_gcd(mat, k)
        if g == 0:
            divisors.extend(0 for _ in range(size - k + 1))
            return tuple(divisors)
        divisors.append(g // prev)
        prev = g
    return tuple(divisors)


def hom_matrix(signs, translation):
    """(n+1)x(n+1) homogeneous matrix of the affine map x -> diag(signs) x + t."""
    n = len(signs)
    rows = []
    for i in range(n):
        row = [Fraction(0)] * (n + 1)
        row[i] = Fraction(signs[i])
        row[n] = Fraction(translation[i])
        rows.append(row)
    rows.append([Fraction(0)] * n + [Fraction(1)])
    return rows

def hom_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def hom_identity(n):
    return hom_matrix([1] * n, [0] * n)


def sparse_symbolic_terms(n, k):
    """The 3n-1 terms of the symbolic sequence for (n, k), each as
    (sign, {j: c}) holding the nonzero coefficients c of d_j in its
    translation.  Seeds are (±1, d_i) with +1 only at i = k; each later
    term is the left-to-right E(1) product of the n-1 terms before it,
    (s, a)(t, b) = (st, s*b + a)."""
    terms = [(1 if i == k else -1, {i: 1}) for i in range(n - 1)]
    while len(terms) < 3 * n - 1:
        sign, acc = 1, {}
        for s, coeffs in terms[-(n - 1):]:
            for j, c in coeffs.items():
                acc[j] = acc.get(j, 0) + sign * c
            sign *= s
        terms.append((sign, {j: c for j, c in acc.items() if c}))
    return terms


def in_hnf_shape(rows):
    """Check the canonical row-HNF shape: staircase pivots, positive pivots,
    entries above each pivot in [0, pivot), zero rows trailing."""
    pivots = []
    seen_zero = False
    for row in rows:
        nz = [j for j, v in enumerate(row) if v != 0]
        if not nz:
            seen_zero = True
            continue
        if seen_zero:
            return False
        p = nz[0]
        if pivots and p <= pivots[-1]:
            return False
        if row[p] <= 0:
            return False
        pivots.append(p)
    for r, p in enumerate(pivots):
        for i in range(r):
            if not (0 <= rows[i][p] < rows[r][p]):
                return False
    return True


def unimodular_2x2(bound=3):
    """All 2x2 integer matrices with entries in [-bound, bound] and det ±1."""
    rng = range(-bound, bound + 1)
    for a, b, c, d in product(rng, repeat=4):
        if a * d - b * c in (1, -1):
            yield [[a, b], [c, d]]


@lru_cache(maxsize=8)
def _sign_closure(c):
    """Breadth-first closure of a candidate's sign vectors, keeping the first
    representative translation found for each (in half units), plus the
    generators as (signs, half units)."""
    gens = [(g.signs, tuple(int(2 * t) for t in g.translation)) for g in c.generators]
    identity = (1,) * c.dim
    reps = {identity: (0,) * c.dim}
    queue = [identity]
    for signs in queue:  # the queue grows while it is walked
        for gsigns, gunits in gens:
            prod = tuple(a * b for a, b in zip(signs, gsigns))
            if prod not in reps:
                reps[prod] = tuple(
                    s * b + t for s, b, t in zip(signs, gunits, reps[signs])
                )
                queue.append(prod)
    return reps, gens


@lru_cache(maxsize=8)  # the torsion oracle asks again for the same candidate
def schreier_lattice(c):
    """Translation lattice from Schreier generators of the kernel of the
    holonomy projection: for every holonomy representative t and generator
    g, the pure translation t g rep(tg)^(-1); canonical HNF."""
    reps, gens = _sign_closure(c)
    vectors = set()
    for signs, t in reps.items():
        for gsigns, gunits in gens:
            target = reps[tuple(a * b for a, b in zip(signs, gsigns))]
            vec = tuple(
                s * b + a - r for s, b, a, r in zip(signs, gunits, t, target)
            )
            if any(vec):
                vectors.add(vec)
    return Lattice.from_scaled(c.dim, sorted(vectors), 2)


def hnf_torsion_classes(c):
    """Sign vectors of the holonomy classes that hold an element of finite
    order, each by one HNF: (A, a + λ) with λ in the Schreier lattice has a
    fixed point exactly when -a restricted to the coordinates A fixes lies
    in the lattice projected there.  Valid at any lattice rank."""
    reps, _ = _sign_closure(c)
    rows2 = schreier_lattice(c).scaled_basis(2)  # half units, like reps
    found = set()
    for signs, units in reps.items():
        fixed = [j for j, s in enumerate(signs) if s == 1]
        if len(fixed) == c.dim:
            continue
        projected = Lattice.from_scaled(
            len(fixed), [[row[j] for j in fixed] for row in rows2], 2
        )
        if projected.contains([Fraction(-units[j], 2) for j in fixed]):
            found.add(signs)
    return found


def hnf_torsion_exists(c):
    """Whether any holonomy class holds an element of finite order."""
    return bool(hnf_torsion_classes(c))


def dense_smith_normal_form(mat):
    """Elementary divisors of an integer matrix by the plain elimination:
    every column operation updates every row, and the divisibility sweep
    and the column re-check run after every pivot.  This is the algorithm
    ``exact.smith_normal_form`` had before its fast paths, kept as the
    reference they are checked against."""
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
            if not column_dirty and all(a[i][t] == 0 for i in range(t + 1, nrows)):
                break

        # divisibility sweep: the pivot must divide the trailing submatrix
        pivot = a[t][t]
        offender = None
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
