"""Independent brute-force oracles shared by the test modules.

Nothing here calls into hwfib's algorithms under test: determinants are
expanded by minors, divisor chains come from gcds of minors, lattices come
from word-ball enumeration or from Schreier generators over a breadth-first
closure of the holonomy, and isometries are multiplied as homogeneous
matrices over Fraction.  The Schreier lattice and the per-class torsion test
use hwfib's Hermite normal form, which test_exact checks against minor gcds.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd

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


def divisors_by_minor_gcds(mat):
    """Elementary divisors via d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    size = min(nrows, ncols)
    divisors = []
    prev = 1
    for k in range(1, size + 1):
        g = 0
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                sub = [[mat[i][j] for j in cols] for i in rows]
                g = gcd(g, det_int(sub))
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
