"""Independent brute-force oracles shared by the test modules.

Nothing here calls into hwfib's algorithms under test: determinants are
expanded by minors, divisor chains come from gcds of minors, lattices come
from word-ball enumeration or from Schreier generators over a breadth-first
closure of the holonomy, and isometries are multiplied as homogeneous
matrices over Fraction.  The general Hermite normal form lives here as the
reference: hwfib writes its translation lattices in Hermite form without
elimination, and is checked against this one.  The Schreier lattice and the
per-class torsion test use it, and test_exact checks it against minor gcds.
The brute-force torsion search runs over a coefficient box of hwfib's
``translation_lattice``, which is checked against the Schreier lattice.
The dense Smith normal form, an elimination by xgcd row and column
combinations, shares nothing with the nearest-remainder one it checks;
test_exact checks both against minor gcds, and checks the divisors of
large relator matrices against a Bareiss determinant.  The symbolic
sequence is rebuilt with one dict of coefficients per term, without
``DiagIsometry`` and without packing forms into integers, and the product
recursion is also run as the direct fold of each window of terms.  The
per-candidate relator check is the route hwfib replaced by its certificate
of each dimension: it shares the recursion and the relator evaluation with
hwfib, but runs them in E(n) over each candidate's own Fraction
translations, with no appeal to the specialisation argument.  The second
route to a candidate's images runs the recursion in E(1) one coordinate at
a time, from each generator's coordinate images (``component_images``),
and reassembles the terms coordinate by coordinate.  The all-k symbolic check
is the route hwfib replaced by one recursion on all coordinates: one E(1)
sequence per k, its two checks run by whole-term equality.  A candidate
entry is read by a regular expression for its grammar and valued by
Fraction, where hwfib reads it with str methods and ints alone.
"""

import re
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, product
from math import gcd, lcm

from hwfib.epimorphism import (
    _product_recursion,
    build_epimorphism,
    symbolic_sequence,
)
from hwfib.exact import IntMatrix
from hwfib.fpgroup import GenImages, fibonacci_presentation, verify_relators
from hwfib.hwgroup import (
    HWCandidate,
    Lattice,
    build_candidate,
    is_crystallographic,
    translation_lattice,
)
from hwfib.isometry import DiagIsometry

# A candidate entry after str.strip: ASCII p or p/q, or a decimal with a digit
_ENTRY = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)")


def entry_value(text):
    """The rational a candidate entry spells, or None for text outside the
    grammar; a zero denominator raises ZeroDivisionError."""
    body = text.strip()
    return None if _ENTRY.fullmatch(body) is None else Fraction(body)


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


def bareiss_det(mat):
    """Integer determinant by fraction-free (Bareiss) elimination: after
    step k every entry of the trailing block is a (k+1) x (k+1) minor, so
    the division by the previous pivot is exact."""
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = a[i]
            c = row[k]
            a[i] = row[: k + 1] + [(pivot * x - c * y) // prev for x, y in zip(row[k + 1 :], top[k + 1 :])]
        prev = pivot
    return sign * a[-1][-1] if n else 1


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


def conjugate_diagonal(c, scale, shift):
    """The candidate generated by h g h^(-1) over the generators g of c, for
    the affine map h: x -> diag(scale) x + shift, multiplied as homogeneous
    matrices.  h commutes with the sign matrices, so the signs stay
    standard; odd scales and shifts in Z/4 keep the translations
    half-integers."""
    n = c.dim
    h = hom_matrix(scale, shift)
    h_inv = hom_matrix(
        [Fraction(1, s) for s in scale], [-Fraction(v) / s for v, s in zip(shift, scale)]
    )
    translations = []
    for g in c.generators:
        m = hom_mul(hom_mul(h, hom_matrix(g.signs, g.translation)), h_inv)
        assert [m[j][j] for j in range(n)] == list(g.signs)
        translations.append([m[j][n] for j in range(n)])
    return build_candidate(n, translations)


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


def symbolic_checks_per_k(n):
    """The all-k check one E(1) sequence at a time: for each k, whether
    ``symbolic_sequence(n, k)`` has period 2n and satisfies the one-step
    recursion, each compared term by term with ``==`` on whole E(1)
    values."""
    out = []
    for k in range(n):
        t = symbolic_sequence(n, k).terms
        periodic = all(t[2 * n + j] == t[j] for j in range(n - 1))
        consistent = all(
            t[i + n - 1] == t[i - 1].inverse().compose(t[i + n - 2].compose(t[i + n - 2]))
            for i in range(1, 2 * n)
        )
        out.append((periodic, consistent))
    return tuple(out)


def window_fold_recursion(seeds, length):
    """The product recursion by its definition: the seeds, then each term
    the left-to-right product of the len(seeds) terms before it, folded
    term by term with ``DiagIsometry.compose``; ``length`` terms in all."""
    terms = list(seeds)
    width = len(terms)
    while len(terms) < length:
        terms.append(reduce(DiagIsometry.compose, terms[-width:]))
    return terms


def component_images(c: HWCandidate, j: int) -> GenImages:
    """Images of the n-1 group generators in E(1) at coordinate j: the sign
    at j and the j-th translation entry of each generator.  For j <= n-2
    exactly one image has sign +1 (generator j); for j = n-1 none does."""
    if not 0 <= j < c.dim:
        raise IndexError(f"coordinate {j} out of range for dimension {c.dim}")
    return GenImages(
        tuple(
            DiagIsometry((1 if i == j else -1,), (Fraction(row[j], 2),))
            for i, row in enumerate(c.units)
        )
    )


def build_epimorphism_by_components(c: HWCandidate) -> GenImages:
    """Independent route to the same images: run the recursion in E(1) for
    each coordinate separately and reassemble the coordinates of each term
    into one element of E(n)."""
    sequences = [
        _product_recursion(component_images(c, j).images, 2 * c.dim)
        for j in range(c.dim)
    ]
    return GenImages(
        tuple(
            DiagIsometry(tuple(g.signs[0] for g in terms), tuple(g.translation[0] for g in terms))
            for terms in zip(*sequences)
        )
    )


def relators_by_candidate(c):
    """Which relators of F(n-1, 2n) are trivial on the candidate's own 2n
    images in E(n), built and evaluated over Fraction."""
    n = c.dim
    return verify_relators(fibonacci_presentation(n - 1, 2 * n), build_epimorphism(c))


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
    """Breadth-first closure of a candidate's sign vectors from the
    identity, keeping the first representative translation found for each
    (in half units), plus the generators as (signs, half units)."""
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


def holonomy(c):
    """One representative group element per holonomy sign vector, keyed by
    the sign vector in breadth-first discovery order; always 2^(n-1)
    entries."""
    return {
        signs: DiagIsometry(signs, tuple(Fraction(u, 2) for u in units))
        for signs, units in _sign_closure(c)[0].items()
    }


def lattice_from_scaled(dim, rows, den):
    """The lattice spanned by the integer rows divided by den: the nonzero
    rows of their Hermite normal form, with any factor that den shares
    with every entry cancelled."""
    h, rank = hermite_normal_form(list(rows))
    basis = h[:rank]
    g = gcd(den, *(v for row in basis for v in row))
    if g > 1:
        den //= g
        basis = [[v // g for v in row] for row in basis]
    return Lattice(dim, den, tuple(tuple(row) for row in basis))


def lattice_from_vectors(dim, vectors):
    """The lattice spanned by rational vectors."""
    fracs = [[Fraction(v) for v in vec] for vec in vectors]
    den = lcm(*(v.denominator for vec in fracs for v in vec))
    return lattice_from_scaled(dim, [[int(v * den) for v in vec] for vec in fracs], den)


def scaled_basis(lat, den):
    """Basis rows of lat rescaled so vectors are rows/den; den must be a
    multiple of the stored denominator."""
    assert den % lat.den == 0
    return [[v * (den // lat.den) for v in row] for row in lat.basis]


def in_hnf_span(hnf_rows, vec):
    """Membership of an integer vector in the row lattice given by nonzero
    HNF rows."""
    pivots = {}
    for row in hnf_rows:
        for j, x in enumerate(row):
            if x:
                pivots[j] = row
                break
    v = list(vec)
    for j in range(len(v)):
        if v[j] == 0:
            continue
        row = pivots.get(j)
        if row is None:
            return False
        q, r = divmod(v[j], row[j])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return True


def lattice_contains(lat, vec):
    """Whether the rational vector lies in the lattice."""
    assert len(vec) == lat.dim
    scaled = [Fraction(v) * lat.den for v in vec]
    return all(q.denominator == 1 for q in scaled) and in_hnf_span(
        lat.basis, [q.numerator for q in scaled]
    )


def reduce_units(hnf_rows, vec):
    """Reduce an integer vector into the fundamental cell of an HNF basis
    (all in the same units); coordinates without a pivot are left alone."""
    v = list(vec)
    for row in hnf_rows:
        p = next(j for j, x in enumerate(row) if x)
        q = v[p] // row[p]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return v


def lattice_reduce(lat, vec):
    """Canonical representative of vec modulo a full-rank lattice, inside
    the fundamental cell of its HNF basis."""
    assert lat.rank == lat.dim
    den = lcm(lat.den, *(Fraction(x).denominator for x in vec))
    rows = scaled_basis(lat, den)
    return tuple(Fraction(x, den) for x in reduce_units(rows, [int(Fraction(x) * den) for x in vec]))


def torsion_oracle(c):
    """Brute-force torsion test: per holonomy class, search for a fixed
    point of (A, a + λ) over lattice vectors λ whose basis coefficients lie
    in [-2, 2].  The representative a is first reduced into the fundamental
    HNF cell, which is what justifies the coefficient bound.  Intended for
    n <= 5; defined for crystallographic candidates."""
    if not is_crystallographic(c):
        raise ValueError("torsion oracle requires a crystallographic candidate")
    rows2 = scaled_basis(translation_lattice(c), 2)  # half units, like the representatives
    nrows = len(rows2)
    span = range(-2, 3)
    for signs, units in list(_sign_closure(c)[0].items())[1:]:
        fixed = [j for j, s in enumerate(signs) if s == 1]
        reduced = reduce_units(rows2, units)
        proj = [tuple(row[j] for j in fixed) for row in rows2]
        target = tuple(-reduced[j] for j in fixed)
        # meet-in-the-middle over the coefficient box
        half = nrows // 2
        left, right = proj[:half], proj[half:]
        left_sums = {
            tuple(sum(cf * row[i] for cf, row in zip(coeffs, left)) for i in range(len(fixed)))
            for coeffs in product(span, repeat=len(left))
        }
        for coeffs in product(span, repeat=len(right)):
            s = tuple(
                sum(cf * row[i] for cf, row in zip(coeffs, right))
                for i in range(len(fixed))
            )
            if tuple(t - x for t, x in zip(target, s)) in left_sums:
                return False
    return True


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
    return lattice_from_scaled(c.dim, sorted(vectors), 2)


def hnf_torsion_classes(c):
    """Sign vectors of the holonomy classes that hold an element of finite
    order, each by one HNF: (A, a + λ) with λ in the Schreier lattice has a
    fixed point exactly when -a restricted to the coordinates A fixes lies
    in the lattice projected there.  Valid at any lattice rank."""
    reps, _ = _sign_closure(c)
    rows2 = scaled_basis(schreier_lattice(c), 2)  # half units, like reps
    found = set()
    for signs, units in reps.items():
        fixed = [j for j, s in enumerate(signs) if s == 1]
        if len(fixed) == c.dim:
            continue
        projected = lattice_from_scaled(
            len(fixed), [[row[j] for j in fixed] for row in rows2], 2
        )
        if lattice_contains(projected, [Fraction(-units[j], 2) for j in fixed]):
            found.add(signs)
    return found


def parity_torsion_classes(n, lows):
    """Sign masks of the non-identity holonomy classes whose product of
    generators has an even translation, in half units, at every coordinate
    its sign mask fixes: the torsion test on the low words alone, with no
    high words and no parity space.  Each class is built from the class
    without its highest generator, not by a Gray-code walk."""
    full = (1 << n) - 1
    rl = [0] * (1 << (n - 1))
    neg = [0] * (1 << (n - 1))
    out = set()
    for s in range(1, 1 << (n - 1)):
        k = s.bit_length() - 1
        rest = s ^ (1 << k)
        # translations add mod 2 whatever the signs
        rl[s] = rl[rest] ^ lows[k]
        neg[s] = neg[rest] ^ full ^ (1 << k)
        if not rl[s] & ~neg[s]:
            out.add(neg[s])
    return out


def hnf_torsion_exists(c):
    """Whether any holonomy class holds an element of finite order."""
    return bool(hnf_torsion_classes(c))


def dense_smith_normal_form(mat):
    """Elementary divisors of an integer matrix by the plain elimination:
    every column operation updates every row, and the divisibility sweep
    and the column re-check run after every pivot, and a remainder is
    cleared by an xgcd combination of two rows or two columns.  This is
    the algorithm ``exact.smith_normal_form`` had before its fast paths
    and its nearest-remainder elimination, kept as the reference that
    one is checked against."""
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
