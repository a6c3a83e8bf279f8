"""Exact linear algebra over Z and Q, the one module that eliminates matrices:
a fraction-free symmetric LDL^T (the source of every determinant and
signature, once per Lattice), Smith invariant factors, Hermite bases, and one
rational row reduction behind solve and inverse.  Only that reduction
and solve import fractions, so the integer kernels under every CLI call
load neither it nor the decimal module it pulls in.
Two kernels have a closed form at the sizes the census uses: the Smith
invariants of a square matrix of size at most 3 (gcds of minors) and the
Hermite kernel basis of a row of length 3 (one xgcd).  Rectangular and larger
matrices keep the pivot-scan elimination, and longer rows the Hermite sweep.
Inputs are sequences of rows and are never modified; the integer kernels
raise TypeError on an entry that is not an integer instead of truncating it."""

from __future__ import annotations

from math import gcd
from operator import index

Vector = tuple[int, ...]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def ldl(gram) -> tuple[list[int], list[list[int]]]:
    """Fraction-free symmetric (Bareiss) elimination of an integer matrix.

    A step pivots on the first remaining nonzero diagonal entry, or else
    adds row and column j to i, making the diagonal 2*a_ij.  The result is
    integral: minors [1, P_1, ..., P_n] (0 past the rank) and rows P_{k+1} u_k
    of the LDL^T with pivots d_k = P_{k+1}/P_k, multiplier rows u_k and, by
    Sylvester, the inertia in their signs.  If every P_k > 0, then
    x^T gram x = sum_k (rows[k].x)^2 / (P_k P_{k+1}).
    """
    a = [list(map(index, row)) for row in gram]
    minors = [1]
    rows: list[list[int]] = []
    rest = list(range(len(a)))
    while rest:
        for i in rest:
            if a[i][i]:
                break
        else:
            pair = next(((k, j) for k in rest for j in rest if a[k][j]), None)
            if pair is None:
                return minors + [0] * len(rest), rows
            i, j = pair
            for k in rest:  # a[j][j] = 0: the row and column passes commute
                a[i][k] += a[j][k]
                a[k][i] += a[k][j]
        rest.remove(i)
        prev, pivot, row = minors[-1], a[i][i], a[i]
        minors.append(pivot)
        rows.append(row)  # final: each earlier step zeroed its pivot column
        for k in rest:
            ak, f = a[k], a[k][i]
            if f:
                ak[i] = 0
                for j in rest:
                    ak[j] = (pivot * ak[j] - f * row[j]) // prev
            else:
                for j in rest:
                    ak[j] = pivot * ak[j] // prev
    return minors, rows


def smith_invariants(rows) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix (the
    positive Smith form entries; fewer than min(m, n) means rank deficient)."""
    a = [[index(x) for x in row] for row in rows]
    n = len(a)
    if n <= 3 and all(len(row) == n for row in a):
        # d_k = D_k / D_(k-1) for the gcd D_k of the k x k minors (Newman,
        # ch. II); D_k = 0 makes every later D_k 0
        if n == 3:
            (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a
            m0, m1, m2 = b1 * c2 - b2 * c1, b0 * c2 - b2 * c0, b0 * c1 - b1 * c0
            ds = (gcd(a0, a1, a2, b0, b1, b2, c0, c1, c2),
                  gcd(m0, m1, m2, a1 * c2 - a2 * c1, a0 * c2 - a2 * c0, a0 * c1 - a1 * c0,
                      a1 * b2 - a2 * b1, a0 * b2 - a2 * b0, a0 * b1 - a1 * b0),
                  abs(a0 * m0 - a1 * m1 + a2 * m2))
        elif n == 2:
            (a0, a1), (b0, b1) = a
            ds = (gcd(a0, a1, b0, b1), abs(a0 * b1 - a1 * b0))
        else:
            ds = tuple(abs(x) for row in a for x in row)
        return [d // c for c, d in zip((1,) + ds, ds) if d]
    factors: list[int] = []
    while True:
        # the first entry of least absolute value, in row-major order
        best = 0
        for r, row in enumerate(a):
            for c, x in enumerate(row):
                if x and (not best or abs(x) < best):
                    best, i, j = abs(x), r, c
        if not best:
            return factors
        prow = a[i]
        p = prow[j]
        clean = True  # no remainder smaller than the pivot is left
        for r, row in enumerate(a):
            if r != i:
                q = row[j] // p
                if q:
                    row = a[r] = [x - q * y for x, y in zip(row, prow)]
                if row[j]:
                    clean = False
        for c in range(len(prow)):
            if c != j:
                q = prow[c] // p
                if q:
                    for row in a:
                        row[c] -= q * row[j]
                if prow[c]:
                    clean = False
        if not clean:
            continue
        if best > 1:  # a unit pivot divides every entry
            bad = [row for r, row in enumerate(a) if r != i and any(x % p for x in row)]
            if bad:
                # pull an entry the pivot does not divide into the pivot row
                a[i] = [x + y for x, y in zip(prow, bad[0])]
                continue
        factors.append(best)
        del a[i]
        for row in a:
            del row[j]


def _row_reduce(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q and the list of its pivot columns."""
    from fractions import Fraction
    a = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def solve(rows, rhs) -> list[Fraction] | None:
    """A rational x with rows * x = rhs (free unknowns 0), or None if inconsistent."""
    from fractions import Fraction
    k = len(rows[0])
    a, pivots = _row_reduce([list(row) + [b] for row, b in zip(rows, rhs)])
    if k in pivots:
        return None
    x = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        x[c] = a[i][k]
    return x


def inverse(rows) -> list[list[Fraction]]:
    """Inverse of a nonsingular square matrix over Q."""
    n = len(rows)
    a, pivots = _row_reduce([list(row) + [int(i == j) for j in range(n)]
                             for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in a]


def hnf_columns(cols) -> list[Vector]:
    """Canonical basis of the column lattice spanned by ``cols``.

    Column-style Hermite normal form with positive pivots; requires the
    columns to be linearly independent.  Output is deterministic, which is
    what downstream canonical forms rely on.
    """
    a = [[index(x) for x in c] for c in cols]
    piv = 0
    for i in range(len(a[0]) if a else 0):
        js = [j for j in range(piv, len(a)) if a[j][i]]
        if not js:
            continue
        # sweep row i to a single positive entry in column ``piv``
        a[piv], a[js[0]] = a[js[0]], a[piv]
        for j in js[1:]:
            g, s, t = xgcd(a[piv][i], a[j][i])
            p, q = -(a[j][i] // g), a[piv][i] // g
            a[piv], a[j] = ([s * x + t * y for x, y in zip(a[piv], a[j])],
                            [p * x + q * y for x, y in zip(a[piv], a[j])])
        if a[piv][i] < 0:
            a[piv] = [-x for x in a[piv]]
        for j in range(piv):
            q = a[j][i] // a[piv][i]
            a[j] = [x - q * y for x, y in zip(a[j], a[piv])]
        piv += 1
    if piv != len(a):
        raise ValueError("columns are not linearly independent")
    return [tuple(c) for c in a]


def kernel_basis(w) -> list[Vector]:
    """Hermite basis of {x : w.x = 0} for a nonzero integer row w: the last
    n - 1 columns of hnf_columns on the columns (w_j, e_j), w-row dropped.
    At n = 3 it comes from one xgcd of the primitive row (w0, w1, w2): a first
    column with first entry gcd(w1, w2), reduced modulo the kernel of (w1, w2)."""
    n = len(w)
    if n != 3:
        hnf = hnf_columns([(w[j],) + tuple(int(i == j) for i in range(n)) for j in range(n)])
        return [c[1:] for c in hnf[1:]]
    c = gcd(*w)
    w0, w1, w2 = w[0] // c, w[1] // c, w[2] // c
    if not (w1 or w2):
        return [(0, 1, 0), (0, 0, 1)]
    g, s, t = xgcd(w1, w2)
    if w2:
        b2 = (0, w2 // g, -w1 // g) if w2 > 0 else (0, -w2 // g, w1 // g)
        q = -w0 * s // b2[1]
    else:
        b2, q = (0, 0, 1), -w0 * t
    return [(g, -w0 * s - q * b2[1], -w0 * t - q * b2[2]), b2]
