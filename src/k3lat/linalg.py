"""Exact linear algebra over Z and Q, the one module that eliminates matrices:
a fraction-free symmetric LDL^T (the source of every determinant and
signature, once per Lattice), Smith invariant factors, Hermite bases, and one
rational row reduction behind solve, rank and inverse.
Inputs are sequences of rows and are never modified; the integer kernels
raise TypeError on an entry that is not an integer instead of truncating it."""

from __future__ import annotations

from fractions import Fraction
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


def rank(rows) -> int:
    return len(_row_reduce(rows)[1])


def solve(rows, rhs) -> list[Fraction] | None:
    """A rational x with rows * x = rhs (free unknowns 0), or None if inconsistent."""
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
