"""Shared helpers: random generators and independent brute-force oracles."""

import itertools
import math
from fractions import Fraction

from k3lat.lattice import Lattice


def random_unimodular(n, rng, steps=12, special=False):
    """Random determinant +-1 matrix from elementary column operations.

    With special=True the determinant is +1 (swaps are replaced by the
    rotation-like swap with a sign).
    """
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.randint(-3, 3)
        for r in range(n):
            m[r][i] += k * m[r][j]
        if rng.random() < 0.3:
            for r in range(n):
                if special:
                    m[r][i], m[r][j] = m[r][j], -m[r][i]
                else:
                    m[r][i], m[r][j] = m[r][j], m[r][i]
    return m


def random_symmetric(n, rng, scale=6, two_power_bias=False):
    """Random symmetric integer matrix as a list of rows; may be degenerate."""
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            v = rng.randint(-scale, scale)
            if two_power_bias and rng.random() < 0.5:
                v *= rng.choice([1, 2, 4])
            g[i][j] = g[j][i] = v
    return g


def random_nondegenerate(n, rng, scale=6, two_power_bias=False):
    while True:
        lat = Lattice(random_symmetric(n, rng, scale, two_power_bias))
        if lat.determinant() != 0:
            return lat


def random_positive_definite(n, rng, entry_bound=10):
    """Rejection sample a positive definite Gram matrix with small entries."""
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = rng.randint(1, entry_bound)
        for i in range(n):
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        lat = Lattice(g)
        try:
            if lat.is_positive_definite():
                return lat
        except Exception:
            continue


def box_vectors_of_norm(lat, n):
    """Complete fixed-norm list by scanning the dual-bound coordinate box.

    Independent of the rational-Cholesky enumeration: the box radius comes
    from the inverse Gram diagonal, x_i^2 <= n * (G^-1)_ii.
    """
    rank = lat.rank
    g = [[Fraction(x) for x in row] for row in lat.gram]
    inv = _fraction_inverse(g)
    bounds = []
    for i in range(rank):
        b2 = Fraction(n) * inv[i][i]
        bounds.append(math.isqrt(b2.numerator // b2.denominator) + 1)
    out = []
    for v in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if lat.norm(v) == n:
            out.append(v)
    return sorted(out)


def box_embeddings(source, target):
    """Column tuples of every isometric embedding source -> target.

    Independent of the backtracking search: each column runs through the
    box-scanned vectors of its norm, and every cross inner product is
    checked directly on the two Gram matrices.
    """
    g, h = source.gram, target.gram
    m = target.rank

    def inner(u, v):
        return sum(u[a] * h[a][b] * v[b] for a in range(m) for b in range(m))

    lists = [box_vectors_of_norm(target, g[i][i]) for i in range(source.rank)]
    return {cols for cols in itertools.product(*lists)
            if all(inner(cols[i], cols[j]) == g[i][j]
                   for i in range(len(cols)) for j in range(i))}


def period_image_matches(pv, pe):
    """Whether phi(sigma) = lambda sigma + lambda' sigmabar + nu e holds in
    every target coordinate, e being the last one."""
    mu, cols = pv.mu, pe.embedding.columns
    n = len(mu)
    for r in range(n + 1):
        image = pv.field.zero()
        for m, col in zip(mu, cols):
            image = image + m * col[r]
        if r == n:
            expected = pe.nu
        else:
            expected = pe.lam * mu[r] + pe.lam_prime * mu[r].conjugate()
        if image != expected:
            return False
    return True


def _fraction_inverse(g):
    n = len(g)
    a = [row[:] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, row in enumerate(g)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        f = a[c][c]
        a[c] = [x / f for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def change_basis(lat, u):
    """Lattice with Gram matrix u^T G u: the basis given by the columns of u."""
    n = len(u)
    g = lat.gram
    return Lattice([[sum(u[k][i] * g[k][l] * u[l][j] for k in range(n) for l in range(n))
                     for j in range(n)] for i in range(n)])
