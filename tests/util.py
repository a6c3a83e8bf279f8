"""Shared helpers: random generators and independent brute-force oracles."""

import collections
import itertools
import math
import operator
from fractions import Fraction

from sympy import Matrix

from k3lat.arith import totient
from k3lat.forms import BinaryForm, apply_transform, reduce_form
from k3lat.lattice import Lattice
from k3lat.linalg import solve, xgcd


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

    Independent of the LDL^T descent of the enumeration: the box radius comes
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


def field_solve_lambda(pv, phi):
    """(lambda, lambda', nu) for phi by field arithmetic on the period's own
    coordinates, or None: Cramer's rule on the first nonzero minor
    mu_i mubar_j - mu_j mubar_i, then a check in every coordinate.

    Independent of the integer tables of the library's solve_lambda; this is
    the formula that solve_lambda evaluated in CM-field arithmetic before
    those tables, rebuilt here from the public coordinates alone.
    """
    mu = pv.mu
    mub = [m.conjugate() for m in mu]
    zero = pv.field.zero()
    n = len(mu)
    i, j, det = next((i, j, det) for i in range(n) for j in range(i + 1, n)
                     if (det := mu[i] * mub[j] - mu[j] * mub[i]) != zero)
    cvals = []
    for row in zip(*phi.columns):
        value = zero
        for m, entry in zip(mu, row):
            value = value + m * entry
        cvals.append(value)
    lam = (cvals[i] * mub[j] - cvals[j] * mub[i]) / det
    lam_p = (mu[i] * cvals[j] - mu[j] * cvals[i]) / det
    if any(cvals[k] != lam * mu[k] + lam_p * mub[k] for k in range(n)):
        return None
    return lam, lam_p, cvals[n]


def min_poly_coeffs(y):
    """Ascending monic coefficients of the minimal polynomial of y over Q:
    the first power of y that solves (k3lat.linalg.solve) as a rational
    combination of the lower ones."""
    field = y.field
    powers = [field.one()]
    for _ in range(field.degree):
        powers.append(powers[-1] * y)
    for deg in range(1, field.degree + 1):
        rows = list(zip(*(p.coords for p in powers[:deg])))
        sol = solve(rows, powers[deg].coords)
        if sol is not None:
            return tuple(-c for c in sol) + (Fraction(1),)
    raise AssertionError("no minimal polynomial found")


def min_poly_totally_nonneg(y, strict=False):
    """Whether every embedding sends y to a real >= 0 (> 0 if strict), from
    the roots of its minimal polynomial.

    Independent of the trace-form signature of the library's test.  y =
    conj(y) lies in the real subfield, of degree 1 or 2 here; two roots are
    real when the discriminant is >= 0, and then both are >= 0 (> 0)
    exactly when their sum -c1 and product c0 are.
    """
    if y.conjugate() != y:
        return False
    sign = (lambda v: v > 0) if strict else (lambda v: v >= 0)
    mp = min_poly_coeffs(y)
    if len(mp) == 2:
        return sign(-mp[0])
    c0, c1, _ = mp
    return c1 * c1 - 4 * c0 >= 0 and sign(-c1) and sign(c0)


def scanned_max_root_of_unity_order(degree):
    """Largest m with phi(m) <= degree, by one totient per m up to 2 degree^2 + 2."""
    return max(m for m in range(1, 2 * degree * degree + 3) if totient(m) <= degree)


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


def dirichlet_compose(f, g):
    """Oracle: Dirichlet composition through united forms.

    A spiral search over primitive (x, y) finds a form equivalent to g whose
    leading coefficient is coprime to f.a (a primitive form represents such
    values); then B solves B = b1 (mod 2 a1), B = b2 (mod 2 a2) by CRT.
    """
    d = f.discriminant()
    r = 0
    while math.gcd(g.a, f.a) != 1:
        r += 1
        for x, y in itertools.product(range(-r, r + 1), repeat=2):
            if max(abs(x), abs(y)) == r and math.gcd(x, y) == 1 and math.gcd(g(x, y), f.a) == 1:
                _, s, t = xgcd(x, y)
                g = apply_transform(g, ((x, -t), (y, s)))
                break
    a1, b1, a2, b2 = f.a, f.b, g.a, g.b
    bb = b1 + 2 * a1 * ((b2 - b1) // 2 * pow(a1, -1, a2) % a2)
    aa = a1 * a2
    assert (bb * bb - d) % (4 * aa) == 0
    return reduce_form(BinaryForm(aa, bb, (bb * bb - d) // (4 * aa)))[0]


def scanning_ldl(gram):
    """Oracle: the steps of linalg.ldl written with generator pivot searches,
    separate row and column passes of the pair fold and a membership test
    for each kept entry of a pivot row."""
    n = len(gram)
    a = [[operator.index(x) for x in row] for row in gram]
    minors = [1]
    rows = []
    rest = list(range(n))
    while rest:
        i = next((k for k in rest if a[k][k]), None)
        if i is None:
            pair = next(((k, j) for k in rest for j in rest if a[k][j]), None)
            if pair is None:
                return minors + [0] * len(rest), rows
            i, j = pair
            for k in rest:
                a[i][k] += a[j][k]
            for k in rest:
                a[k][i] += a[k][j]
        rest.remove(i)
        prev, pivot, row = minors[-1], a[i][i], a[i]
        minors.append(pivot)
        rows.append([row[j] if j in rest or j == i else 0 for j in range(n)])
        for k in rest:
            ak, f = a[k], a[k][i]
            for j in rest:
                ak[j] = (pivot * ak[j] - f * row[j]) // prev
    return minors, rows


def discriminant_form_counts(lat):
    """Oracle: how often the discriminant form of an even lattice takes each value.

    The dual modulo the lattice is G^-1 Z^n / Z^n: with d the common
    denominator of G^-1 (sympy Matrix.inv), its elements are the y/d for
    integer vectors y mod d, generated by the columns of d G^-1 and listed
    as the cosets of the subgroup each column adds.  The form is
    q(y/d) = y^T G y / d^2 mod 2Z (x^T G^-1 x for y = d G^-1 x), kept as
    y^T G y mod 2d^2 and updated along each coset by
    q(y + s) = q(y) + 2 y^T G s + q(s).  Same genus implies isomorphic
    discriminant forms (Nikulin), so two lattices of one genus have equal
    counts.
    """
    g, n = lat.gram, lat.rank
    assert all(g[i][i] % 2 == 0 for i in range(n)), "lattice must be even"
    inv = Matrix(g).inv()
    d = math.lcm(*(x.q for x in inv))
    mod = 2 * d * d
    form = {(0,) * n: 0}
    for j in range(n):
        col = [int(inv[i, j] * d) % d for i in range(n)]
        base, step = list(form.items()), tuple(col)
        while step not in form:
            gs = [sum(map(operator.mul, row, step)) for row in g]
            qs = sum(map(operator.mul, step, gs))
            for y, qy in base:
                form[tuple((a + b) % d for a, b in zip(y, step))] = (
                    qy + 2 * sum(map(operator.mul, y, gs)) + qs) % mod
            step = tuple((a + b) % d for a, b in zip(step, col))
    counts = collections.Counter(form.values())
    return {Fraction(v, d * d): k for v, k in counts.items()}
