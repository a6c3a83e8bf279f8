"""Shared helpers: random generators and independent brute-force oracles."""

import collections
import functools
import itertools
import math
import operator
from fractions import Fraction

from sympy import QQ, ZZ, Matrix, Poly, Rational, Symbol
from sympy.polys.numberfields.basis import round_two

from k3lat import arith
from k3lat.cm import CMElement, CMError, _totally_nonneg
from k3lat.forms import BinaryForm, FormError, apply_transform, reduce_form
from k3lat.formulas import max_root_of_unity_order
from k3lat.lattice import Lattice, _integers
from k3lat.linalg import xgcd


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


def lazy_gram_compatible(source, target, vectors, paired=False):
    """Oracle: enumeration._gram_compatible without forward checking.  Column
    i runs through its whole sorted candidate list and a candidate is tested
    against the chosen columns only, one dot product with each G c_j, when
    it is reached; paired halves column 0 as the library does."""
    g, h = source.gram, target.gram
    lists = [[(v, tuple(sum(map(operator.mul, row, v)) for row in h))
              for v in vectors(g[i][i])] for i in range(len(g))]
    if paired:
        lists[0] = lists[0][len(lists[0]) // 2:]

    def extend(chosen, images):
        i = len(chosen)
        if i == len(g):
            yield chosen
            return
        for v, gv in lists[i]:
            if all(sum(map(operator.mul, w, v)) == g[j][i] for j, w in enumerate(images)):
                yield from extend(chosen + (v,), images + (gv,))

    return extend((), ())


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


def verify_norm_equation(lam: CMElement, lam_p: CMElement, nu: CMElement,
                         d: int, ssb: CMElement) -> bool:
    """Exact check of |lambda|^2 + |lambda'|^2 + |nu|^2 d / (sigma.sigmabar) = 1,
    made without division as (|lambda|^2 + |lambda'|^2) (sigma.sigmabar) +
    |nu|^2 d = (sigma.sigmabar).  (sigma.sigmabar) must be totally positive,
    read from the signature of its trace form, so that it is nonzero."""
    if not _totally_nonneg(ssb, strict=True):
        raise CMError("(sigma.sigmabar) must be totally positive")
    return ((lam * lam.conjugate() + lam_p * lam_p.conjugate()) * ssb
            + nu * nu.conjugate() * d) == ssb


def period_refusal(lattice, mu):
    """Oracle: the message with which PeriodVector refused (lattice, mu) when
    it took every rank, or None where it accepted.

    Its refusals in their order: one coordinate per basis vector, one field,
    isotropy, total positivity of (sigma.sigmabar) (from the minimal
    polynomial, not the trace form), the Q-rank of the coordinates (sympy)
    and (gamma_1.sigma) != 0.  It took no rank restriction; that refusal was
    enumerate_period_embeddings'.
    """
    if len(mu) != lattice.rank:
        return "need one coordinate per basis vector"
    field = mu[0].field
    if any(m.field != field for m in mu):
        return "coordinates must share one field"
    gmu = [sum((m * g for m, g in zip(mu, row)), field.zero()) for row in lattice.gram]
    if sum((m * v for m, v in zip(mu, gmu)), field.zero()) != field.zero():
        return "period is not isotropic"
    ssb = sum((m.conjugate() * v for m, v in zip(mu, gmu)), field.zero())
    if not min_poly_totally_nonneg(ssb, strict=True):
        return "(sigma.sigmabar) is not totally positive"
    if Matrix([[Rational(c.numerator, c.denominator) for c in m.coords]
               for m in mu]).rank() != len(mu):
        return "period is not general: a proper primitive sublattice contains it"
    if gmu[0] == field.zero():
        return "(gamma_1.sigma) vanishes; permute the basis first"
    return None


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
    inv = det.inverse()
    lam = (cvals[i] * mub[j] - cvals[j] * mub[i]) * inv
    lam_p = (mu[i] * cvals[j] - mu[j] * cvals[i]) * inv
    if any(cvals[k] != lam * mu[k] + lam_p * mub[k] for k in range(n)):
        return None
    return lam, lam_p, cvals[n]


def _coordinate_rows(elems, den):
    """Row t holds the t-th coordinates of elems times den, as ints."""
    return [tuple(c.numerator * (den // c.denominator) for c in coords)
            for coords in zip(*(x.coords for x in elems))]


def _common_denominator(elems):
    return math.lcm(*(c.denominator for x in elems for c in x.coords))


def field_period_tables(pv):
    """The fields of the library's period tables (_den, _lam, _lam_p, _nu,
    _lam_pairs, _nu_pairs, _norm_rows), built in CMElement arithmetic.

    Every coefficient of lambda, lambda', nu and the norm form is made as a field element by Cramer's rule on the first nonzero
    minor, then scaled to integer rows over the least common denominator of
    the coordinates.  This is how the library built its tables before it
    built them from integer numerators over one denominator; it reads only
    the period's coordinates, their conjugates and (sigma.sigmabar).
    """
    mu, ssb = pv.mu, sum((pv.mu[a].conjugate() * pv.mu[b] * g
                          for a, row in enumerate(pv.lattice.gram) for b, g in enumerate(row)),
                         pv.field.zero())
    mub = [m.conjugate() for m in mu]
    zero, n = pv.field.zero(), len(mu)
    size = n * (n + 1)
    i, j, inv = next((i, j, det.inverse()) for i in range(n) for j in range(i + 1, n)
                     if (det := mu[i] * mub[j] - mu[j] * mub[i]) != zero)
    lam, lam_p = [zero] * size, [zero] * size
    for c, m in enumerate(mu):
        lam[i * n + c], lam[j * n + c] = m * mub[j] * inv, -(m * mub[i] * inv)
        lam_p[i * n + c], lam_p[j * n + c] = -(mu[j] * m * inv), mu[i] * m * inv
    nu = [zero] * (n * n) + list(mu)
    den = _common_denominator(lam + lam_p + nu)

    def triangle(support, w):
        pairs = [(a, b) for k, a in enumerate(support) for b in support[k:]]
        return pairs, [w(a, b) + w(b, a) if a < b else w(a, a) for a, b in pairs]

    lam_pairs, lam_w = triangle(
        [r * n + c for r in (i, j) for c in range(n)],
        lambda a, b: (lam[a] * lam[b].conjugate() + lam_p[a] * lam_p[b].conjugate()) * ssb)
    nu_pairs, nu_w = triangle(range(n * n, size), lambda a, b: nu[a] * nu[b].conjugate())
    qden = _common_denominator(lam_w + nu_w + [ssb])
    return {
        "_den": den,
        "_lam": _coordinate_rows(lam, den),
        "_lam_p": _coordinate_rows(lam_p, den),
        "_nu": _coordinate_rows(nu, den),
        "_lam_pairs": lam_pairs,
        "_nu_pairs": nu_pairs,
        "_norm_rows": [(s, t, g) for s, t, (g,) in zip(
            _coordinate_rows(lam_w, qden), _coordinate_rows(nu_w, qden),
            _coordinate_rows([ssb], qden)) if g or any(s) or any(t)],
    }


def rational_solve(rows, rhs):
    """The rational x with rows * x = rhs, by sympy's row reduction of
    (rows | rhs), or None if there is none; the columns of rows must be
    independent."""
    k = len(rows[0])
    reduced, pivots = Matrix([[*row, b] for row, b in zip(rows, rhs)]).rref()
    if k in pivots:
        return None
    return [Fraction(int(reduced[i, k].p), int(reduced[i, k].q)) for i in range(k)]


def min_poly_coeffs(y):
    """Ascending monic coefficients of the minimal polynomial of y over Q:
    the first power of y that solves (rational_solve) as a rational
    combination of the lower ones."""
    field = y.field
    powers = [field.one()]
    for _ in range(field.degree):
        powers.append(powers[-1] * y)
    for deg in range(1, field.degree + 1):
        rows = list(zip(*(p.coords for p in powers[:deg])))
        sol = rational_solve(rows, powers[deg].coords)
        if sol is not None:
            return tuple(-c for c in sol) + (Fraction(1),)
    raise AssertionError("no minimal polynomial found")


@functools.cache
def _to_integral_basis(field):
    """The matrix taking power-basis coordinates to integral-basis ones: the
    inverse, by sympy, of the matrix whose columns are the integral basis."""
    inv = Matrix([list(col) for col in zip(*field.integral_basis)]).inv()
    return [[Fraction(int(c.p), int(c.q)) for c in row] for row in inv.tolist()]


def is_integral(x):
    """Whether x is in the field's ring of integers: its coordinates on the
    integral basis are integers."""
    return all(sum(map(operator.mul, row, x.coords)).denominator == 1
               for row in _to_integral_basis(x.field))


def root_of_unity_order(x):
    """Oracle for cm.is_root_of_unity, without the field's list of roots:
    None unless x is integral (is_integral) and x * conj(x) = 1, which make
    every |g(x)| = 1; then the least m up to the cyclotomic bound with
    x^m = 1."""
    field = x.field
    if not is_integral(x) or x * x.conjugate() != field.one():
        return None
    power = x
    for m in range(1, max_root_of_unity_order(field.degree) + 1):
        if power == field.one():
            return m
        power = power * x
    return None


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


def cm_field_trace_form(min_poly, conj_gen, integral_basis):
    """T_K = (Tr(b_i conj(b_j))) of a field presentation, as integer rows,
    once sympy alone has shown that it presents a CM field with its ring of
    integers; an AssertionError names the first claim that fails.

    The claims, in this order: min_poly is monic and irreducible over Q;
    conj_gen(x) is a root of it, so x -> conj_gen(x) is an automorphism of
    K = Q[x]/(min_poly), and it is a nontrivial involution; T_K is positive
    definite, so the automorphism is complex conjugation under every
    embedding g, as T_K(x) = sum_g g(x) g(conj x) (a real g and g o conj != g
    would span a hyperbolic plane); and the basis spans the same Z-module
    as the ring of integers that round_two computes.  Traces are those of
    the multiplication matrices on the power basis.
    """
    x = Symbol("x")
    f = Poly([Rational(c) for c in reversed(min_poly)], x, domain=QQ)
    assert f.is_monic and f.is_irreducible, "min_poly is not monic and irreducible"
    n = f.degree()

    def element(coords):
        return Poly([Rational(c.numerator, c.denominator) for c in map(Fraction, coords)][::-1],
                    x, domain=QQ)

    conj, theta = element(conj_gen), Poly(x, x, domain=QQ)
    assert f.compose(conj).rem(f).is_zero, "conj_gen is not a root of min_poly"
    assert conj.compose(conj).rem(f) == theta, "conjugation is not an involution"
    assert conj.rem(f) != theta, "conjugation is the identity"
    basis = [element(row) for row in integral_basis]

    def trace(y):
        return sum((y * theta ** j).rem(f).coeff_monomial(x ** j) for j in range(n))

    gram = Matrix(n, n, lambda i, j: trace(basis[i] * basis[j].compose(conj)))
    assert gram.is_positive_definite, "T_K is not positive definite"
    order, _ = round_two(Poly(list(reversed(min_poly)), x, domain=ZZ))
    maximal = order.matrix.to_Matrix() / order.denom  # columns on the power basis
    change = Matrix(n, n, lambda i, j: basis[j].coeff_monomial(x ** i)).inv() * maximal
    assert all(c.is_integer for c in change) and abs(change.det()) == 1, \
        "the basis does not span the ring of integers"
    return [[int(t) for t in row] for row in gram.tolist()]


def totient(n: int) -> int:
    """Euler's phi of a positive n."""
    (n,) = arith.integers((n,))
    if n < 1:
        raise ValueError("totient needs a positive integer")
    for p in arith.factor(n):
        n = n // p * (p - 1)
    return n


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


def pairwise_gram(lat, basis):
    """Oracle: the Gram matrix of basis in lat, one _inner call per entry,
    independent of the symmetric fill of Lattice._complement."""
    return [[lat._inner(a, b) for b in basis] for a in basis]


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


def scanning_jordan_decomposition(gram, p):
    """Oracle: the steps of genus._jordan_decomposition with the pivot taken
    by a full scan of least (valuation, off-diagonal, row, column) over the
    upper triangle, never by the shortcut to the first diagonal unit."""
    mod = 8 if p == 2 else p
    a = [list(row) for row in gram]
    den, idx, records = 1, list(range(len(gram))), {}

    def valuation(x):
        k = 0
        while x % p == 0:
            x, k = x // p, k + 1
        return k

    while idx:
        v, off, i, j = min((valuation(a[r][s]), r != s, r, s)
                           for r in idx for s in idx if s >= r and a[r][s])
        dim, b11, b12, b22 = 1 + off, a[i][i], a[i][j], a[j][j]
        pv = p ** (v * dim)
        if off:
            w, c = (b11 * b22 - b12 * b12) // pv, (b22, -b12, b11)
        else:
            w, c = b11 // pv, (1, 0, 0)
        u = w * den ** dim
        rec = records.setdefault(v, [0, 1, False, 0])
        rec[0] += dim
        rec[1] = rec[1] * u % mod
        if not off:
            rec[2], rec[3] = True, (rec[3] + u) % 8
        idx = [r for r in idx if r not in (i, j)]
        z = {s: ((c[0] * a[s][i] + c[1] * a[s][j]) // pv, (c[1] * a[s][i] + c[2] * a[s][j]) // pv)
             for s in idx}
        a = [[a[r][s] * w - a[r][i] * z[s][0] - a[r][j] * z[s][1] if r in z and s in z
              else a[r][s] for s in range(len(a))] for r in range(len(a))]
        den *= w
    return records


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


def is_reduced(f):
    """Whether a form is reduced: positive definite, |b| <= a <= c, and
    b >= 0 when |b| = a or a = c."""
    a, b, c = f.a, f.b, f.c
    if not f.is_positive_definite():
        return False
    if not (abs(b) <= a <= c):
        return False
    if b < 0 and (abs(b) == a or a == c):
        return False
    return True


def principal(cl):
    """The principal form (1, d mod 2, (d mod 2 - d) / 4) of a class group."""
    d = cl.discriminant
    b0 = d % 2
    return BinaryForm(1, b0, (b0 * b0 - d) // 4)


def is_fundamental_discriminant(d: int) -> bool:
    (d,) = _integers((d,))
    if d >= 0 or d % 4 not in (0, 1):
        return False
    if d % 4 == 1:
        return arith.is_squarefree(-d)
    m = d // 4
    return m % 4 in (2, 3) and arith.is_squarefree(-m)


_TWO = (0, 1, 0, -1, 0, -1, 0, 1)  # (x/2) = (2/x) by x mod 8


def _kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for n > 0, by quadratic reciprocity."""
    result = 1
    while n % 2 == 0:
        n //= 2
        result *= _TWO[d % 8]
    d %= n  # the Jacobi symbol (d/n) for odd n depends only on d mod n
    while d:
        while d % 2 == 0:
            d //= 2
            result *= _TWO[n % 8]
        if d % 4 == 3 and n % 4 == 3:
            result = -result
        d, n = n % d, d
    return result if n == 1 else 0


def dirichlet_class_number(d: int) -> int:
    """Class number of a fundamental discriminant d < 0 by the finite class
    number formula h = -(w / 2|d|) sum_{0<a<|d|} chi_d(a) a, in integers
    (Cohen, GTM 138, Prop. 5.3.12); independent of the reduced-form scan,
    whose oracle it is."""
    (d,) = _integers((d,))
    if not is_fundamental_discriminant(d):
        raise FormError("d must be a negative fundamental discriminant")
    q = -d
    w = 6 if d == -3 else 4 if d == -4 else 2
    h, rem = divmod(-w * sum(_kronecker(d, a) * a for a in range(1, q)), 2 * q)
    assert rem == 0
    return h
