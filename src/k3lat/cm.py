"""Exact arithmetic in small CM fields and the period-embedding machinery
of a rank-2 period lattice.

A field is Q(zeta_k) of degree 2 or 4 or Q(sqrt(-m)) for squarefree m > 0,
made by CMField.cyclotomic(k) or CMField.imaginary_quadratic(m): its monic
integer minimal polynomial, the image of the generator under complex
conjugation and its ring of integers, which hold by construction and are
not re-proved at run time.  Elements live in the power basis with Fraction
coordinates, so all arithmetic, conjugation, root-of-unity and
total-positivity tests are exact; nothing here evaluates a complex
embedding numerically.  Only CMElement.inverse solves a linear system.

Each field keeps its trace lattice T_K = (Tr(b_i conj(b_j))) on the integral
basis, the positive definite form sum |g(x)|^2, whose vectors of norm [K:Q]
are the roots of unity; is_root_of_unity looks x up among them.  Every
positivity test is the LDL^T signature of such a trace form, Tr(y x conj(x)).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter, mul

from . import arith
from .enumeration import (EmbeddingMatrix, embeddings, short_vectors_le,
                          vectors_of_norm)
from .formulas import CMError, max_root_of_unity_order, twistor_fiber_bound  # last two re-exported
from .lattice import Lattice
from .linalg import inverse


def _rationals(xs) -> tuple[Fraction, ...]:
    """The entries of xs as Fractions.  Only ints and Fractions are taken;
    anything else, a float or a bool among them, is refused with CMError."""
    out = tuple(xs)
    if all(type(x) is Fraction for x in out):
        return out
    if not all(type(x) in (int, Fraction) for x in out):
        raise CMError(f"entries must be integers or Fractions, got {arith.quoted(out)}")
    return tuple(map(Fraction, out))


def _reduction_table(min_poly: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Power-basis coordinates of theta^k for k = 0 .. 2n-2, integers as
    min_poly is monic and integral."""
    n = len(min_poly) - 1
    table = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    for _ in range(n - 1):
        prev = table[-1]
        shifted = (0,) + prev[: n - 1]
        table.append(tuple(shifted[i] - prev[n - 1] * min_poly[i] for i in range(n)))
    return table


def _poly_mul(red, a, b) -> tuple:
    """Product of power-basis coordinate vectors, reduced by the table; ints
    for ints, Fractions for Fractions."""
    n = len(red[0])
    prod = [0 * a[0]] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    out = prod[:n]
    for k in range(n, 2 * n - 1):
        if prod[k]:
            for i in range(n):
                out[i] += prod[k] * red[k][i]
    return tuple(out)


# ascending coefficients of the cyclotomic polynomials of degree 2 and 4
_CYCLOTOMIC = {3: (1, 1, 1), 4: (1, 0, 1), 6: (1, -1, 1), 5: (1, 1, 1, 1, 1),
               8: (1, 0, 0, 0, 1), 10: (1, -1, 1, -1, 1), 12: (1, 0, -1, 0, 1)}


def _quadratic(m: int):
    """Q(sqrt(-m))'s presentation for a squarefree m > 0: its maximal order,
    Z[(1 + sqrt(-m)) / 2] when m = 3 (mod 4) and Z[sqrt(-m)] otherwise, and
    sqrt(-m) -> -sqrt(-m)."""
    one, zero, half = Fraction(1), Fraction(0), Fraction(1, 2)
    return (m, 0, 1), (zero, -one), ((one, zero), (half, half) if m % 4 == 3 else (zero, one))


def _presentation(mp: tuple[int, ...]):
    """The (min_poly, conj_gen, integral_basis) that CMField.cyclotomic or
    CMField.imaginary_quadratic builds on the polynomial mp, or None.

    Q(zeta_k) has the power basis and zeta -> zeta^(k-1) = 1 / zeta, which
    is -(a1 + a2 zeta + ... + zeta^(n-1)) as Phi_k(0) = 1.  The two agree
    on x^2 + 1.
    """
    if mp in _CYCLOTOMIC.values():
        n = len(mp) - 1
        return mp, tuple(Fraction(-c) for c in mp[1:]), tuple(
            tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    if len(mp) != 3 or mp[1:] != (0, 1) or mp[0] <= 0 or not arith.is_squarefree(mp[0]):
        return None
    return _quadratic(mp[0])


class CMField(arith.Record):
    """Q(zeta_k) or Q(sqrt(-m)), of degree 2 or 4, with its complex
    conjugation, as the constructors cyclotomic and imaginary_quadratic
    present it; the constructor refuses every other presentation."""

    min_poly: tuple[int, ...]          # ascending coefficients, monic
    conj_gen: tuple[Fraction, ...]     # image of the generator under conjugation
    integral_basis: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        mp = arith.integers(self.min_poly, CMError)
        conj = _rationals(self.conj_gen)
        basis = tuple(map(_rationals, self.integral_basis))
        if (mp, conj, basis) != _presentation(mp):
            raise CMError("a CMField is Q(zeta_k) or Q(sqrt(-m)) as CMField.cyclotomic(k) "
                          "or CMField.imaginary_quadratic(m) presents it")
        n = len(mp) - 1
        object.__setattr__(self, "min_poly", mp)
        object.__setattr__(self, "conj_gen", conj)
        object.__setattr__(self, "integral_basis", basis)
        red = _reduction_table(mp)
        object.__setattr__(self, "_red", red)
        # Tr(theta^k) for k < n is the trace of multiplication by theta^k,
        # and theta^m for m < 2n - 1 reduces to sum_i red[m][i] theta^i
        traces = [sum(red[k + j][j] for j in range(n)) for k in range(n)]
        object.__setattr__(self, "_traces", tuple(sum(map(mul, r, traces)) for r in red))
        conj_pows = [red[0]]  # integral: conj_gen has integer coordinates
        for _ in range(n - 1):
            conj_pows.append(self._raw_mul(conj_pows[-1], tuple(map(int, conj))))
        object.__setattr__(self, "_conj_pows", conj_pows)
        object.__setattr__(self, "_basis_cols", [[b[i] for b in basis] for i in range(n)])
        basis_elems = [self.element(row) for row in basis]
        conj_elems = [b.conjugate() for b in basis_elems]
        object.__setattr__(self, "_products", tuple(tuple((bi * bj).coords for bj in conj_elems)
                                                    for bi in basis_elems))
        # T_K = sum_g g(x) g(conj x), integral as each b_i conj(b_j) is
        object.__setattr__(self, "_trace_lattice", self._trace_form(self.one()))

    # -- raw coordinate arithmetic -------------------------------------------

    def _raw_mul(self, a, b) -> tuple[Fraction, ...]:
        return _poly_mul(self._red, a, b)

    def _trace_form(self, y: "CMElement") -> Lattice:
        """The form Tr(y x conj(x)) on the integral basis, scaled by one
        positive integer to integer entries; symmetric when y = conj(y)."""
        n = self.degree
        # Tr(y theta^l) = sum_k y_k Tr(theta^(k+l)), and Tr(y p) is linear in p
        w = [sum(map(mul, y.coords, self._traces[l:l + n])) for l in range(n)]
        gram = [[sum(map(mul, p, w)) for p in row] for row in self._products]
        den = math.lcm(*(t.denominator for row in gram for t in row))
        return Lattice([[t.numerator * (den // t.denominator) for t in row] for row in gram])

    # -- constructors ----------------------------------------------------------

    @classmethod
    def imaginary_quadratic(cls, m: int) -> "CMField":
        """Q(sqrt(-m)) for squarefree m > 0, with its maximal order."""
        (m,) = arith.integers((m,), CMError)
        try:  # the constructor decides squarefreeness, factoring m once
            return cls(*_quadratic(m))
        except CMError:
            raise CMError("m must be a positive squarefree integer") from None

    @classmethod
    def cyclotomic(cls, k: int) -> "CMField":
        """Q(zeta_k) for phi(k) in {2, 4}; conjugation sends zeta to zeta^(k-1)."""
        (k,) = arith.integers((k,), CMError)
        if k not in _CYCLOTOMIC:
            raise CMError("cyclotomic field must have degree 2 or 4")
        return cls(*_presentation(_CYCLOTOMIC[k]))

    # -- element helpers -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1

    def element(self, coords) -> "CMElement":
        coords = _rationals(coords)
        if len(coords) != self.degree:
            raise CMError("coordinate length does not match the degree")
        return CMElement(self, coords)

    def rational(self, q) -> "CMElement":
        return self.element((q,) + (Fraction(0),) * (self.degree - 1))

    def zero(self) -> "CMElement":
        return self.rational(0)

    def one(self) -> "CMElement":
        return self.rational(1)

    def from_integral(self, z) -> "CMElement":
        z = arith.integers(z, CMError)
        if len(z) != self.degree:
            raise CMError("coordinate length does not match the degree")
        return self.element([sum(zi * b for zi, b in zip(z, col))
                             for col in self._basis_cols])

    def roots_of_unity(self) -> list["CMElement"]:
        """All roots of unity in the ring of integers, sorted by coordinates.

        They are the trace-lattice vectors of norm n = [K:Q]: as |N(x)| >= 1,
        AM-GM gives sum |g(x)|^2 >= n, with equality exactly when every
        |g(x)| = 1, and Kronecker's theorem makes such an x a root of unity.
        The field lists them once, on first use.
        """
        return list(self._roots)

    @arith.cached
    def _roots(self) -> tuple["CMElement", ...]:
        roots = map(self.from_integral, vectors_of_norm(self._trace_lattice, self.degree))
        return tuple(sorted(roots, key=lambda x: x.coords))


class CMElement(arith.Record):
    field: CMField
    coords: tuple[Fraction, ...]

    def _lift(self, other) -> "CMElement":
        if isinstance(other, CMElement):
            if other.field != self.field:
                raise CMError("elements belong to different fields")
            return other
        return self.field.rational(other)

    def __add__(self, other):
        o = self._lift(other)
        return CMElement(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    def __neg__(self):
        return CMElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        o = self._lift(other)
        return CMElement(self.field, self.field._raw_mul(self.coords, o.coords))

    __rmul__ = __mul__

    def inverse(self) -> "CMElement":
        """1 / self: the first column of the inverse of multiplication by
        self, whose columns are self theta^j, j < n."""
        field = self.field
        cols = [field._raw_mul(self.coords, field._red[j]) for j in range(field.degree)]
        try:
            inv = inverse(list(zip(*cols)))
        except ZeroDivisionError:
            raise CMError("division by zero") from None
        return CMElement(self.field, tuple(row[0] for row in inv))

    def conjugate(self) -> "CMElement":
        out = [Fraction(0)] * self.field.degree
        for a, pw in zip(self.coords, self.field._conj_pows):
            if a:
                for i in range(self.field.degree):
                    out[i] += a * pw[i]
        return CMElement(self.field, tuple(out))

    def __repr__(self) -> str:
        return f"CMElement({', '.join(str(c) for c in self.coords)})"


def _totally_nonneg(y: CMElement, strict: bool = False) -> bool:
    """Exact test that every embedding sends y to a real >= 0 (> 0 if strict):
    for y = conj(y), Tr(y x conj(x)) = sum_g g(y) |g(x)|^2 is positive
    semidefinite exactly when every g(y) >= 0, definite when every g(y) > 0."""
    return y.conjugate() == y and y.field._trace_form(y)._positive(strict)


def enumerate_bounded_integers(field: CMField, bound: int) -> list[CMElement]:
    """All algebraic integers with every complex embedding of modulus <= bound.

    Candidates are the vectors of the field's trace lattice (the sum of
    |g(x)|^2 in the integral coordinates) of norm at most n bound^2;
    acceptance is that bound^2 - x * conj(x) is totally nonnegative, which
    the trace form of that element decides.
    """
    (bound,) = arith.integers((bound,), CMError)
    if bound < 0:
        raise CMError("bound must be nonnegative")
    bsq = field.rational(bound * bound)
    xs = map(field.from_integral,
             short_vectors_le(field._trace_lattice.gram, field.degree * bound * bound))
    return sorted((x for x in xs if _totally_nonneg(bsq - x * x.conjugate())),
                  key=lambda x: x.coords)


def is_root_of_unity(x: CMElement) -> int | None:
    """Least m with x^m = 1, or None.

    x is a root of unity exactly when it is in the field's list of them
    (CMField.roots_of_unity), and then its powers reach 1.  The list picks
    out the integral x with x * conj(x) = 1: each such x has every |g(x)| = 1,
    the list's own criterion.
    """
    if x not in x.field.roots_of_unity():
        return None
    m, power, one = 1, x, x.field.one()
    while power != one:
        m, power = m + 1, power * x
    return m


def _combine(coeffs, elems) -> CMElement:
    """Sum of c * x over the pairs whose integer coefficient c is nonzero."""
    return sum((x * c for c, x in zip(coeffs, elems) if c), elems[0].field.zero())


class PeriodVector(arith.Record):
    """Isotropic positive class sigma = mu_0 gamma_1 + mu_1 gamma_2 defining a
    weight-two Hodge structure on a rank-2 lattice, with exact CM-field
    coordinates.  Its refusals, in order: one coordinate per basis vector,
    rank 2, one field, isotropy, total positivity.  It keeps mubar,
    (sigma.sigmabar) and the frame (0, 1, 1 / (mu_0 mubar_1 - mu_1 mubar_0));
    on its first solve it builds from them the integer tables of
    _PeriodTables, which every later solve reuses."""

    lattice: Lattice
    mu: tuple[CMElement, ...]

    def __post_init__(self) -> None:
        mu = tuple(self.mu)
        if len(mu) != self.lattice.rank:
            raise CMError("need one coordinate per basis vector")
        if len(mu) != 2:
            raise CMError("only rank-2 period lattices are supported")
        field = mu[0].field
        if any(m.field != field for m in mu):
            raise CMError("coordinates must share one field")
        object.__setattr__(self, "mu", mu)
        mub = tuple(m.conjugate() for m in mu)
        gmu = [_combine(row, mu) for row in self.lattice.gram]
        if sum((m * v for m, v in zip(mu, gmu)), field.zero()) != field.zero():
            raise CMError("period is not isotropic")
        ssb = sum((m * v for m, v in zip(mub, gmu)), field.zero())
        if not _totally_nonneg(ssb, strict=True):
            raise CMError("(sigma.sigmabar) is not totally positive")
        # At rank 2, sigma.sigma = 0 and (sigma.sigmabar) != 0 exclude the
        # rest.  sigma = c w for a rational w (a proper primitive sublattice
        # holding sigma) gives (sigma.sigmabar) = c cbar (w.w), 0 with
        # sigma.sigma = c^2 (w.w).  (gamma_1.sigma) = 0 leaves sigma.sigma =
        # mu_1 (gamma_2.sigma) and (sigma.sigmabar) = mubar_1 (gamma_2.sigma),
        # which vanish together.  A zero minor, mubar = t mu, would give
        # (sigma.sigmabar) = t (sigma.sigma) = 0.
        det = mu[0] * mub[1] - mu[1] * mub[0]
        object.__setattr__(self, "_conj", mub)
        object.__setattr__(self, "_ssb", ssb)
        object.__setattr__(self, "_frame", (0, 1, det.inverse()))

    @property
    def field(self) -> CMField:
        return self.mu[0].field

    @arith.cached
    def _tables(self) -> "_PeriodTables":
        """The period's solving tables, built at most once, on first use."""
        return _PeriodTables(self)


def _rows(vectors, scale: int, g: int) -> list[tuple[int, ...]]:
    """Row t holds the t-th coordinates of the integer vectors times scale / g."""
    return [tuple(v * scale // g for v in coords) for coords in zip(*vectors)]


class _PeriodTables:
    """Integer tables that solve phi(sigma) = lambda sigma + lambda' sigmabar
    + nu e for an integer matrix phi, built once per period.

    With x[r n + c] = phi_rc (n = 2, row n is e's) and the frame (i, j,
    1/det), Cramer's rule gives lambda = sum_c (phi_ic mu_c mubar_j - phi_jc
    mu_c mubar_i) / det and lambda' = sum_c (phi_jc mu_i mu_c - phi_ic mu_j
    mu_c) / det, and nu = sum_c phi_nc mu_c; as (mu, mubar) is a K-basis of
    K^2, these solve every phi.  They are linear in x, and the norm value
    (|lambda|^2 + |lambda'|^2)(sigma.sigmabar) + |nu|^2 d is a quadratic form
    in x, kept on its upper triangle.  With mu, mubar, (sigma.sigmabar) and
    1/det over one denominator B, and the field's reduction and conjugation
    integral, their coefficients are integer products over B^3 and B^7
    (norm form), stored as integer rows over the least common denominator,
    so a solve takes integer dot products only.  A norm-identity coordinate
    whose form and (sigma.sigmabar) coordinate both vanish is left out, as
    it reads 0 = 0 for every x: the value is real, so the hexagonal period
    keeps 1 row of 2.  Only element makes
    Fractions: one CMElement per numerator tuple, built on first sight
    together with its negation, which negated reads by id; any element
    built elsewhere it negates exactly.
    """

    def __init__(self, pv: PeriodVector) -> None:
        field, (i, j, inv), cols = pv.field, pv._frame, list(zip(*pv.field._conj_pows))
        n, size, zero = len(pv.mu), len(pv.mu) * (len(pv.mu) + 1), (0,) * field.degree
        b = math.lcm(*(c.denominator for x in (*pv.mu, *pv._conj, pv._ssb, inv) for c in x.coords))
        mu, mub, (ssb, v) = ([tuple(c.numerator * (b // c.denominator) for c in x.coords)
                              for x in xs] for xs in (pv.mu, pv._conj, (pv._ssb, inv)))
        def pm(x, y): return _poly_mul(field._red, x, y)
        def conj(x): return tuple(sum(map(mul, x, col)) for col in cols)
        def lin(*terms): return tuple(map(sum, zip(*terms)))  # sum of integer vectors
        lam, lam_p, nv = [zero] * size, [zero] * size, tuple(-t for t in v)  # over B^3
        for c, m in enumerate(mu):
            lam[i * n + c], lam[j * n + c] = pm(pm(m, mub[j]), v), pm(pm(m, mub[i]), nv)
            lam_p[i * n + c], lam_p[j * n + c] = pm(pm(mu[j], m), nv), pm(pm(mu[i], m), v)
        nu = [zero] * (n * n) + [tuple(b * b * t for t in m) for m in mu]
        g = math.gcd(b ** 4, b * math.gcd(*(t for x in lam + lam_p + nu for t in x)))
        self._field, self._deg, self._den = field, field.degree, b ** 4 // g
        self._elements, self._negatives = {}, {}
        self._lam, self._lam_p, self._nu = (_rows(x, b, g) for x in (lam, lam_p, nu))
        self._solve_rows = self._lam + self._lam_p + self._nu
        def triangle(support, w):  # x_a x_b = x_b x_a: keep a form's upper triangle
            pairs = [(a, b) for k, a in enumerate(support) for b in support[k:]]
            return pairs, [lin(w(a, b), w(b, a)) if a < b else w(a, a) for a, b in pairs]

        self._lam_pairs, lam_w = triangle(  # over B^7
            [r * n + c for r in (i, j) for c in range(n)],
            lambda a, c: pm(lin(pm(lam[a], conj(lam[c])), pm(lam_p[a], conj(lam_p[c]))), ssb))
        self._nu_pairs, nu_w = triangle(range(n * n, size), lambda a, c: pm(nu[a], conj(nu[c])))
        g = math.gcd(b ** 7, *(t for x in lam_w for t in x),
                     b * math.gcd(*(t for x in nu_w for t in x)), b ** 6 * math.gcd(*ssb))
        rows = zip(_rows(lam_w, 1, g), _rows(nu_w, b, g), _rows([ssb], b ** 6, g))
        self._norm_rows = [(s, t, r) for s, t, (r,) in rows if r or any(s) or any(t)]
        self._lam_a, self._lam_b = (itemgetter(*p) for p in zip(*self._lam_pairs))
        self._nu_a, self._nu_b = (itemgetter(*p) for p in zip(*self._nu_pairs))

    def solve(self, columns) -> tuple[tuple[int, ...], ...]:
        """Numerators over the common denominator of lambda, lambda' and nu."""
        x = sum(zip(*columns), ())  # x[r n + c] = phi_rc
        v, k = tuple([sum(map(mul, row, x)) for row in self._solve_rows]), self._deg
        return v[:k], v[k:2 * k], v[2 * k:]

    def element(self, numerators) -> CMElement:
        if (x := self._elements.get(numerators)) is None:  # x and -x, each built once
            x = self._elements[numerators] = CMElement(
                self._field, tuple(Fraction(v, self._den) for v in numerators))
            y = self._elements.setdefault(tuple(-v for v in numerators),
                                          CMElement(self._field, tuple(-c for c in x.coords)))
            self._negatives[id(x)], self._negatives[id(y)] = y, x  # both live in _elements
        return x

    def negated(self, x: CMElement) -> CMElement:
        """-x: read from the table if element built x, else exactly."""
        return self._negatives.get(id(x)) or -x

    def norm_holds(self, columns, d: int, scale: int) -> bool:
        """Whether the norm value of phi equals scale (sigma.sigmabar)."""
        x = sum(zip(*columns), ())  # x[r n + c] = phi_rc
        ps = list(map(mul, self._lam_a(x), self._lam_b(x)))
        qs = list(map(mul, self._nu_a(x), self._nu_b(x)))
        for s, t, g in self._norm_rows:
            if sum(map(mul, s, ps)) + d * sum(map(mul, t, qs)) != scale * g:
                return False
        return True


def pairing_sigma_sigmabar(pv: PeriodVector) -> CMElement:
    """Exact (sigma.sigmabar), as the period stored it; PeriodVector proved
    it totally positive when it was built."""
    return pv._ssb


def solve_lambda(pv: PeriodVector, phi: EmbeddingMatrix):
    """Coefficients (lambda, lambda', nu) with phi(sigma) = lambda sigma +
    lambda' sigmabar + nu e, which every phi has, as (mu, mubar) is a K-basis
    of K^2.

    phi must map into lattice + Z e with e the final basis vector.  lambda,
    lambda' and nu are integer combinations of the entries of phi, weighted
    by the tables the period builds on its first solve (no division, no
    field multiplication).  Fractions are made only for a value new to the
    period.
    """
    n = pv.lattice.rank
    if phi.target.rank != n + 1 or phi.source.rank != n:
        raise CMError("embedding must map rank n into rank n+1")
    tables = pv._tables
    return tuple(map(tables.element, tables.solve(phi.columns)))


class PeriodEmbedding(arith.Record):
    embedding: EmbeddingMatrix
    lam: CMElement
    lam_prime: CMElement
    nu: CMElement


def enumerate_period_embeddings(pv: PeriodVector, d: int,
                                overlattice_index: int = 1) -> list[PeriodEmbedding]:
    """Complete list of isometric embeddings of the period lattice into
    itself plus Z(d) that map sigma into the span of sigma, sigmabar and e.

    That span condition holds for every embedding: a period has rank 2 and
    det(mu, mubar) != 0, so (mu, mubar) is a K-basis of K^2 and any
    integral phi has phi(sigma) = lambda sigma + lambda' sigmabar + nu e with
    lambda and lambda' unique.  As sigma.sigma = 0, isometry then forces
    |lambda|^2 + |lambda'|^2 + |nu|^2 d / (sigma.sigmabar) = k^2 for the
    overlattice index k.  So the list is the lattice embedding search, with
    lambda, lambda' and nu read off by solve_lambda once per pair +-phi: the
    search's list is sorted and closed under negation, which reverses order,
    so entry -1 - k is -(entry k), whose values, linear in phi, the tables
    negate.  Both facts are re-checked exactly, the norm identity on each
    member of a pair, times (sigma.sigmabar) != 0, as an integer quadratic
    form in the entries of phi; a failure raises CMError.  The tables are
    built from integer numerators, so from a built period on nothing
    multiplies field elements, and a value met before costs no Fraction.
    With overlattice_index = k > 1 the returned matrices represent k * phi
    for embeddings phi into an index-k overlattice, so their source carries
    the form scaled by k^2.
    """
    d, nn = arith.integers((d, overlattice_index), CMError)
    if d <= 0:
        raise CMError("d must be positive")
    if nn < 1:
        raise CMError("overlattice index must be positive")
    t = pv.lattice
    target = t.direct_sum(Lattice([[d]]))
    source = t if nn == 1 else t.twist(nn * nn)
    tables, embs = pv._tables, embeddings(source, target)
    out: list[PeriodEmbedding] = [None] * len(embs)
    for k in range(len(embs) // 2):
        emb, neg = embs[-1 - k], embs[k]
        solved = solve_lambda(pv, emb)
        if not (tables.norm_holds(emb.columns, d, nn * nn)
                and tables.norm_holds(neg.columns, d, nn * nn)):
            raise CMError("embedding breaks the rank-2 period identity")
        out[-1 - k] = PeriodEmbedding(emb, *solved)
        out[k] = PeriodEmbedding(neg, *map(tables.negated, solved))
    return out
