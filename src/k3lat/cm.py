"""Exact arithmetic in small CM fields and the period-embedding machinery.

Fields are presented by a monic integer minimal polynomial of degree 2 or 4
together with the automorphism acting as complex conjugation under every
embedding.  Elements live in the power basis with Fraction coordinates, so
all arithmetic, conjugation, integrality and total-positivity tests are
exact; nothing here evaluates a complex embedding numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import arith
from .enumeration import EmbeddingMatrix, embeddings, short_vectors_le
from .lattice import Lattice
from .linalg import rank, solve


class CMError(arith.DomainError):
    """A CM-field or period precondition was violated."""


def _reduction_table(min_poly: tuple[int, ...]) -> list[tuple[Fraction, ...]]:
    """Power-basis coordinates of theta^k for k = 0 .. 2n-2."""
    n = len(min_poly) - 1
    top = [-Fraction(c) for c in min_poly[:n]]  # theta^n
    table = [tuple(Fraction(1) if i == k else Fraction(0) for i in range(n))
             for k in range(n)]
    for _ in range(n - 1):
        prev = table[-1]
        shifted = [Fraction(0)] + list(prev[: n - 1])
        carry = prev[n - 1]
        table.append(tuple(shifted[i] + carry * top[i] for i in range(n)))
    return table


def _poly_mul(red, a, b) -> tuple[Fraction, ...]:
    """Product of power-basis coordinate vectors, reduced by the table."""
    n = len(red[0])
    prod = [Fraction(0)] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    out = list(prod[:n])
    for k in range(n, 2 * n - 1):
        if prod[k]:
            for i in range(n):
                out[i] += prod[k] * red[k][i]
    return tuple(out)


# ascending coefficients of the cyclotomic polynomials of degree 2 and 4
_CYCLOTOMIC = {3: (1, 1, 1), 4: (1, 0, 1), 6: (1, -1, 1), 5: (1, 1, 1, 1, 1),
               8: (1, 0, 0, 0, 1), 10: (1, -1, 1, -1, 1), 12: (1, 0, -1, 0, 1)}


def _has_real_root(mp: tuple[int, ...]) -> bool:
    """Whether a monic polynomial (ascending coefficients) has a real root.

    Sturm's theorem: the number of distinct real roots is the drop in sign
    changes of the Sturm sequence from -infinity to +infinity.
    """
    seq = [[Fraction(c) for c in mp], [Fraction(i * c) for i, c in enumerate(mp)][1:]]
    while True:
        rem = seq[-2][:]
        while len(rem) >= len(seq[-1]):
            q = rem[-1] / seq[-1][-1]
            shift = len(rem) - len(seq[-1])
            for i, c in enumerate(seq[-1]):
                rem[shift + i] -= q * c
            rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            break
        seq.append([-c for c in rem])

    def changes(at_minus_inf: bool) -> int:
        signs = [(p[-1] > 0) != (at_minus_inf and len(p) % 2 == 0) for p in seq]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return changes(True) > changes(False)


def _is_irreducible(mp: tuple[int, ...]) -> bool:
    """Irreducibility over Q of a monic integer polynomial of degree 2 or 4.

    By Gauss's lemma a factorization may be taken monic over Z: a quadratic
    splits exactly when its discriminant is a square; a quartic splits when
    it has an integer root, which divides a0, or is (x^2+bx+c)(x^2+dx+e)
    with c*e = a0, b+d = a3, bd = a2-c-e and be+cd = a1.  Running c over
    all divisors of a0 covers both orders of the quadratic factors, so b
    may be taken as the larger root of t^2 - a3*t + (a2-c-e).
    """
    if len(mp) == 3:
        disc = mp[1] ** 2 - 4 * mp[0]
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    a0, a1, a2, a3, _ = mp
    if a0 == 0:
        return False
    divisors = [1]
    for p, e in arith.factor(a0).items():
        if p > 0:
            divisors = [d * p ** k for d in divisors for k in range(e + 1)]
    divisors += [-d for d in divisors]
    if any(sum(c * r ** i for i, c in enumerate(mp)) == 0 for r in divisors):
        return False
    for c in divisors:
        e = a0 // c
        disc = a3 * a3 - 4 * (a2 - c - e)
        s = math.isqrt(disc) if disc >= 0 else -1
        if s * s == disc and (a3 + s) % 2 == 0:
            b, d = (a3 + s) // 2, (a3 - s) // 2
            if b * e + c * d == a1:
                return False
    return True


@dataclass(frozen=True)
class CMField:
    """Totally imaginary field of degree 2 or 4 with a designated conjugation."""

    min_poly: tuple[int, ...]          # ascending coefficients, monic
    conj_gen: tuple[Fraction, ...]     # image of the generator under conjugation
    integral_basis: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        mp = arith.integers(self.min_poly, CMError)
        n = len(mp) - 1
        if n not in (2, 4):
            raise CMError("only degrees 2 and 4 are supported")
        if mp[-1] != 1:
            raise CMError("minimal polynomial must be monic")
        if not _is_irreducible(mp):
            raise CMError("minimal polynomial must be irreducible")
        if _has_real_root(mp):
            raise CMError("field must be totally imaginary")
        conj = tuple(Fraction(c) for c in self.conj_gen)
        if len(conj) != n:
            raise CMError("conjugation image has the wrong length")
        basis = tuple(tuple(Fraction(c) for c in row) for row in self.integral_basis)
        if len(basis) != n or any(len(row) != n for row in basis):
            raise CMError("integral basis must be a square matrix")
        if rank(basis) != n:
            raise CMError("integral basis is not a basis")
        object.__setattr__(self, "min_poly", mp)
        object.__setattr__(self, "conj_gen", conj)
        object.__setattr__(self, "integral_basis", basis)
        object.__setattr__(self, "_red", _reduction_table(mp))
        conj_pows = [tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(n))]
        for _ in range(n - 1):
            conj_pows.append(self._raw_mul(conj_pows[-1], conj))
        object.__setattr__(self, "_conj_pows", conj_pows)
        basis_cols = [[basis[j][i] for j in range(n)] for i in range(n)]
        object.__setattr__(self, "_basis_cols", basis_cols)
        self._validate_structure()

    # -- raw coordinate arithmetic -------------------------------------------

    def _raw_mul(self, a, b) -> tuple[Fraction, ...]:
        return _poly_mul(self._red, a, b)

    def _validate_structure(self) -> None:
        theta = self.gen()
        conj_theta = self.element(self.conj_gen)
        mp = self.min_poly
        acc = self.zero()
        power = self.one()
        for c in mp:
            acc = acc + power * c
            power = power * conj_theta
        if acc != self.zero():
            raise CMError("conjugation does not fix the minimal polynomial")
        if conj_theta.conjugate() != theta:
            raise CMError("conjugation must be an involution")
        if conj_theta == theta:
            raise CMError("conjugation must be nontrivial")
        if not _totally_nonneg(theta * conj_theta, strict=True):
            raise CMError("conjugation is not complex conjugation")
        if not self.one().is_integral() or not theta.is_integral():
            raise CMError("integral basis must contain 1 and the generator's order")
        basis_elems = [self.element(row) for row in self.integral_basis]
        for bi in basis_elems:
            for bj in basis_elems:
                if not (bi * bj).is_integral():
                    raise CMError("integral basis is not multiplicatively closed")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def imaginary_quadratic(cls, m: int) -> "CMField":
        """Q(sqrt(-m)) for squarefree m > 0, with its maximal order."""
        (m,) = arith.integers((m,), CMError)
        if m <= 0 or not arith.is_squarefree(m):
            raise CMError("m must be a positive squarefree integer")
        if m % 4 == 3:
            basis = ((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1, 2)))
        else:
            basis = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        return cls((m, 0, 1), (Fraction(0), Fraction(-1)), basis)

    @classmethod
    def cyclotomic(cls, k: int) -> "CMField":
        """Q(zeta_k) for phi(k) in {2, 4}; conjugation sends zeta to zeta^(k-1)."""
        (k,) = arith.integers((k,), CMError)
        if k not in _CYCLOTOMIC:
            raise CMError("cyclotomic field must have degree 2 or 4")
        mp = _CYCLOTOMIC[k]
        n = len(mp) - 1
        red = _reduction_table(mp)
        conj = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(n))
        gen = tuple(Fraction(1) if i == 1 else Fraction(0) for i in range(n))
        for _ in range(k - 1):
            conj = _poly_mul(red, conj, gen)
        basis = tuple(tuple(Fraction(1) if i == j else Fraction(0) for i in range(n))
                      for j in range(n))
        return cls(mp, conj, basis)

    # -- element helpers -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1

    def element(self, coords) -> "CMElement":
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.degree:
            raise CMError("coordinate length does not match the degree")
        return CMElement(self, coords)

    def rational(self, q) -> "CMElement":
        return self.element((Fraction(q),) + (Fraction(0),) * (self.degree - 1))

    def zero(self) -> "CMElement":
        return self.rational(0)

    def one(self) -> "CMElement":
        return self.rational(1)

    def gen(self) -> "CMElement":
        coords = [Fraction(0)] * self.degree
        coords[1] = Fraction(1)
        return self.element(coords)

    def from_integral(self, z) -> "CMElement":
        z = list(z)
        if len(z) != self.degree:
            raise CMError("coordinate length does not match the degree")
        coords = [Fraction(0)] * self.degree
        for zi, row in zip(z, self.integral_basis):
            for i in range(self.degree):
                coords[i] += zi * row[i]
        return self.element(coords)

    def roots_of_unity(self) -> list["CMElement"]:
        """All roots of unity in the ring of integers, sorted by coordinates."""
        return [x for x in enumerate_bounded_integers(self, 1)
                if is_root_of_unity(x) is not None]


@dataclass(frozen=True)
class CMElement:
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

    __radd__ = __add__

    def __neg__(self):
        return CMElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        return CMElement(self.field, self.field._raw_mul(self.coords, o.coords))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "CMElement":
        n = self.field.degree
        # columns of the multiplication-by-self matrix
        cols = [self.field._raw_mul(self.coords, self.field._red[j]) for j in range(n)]
        sol = solve(list(zip(*cols)), [1] + [0] * (n - 1))
        if sol is None:
            raise CMError("division by zero")
        return CMElement(self.field, tuple(sol))

    def conjugate(self) -> "CMElement":
        out = [Fraction(0)] * self.field.degree
        for a, pw in zip(self.coords, self.field._conj_pows):
            if a:
                for i in range(self.field.degree):
                    out[i] += a * pw[i]
        return CMElement(self.field, tuple(out))

    def integral_coords(self) -> tuple[Fraction, ...]:
        sol = solve(self.field._basis_cols, list(self.coords))
        assert sol is not None
        return tuple(sol)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.integral_coords())

    def trace(self) -> Fraction:
        n = self.field.degree
        return sum(self.field._raw_mul(self.coords, self.field._red[j])[j]
                   for j in range(n))

    def min_poly_coeffs(self) -> tuple[Fraction, ...]:
        """Ascending monic coefficients of the minimal polynomial over Q."""
        n = self.field.degree
        powers = [self.field.one().coords]
        for _ in range(n):
            powers.append(self.field._raw_mul(powers[-1], self.coords))
        for deg in range(1, n + 1):
            rows = [[powers[k][i] for k in range(deg)] for i in range(n)]
            rhs = [powers[deg][i] for i in range(n)]
            sol = solve(rows, rhs)
            if sol is not None:
                return tuple(-c for c in sol) + (Fraction(1),)
        raise CMError("no minimal polynomial found")  # pragma: no cover

    def __repr__(self) -> str:
        return f"CMElement({', '.join(str(c) for c in self.coords)})"


def _totally_nonneg(y: CMElement, strict: bool = False) -> bool:
    """Exact test that every embedding sends y to a real >= 0 (> 0 if strict;
    a nonzero element has no zero embedding, so that just excludes y = 0)."""
    if y.conjugate() != y or (strict and y == y.field.zero()):
        return False
    mp = y.min_poly_coeffs()
    if len(mp) == 2:
        return -mp[0] >= 0
    c0, c1, _ = mp
    disc = c1 * c1 - 4 * c0
    # roots are (-c1 +- sqrt(disc)) / 2; both real and nonnegative
    return disc >= 0 and -c1 >= 0 and c0 >= 0


def enumerate_bounded_integers(field: CMField, bound: int) -> list[CMElement]:
    """All algebraic integers with every complex embedding of modulus <= bound.

    Candidates come from the trace form box (sum of |g(x)|^2 is a positive
    definite rational quadratic form in the integral coordinates); acceptance
    is the exact totally-nonnegative test on bound^2 - x * conj(x).
    """
    (bound,) = arith.integers((bound,), CMError)
    if bound < 0:
        raise CMError("bound must be nonnegative")
    n = field.degree
    basis = [field.element(row) for row in field.integral_basis]
    gram = [[(bi * bj.conjugate()).trace() for bj in basis] for bi in basis]
    out = []
    bsq = field.rational(bound * bound)
    for z in short_vectors_le(gram, Fraction(n * bound * bound)):
        x = field.from_integral(z)
        if _totally_nonneg(bsq - x * x.conjugate()):
            out.append(x)
    out.sort(key=lambda e: e.coords)
    return out


def max_root_of_unity_order(degree: int) -> int:
    """Largest m with phi(m) <= degree; phi(m) >= sqrt(m/2) bounds the scan."""
    (degree,) = arith.integers((degree,), CMError)
    if degree < 1:
        raise CMError("degree must be positive")
    limit = 2 * degree * degree + 2
    return max(m for m in range(1, limit + 1) if arith.totient(m) <= degree)


def is_root_of_unity(x: CMElement) -> int | None:
    """Least m with x^m = 1, or None.

    An algebraic integer whose conjugates all have modulus 1 is a root of
    unity, and x * conj(x) = 1 is exactly that modulus condition here, so
    powering up to the cyclotomic bound for the degree decides the question.
    """
    if not x.is_integral():
        return None
    if x * x.conjugate() != x.field.one():
        return None
    bound = max_root_of_unity_order(x.field.degree)
    power = x
    for m in range(1, bound + 1):
        if power == x.field.one():
            return m
        power = power * x
    return None


def twistor_fiber_bound(field_degree: int, roots_of_unity: int | None = None) -> int:
    """Upper bound for the number of twistor fibres isomorphic to the base.

    Twice the number of roots of unity when that count is known, else twice
    the largest possible order of a root of unity in a field of the given
    degree.  Transcendental ranks above 21 cannot occur.
    """
    (field_degree,) = arith.integers((field_degree,), CMError)
    if not 1 <= field_degree <= 21:
        raise CMError("field degree must be between 1 and 21")
    if roots_of_unity is not None:
        (roots_of_unity,) = arith.integers((roots_of_unity,), CMError)
        if roots_of_unity < 1:
            raise CMError("root-of-unity count must be positive")
        return 2 * roots_of_unity
    return 2 * max_root_of_unity_order(field_degree)


@dataclass(frozen=True)
class PeriodVector:
    """Isotropic positive class sigma = sum mu_i gamma_i defining a weight-two
    Hodge structure on the lattice, with exact CM-field coordinates."""

    lattice: Lattice
    mu: tuple[CMElement, ...]

    def __post_init__(self) -> None:
        mu = tuple(self.mu)
        if len(mu) != self.lattice.rank:
            raise CMError("need one coordinate per basis vector")
        field = mu[0].field
        if any(m.field != field for m in mu):
            raise CMError("coordinates must share one field")
        object.__setattr__(self, "mu", mu)
        g = self.lattice.gram
        n = self.lattice.rank
        iso = field.zero()
        for i in range(n):
            for j in range(n):
                if g[i][j]:
                    iso = iso + mu[i] * mu[j] * g[i][j]
        if iso != field.zero():
            raise CMError("period is not isotropic")
        if not _totally_nonneg(self._pairing(), strict=True):
            raise CMError("(sigma.sigmabar) is not totally positive")
        rows = [m.coords for m in mu]
        if rank(rows) != n:
            raise CMError("period is not general: a proper primitive "
                          "sublattice contains it")
        if self.sigma1() == field.zero():
            raise CMError("(gamma_1.sigma) vanishes; permute the basis first")

    @property
    def field(self) -> CMField:
        return self.mu[0].field

    def _pairing(self) -> CMElement:
        g = self.lattice.gram
        n = self.lattice.rank
        out = self.field.zero()
        for i in range(n):
            for j in range(n):
                if g[i][j]:
                    out = out + self.mu[i] * self.mu[j].conjugate() * g[i][j]
        return out

    def sigma1(self) -> CMElement:
        g = self.lattice.gram
        out = self.field.zero()
        for i in range(self.lattice.rank):
            if g[0][i]:
                out = out + self.mu[i] * g[0][i]
        return out

    def normalized(self) -> "PeriodVector":
        """Rescale so that (gamma_1.sigma) = 1."""
        s = self.sigma1()
        return PeriodVector(self.lattice, tuple(m / s for m in self.mu))


def pairing_sigma_sigmabar(pv: PeriodVector) -> CMElement:
    """Exact (sigma.sigmabar); raises unless it is totally positive."""
    out = pv._pairing()
    if not _totally_nonneg(out, strict=True):
        raise CMError("(sigma.sigmabar) is not totally positive")
    return out


def solve_lambda(pv: PeriodVector, phi: EmbeddingMatrix):
    """Coefficients (lambda, lambda', nu) with phi(sigma) = lambda sigma +
    lambda' sigmabar + nu e, or None when phi admits no such expression.

    phi must map into lattice + Z e with e the final basis vector.
    """
    n = pv.lattice.rank
    if phi.target.rank != n + 1 or phi.source.rank != n:
        raise CMError("embedding must map rank n into rank n+1")
    mu = pv.mu
    mub = [m.conjugate() for m in mu]
    field = pv.field
    cols = phi.columns
    cvals = []
    for j in range(n):
        acc = field.zero()
        for i in range(n):
            if cols[i][j]:
                acc = acc + mu[i] * cols[i][j]
        cvals.append(acc)
    pair = None
    for i in range(n):
        for j in range(i + 1, n):
            if mu[i] * mub[j] - mu[j] * mub[i] != field.zero():
                pair = (i, j)
                break
        if pair:
            break
    if pair is None:
        raise CMError("all coordinate minors vanish; period is degenerate")
    i, j = pair
    det = mu[i] * mub[j] - mu[j] * mub[i]
    lam = (cvals[i] * mub[j] - cvals[j] * mub[i]) / det
    lam_p = (mu[i] * cvals[j] - mu[j] * cvals[i]) / det
    for k in range(n):
        if cvals[k] != lam * mu[k] + lam_p * mub[k]:
            return None
    nu = field.zero()
    for i in range(n):
        if cols[i][n]:
            nu = nu + mu[i] * cols[i][n]
    return lam, lam_p, nu


def _norm_equation_value(lam, lam_p, nu, d, ssb) -> CMElement:
    return (lam * lam.conjugate() + lam_p * lam_p.conjugate()
            + nu * nu.conjugate() * (lam.field.rational(d) / ssb))


def verify_norm_equation(lam: CMElement, lam_p: CMElement, nu: CMElement,
                         d: int, ssb: CMElement) -> bool:
    """Exact check of |lambda|^2 + |lambda'|^2 + |nu|^2 d / (sigma.sigmabar) = 1."""
    if not _totally_nonneg(ssb, strict=True):
        raise CMError("(sigma.sigmabar) must be totally positive")
    return _norm_equation_value(lam, lam_p, nu, d, ssb) == lam.field.one()


@dataclass(frozen=True)
class PeriodEmbedding:
    embedding: EmbeddingMatrix
    lam: CMElement
    lam_prime: CMElement
    nu: CMElement


def enumerate_period_embeddings(pv: PeriodVector, d: int,
                                overlattice_index: int = 1) -> list[PeriodEmbedding]:
    """Complete list of isometric embeddings of the period lattice into
    itself plus Z(d) that map sigma into the span of sigma, sigmabar and e.

    At rank 2 that span condition holds for every embedding: a valid period
    has det(mu, mubar) != 0, so (mu, mubar) is a K-basis of K^2 and any
    integral phi has phi(sigma) = lambda sigma + lambda' sigmabar + nu e with
    lambda and lambda' unique.  As sigma.sigma = 0, isometry then forces
    |lambda|^2 + |lambda'|^2 + |nu|^2 d / (sigma.sigmabar) = k^2 for the
    overlattice index k.  So the list is the lattice embedding search, with
    lambda, lambda' and nu read off by solve_lambda; both facts are
    re-checked exactly, and a failure raises CMError.  With
    overlattice_index = k > 1 the returned matrices represent k * phi for
    embeddings phi into an index-k overlattice, so their source carries the
    form scaled by k^2.
    """
    d, nn = arith.integers((d, overlattice_index), CMError)
    if d <= 0:
        raise CMError("d must be positive")
    if nn < 1:
        raise CMError("overlattice index must be positive")
    t = pv.lattice
    if t.rank != 2:
        raise CMError("only rank-2 period lattices are supported")
    target = t.direct_sum(Lattice([[d]]))
    source = t if nn == 1 else t.twist(nn * nn)
    ssb = pv._pairing()
    goal = pv.field.rational(nn * nn)
    out: list[PeriodEmbedding] = []
    for emb in embeddings(source, target):
        solved = solve_lambda(pv, emb)
        if solved is None or _norm_equation_value(*solved, d, ssb) != goal:
            raise CMError("embedding breaks the rank-2 period identity")
        out.append(PeriodEmbedding(emb, *solved))
    out.sort(key=lambda pe: pe.embedding.columns)
    return out
