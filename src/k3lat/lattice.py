"""Exact arithmetic on integral lattices presented by Gram matrices.

Everything here works over Z, or over Q internally, with no floating point,
so results are exact for arbitrarily large entries.  Lattices are immutable
values and all operations are pure functions, safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linalg
from .arith import DomainError, integers
from .linalg import Vector


class LatticeError(DomainError):
    """A precondition on a lattice or vector was violated."""


def _integers(xs) -> Vector:
    """The entries of xs as ints; a non-integer raises LatticeError."""
    return integers(xs, LatticeError)


@dataclass(frozen=True)
class Lattice:
    """Free Z-module of finite rank with pairing (v.w) = v^T gram w."""

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        try:
            gram = tuple(map(_integers, self.gram))
        except TypeError:
            raise LatticeError("Gram matrix must be a sequence of rows") from None
        n = len(gram)
        if n == 0:
            raise LatticeError("rank must be at least 1")
        if any(len(row) != n for row in gram):
            raise LatticeError("Gram matrix must be square")
        if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
            raise LatticeError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def __repr__(self) -> str:
        rows = ";".join(",".join(str(x) for x in row) for row in self.gram)
        return f"Lattice({rows})"

    def check_vector(self, v) -> Vector:
        v = _integers(v)
        if len(v) != self.rank:
            raise LatticeError(f"vector length {len(v)} does not match rank {self.rank}")
        return v

    def inner(self, v, w) -> int:
        """Bilinear pairing (v.w)."""
        return self._inner(self.check_vector(v), self.check_vector(w))

    def _inner(self, v: Vector, w: Vector) -> int:
        """(v.w) without checks, for int vectors of length rank that the
        library built or checked itself."""
        return sum(x * sum(g * y for g, y in zip(row, w))
                   for x, row in zip(v, self.gram))

    def norm(self, v) -> int:
        """Square (v.v) of a vector."""
        v = self.check_vector(v)
        return self._inner(v, v)

    def determinant(self) -> int:
        return linalg.determinant(self.gram)

    def signature(self) -> tuple[int, int]:
        """Counts of positive and negative eigenvalues: the signs of the
        LDL^T pivots, read from consecutive pivot minors (Sylvester's law of
        inertia)."""
        minors, _ = linalg.ldl(self.gram)
        if 0 in minors:
            raise LatticeError("degenerate Gram matrix")
        pos = sum(a * b > 0 for a, b in zip(minors, minors[1:]))
        return pos, self.rank - pos

    def is_positive_definite(self) -> bool:
        return self.signature() == (self.rank, 0)

    def is_negative_definite(self) -> bool:
        return self.signature() == (0, self.rank)

    def discriminant_group(self) -> tuple[int, ...]:
        """Invariant factors (> 1) of Z^n / gram.Z^n, in divisibility order.

        Their product equals |det|; an empty tuple means the lattice is
        unimodular.
        """
        factors = linalg.smith_invariants(self.gram)
        if len(factors) < self.rank:
            raise LatticeError("degenerate Gram matrix")
        return tuple(f for f in factors if f > 1)

    def direct_sum(self, other: "Lattice") -> "Lattice":
        n, m = self.rank, other.rank
        gram = [[0] * (n + m) for _ in range(n + m)]
        for i in range(n):
            for j in range(n):
                gram[i][j] = self.gram[i][j]
        for i in range(m):
            for j in range(m):
                gram[n + i][n + j] = other.gram[i][j]
        return Lattice(gram)

    def twist(self, a: int) -> "Lattice":
        """Same module with the form scaled by a; written L(a)."""
        (a,) = _integers((a,))
        if a == 0:
            raise LatticeError("twist by zero is degenerate")
        return Lattice([[a * x for x in row] for row in self.gram])

    def is_primitive(self, v) -> bool:
        """True iff v generates a saturated rank-1 sublattice (gcd of coords 1)."""
        v = self.check_vector(v)
        if all(x == 0 for x in v):
            raise LatticeError("zero vector has no primitivity")
        return math.gcd(*v) == 1

    def orthogonal_complement(self, v) -> tuple["Lattice", tuple[Vector, ...]]:
        """Saturated sublattice {x : (x.v) = 0} and its defining basis.

        The basis columns are primitive vectors of self, normalized via the
        Hermite normal form so output is deterministic; the returned lattice
        carries the induced Gram matrix.
        """
        v = self.check_vector(v)
        if all(x == 0 for x in v):
            raise LatticeError("v must be nonzero")
        if self.rank == 1:
            raise LatticeError("complement in a rank-1 lattice is trivial")
        if self.determinant() == 0:
            raise LatticeError("degenerate Gram matrix")
        n = self.rank
        w = [sum(self.gram[i][j] * v[j] for j in range(n)) for i in range(n)]
        # on the columns (w_j, e_j) the sweep of the first row leaves the
        # canonical basis of the kernel of w in the other columns
        hnf = linalg.hnf_columns([(w[j],) + tuple(int(i == j) for i in range(n))
                                  for j in range(n)])
        basis = [c[1:] for c in hnf[1:]]
        gram = [[self._inner(b1, b2) for b2 in basis] for b1 in basis]
        return Lattice(gram), tuple(basis)


def _gram_json(lat: Lattice) -> list[list[int]]:
    return [list(row) for row in lat.gram]
