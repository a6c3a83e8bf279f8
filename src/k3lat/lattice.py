"""Exact arithmetic on integral lattices presented by Gram matrices.

Everything here works over Z, or over Q internally, with no floating point,
so results are exact for arbitrarily large entries.  Lattices are immutable
values and all operations are pure functions.  A lattice computes its
elimination, its Smith invariants, the constants of the short-vector
descent, its split Q + (k) with Q of rank 2 (if it has one), the primes and
each p-adic symbol that the genus module computes at most once, and keeps
them on the object by arith.cached, which takes no lock; a memo write
stores the one value the Gram matrix determines, so concurrent use stays
safe.  Lattice(...) checks each Gram matrix where it enters; the lattices
built from checked ones (sums, twists, complements, blocks) use
Lattice._of.  orthogonal_complement keeps its refusals and delegates to
_complement, which only callers that have proven those refusals take:
enumeration.orbit_invariant and enumeration._splits.
Lattice is an arith.Record, an immutable value equal and hashed by its Gram
matrix; this module, on the path of every CLI call with linalg and arith,
imports neither dataclasses nor fractions.
"""

from __future__ import annotations

import math
from operator import mul

from . import arith, linalg
from .arith import DomainError, Record, cached, integers
from .linalg import Vector


class LatticeError(DomainError):
    """A precondition on a lattice or vector was violated."""


def _integers(xs) -> Vector:
    """The entries of xs as ints; a non-integer raises LatticeError."""
    return integers(xs, LatticeError)


class Lattice(Record):
    """Free Z-module of finite rank with pairing (v.w) = v^T gram w; an
    immutable value, equal and hashed by its Gram matrix.  The memo _block
    holds (Q, k) when the lattice is Q + (k) with Q of rank 2, else None."""

    gram: tuple[tuple[int, ...], ...]

    def __init__(self, gram) -> None:
        try:
            gram = tuple(map(_integers, gram))
        except TypeError:
            raise LatticeError("Gram matrix must be a sequence of rows") from None
        n = len(gram)
        if n == 0:
            raise LatticeError("rank must be at least 1")
        if any(len(row) != n for row in gram):
            raise LatticeError("Gram matrix must be square")
        if tuple(zip(*gram)) != gram:
            raise LatticeError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram)

    @classmethod
    def _of(cls, rows) -> "Lattice":
        lat = object.__new__(cls)
        object.__setattr__(lat, "gram", tuple(map(tuple, rows)))
        return lat

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
        return sum(x * sum(map(mul, row, w)) for x, row in zip(v, self.gram) if x)

    def norm(self, v) -> int:
        """Square (v.v) of a vector."""
        v = self.check_vector(v)
        return self._inner(v, v)

    @cached
    def _elimination(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Pivot minors and scaled rows of linalg.ldl of the Gram matrix,
        computed at most once per lattice."""
        minors, rows = linalg.ldl(self.gram)
        return tuple(minors), tuple(map(tuple, rows))

    def determinant(self) -> int:
        """The last pivot minor: the pivot order and the pair folds of the
        elimination are unimodular congruences, so they keep the determinant."""
        return self._elimination[0][-1]

    def signature(self) -> tuple[int, int]:
        """Counts of positive and negative eigenvalues: the signs of the
        LDL^T pivots, read from consecutive pivot minors (Sylvester's law of
        inertia)."""
        minors = self._elimination[0]
        if 0 in minors:
            raise LatticeError("degenerate Gram matrix")
        pos = sum(a * b > 0 for a, b in zip(minors, minors[1:]))
        return pos, self.rank - pos

    def _positive(self, strict: bool) -> bool:
        """Positive definite, or semidefinite unless strict: no LDL^T pivot is
        negative, nor 0 if strict.  Minors past the rank are 0 and leave a
        vanishing block, so a degenerate form is no error here."""
        minors = self._elimination[0]
        signs = [a * b for a, b in zip(minors, minors[1:])]
        return all(x > 0 for x in signs) if strict else all(x >= 0 for x in signs)

    def is_positive_definite(self) -> bool:
        return self.signature() == (self.rank, 0)

    @cached
    def _smith(self) -> tuple[int, ...]:
        """linalg.smith_invariants of the Gram matrix, computed at most once
        per lattice."""
        return tuple(linalg.smith_invariants(self.gram))

    @cached
    def _descent(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...],
                                tuple[int, ...], int] | None:
        """Constants of enumeration._lattice_points, computed at most once
        per lattice: the pivot minors P_k, the scaled rows, the multipliers
        M / (P_k P_{k+1}) and M = lcm(P_k P_{k+1}); None if the lattice is
        not positive definite, so that every descent in it is refused.  A
        degenerate Gram matrix raises LatticeError, as signature() does,
        and stores nothing."""
        if not self.is_positive_definite():
            return None
        minors, rows = self._elimination
        weights = [p * q for p, q in zip(minors, minors[1:])]
        scale = math.lcm(*weights)
        return minors, rows, tuple(scale // w for w in weights), scale

    @cached
    def _block(self) -> tuple["Lattice", int] | None:
        """(Q, k) if the lattice is Q + (k) with Q of rank 2, else None,
        split at most once per lattice."""
        g = self.gram
        if self.rank != 3 or g[0][2] or g[1][2]:
            return None
        return Lattice._of((g[0][:2], g[1][:2])), g[2][2]

    @cached
    def _genus_primes(self) -> tuple[int, ...]:
        """2 and the primes dividing the determinant, ascending: the primes
        genus.same_genus compares symbols at, for a nondegenerate lattice,
        factored at most once per lattice."""
        return tuple(sorted({2} | set(arith.factor(abs(self.determinant())))))

    @cached
    def _symbols(self) -> dict:
        """p-adic genus symbols by prime, as GenusBlock field tuples,
        filled by genus._symbol."""
        return {}

    def discriminant_group(self) -> tuple[int, ...]:
        """Invariant factors (> 1) of Z^n / gram.Z^n, in divisibility order.

        Their product equals |det|; an empty tuple means the lattice is
        unimodular.
        """
        factors = self._smith
        if len(factors) < self.rank:
            raise LatticeError("degenerate Gram matrix")
        return tuple(f for f in factors if f > 1)

    def direct_sum(self, other: "Lattice") -> "Lattice":
        if not isinstance(other, Lattice):
            raise LatticeError("direct summand must be a Lattice")
        n, m = self.rank, other.rank
        return Lattice._of([row + (0,) * m for row in self.gram]
                           + [(0,) * n + row for row in other.gram])

    def twist(self, a: int) -> "Lattice":
        """Same module with the form scaled by a; written L(a)."""
        (a,) = _integers((a,))
        if a == 0:
            raise LatticeError("twist by zero is degenerate")
        return Lattice._of([[a * x for x in row] for row in self.gram])

    def orthogonal_complement(self, v) -> tuple["Lattice", tuple[Vector, ...]]:
        """Saturated sublattice {x : (x.v) = 0} and its defining basis.

        The basis columns are primitive vectors of self: the HNF basis, in
        closed form at rank 3 (linalg.kernel_basis), so output is
        deterministic; the returned lattice carries the induced Gram matrix.
        """
        v = self.check_vector(v)
        if all(x == 0 for x in v):
            raise LatticeError("v must be nonzero")
        if self.rank == 1:
            raise LatticeError("complement in a rank-1 lattice is trivial")
        if self.determinant() == 0:
            raise LatticeError("degenerate Gram matrix")
        return self._complement(v)

    def _complement(self, v: Vector) -> tuple["Lattice", tuple[Vector, ...]]:
        """orthogonal_complement without checks, for a nonzero int vector
        of length rank >= 2 in a nondegenerate lattice, as its caller has
        proven.  Row i of the Gram matrix takes G b_i once, pairs it with
        b_i, b_(i+1), ... and copies the entries left of the diagonal from
        the rows above, as the matrix is symmetric."""
        g = self.gram
        basis = linalg.kernel_basis([sum(map(mul, row, v)) for row in g])
        rows: list[list[int]] = []
        for i, b in enumerate(basis):
            gb = [sum(map(mul, row, b)) for row in g]
            rows.append([r[i] for r in rows] + [sum(map(mul, gb, c)) for c in basis[i:]])
        return Lattice._of(rows), tuple(basis)


def _gram_json(lat: Lattice) -> list[list[int]]:
    return [list(row) for row in lat.gram]
