"""Finite enumeration: fixed-norm vectors, isometric embeddings, isometry search.

The short-vector kernel lists one norm's vectors: it descends the
fraction-free LDL^T elimination each Lattice holds, in integers alone (isqrt
and floor division), and solves the last coordinate by an exact square test,
so it is deterministic and never touches floating point or a Fraction: its
Gram matrices and norms are integers, and anything else is refused.
Naive box scans in the test suite are its oracle and the indefinite scan's.
Isometries between block ternaries Q + (-k) come from one walk over the
levels of the target (level_walk), and indefinite_isometry_search answers
any pair, completely if definite and by a bounded search if indefinite;
both match a split-off norm-k vector by the reduced class of its
complement (_split_matches).  A search hit is built unchecked, as the
search tested its Gram matrix; lifted, inverted and read-back matrices are
checked.
"""

from __future__ import annotations

import itertools
import math
from operator import mul

from .arith import DomainError, Record, integers
from .forms import BinaryForm, reduce_form
from .lattice import Lattice, Vector
from .linalg import inverse, smith_invariants


class EnumerationError(DomainError):
    """A precondition of an enumeration routine was violated."""


def _lattice_points(lat: Lattice, norm: int) -> list[Vector]:
    """Vectors x of a positive definite lattice with x^T gram x == norm,
    sorted, for an int norm.

    With the pivot minors P_k and scaled rows r_k of the lattice's LDL^T,
    x^T gram x = sum_k y_k^2 / (P_k P_{k+1}) where y_k = sum_j r_k[j] x_j =
    P_{k+1} x_k + c_k and c_k depends only on the later coordinates.  Scaled
    by M = lcm(P_k P_{k+1}), the norm and every term m_k y_k^2 are integers.
    The descent fixes x from the last coordinate to the first: isqrt bounds
    y_k and floor division turns that into an interval for x_k.  The first
    coordinate is solved by an exact square test instead of scanned, so
    only the shell is ever held in memory.  A negative norm gives [] before
    definiteness is checked.  The minors, rows, the m_k and M, and the
    definiteness check come from Lattice._descent, once per lattice; a
    lattice that is not positive definite is refused on every call.
    Callers: short_vectors_le and vectors_of_norm after their refusals, and
    level_walk, whose shell norms are non-negative ints.
    """
    if norm < 0:
        return []
    descent = lat._descent
    if descent is None:
        raise EnumerationError("lattice must be positive definite")
    minors, rows, ms, scale = descent
    n = lat.rank
    out: list[Vector] = []
    x = [0] * n

    def descend(i: int, remaining: int) -> None:
        row, q, m = rows[i], minors[i + 1], ms[i]
        c = sum(row[j] * x[j] for j in range(i + 1, n))
        if i == 0:
            s, r = divmod(remaining, m)
            t = math.isqrt(s)
            if r or t * t != s:
                return
            xs = {(y - c) // q for y in (t, -t) if (y - c) % q == 0}
        else:
            t = math.isqrt(remaining // m)
            xs = range(-((t + c) // q), (t - c) // q + 1)
        for xi in xs:
            x[i] = xi
            if i == 0:
                out.append(tuple(x))
            else:
                y = q * xi + c
                descend(i - 1, remaining - m * y * y)

    descend(n - 1, scale * norm)
    out.sort()
    return out


def short_vectors_le(gram, bound: int) -> list[Vector]:
    """All integer vectors x with x^T gram x <= bound, lexicographically sorted:
    the union of the shells of norm 0, 1, ..., bound.

    gram is an integer Gram matrix and bound an int; anything else is
    refused.  The zero vector is included.
    """
    (bound,) = integers((bound,), EnumerationError)
    lat = Lattice(gram)
    return sorted(v for n in range(bound + 1) for v in _lattice_points(lat, n))


def vectors_of_norm(lat: Lattice, n: int) -> list[Vector]:
    """Complete sorted list of v with (v.v) = n in a positive definite lattice."""
    (n,) = integers((n,), EnumerationError)
    if n < 0:
        raise EnumerationError("norm must be nonnegative")
    return _lattice_points(lat, n)


class EmbeddingMatrix(Record):
    """Integer matrix realizing an isometric embedding source -> target.

    columns[i] holds the target coordinates of the i-th source basis vector;
    EmbeddingMatrix(...) verifies Gram compatibility exactly, _of (for search
    hits, which the search has checked entry by entry) does not.
    """

    source: Lattice
    target: Lattice
    columns: tuple[Vector, ...]

    def __post_init__(self) -> None:
        cols = tuple(self.target.check_vector(c) for c in self.columns)
        if len(cols) != self.source.rank:
            raise EnumerationError("column count must equal source rank")
        for i in range(len(cols)):
            for j in range(i, len(cols)):
                if self.target._inner(cols[i], cols[j]) != self.source.gram[i][j]:
                    raise EnumerationError(
                        f"columns are not Gram compatible at ({i}, {j})")
        object.__setattr__(self, "columns", cols)

    @classmethod
    def _of(cls, source: Lattice, target: Lattice, columns) -> "EmbeddingMatrix":
        e = object.__new__(cls)
        object.__setattr__(e, "source", source)
        object.__setattr__(e, "target", target)
        object.__setattr__(e, "columns", columns)
        return e


def identity_embedding(lat: Lattice) -> EmbeddingMatrix:
    n = lat.rank
    cols = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    return EmbeddingMatrix._of(lat, lat, tuple(cols))


def _is_saturated(columns: tuple[Vector, ...]) -> bool:
    """Whether the column span is a primitive (saturated) sublattice."""
    return smith_invariants(columns) == [1] * len(columns)


def _gram_compatible(source: Lattice, target: Lattice, vectors, paired: bool = False):
    """Every tuple of target vectors with the source Gram matrix, in
    backtracking order: column i runs through vectors(source.gram[i][i]),
    forward-checked: once column i takes v, every later column's list keeps
    only the candidates w with (v.w) = source.gram[i][k], and the branch is
    cut if one comes out empty (Plesken-Souvignier).  Each candidate w is
    paired with G w once, so each test is a plain dot product.  The lists
    are sorted and filtering keeps sorted subsequences, so that order is
    lexicographic.  With paired, column 0 takes the upper half of its list
    only, the larger of each +-v: negation reverses a sorted list closed
    under it, and v != -v (norm > 0)."""
    g, h = source.gram, target.gram
    norms = dict.fromkeys(g[i][i] for i in range(len(g)))
    candidates = {nrm: [(v, tuple(sum(map(mul, row, v)) for row in h))
                        for v in vectors(nrm)] for nrm in norms}
    lists = [candidates[g[i][i]] for i in range(len(g))]
    if paired:
        lists[0] = lists[0][len(lists[0]) // 2:]

    def extend(chosen: tuple[Vector, ...], rest: list):
        if not rest:
            yield chosen
            return
        i = len(chosen)
        pending = list(zip(g[i][i + 1:], rest[1:]))  # (source.gram[i][k], list k), k > i
        for v, gv in rest[0]:
            later = [[c for c in cands if sum(map(mul, gv, c[0])) == gik]
                     for gik, cands in pending]
            if all(later):
                yield from extend(chosen + (v,), later)

    return extend((), lists)


def embeddings(source: Lattice, target: Lattice,
               primitive_only: bool = False) -> list[EmbeddingMatrix]:
    """All isometric embeddings of one positive definite lattice into another,
    sorted by columns: the backtracking order.

    Backtracks over the fixed-norm vector lists column by column, each choice
    filtering the later lists by its inner products, once per pair +-phi
    (_gram_compatible, paired); negation reverses the order, so the negated
    hits, reversed, sort below the hits.  With primitive_only the image is
    additionally required to be a saturated sublattice, tested once per pair
    (-M has the Smith form of M).
    """
    if not source.is_positive_definite() or not target.is_positive_definite():
        raise EnumerationError("both lattices must be positive definite")
    if source.rank > target.rank:
        return []
    hits = [cols for cols in _gram_compatible(
                source, target, lambda nrm: vectors_of_norm(target, nrm), paired=True)
            if not primitive_only or _is_saturated(cols)]
    negated = [tuple(tuple(-x for x in c) for c in cols) for cols in reversed(hits)]
    return [EmbeddingMatrix._of(source, target, cols) for cols in negated + hits]


def is_isometric_definite(l1: Lattice, l2: Lattice):
    """An isometry between definite lattices of equal rank, or None.

    The embedding search is complete, so None certifies non-isometry.
    """
    if l1.rank != l2.rank:
        raise EnumerationError("lattices must have equal rank")
    s1, s2 = l1.signature(), l2.signature()
    if s1 != s2 or 0 not in s1:
        raise EnumerationError("lattices must be definite of the same sign")
    if l1.determinant() != l2.determinant():
        return None
    if l1 == l2:
        return identity_embedding(l1)
    a, b = (l1, l2) if s1[1] == 0 else (l1.twist(-1), l2.twist(-1))
    # a full-rank Gram-compatible map between equal-determinant lattices is
    # automatically unimodular, hence an isometry (of l1, l2 too, if twisted)
    cols = next(_gram_compatible(a, b, lambda nrm: vectors_of_norm(b, nrm)), None)
    return None if cols is None else EmbeddingMatrix._of(l1, l2, cols)


class IsometrySearchResult(Record):
    """Outcome of a bounded indefinite isometry search.

    conclusive is True when either a witness was found or the invariants
    already rule an isometry out; a bound-limited miss is inconclusive.
    """

    witness: EmbeddingMatrix | None
    conclusive: bool

    @property
    def found(self) -> bool:
        return self.witness is not None


def _bounded_norm_vectors(lat: Lattice, norm: int, bound: int) -> list[Vector]:
    """Vectors v with (v.v) = norm and |v_i| <= bound, in lexicographic order:
    the scan runs over all but the last coordinate in that order and solves
    the remaining quadratic exactly, roots ascending, for any signature."""
    g = lat.gram
    a = g[-1][-1]
    box = range(-bound, bound + 1)
    out = []
    for prefix in itertools.product(box, repeat=lat.rank - 1):
        # (w, s) = gram (prefix, 0), and a t^2 + 2 s t + c = 0 over the integers
        *w, s = [sum(map(mul, row, prefix)) for row in g]
        c = sum(map(mul, prefix, w)) - norm
        if a:
            disc = s * s - a * c
            r = math.isqrt(max(disc, 0))
            if r * r != disc:
                continue
            ts = sorted({num // a for num in (-s + r, -s - r) if num % a == 0})
        elif s:
            ts = [-c // (2 * s)] if c % (2 * s) == 0 else []
        else:
            ts = box if c == 0 else []
        out.extend(prefix + (t,) for t in ts if abs(t) <= bound)
    return out


def _box_witness(l1: Lattice, l2: Lattice, height_bound: int):
    """First matrix with entries in the box conjugating l2's Gram to l1's.
    Equal determinants make it unimodular, so it is already an isometry."""
    hits = _gram_compatible(
        l1, l2, lambda nrm: _bounded_norm_vectors(l2, nrm, height_bound))
    cols = next(hits, None)
    return None if cols is None else EmbeddingMatrix(l1, l2, cols)


def _block(lat: Lattice):
    """(Q, k) if lat = Q + (k) with Q of rank 2, else None."""
    g = lat.gram
    if lat.rank != 3 or g[0][2] or g[1][2]:
        return None
    return Lattice._of((g[0][:2], g[1][:2])), g[2][2]


def _splits(lat: Lattice, us, k: int):
    """(u, u^perp, basis of u^perp in lat) for each u in us, all of norm k,
    with u^perp + Zu all of lat.  That sum has determinant det(u^perp) k =
    det(lat) i^2 for its index i in lat, so it is lat exactly when
    det(u^perp) k = det lat; a u that is not primitive has i > 1.  Both
    callers pass nonzero int vectors of length 3 in a nondegenerate lattice
    (level_walk: z >= 1; _split_witness: norm k != 0), so the complements
    are taken unchecked (Lattice._complement)."""
    det = lat.determinant()
    for u in us:
        # u is a nonzero int 3-vector and det != 0: the refusals of
        # orthogonal_complement cannot fire (docstring)
        comp, basis = lat._complement(u)
        if comp.determinant() * k == det:
            yield u, comp, basis


def _lift_split(l1: Lattice, l2: Lattice, basis, w: EmbeddingMatrix,
                u: Vector) -> EmbeddingMatrix:
    """The isometry l1 -> l2 of a block source (definite rank 2) + (k) that
    maps the block by w onto u^perp, given by its basis in l2, and the last
    basis vector to u."""
    cols = tuple(tuple(sum(basis[r][t] * w.columns[i][r] for r in range(2))
                       for t in range(3)) for i in range(2))
    return EmbeddingMatrix(l1, l2, cols + (u,))


def _reduced_class(q: Lattice) -> tuple[int, int, int]:
    """Reduced form (doubled convention) of a definite rank-2 lattice, of
    its twist by -1 if negative definite (a negative first entry)."""
    (a, b), (_, c) = q.gram
    if a < 0:
        a, b, c = -a, -b, -c
    return reduce_form(BinaryForm._of(a, 2 * b, c))[0].as_tuple()


def _split_matches(sources, target: Lattice, us, k: int):
    """Isometries sources[j] -> target of blocks Q_j + (k), Q_j definite of
    rank 2, sending the last basis vector to the first u in us (all of norm
    k) that splits off (_splits) with u^perp isometric to Q_j; else None.
    Definite binary lattices are isometric exactly when their reduced forms
    agree up to the sign of b, so the unoriented class of u^perp names the
    sources u reaches, and is_isometric_definite runs only on a hit.  A
    mirror pair shares its hits, since is_isometric_definite also returns
    improper isometries.  The match stops once every source has a witness.
    """
    blocks = [_block(lat)[0] for lat in sources]
    open_by_class: dict[tuple[int, int, int], list[int]] = {}
    for j, q in enumerate(blocks):
        a, b, c = _reduced_class(q)
        open_by_class.setdefault((a, abs(b), c), []).append(j)
    witnesses: list[EmbeddingMatrix | None] = [None] * len(blocks)
    for u, comp, basis in _splits(target, us, k):
        a, b, c = _reduced_class(comp)
        for j in open_by_class.pop((a, abs(b), c), ()):
            w = is_isometric_definite(blocks[j], comp)
            witnesses[j] = _lift_split(sources[j], target, basis, w, u)
        if not open_by_class:
            break
    return tuple(witnesses)


def _split_witness(l1: Lattice, l2: Lattice, height_bound: int):
    """Witness for a block source l1 = Q + (k), Q definite of rank 2: the
    level walk's matcher run on the norm-k vectors of l2 in the box.
    indefinite_isometry_search has read det(l2) = det(l1) = det(Q) k != 0,
    so k != 0 and every u of norm k is nonzero."""
    block = _block(l1)
    if block is None or 0 not in block[0].signature():
        return None
    k = block[1]
    return _split_matches([l1], l2, _bounded_norm_vectors(l2, k, height_bound), k)[0]


def _invert_witness(w: EmbeddingMatrix) -> EmbeddingMatrix:
    # rows of the inverse transpose are the columns of the inverse
    cols = tuple(tuple(int(x) for x in row) for row in inverse(w.columns))
    return EmbeddingMatrix(w.target, w.source, cols)


def _height_bound(height_bound) -> int:
    """height_bound if it is an int of at least 1, else EnumerationError."""
    (height_bound,) = integers((height_bound,), EnumerationError)
    if height_bound < 1:
        raise EnumerationError("height bound must be positive")
    return height_bound


def indefinite_isometry_search(l1: Lattice, l2: Lattice,
                               height_bound: int) -> IsometrySearchResult:
    """Isometry l1 -> l2, proven or bounded by height_bound.

    height_bound must be an int of at least 1, and both Gram matrices
    nondegenerate, for every pair.  Invariant mismatches (rank, signature,
    determinant) are conclusive non-isometry, and equal lattices get the
    identity.  A definite pair is decided completely by
    is_isometric_definite, so its answer is conclusive either way.  An
    indefinite pair tries, in order: matrices with entries in the box, the
    split strategy for block sources, and both again with the roles of l1
    and l2 swapped (inverting any witness found); a fruitless bounded search
    is not conclusive, and is reported as such.
    """
    height_bound = _height_bound(height_bound)
    sig = l1.signature()
    if (l1.rank, sig, l1.determinant()) != (l2.rank, l2.signature(), l2.determinant()):
        return IsometrySearchResult(None, True)
    if l1 == l2:
        return IsometrySearchResult(identity_embedding(l1), True)
    if 0 in sig:
        return IsometrySearchResult(is_isometric_definite(l1, l2), True)
    for a, b in ((l1, l2), (l2, l1)):
        witness = _box_witness(a, b, height_bound) or _split_witness(a, b, height_bound)
        if witness is not None:
            return IsometrySearchResult(
                witness if a is l1 else _invert_witness(witness), True)
    return IsometrySearchResult(None, False)


def level_walk(sources, target: Lattice,
               height_bound: int) -> tuple[EmbeddingMatrix | None, ...]:
    """Isometries sources[j] -> target, all of the form Q_j + (-k), found by
    one walk over the levels of target; None where no level reached one.

    An isometry onto target = Q_0 + (-k) sends the last basis vector to a
    primitive u = (v, z) with u.u = -k.  As -u has the same complement and
    z = 0 would need v.v = -k < 0, the walk takes z = 1, ..., height_bound,
    lets v run over the vectors of Q_0-norm k(z^2 - 1) and matches each u
    (_split_matches).  It takes every u with |z| up to the bound, so it
    reaches whatever the forward box search of indefinite_isometry_search
    reaches at the same bound.  height_bound must be an int of at least 1.
    The shells are taken by _lattice_points directly: Q_0 has passed the
    definiteness test below, and k(z^2 - 1) is a non-negative int, so the
    refusals of vectors_of_norm cannot fire; Q_0 keeps its descent constants
    (Lattice._descent) across the levels.
    """
    height_bound = _height_bound(height_bound)
    k = -target.gram[-1][-1]
    blocks = [_block(lat) for lat in (target, *sources)]
    if k <= 0 or any(b is None or b[1] != -k or not b[0].is_positive_definite()
                     for b in blocks):
        raise EnumerationError(
            "lattices must be Q + (-k), Q positive definite of rank 2, one k > 0")
    # Q_0 is positive definite and k(z^2 - 1) >= 0 is an int (docstring)
    us = (v + (z,) for z in range(1, height_bound + 1)
          for v in _lattice_points(blocks[0][0], k * (z * z - 1)))
    return _split_matches(sources, target, us, -k)


class OrbitInvariant(Record):
    """Orbit record of a positive-norm primitive vector: its square, the
    ambient discriminant group, and the discriminant group and reduced form
    class of the definite complement (a single entry when rank 1).

    The unoriented record (middle coefficient up to sign) is constant on full
    orthogonal-group orbits, so differing unoriented records certify distinct
    orbits.  The signed class refines this: it also separates a mirror pair
    of complement classes, but an orientation-reversing ambient isometry can
    exchange exactly that pair.
    """

    norm: int
    ambient_disc: tuple[int, ...]
    complement_disc: tuple[int, ...]
    complement_class: tuple[int, ...]

    def unoriented(self) -> "OrbitInvariant":
        cls = self.complement_class
        if len(cls) == 3:
            cls = (cls[0], abs(cls[1]), cls[2])
        return OrbitInvariant(self.norm, self.ambient_disc,
                              self.complement_disc, cls)

    def mirrored(self) -> "OrbitInvariant":
        """The record with the orientation of the complement reversed, as
        for the image of v under an isometry that reverses it (census:
        F = diag(1, -1, 1) fixes e_3 and maps T(-4) onto its mirror): the
        same norm and discriminant groups, and the class (A, -B, C) reduced
        again, which is (A, B, C) itself when B = 0, |B| = A or A = C.  A
        rank-1 complement has no orientation and is kept."""
        cls = self.complement_class
        if len(cls) == 3:
            a, b, c = cls
            cls = reduce_form(BinaryForm._of(a, -b, c))[0].as_tuple()
        return OrbitInvariant(self.norm, self.ambient_disc,
                              self.complement_disc, cls)


def orbit_invariant(lat: Lattice, v) -> OrbitInvariant:
    """Invariant record for the orbit of a primitive positive-norm v in a
    signature (1, m) lattice, m <= 2 (v^perp is then negative definite).

    Its refusals imply those of Lattice.orthogonal_complement (v nonzero,
    rank at least 2, nondegenerate), so _orbit_record takes the complement
    unchecked; census._family, which has proven them all, calls
    _orbit_record itself."""
    sig = lat.signature()
    if lat.rank < 2 or lat.rank > 3 or sig != (1, lat.rank - 1):
        raise EnumerationError("lattice must have signature (1, m) with 1 <= m <= 2")
    v = lat.check_vector(v)
    if lat._inner(v, v) <= 0:
        raise EnumerationError("vector must have positive norm")
    if math.gcd(*v) != 1:
        raise EnumerationError("vector must be primitive")
    return _orbit_record(lat, v)


def _orbit_record(lat: Lattice, v: Vector) -> OrbitInvariant:
    """orbit_invariant without its refusals, for an int vector v that the
    caller has proven primitive of positive norm in a lattice of signature
    (1, m), 1 <= m <= 2."""
    # signature (1, m) and v.v > 0 leave v^perp of signature (0, m)
    comp, _ = lat._complement(v)
    if comp.rank == 1:
        cls: tuple[int, ...] = (-comp.gram[0][0],)
    else:
        cls = _reduced_class(comp)
    return OrbitInvariant(lat._inner(v, v), lat.discriminant_group(),
                          comp.discriminant_group(), cls)
