import itertools
import math
import random
from fractions import Fraction

import pytest

from k3lat.arith import DomainError
from k3lat.enumeration import (EmbeddingMatrix, EnumerationError, OrbitInvariant,
                               _bounded_norm_vectors,
                               _box_witness, _gram_compatible, _lattice_points,
                               _split_witness, _splits,
                               embeddings,
                               indefinite_isometry_search,
                               is_isometric_definite, level_walk,
                               orbit_invariant, short_vectors_le,
                               vectors_of_norm, _orbit_record)
from k3lat.forms import BinaryForm, class_group, form_to_lattice, reduce_form
from k3lat.lattice import Lattice, LatticeError
from util import (box_embeddings, box_vectors_of_norm, change_basis,
                  lazy_gram_compatible, random_nondegenerate, random_positive_definite,
                  random_symmetric, random_unimodular)

A2 = Lattice([[2, 1], [1, 2]])


class TestVectorsOfNorm:
    def test_examples(self):
        assert len(vectors_of_norm(A2, 2)) == 6
        assert vectors_of_norm(Lattice([[1, 0], [0, 1]]), 1) == [
            (-1, 0), (0, -1), (0, 1), (1, 0)]
        assert vectors_of_norm(A2, 1) == []
        assert vectors_of_norm(A2, 0) == [(0, 0)]

    def test_rejects_indefinite(self):
        with pytest.raises(EnumerationError):
            vectors_of_norm(Lattice([[0, 1], [1, 0]]), 2)
        with pytest.raises(EnumerationError):
            vectors_of_norm(A2, -3)

    def test_rejects_a_norm_that_is_not_an_integer(self):
        with pytest.raises(EnumerationError, match="integers"):
            vectors_of_norm(A2, 2.5)

    def test_even_count_and_negation_closure(self):
        for n in range(1, 12):
            vecs = vectors_of_norm(A2, n)
            assert len(vecs) % 2 == 0
            assert all(tuple(-x for x in v) in set(vecs) for v in vecs)

    def test_sorted_deterministic(self):
        vecs = vectors_of_norm(A2, 6)
        assert vecs == sorted(vecs)

    def test_against_box_oracle(self, rng):
        for _ in range(40):
            lat = random_positive_definite(rng.choice([1, 2, 3]), rng)
            n = rng.randint(0, 30)
            assert vectors_of_norm(lat, n) == box_vectors_of_norm(lat, n)

    def test_shells_asked_in_any_order_of_one_lattice_match_the_box(self, rng):
        # the descent constants are kept on the lattice after the first
        # shell; later shells, larger or smaller, must not depend on it
        for _ in range(12):
            lat = random_positive_definite(rng.choice([1, 2, 3]), rng)
            norms = list(range(0, 25))
            rng.shuffle(norms)
            for n in norms:
                assert vectors_of_norm(lat, n) == box_vectors_of_norm(lat, n), (lat, n)

    @pytest.mark.parametrize("gram,error,match", [
        ([[0, 1], [1, 0]], EnumerationError, "positive definite"),
        ([[2, 1], [1, -3]], EnumerationError, "positive definite"),
        ([[-2]], EnumerationError, "positive definite"),
        ([[1, 1], [1, 1]], LatticeError, "degenerate"),
        ([[2, 0, 0], [0, 0, 0], [0, 0, 1]], LatticeError, "degenerate")],
        ids=["hyperbolic", "indefinite", "negative", "degenerate", "degenerate-rank3"])
    def test_a_refused_lattice_is_refused_on_every_call(self, gram, error, match):
        # the definiteness answer is kept on the lattice, so the same object
        # must be refused again on every later call, checked or not (a
        # degenerate Gram matrix keeps the LatticeError of signature())
        lat = Lattice(gram)
        for n in (2, 2, 0, 5):
            with pytest.raises(error, match=match):
                vectors_of_norm(lat, n)
            with pytest.raises(error, match=match):
                _lattice_points(lat, n)

    def test_rank4_root_system_counts(self):
        z4 = Lattice([[1 if i == j else 0 for j in range(4)] for i in range(4)])
        assert len(vectors_of_norm(z4, 1)) == 8
        assert len(vectors_of_norm(z4, 2)) == 24
        assert vectors_of_norm(z4, 2) == box_vectors_of_norm(z4, 2)
        d4 = Lattice([[2, -1, 0, 0], [-1, 2, -1, -1],
                      [0, -1, 2, 0], [0, -1, 0, 2]])
        assert len(vectors_of_norm(d4, 2)) == 24
        assert vectors_of_norm(d4, 50) == box_vectors_of_norm(d4, 50)


class TestShortVectorsLe:
    def test_integer_gram_against_box_oracle(self, rng):
        for _ in range(30):
            lat = random_positive_definite(rng.choice([1, 2, 3]), rng)
            bound = rng.randint(0, 40)
            want = sorted(v for n in range(bound + 1)
                          for v in box_vectors_of_norm(lat, n))
            assert short_vectors_le(lat.gram, bound) == want, (lat, bound)

    def test_rejects_indefinite_and_negative_bound(self):
        assert short_vectors_le([[2]], -1) == []
        with pytest.raises(EnumerationError):
            short_vectors_le([[1, 2], [2, 1]], 3)

    @pytest.mark.parametrize("gram,bound", [
        ([[Fraction(1, 2)]], 3), ([[Fraction(2)]], 3), ([[2]], Fraction(3)),
        ([[2]], 2.5), ([[2]], True)],
        ids=["half-entry", "integral-fraction-entry", "fraction-bound",
             "float-bound", "bool-bound"])
    def test_takes_integers_only(self, gram, bound):
        with pytest.raises(DomainError, match="integers"):
            short_vectors_le(gram, bound)


def box_scan(gram, norm, bound):
    """Every v with |v_i| <= bound and v^T gram v = norm, by brute force."""
    n = len(gram)
    return [v for v in itertools.product(range(-bound, bound + 1), repeat=n)
            if sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n)) == norm]


class TestBoundedNormVectors:
    @pytest.mark.parametrize("gram,norm,bound", [
        ([[0, 0], [0, 0]], 0, 2), ([[1, 0], [0, 0]], 1, 2), ([[0]], 0, 3),
        ([[2, 1], [1, 0]], 4, 3), ([[1, 2, 0], [2, -3, 1], [0, 1, 0]], -3, 3),
        ([[2, 1, 3], [1, 2, 3], [3, 3, 6]], 2, 2), ([[0]], 5, 4), ([[-3]], -12, 2)],
        ids=["zero-every-t", "zero-last-column", "rank1-zero", "linear",
             "linear-rank3", "degenerate", "rank1-miss", "rank1-negative"])
    def test_degenerate_and_linear_cases(self, gram, norm, bound):
        assert _bounded_norm_vectors(Lattice(gram), norm, bound) == box_scan(gram, norm, bound)

    def test_against_brute_force(self, rng):
        for case in range(400):
            n = rng.randint(1, 4)
            gram = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            gram = [[gram[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            if case % 4 == 0:
                gram[-1][-1] = 0
            if case % 8 == 1 and n > 1:  # last row a copy of the first: degenerate
                gram = [row[:-1] + row[:1] for row in gram[:-1]]
                gram.append([row[-1] for row in gram])
                gram[-1].append(gram[0][0])
            norm = rng.randint(-12, 12)
            bound = rng.randint(0, 2 if n == 4 else 4)
            assert (_bounded_norm_vectors(Lattice(gram), norm, bound)
                    == box_scan(gram, norm, bound)), (gram, norm, bound)


class TestEmbeddings:
    def test_counts(self):
        assert len(embeddings(Lattice([[2]]), A2)) == 6
        assert len(embeddings(A2, A2)) == 12
        assert embeddings(Lattice([[2]]), Lattice([[4]])) == []

    def test_gram_compatibility_enforced(self):
        with pytest.raises(EnumerationError):
            EmbeddingMatrix(Lattice([[2]]), A2, ((1, 1),))
        for emb in embeddings(A2, A2.direct_sum(Lattice([[2]]))):
            cols = emb.columns
            tgt = emb.target
            for i in range(2):
                for j in range(2):
                    assert tgt.inner(cols[i], cols[j]) == A2.gram[i][j]

    @pytest.mark.parametrize("column", [(1.0, 0), (Fraction(1), 0), (True, 0)],
                             ids=["float", "Fraction", "bool"])
    def test_columns_that_are_not_integers_refused(self, column):
        with pytest.raises(LatticeError):
            EmbeddingMatrix(Lattice([[2]]), A2, (column,))

    def test_isometry_group_closure(self):
        autos = embeddings(A2, A2)
        mats = {e.columns for e in autos}
        # composing two isometries (as maps) lands back in the group
        import itertools
        for e1, e2 in itertools.islice(itertools.product(autos, autos), 40):
            comp = tuple(tuple(sum(col[r] * x for col, x in zip(e2.columns, c))
                               for r in range(A2.rank)) for c in e1.columns)
            assert comp in mats

    def test_primitive_filter(self):
        # index-2 image: the norm-8 vector 2*e1 in Z^2 spans a non-saturated
        # sublattice, excluded by the primitive filter
        z2 = Lattice([[1, 0], [0, 1]])
        all_embs = embeddings(Lattice([[8]]), z2)
        prim = embeddings(Lattice([[8]]), z2, primitive_only=True)
        assert {e.columns[0] for e in all_embs} == {
            (-2, -2), (-2, 2), (2, -2), (2, 2)}
        assert prim == []


def _saturated(columns):
    """Whether the columns span a saturated sublattice: the gcd of their
    maximal minors is 1 (one or two columns)."""
    if len(columns) == 1:
        return math.gcd(*columns[0]) == 1
    u, v = columns
    return math.gcd(*(u[a] * v[b] - u[b] * v[a]
                      for a, b in itertools.combinations(range(len(u)), 2))) == 1


def _random_sublattice(target, rank, rng):
    """The lattice spanned by rank random short vectors of target, so that
    the embedding search has hits; a degenerate draw is redrawn."""
    g = target.gram
    while True:
        cols = [[rng.randint(-2, 2) for _ in g] for _ in range(rank)]
        gram = [[sum(u[a] * g[a][b] * v[b] for a in range(len(g)) for b in range(len(g)))
                 for v in cols] for u in cols]
        source = Lattice(gram)
        if source.determinant() != 0:
            return source


class TestEmbeddingOrder:
    # the search pays once per pair +-phi; its list must still be the full
    # backtracking order, which over sorted candidate lists is sorted
    def test_random_pairs_match_the_sorted_box_oracle(self, rng):
        primitive_hits = 0
        for _ in range(60):
            target = random_positive_definite(rng.randint(2, 3), rng, entry_bound=6)
            source = _random_sublattice(target, rng.randint(1, 2), rng)
            want = sorted(box_embeddings(source, target))
            assert want and [e.columns for e in embeddings(source, target)] == want
            primitive = [cols for cols in want if _saturated(cols)]
            primitive_hits += len(primitive)
            assert [e.columns for e in embeddings(source, target, primitive_only=True)] \
                == primitive
        assert primitive_hits > 0

    def test_list_equals_the_unpaired_backtracking(self, rng):
        for _ in range(40):
            target = random_positive_definite(rng.randint(2, 4), rng)
            source = _random_sublattice(target, rng.randint(1, target.rank), rng)
            full = lazy_gram_compatible(source, target, lambda n: vectors_of_norm(target, n))
            assert [e.columns for e in embeddings(source, target)] == list(full)


def assert_streams_match_the_lazy_search(source, target, vectors):
    """Full and paired streams of _gram_compatible equal the lazy oracle's,
    and so do first hits taken by next() from fresh generators; returns the
    number of hits."""
    full = list(_gram_compatible(source, target, vectors))
    assert full == list(lazy_gram_compatible(source, target, vectors))
    assert (list(_gram_compatible(source, target, vectors, paired=True))
            == list(lazy_gram_compatible(source, target, vectors, paired=True)))
    first = next(_gram_compatible(source, target, vectors), None)
    assert first == next(lazy_gram_compatible(source, target, vectors), None)
    return len(full)


class TestForwardCheckedSearch:
    # forward checking filters the later candidate lists; the stream it
    # yields must be the lazy backtracking's, item for item
    def test_definite_pairs_up_to_rank_four(self):
        rng, hits, misses = random.Random(3301), 0, 0
        for case in range(80):
            target = random_positive_definite(rng.randint(1, 4), rng, entry_bound=6)
            rank = rng.randint(1, target.rank)
            if case % 3:
                source = _random_sublattice(target, rank, rng)
            else:
                source = random_positive_definite(rank, rng, entry_bound=6)
            found = assert_streams_match_the_lazy_search(
                source, target, lambda n: vectors_of_norm(target, n))
            hits, misses = hits + found, misses + (found == 0)
        assert hits > 500 and misses > 5

    def test_indefinite_pairs_on_bounded_norm_lists(self):
        rng, hits, misses = random.Random(3302), 0, 0
        for case in range(60):
            target = random_nondegenerate(rng.randint(2, 4), rng, scale=3)
            if 0 in target.signature():
                continue
            if case % 2:
                source = change_basis(target, random_unimodular(target.rank, rng, steps=3))
            else:
                source = random_nondegenerate(target.rank, rng, scale=3)
            bound = 2 if target.rank == 4 else 3
            found = assert_streams_match_the_lazy_search(
                source, target, lambda n: _bounded_norm_vectors(target, n, bound))
            hits, misses = hits + found, misses + (found == 0)
        assert hits > 50 and misses > 10


class TestIsometricDefinite:
    def test_gl_equivalent_mirror_forms(self):
        w = is_isometric_definite(form_to_lattice(BinaryForm(2, 1, 3)),
                                  form_to_lattice(BinaryForm(2, -1, 3)))
        assert w is not None

    def test_distinct_determinants(self):
        assert is_isometric_definite(Lattice([[2, 0], [0, 2]]), A2) is None

    def test_identity(self):
        w = is_isometric_definite(A2, A2)
        assert w.columns == ((1, 0), (0, 1))

    def test_negative_definite_pair(self):
        w = is_isometric_definite(A2.twist(-1), A2.twist(-1))
        assert w is not None

    def test_mixed_signature_rejected(self):
        with pytest.raises(EnumerationError):
            is_isometric_definite(A2, A2.twist(-1))


E8 = Lattice([[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0],
              [0, -1, 2, -1, 0, 0, 0, -1], [0, 0, -1, 2, -1, 0, 0, 0],
              [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
              [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]])
T_HEX = Lattice([[2, -1], [-1, 2]])


def assert_checked(matrices):
    """Each matrix equals, with an equal hash, what the checking constructor
    builds from its source, target and columns."""
    for e in matrices:
        checked = EmbeddingMatrix(e.source, e.target, e.columns)
        assert checked == e and hash(checked) == hash(e), e


class TestSearchHitsMatchCheckedConstruction:
    # the search builds its hits without the constructor's check
    def test_a2_into_e8(self):
        found = embeddings(T_HEX, E8)
        assert len(found) == 13440  # 240 roots, 56 at inner product -1 with each
        columns = [e.columns for e in found]
        assert columns == sorted(columns)
        assert_checked(found)

    @pytest.mark.parametrize("d", [2, 4, 6])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_hexagonal_into_hexagonal_plus_d(self, k, d):
        source, target = T_HEX.twist(k * k), T_HEX.direct_sum(Lattice([[d]]))
        found = embeddings(source, target)
        primitive = embeddings(source, target, primitive_only=True)
        assert found and len(primitive) == (12 if k == 1 else 0)
        assert_checked(found + primitive)

    def test_negative_definite_pair(self):
        w = is_isometric_definite(A2.twist(-1), T_HEX.twist(-1))
        assert (w.source, w.target) == (A2.twist(-1), T_HEX.twist(-1))
        assert_checked([w])

    def test_equal_lattices(self):
        assert_checked([is_isometric_definite(A2, A2),
                        is_isometric_definite(E8.twist(-1), E8.twist(-1))])


class TestIndefiniteSearch:
    def test_discriminant23_ternary_pair_within_bound_ten(self):
        t1 = form_to_lattice(BinaryForm(1, 1, 6)).direct_sum(Lattice([[-1]]))
        t2 = form_to_lattice(BinaryForm(2, 1, 3)).direct_sum(Lattice([[-1]]))
        res = indefinite_isometry_search(t2, t1, 10)
        assert res.found and res.conclusive
        w = res.witness
        for i in range(3):
            for j in range(3):
                assert t1.inner(w.columns[i], w.columns[j]) == t2.gram[i][j]

    def test_self_identity(self):
        t1 = form_to_lattice(BinaryForm(1, 1, 6)).direct_sum(Lattice([[-1]]))
        res = indefinite_isometry_search(t1, t1.twist(1), 3)
        assert res.found
        assert res.witness.columns == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_invariant_mismatch_is_conclusive(self):
        t1 = form_to_lattice(BinaryForm(1, 1, 6)).direct_sum(Lattice([[-1]]))
        t2 = form_to_lattice(BinaryForm(1, 1, 6)).direct_sum(Lattice([[-3]]))
        res = indefinite_isometry_search(t1, t2, 10)
        assert not res.found and res.conclusive

    def test_miss_is_inconclusive(self):
        # same rank, signature and determinant but different genus: the
        # bounded search must report an inconclusive miss, never certainty
        l1 = Lattice([[1, 0], [0, -4]])
        l2 = Lattice([[2, 0], [0, -2]])
        res = indefinite_isometry_search(l1, l2, 6)
        assert not res.found and not res.conclusive

    def test_reversed_attempt_inverts_its_witness(self):
        # neither the box nor the split finds l1 -> l2 at height 3; the box
        # finds l2 -> l1, and its inverse is the witness
        l1 = Lattice([[-3, -3, 3], [-3, 2, -3], [3, -3, -3]])
        l2 = Lattice([[-16, -14, 6], [-14, -22, 21], [6, 21, -27]])
        assert _box_witness(l1, l2, 3) is None
        assert _split_witness(l1, l2, 3) is None
        assert _box_witness(l2, l1, 3) is not None
        res = indefinite_isometry_search(l1, l2, 3)
        assert res.found and res.conclusive
        w = res.witness
        assert (w.source, w.target) == (l1, l2)
        for i in range(3):
            for j in range(3):
                assert l2.inner(w.columns[i], w.columns[j]) == l1.gram[i][j]

    @pytest.mark.parametrize("g1,g2,height_bound,columns", [
        ([[1, 0, 0], [0, 3, 0], [0, 0, -5]], [[3, 0, -6], [0, -1, 4], [-6, 4, 1]], 2,
         ((0, 0, -1), (-2, -3, 0), (-1, -2, 2))),
        ([[-7, -1, 0], [-1, -3, 0], [0, 0, 3]], [[-3, -3, -5], [-3, 0, 1], [-5, 1, -3]], 1,
         ((0, -2, 1), (-1, 0, 0), (-1, 1, 0))),
        ([[4, 1, 0], [1, 3, 0], [0, 0, -2]], [[3, -2, 4], [-2, 3, -3], [4, -3, 1]], 1,
         ((-1, -2, -1), (0, -1, 0), (0, -1, -1)))],
        ids=["positive-block", "negative-block", "mirror-class"])
    def test_split_only_witness(self, g1, g2, height_bound, columns):
        # the box misses at this bound; the split strategy finds the witness
        # (in the mirror-class case only through an improper isometry onto
        # u^perp, whose reduced form has the opposite sign of b)
        l1, l2 = Lattice(g1), Lattice(g2)
        assert _box_witness(l1, l2, height_bound) is None
        w = _split_witness(l1, l2, height_bound)
        assert (w.source, w.target, w.columns) == (l1, l2, columns)
        assert indefinite_isometry_search(l1, l2, height_bound).witness == w

    @pytest.mark.parametrize("g1,g2", [
        ([[1, 0, 0], [0, 3, 0], [0, 0, -5]], [[-16, -34, 49], [-34, -13, 37], [49, 37, -74]]),
        ([[3, 1, 0], [1, 5, 0], [0, 0, -1]], [[-3, 25, 28], [25, -41, -4], [28, -4, 53]]),
        ([[3, 1, 0], [1, 5, 0], [0, 0, -1]], [[-94, -60, -5], [-60, -38, -2], [-5, -2, 5]])])
    def test_split_only_at_the_default_bound(self, g1, g2):
        # the pairs behind test_cli's split isometry pins: at height bound 10
        # the box misses in both orders, so both answers use the split
        l1, l2 = Lattice(g1), Lattice(g2)
        assert _box_witness(l1, l2, 10) is None and _box_witness(l2, l1, 10) is None
        w = _split_witness(l1, l2, 10)
        assert w is not None and indefinite_isometry_search(l1, l2, 10).witness == w

    @pytest.mark.parametrize("height_bound", [1, 10])
    def test_definite_pairs_are_decided_completely(self, height_bound):
        # (1, 1, 6) and (2, 1, 3) share rank, signature and determinant 23
        # but are not isometric: the complete definite search proves it at
        # any bound, where a box search could only miss
        principal = form_to_lattice(BinaryForm(1, 1, 6))
        other = form_to_lattice(BinaryForm(2, 1, 3))
        for l1, l2 in [(principal, other), (principal.twist(-1), other.twist(-1))]:
            res = indefinite_isometry_search(l1, l2, height_bound)
            assert not res.found and res.conclusive
        mirror = form_to_lattice(BinaryForm(2, -1, 3))
        res = indefinite_isometry_search(other, mirror, height_bound)
        assert res.found and res.conclusive
        assert res.witness == is_isometric_definite(other, mirror)

    @pytest.mark.parametrize("height_bound", [0, -3, 2.5, 10.0, True, "10"])
    @pytest.mark.parametrize("l1,l2", [
        (A2, A2), (A2, Lattice([[2, 1], [1, -2]])), (A2, Lattice([[2]])),
        (Lattice([[0]]), Lattice([[0]]))],
        ids=["definite", "mixed", "rank-mismatch", "degenerate"])
    def test_height_bound_is_checked_for_every_pair(self, l1, l2, height_bound):
        with pytest.raises(EnumerationError):
            indefinite_isometry_search(l1, l2, height_bound)

    @pytest.mark.parametrize("l1,l2", [
        (Lattice([[1, 0], [0, -1]]), Lattice([[0]])),
        (Lattice([[0]]), Lattice([[1, 0], [0, -1]])),
        (A2, Lattice([[1, 1], [1, 1]])), (Lattice([[2]]), Lattice([[0, 0], [0, 0]]))],
        ids=["indefinite-first", "degenerate-first", "same-rank", "definite-first"])
    def test_degenerate_gram_is_refused_in_either_position(self, l1, l2):
        with pytest.raises(LatticeError, match="degenerate"):
            indefinite_isometry_search(l1, l2, 10)


def ternaries(p, d0=1):
    return [form_to_lattice(f).direct_sum(Lattice([[-d0]]))
            for f in class_group(-p).elements]


class TestLevelWalk:
    @pytest.mark.parametrize("d0,level", [(1, 7), (3, 17)])
    def test_bound_counts_levels(self, d0, level):
        # p = 23: the mirror pair of classes is first reached at this level
        ts = ternaries(23, d0)
        assert None in level_walk(ts, ts[0], level - 1)
        ws = level_walk(ts, ts[0], level)
        assert [abs(w.columns[2][2]) for w in ws] == [1, level, level]
        for t, w in zip(ts, ws):
            assert (w.source, w.target) == (t, ts[0])
        assert ws[0].columns == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        # (2, -1, 3) and (2, 1, 3) share the one u that reached them
        assert ws[1].columns[2] == ws[2].columns[2]

    def test_index_three_complement_is_no_witness(self):
        # in T_0 for p = 23, d0 = 3, u = (-3, 1, 3) has a complement of
        # determinant 207 = 9 * 23, so u^perp + Zu has index 3 in T_0: a
        # ternary built on that complement is reached by no isometry
        t0 = ternaries(23, 3)[0]
        assert t0.orthogonal_complement((-3, 1, 3))[0].determinant() == 207
        fake = Lattice([[9, 3, 0], [3, 24, 0], [0, 0, -3]])
        assert level_walk([fake], t0, 10) == (None,)

    def test_split_step_keeps_only_vectors_that_split_off(self):
        # in T_0 = (1, 1, 6) + (-1) the last basis vector splits off; twice
        # it has the same complement, of index 2 together with it
        t0 = ternaries(23)[0]
        assert [u for u, _, _ in _splits(t0, [(0, 0, 1)], -1)] == [(0, 0, 1)]
        assert list(_splits(t0, [(0, 0, 2)], -4)) == []

    @pytest.mark.parametrize("target,sources", [
        (Lattice([[2, 1, 1], [1, 2, 0], [1, 0, -1]]), None),
        (Lattice([[2, 1, 0], [1, 2, 0], [0, 0, 1]]), None),
        (Lattice([[-2, 1, 0], [1, -2, 0], [0, 0, -1]]), None),
        (ternaries(23)[0], ternaries(23, 3)),
        (Lattice([[2, 1], [1, -2]]), None),
    ])
    def test_rejects_lattices_not_in_block_form(self, target, sources):
        with pytest.raises(EnumerationError, match="Q \\+ \\(-k\\)"):
            level_walk(sources or [target], target, 10)

    def test_rejects_nonpositive_height_bound(self):
        ts = ternaries(23)
        with pytest.raises(EnumerationError, match="height bound"):
            level_walk(ts, ts[0], 0)

    @pytest.mark.parametrize("height_bound", [2.5, 10.0, True])
    def test_rejects_height_bound_that_is_not_an_integer(self, height_bound):
        ts = ternaries(23)
        with pytest.raises(EnumerationError, match="integers"):
            level_walk(ts, ts[0], height_bound)


class TestOrbitInvariant:
    def test_block_example(self):
        inv = orbit_invariant(Lattice([[2, 0], [0, -2]]), (1, 0))
        assert inv.norm == 2
        assert inv.complement_class == (2,)
        assert inv.complement_disc == (2,)

    def test_twisted_ternary_example(self):
        # complement of the distinguished vector reduces to the scaled
        # principal form of discriminant -23
        t1 = form_to_lattice(BinaryForm(1, 1, 6)).direct_sum(Lattice([[-1]]))
        inv = orbit_invariant(t1.twist(-4), (0, 0, 1))
        assert inv.norm == 4
        assert inv.complement_class == (8, 8, 48)
        assert inv.unoriented() == inv

    def test_invariance_under_isometry(self):
        n = Lattice([[2, 0, 0], [0, -2, 0], [0, 0, -2]])
        v = (1, 0, 0)
        inv = orbit_invariant(n, v)
        # an explicit isometry: swap the two (-2)-vectors
        g = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        gv = tuple(sum(g[r][c] * v[c] for c in range(3)) for r in range(3))
        assert orbit_invariant(n, gv) == inv

    def test_preconditions(self):
        with pytest.raises(EnumerationError):
            orbit_invariant(A2, (1, 0))  # wrong signature
        n = Lattice([[2, 0], [0, -2]])
        with pytest.raises(EnumerationError):
            orbit_invariant(n, (0, 1))  # negative norm
        with pytest.raises(EnumerationError):
            orbit_invariant(n, (2, 0))  # imprimitive

    def test_checks_its_vector_once(self, monkeypatch):
        calls = []
        check = Lattice.check_vector
        monkeypatch.setattr(Lattice, "check_vector",
                            lambda lat, w: calls.append(w) or check(lat, w))
        assert orbit_invariant(Lattice([[2, 0], [0, -2]]), (1, 0)).norm == 2
        # one check on entry; its refusals imply the complement's, which is
        # taken unchecked
        assert len(calls) == 1

    def test_the_record_without_refusals_is_the_public_record(self):
        # on lattices whose caches are empty, as census twists are: the
        # private record reads no elimination, and it equals the record of
        # orbit_invariant, which reads the signature and checks everything
        rng = random.Random(31)
        seen = {2: 0, 3: 0}
        while min(seen.values()) < 500:
            n = rng.choice((2, 3))
            gram = random_symmetric(n, rng)
            lat = Lattice(gram)
            if lat.determinant() == 0 or lat.signature() != (1, n - 1):
                continue
            v = tuple(rng.randint(-4, 4) for _ in range(n))
            if math.gcd(*v) != 1 or lat.norm(v) <= 0:
                continue
            fresh = Lattice(gram)
            assert _orbit_record(fresh, v) == orbit_invariant(Lattice(gram), v), (gram, v)
            assert "_elimination" not in vars(fresh)
            seen[n] += 1

    def test_mirrored_is_an_involution_that_keeps_the_unoriented_record(self):
        rng = random.Random(34)
        records = [orbit_invariant(form_to_lattice(f).direct_sum(Lattice([[-k]])).twist(-4),
                                   (0, 0, 1))
                   for d in range(-3, -400, -4) for f in class_group(d).elements
                   for k in (1, 3)]
        while len(records) < 2000:
            n = rng.choice((2, 3))
            lat = Lattice(random_symmetric(n, rng))
            v = tuple(rng.randint(-4, 4) for _ in range(n))
            if (lat.determinant() and lat.signature() == (1, n - 1)
                    and math.gcd(*v) == 1 and lat.norm(v) > 0):
                records.append(orbit_invariant(lat, v))
        flipped = 0
        for inv in records:
            mirror = inv.mirrored()
            assert mirror.mirrored() == inv
            assert mirror.unoriented() == inv.unoriented()
            if len(mirror.complement_class) == 3:
                reduced, _ = reduce_form(BinaryForm(*mirror.complement_class))
                assert reduced.as_tuple() == mirror.complement_class
            flipped += mirror != inv
        assert flipped > 500

    @pytest.mark.parametrize("cls, mirror", [
        ((2, 1, 3), (2, -1, 3)), ((5, -3, 7), (5, 3, 7)),  # interior: b flips
        ((3, 0, 5), (3, 0, 5)),  # b = 0
        ((2, 2, 5), (2, 2, 5)),  # |b| = a: (2, -2, 5) reduces to it
        ((4, 3, 4), (4, 3, 4)),  # a = c: (4, -3, 4) reduces to it
        ((1, 1, 1), (1, 1, 1)),  # both
        ((6,), (6,)),  # a rank-1 complement has no orientation
    ])
    def test_mirrored_flips_only_interior_classes(self, cls, mirror):
        inv = OrbitInvariant(4, (4, 4, 92), (8, 184), cls)
        assert inv.mirrored() == OrbitInvariant(4, (4, 4, 92), (8, 184), mirror)
        if len(cls) == 3:
            assert reduce_form(BinaryForm(*cls))[0].as_tuple() == cls

    @pytest.mark.parametrize("v,error,message", [
        ((1, 0, 0), LatticeError, "does not match rank"),
        ((1.5, 0), LatticeError, "integers"),
        ((0, 0), EnumerationError, "positive norm"),
        ((0, 1), EnumerationError, "positive norm"),
        ((2, 0), EnumerationError, "primitive"),
    ])
    def test_refuses_a_bad_vector(self, v, error, message):
        with pytest.raises(error, match=message):
            orbit_invariant(Lattice([[2, 0], [0, -2]]), v)

    def test_complement_of_a_positive_vector_is_negative_definite(self):
        # Sylvester's law of inertia, which orbit_invariant relies on instead
        # of testing: in signature (1, m), v.v > 0 leaves v^perp of signature
        # (0, m).  The leading minors are read here, not through linalg.
        rng = random.Random(29)
        seen = {2: 0, 3: 0}
        while min(seen.values()) < 1000:
            n = rng.choice((2, 3))
            lat = Lattice(random_symmetric(n, rng))
            if lat.determinant() == 0 or lat.signature() != (1, n - 1):
                continue
            v = tuple(rng.randint(-4, 4) for _ in range(n))
            if math.gcd(*v) != 1 or lat.norm(v) <= 0:
                continue
            g = lat.orthogonal_complement(v)[0].gram
            assert g[0][0] < 0, (lat.gram, v)
            inv = orbit_invariant(lat, v)
            assert inv.norm == lat.norm(v)
            if n == 2:
                assert inv.complement_class == (-g[0][0],)
            else:
                det = g[0][0] * g[1][1] - g[0][1] ** 2
                assert det > 0, (lat.gram, v)
                a, b, c = inv.complement_class
                assert 0 < a and b * b - 4 * a * c == -4 * det
            seen[n] += 1
