import collections
import functools
import hashlib
import itertools
import json
import math
import random

import pytest
from sympy import legendre_symbol, primefactors

from k3lat import genus
from k3lat.forms import BinaryForm, class_group, form_to_lattice
from k3lat.genus import GenusBlock, GenusError, GenusSymbol, padic_symbol, same_genus
from k3lat.lattice import Lattice, LatticeError
from util import (change_basis, discriminant_form_counts, random_nondegenerate,
                  random_unimodular, scanning_jordan_decomposition)

A2 = Lattice([[2, 1], [1, 2]])
U = Lattice([[0, 1], [1, 0]])

# sha256 of the symbols at 2, 3 and 5 of the seeded corpus in
# test_symbols_are_pinned
SYMBOL_DIGEST = "09b9d3d29ff502fabed179f9a4ec1b828db97be2d9bf0a08bb737af4e4d35ca5"


def diag(*xs):
    return Lattice([[x if i == j else 0 for j in range(len(xs))]
                    for i, x in enumerate(xs)])


def z2_equivalent(g1, g2, k=7):
    """Brute-force Z_2-equivalence oracle via congruence mod 2^k.

    Valid whenever both forms have 2-adic Jordan scales at most 2^(k-3).
    """
    m = 1 << k
    vecs = list(itertools.product(range(m), repeat=2))

    def q(v, g):
        return (g[0][0] * v[0] * v[0] + 2 * g[0][1] * v[0] * v[1]
                + g[1][1] * v[1] * v[1]) % m

    def bil(u, v, g):
        return (g[0][0] * u[0] * v[0] + g[0][1] * (u[0] * v[1] + u[1] * v[0])
                + g[1][1] * u[1] * v[1]) % m

    by_norm = {}
    for v in vecs:
        by_norm.setdefault(q(v, g1), []).append(v)
    for c1 in by_norm.get(q((1, 0), g2), []):
        for c2 in by_norm.get(q((0, 1), g2), []):
            if bil(c1, c2, g1) != g2[0][1] % m:
                continue
            if (c1[0] * c2[1] - c1[1] * c2[0]) % 2 == 1:
                return True
    return False


class TestPadicSymbol:
    def test_a2_at_3(self):
        sym = padic_symbol(A2, 3)
        assert [(b.scale, b.dim) for b in sym.blocks] == [(0, 1), (1, 1)]

    def test_unimodular_at_5(self):
        sym = padic_symbol(Lattice([[1, 0], [0, 1]]), 5)
        assert [(b.scale, b.dim, b.sign) for b in sym.blocks] == [(0, 2, 1)]

    def test_two_adic_scale_one_block(self):
        sym = padic_symbol(Lattice([[2, 0], [0, -2]]), 2)
        assert [(b.scale, b.dim) for b in sym.blocks] == [(1, 2)]
        assert sym.blocks[0].type == "I"

    def test_even_blocks(self):
        u = padic_symbol(Lattice([[0, 1], [1, 0]]), 2)
        v = padic_symbol(Lattice([[2, 1], [1, 2]]), 2)
        assert u.blocks[0].type == "II" and v.blocks[0].type == "II"
        assert u.blocks[0].sign == 1 and v.blocks[0].sign == -1

    def test_rejects_nonprime(self):
        with pytest.raises(GenusError):
            padic_symbol(A2, 4)

    def test_rejects_a_prime_that_is_not_an_integer(self):
        with pytest.raises(LatticeError, match="integers"):
            padic_symbol(A2, 3.7)

    def test_rejects_degenerate(self):
        with pytest.raises(GenusError):
            padic_symbol(Lattice([[1, 1], [1, 1]]), 2)

    def test_scales_and_signs_match_the_determinant(self, rng):
        # sum of scale * dim is v_p(det); at odd p the block signs multiply
        # to the Legendre symbol of the unit part of det
        for _ in range(80):
            lat = random_nondegenerate(rng.randint(1, 6), rng, scale=rng.choice([3, 9]),
                                       two_power_bias=True)
            det = lat.determinant()
            for p in sorted({2, 3, 5, 7} | set(primefactors(det))):
                v, unit = 0, det
                while unit % p == 0:
                    v, unit = v + 1, unit // p
                blocks = padic_symbol(lat, p).blocks
                assert sum(b.scale * b.dim for b in blocks) == v, (lat, p)
                if p != 2:
                    assert (math.prod(b.sign for b in blocks)
                            == legendre_symbol(unit % p, p)), (lat, p)

    def test_unchecked_symbol_matches_the_public_one(self, rng):
        # same_genus reads symbols through _padic_symbol, which skips the
        # refusals; at 2 and every prime of the determinant it must agree
        for rank in range(1, 5):
            for _ in range(20):
                lat = random_nondegenerate(rank, rng, scale=rng.choice([3, 9]),
                                           two_power_bias=True)
                for p in sorted({2} | set(primefactors(lat.determinant()))):
                    assert genus._padic_symbol(lat, p) == padic_symbol(lat, p), (lat, p)

    def test_jordan_split_matches_the_full_pivot_scan(self):
        # the split takes the first diagonal unit as its pivot without a
        # valuation scan; the oracle always scans.  Half the entries are
        # scaled by p or p^2, so the scan also runs where no unit is left
        rng = random.Random(31)
        seen = collections.Counter()
        while sum(seen.values()) < 20000:
            n, p = rng.randint(1, 4), rng.choice((2, 3, 5, 7))
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    g[i][j] = g[j][i] = rng.randint(-6, 6) * rng.choice((1, 1, p, p * p))
            if Lattice(g).determinant() == 0:
                continue
            seen[all(g[i][i] % p == 0 for i in range(n))] += 1
            assert genus._jordan_decomposition(g, p) == scanning_jordan_decomposition(g, p), (g, p)
        assert min(seen.values()) > 2000, seen

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_odd_pieces_with_known_symbols(self, p, rng):
        # orthogonal sums of p^s * u and p^s * [[p a, b], [b, p c]] with p
        # dividing neither u nor b: the 2x2 block has its least valuation off
        # the diagonal and is p^s times a unimodular form of determinant
        # -b^2 mod p, so its sign is (-1/p)
        minus_one = 1 if p % 4 == 1 else -1
        units = [x for x in range(-2 * p, 2 * p) if x % p]
        for _ in range(40):
            pieces, expected = [], {}  # scale -> [dim, sign]
            for _ in range(rng.randint(1, 4)):
                s, u = rng.randint(0, 2), rng.choice(units)
                block = expected.setdefault(s, [0, 1])
                if rng.random() < 0.4:
                    pieces.append(Lattice([[u]]).twist(p ** s))
                    block[0] += 1
                    block[1] *= legendre_symbol(u % p, p)
                else:
                    a, c = rng.randint(-3, 3), rng.randint(-3, 3)
                    pieces.append(Lattice([[p * a, u], [u, p * c]]).twist(p ** s))
                    block[0] += 2
                    block[1] *= minus_one
            lat = functools.reduce(Lattice.direct_sum, pieces)
            want = GenusSymbol(p, tuple(GenusBlock(s, dim, sign)
                                        for s, (dim, sign) in sorted(expected.items())))
            assert padic_symbol(lat, p) == want, lat
            if lat.rank > 1:
                other = change_basis(lat, random_unimodular(lat.rank, rng))
                assert padic_symbol(other, p) == want, other


class TestCanonical2adic:
    """Walking and fusion, pinned against a brute-force Z_2 oracle."""

    @pytest.mark.parametrize("a,b,equal", [
        ((1, 2), (3, 6), True),     # same-compartment walk, oddity +4 once
        ((1, 2), (5, 10), False),
        ((1, 2), (7, 14), False),
        ((1, 4), (5, 20), True),    # cross-compartment walk, +4 on each side
        ((1, 4), (3, 12), False),
        ((1, 8), (5, 40), False),   # scale gap 3 breaks the train
    ])
    def test_pinned_diagonal_pairs(self, a, b, equal):
        assert (padic_symbol(diag(*a), 2) == padic_symbol(diag(*b), 2)) == equal
        assert z2_equivalent(diag(*a).gram, diag(*b).gram) == equal

    @pytest.mark.parametrize("l1,l2", [
        (U.direct_sum(A2.twist(4)), A2.direct_sum(U.twist(4))),
        (U.direct_sum(A2.twist(4)), U.twist(4).direct_sum(A2)),
        (U.twist(2).direct_sum(A2.twist(8)), A2.twist(2).direct_sum(U.twist(8))),
    ], ids=["U+A2(4)|A2+U(4)", "U+A2(4)|U(4)+A2", "U(2)+A2(8)|A2(2)+U(8)"])
    def test_type_ii_constituents_two_scales_apart_share_no_train(self, l1, l2):
        # scale 1 is missing, an empty type II form next to two type II
        # forms, so the sign of the second cannot walk to the first
        assert discriminant_form_counts(l1) != discriminant_form_counts(l2)
        assert padic_symbol(l1, 2) != padic_symbol(l2, 2)
        assert not same_genus(l1, l2)

    def test_symbols_are_pinned(self):
        rng = random.Random(21)
        docs = []
        for _ in range(600):
            lat = random_nondegenerate(rng.randint(1, 6), rng, scale=rng.choice([3, 9]),
                                       two_power_bias=True)
            docs.append([lat.gram, [padic_symbol(lat, p).to_json() for p in (2, 3, 5)]])
        blob = json.dumps(docs, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == SYMBOL_DIGEST

    def test_random_rank2_against_oracle(self, rng):
        def val2(x):
            c = 0
            while x % 2 == 0:
                x //= 2
                c += 1
            return c

        checked = 0
        while checked < 60:
            l1 = random_nondegenerate(2, rng, scale=4, two_power_bias=True)
            l2 = random_nondegenerate(2, rng, scale=4, two_power_bias=True)
            if max(val2(abs(l1.determinant())), val2(abs(l2.determinant()))) > 4:
                continue  # keep Jordan scales within the oracle precision
            sym_eq = padic_symbol(l1, 2) == padic_symbol(l2, 2)
            assert sym_eq == z2_equivalent(l1.gram, l2.gram), (l1, l2)
            checked += 1


class TestSameGenus:
    def test_reflexive(self):
        assert same_genus(A2, A2)

    def test_determinant_mismatch(self):
        assert not same_genus(Lattice([[2, 0], [0, 2]]), A2)

    def test_ternary_class_pair(self):
        # distinct form classes of discriminant -23 give ternaries in one genus
        l1 = form_to_lattice(BinaryForm(1, 1, 6)).direct_sum(Lattice([[-1]]))
        l2 = form_to_lattice(BinaryForm(2, 1, 3)).direct_sum(Lattice([[-1]]))
        assert same_genus(l1, l2)

    def test_two_genera_at_minus_twenty(self):
        l1 = form_to_lattice(BinaryForm(1, 0, 5))
        l2 = form_to_lattice(BinaryForm(2, 2, 3))
        assert not same_genus(l1, l2)

    def test_principal_genus_chain(self):
        # every class is a square for these discriminants, so all associated
        # lattices fall into a single genus
        for p in (23, 31, 47):
            lats = [form_to_lattice(f) for f in class_group(-p).elements]
            for x in lats:
                for y in lats:
                    assert same_genus(x, y)

    def test_invariance_under_basis_change(self, rng):
        for _ in range(60):
            lat = random_nondegenerate(rng.choice([2, 3]), rng, two_power_bias=True)
            u = random_unimodular(lat.rank, rng)
            assert same_genus(lat, change_basis(lat, u))

    def test_symbols_invariant_at_all_primes(self, rng):
        for _ in range(40):
            lat = random_nondegenerate(rng.choice([2, 3, 4]), rng, two_power_bias=True)
            u = random_unimodular(lat.rank, rng)
            other = change_basis(lat, u)
            for p in {2, *primefactors(abs(lat.determinant()))}:
                assert padic_symbol(lat, p) == padic_symbol(other, p)

    def test_equivalence_relation_on_corpus(self, rng):
        corpus = [random_nondegenerate(2, rng, scale=4) for _ in range(8)]
        corpus += [A2, Lattice([[0, 1], [1, 0]]), diag(1, 2), diag(3, 6)]
        rel = {(i, j): same_genus(x, y)
               for i, x in enumerate(corpus) for j, y in enumerate(corpus)}
        n = len(corpus)
        for i in range(n):
            assert rel[(i, i)]
            for j in range(n):
                assert rel[(i, j)] == rel[(j, i)]
                for k in range(n):
                    if rel[(i, j)] and rel[(j, k)]:
                        assert rel[(i, k)]

    def test_agrees_with_the_discriminant_form_oracle(self):
        # every sum of two of U, A2, <+-2>, <+-6>, <10>, each scaled by 1, 2,
        # 4 or 8: even lattices, so same genus forces equal discriminant
        # forms.  Value counts are not a complete invariant in general, but
        # on this sample they separate every two genera, so a symbol that
        # splits a genus fails here too.  Unequal determinants are told
        # apart before any symbol.
        blocks = [lat.twist(k) for lat in (U, A2, *(Lattice([[x]]) for x in (2, -2, 6, -6, 10)))
                  for k in (1, 2, 4, 8)]
        by_det = collections.defaultdict(list)
        for a, b in itertools.product(blocks, repeat=2):
            lat = a.direct_sum(b)
            by_det[lat.determinant()].append(lat)
        same = 0
        for lats in by_det.values():
            counts = [discriminant_form_counts(lat) for lat in lats]
            for (x, cx), (y, cy) in itertools.combinations(zip(lats, counts), 2):
                is_same = same_genus(x, y)
                assert is_same == (x.signature() == y.signature() and cx == cy), (x, y)
                same += is_same
        assert same == 482

    def test_the_tuple_memo_answers_as_the_records_do(self):
        # same_genus compares the block tuples each lattice keeps; on fresh
        # copies, a comparison of the padic_symbol records at 2 and every
        # prime of the determinant must give the same answer.  Pairs of
        # rank 2 to 4 with equal determinant and signature: sums of <+-1>,
        # <+-3>, U and A2 scaled by 1, 2, 4 or 8 (2-adic trains and
        # compartments), and random lattices against a change of basis
        rng = random.Random(43)
        blocks = [lat.twist(k) for lat in (U, A2, *(Lattice([[x]]) for x in (1, -1, 3, -3)))
                  for k in (1, 2, 4, 8)]
        groups = collections.defaultdict(list)
        for n in (1, 2, 3):
            for summands in itertools.combinations(blocks, n):
                lat = functools.reduce(Lattice.direct_sum, summands)
                if 2 <= lat.rank <= 4:
                    groups[lat.rank, lat.determinant(), lat.signature()].append(lat)
        groups = [lats for lats in groups.values() if len(lats) > 1]
        pairs = [rng.sample(rng.choice(groups), 2) for _ in range(3000)]
        for _ in range(300):
            lat = random_nondegenerate(rng.randint(2, 4), rng, scale=4, two_power_bias=True)
            pairs.append((lat, change_basis(lat, random_unimodular(lat.rank, rng))))
        answers = collections.Counter()
        for x, y in pairs:
            x1, y1 = Lattice(x.gram), Lattice(y.gram)
            records = all(padic_symbol(x1, p) == padic_symbol(y1, p)
                          for p in {2, *primefactors(abs(x1.determinant()))})
            answer = same_genus(Lattice(x.gram), Lattice(y.gram))
            assert answer == records, (x, y)
            answers[answer] += 1
        assert min(answers.values()) > 500, answers

    def test_same_genus_implies_matching_invariants(self, rng):
        pairs = 0
        while pairs < 10:
            lat = random_nondegenerate(2, rng, scale=4)
            u = random_unimodular(2, rng)
            other = change_basis(lat, u)
            assert same_genus(lat, other)
            assert lat.determinant() == other.determinant()
            assert lat.discriminant_group() == other.discriminant_group()
            pairs += 1
