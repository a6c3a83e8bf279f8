import hashlib
import importlib.util
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime, nextprime

from k3lat import HEIGHT_BOUND, arith, census, enumeration, genus
from k3lat.census import (CensusError, UnboundedFamilyCertificate,
                          build_unbounded_family, certificate_from_json,
                          certificate_to_json, count_integral_twistor_classes,
                          fm_partner_count, has_minus_two_class, tau,
                          verify_certificate, write_certificate)
from k3lat.cli import build_parser
from k3lat.enumeration import (indefinite_isometry_search, level_walk,
                               orbit_invariant, vectors_of_norm)
from k3lat.forms import class_group, form_to_lattice
from k3lat.lattice import Lattice, LatticeError

A2 = Lattice([[2, 1], [1, 2]])


# sha256 of certificate_to_json (sorted keys, compact separators) for the 29
# primes p = 3 mod 4 below 260 at d0 = 1 and height bound 10, witnesses included
CERTIFICATE_DIGESTS = {
    3: "f7e312ef0558abefe120ee85be68b81f9469fde4bb1ccd0f79cb1281482b7cf9",
    7: "a8135fe71e2e2f51ed05b575228b7a844232a9c44e7e7269ce430ecdbb91696b",
    11: "9b370d921c422af4efef68168a2e3de0c0bd1367d736a9fb67ac756cd6d02b9a",
    19: "c04602667387df2fe716f426a35c3e3404fac6d788d2c7adc0beb0eb0344deaa",
    23: "cb1a500d9f578aa10d19406a1d36882b54703e499aa7ac8154b7533de50aa8b1",
    31: "9bea1b2bfb0a61f955c514bb711588db087b38647ad84a0d886f5fd0f9afb659",
    43: "fc9c93d264a2c9c188f0d61f6883775b55aaf5b4fb5a5e1278a17a6009a6aa0a",
    47: "dd028112bfd705fab199db061a1a8c827ce986a338fe8900f3ad567abcd66f52",
    59: "7946cba9e3071b2ef5a0ddb1bda50799ea49921dd42e3de44c58d0b54ec57c7f",
    67: "4c06d27595cc41a1bd82e208eef2de65da6797dc305f1be1b59210c85a94d34b",
    71: "cabf47058f7d81918de0017665f7ca4a94b0e214e0ec74461e0309865bee5210",
    79: "8073c8962b7b73af3e3316002786c32484ce0ea1d62eb47fe4871dc3c614920a",
    83: "34fc4d5ac7b551fa23fcbba201688114d85579fb3c80d1009ac3e9dfa3e3f034",
    103: "4c5782e9b719b8aa3aa3ef47b30515d2c460bf73583ed8449ba5dd0536b4e97f",
    107: "ad6938aa98b830a2be03bd768d849f502f6cf5192c185245a9c974f62754a20b",
    127: "7a304336744854eaa9306219491afffdd4dc141a4e749ffe5374aba8ce638885",
    131: "4eafa28748cdc7482e7fbbab4360eb591e909fb28780fdf45fcb1bb1eb2fe642",
    139: "3fa0da727c2dd004ea9d1cd4d596300b7803df2426f6da9bebb09ab136ed179a",
    151: "d8ba21c1e94bcdb7477cc0fcc520ca50474cecfbc75a318934c46f662a66bdd8",
    163: "4c404651ec9ab09428ed5a626baa5a43f863b908e83c20dc877906338fd51423",
    167: "ec6b56613c37a54ee627b15b0c279f2b325add02aa0609d73a89ae77bebeb4b9",
    179: "9fd5c9c690e50fe5b27b4a40a4d8784b0111ac6d422f62f02dba816c236a70bc",
    191: "ce2770c48c8c4c9ebce28d2e86f131082e47088c0bfafe41735516ba5dbbfa68",
    199: "bc6dfa7ee7bbe632d0fe008d5d5141f715b1473f5e4773aba356240724850b63",
    211: "c4d528a3626ac3e31e2dba842b3a27b5dedf5a398eb7ff67dfcb3ab73db3e68a",
    223: "afb350f55f28098a8a8090dcb0a1aa40399c4357d39a5edca295690f1c8e9fbe",
    227: "3733c4a79e4ad92de2a356bc6e8cdba89dde5768a59b1e1f1ab1ad1460947755",
    239: "f30eef317ea95e0bc7331ad5656e6c5f08982456fcbcb102b0ecd8209453f460",
    251: "588f75c985c7ae866338e131639b02fe8c23d11da7ecfaa95396a9cb034652dd",
}


def assemble_family(p, d0, height_bound):
    """A certificate put together from the public pieces, bypassing build
    and so every parameter check build makes."""
    cl = class_group(-p)
    h = cl.order
    ternaries = tuple(form_to_lattice(f).direct_sum(Lattice([[-d0]]))
                      for f in cl.elements)
    witnesses = level_walk(ternaries, ternaries[0], height_bound)
    return UnboundedFamilyCertificate(
        p=p, d0=d0, degree=4 * d0, h=h, forms=cl.elements, ternaries=ternaries,
        genus_checks=((True,) * h,) * h, isometry_witnesses=witnesses,
        ns_lattice=ternaries[0].twist(-4),
        classes=tuple(None if w is None else w.columns[2] for w in witnesses),
        complement_invariants=tuple(orbit_invariant(t.twist(-4), (0, 0, 1))
                                    for t in ternaries),
        minus_two_free=True, height_bound=height_bound)


def mirror_firsts(forms):
    """Indices j of the forms (a, b, c) whose mirror (a, -b, c) is not
    earlier in the list: the classes the genus row compares (besides T_0)
    and whose records _family takes."""
    seen = set()
    firsts = []
    for j, f in enumerate(forms):
        a, b, c = f.as_tuple()
        if (a, -b, c) not in seen:
            firsts.append(j)
        seen.add((a, b, c))
    return firsts


class TestTauAndFm:
    @pytest.mark.parametrize("d,expected", [(12, 2), (2, 0), (60, 3)])
    def test_tau(self, d, expected):
        assert tau(d) == expected

    @pytest.mark.parametrize("d,expected", [(12, 2), (60, 4), (2, 1)])
    def test_fm_count(self, d, expected):
        assert fm_partner_count(d) == expected

    def test_fm_count_is_the_discriminant_isometry_count_up_to_sign(self):
        # the discriminant form q of <d> has |O(q)| = #{u mod d : u^2 = 1
        # (mod 2d)}; divided by the order of {+-1 mod d} it is the count for
        # every even d, d = 2 included, where the formula is clamped
        for d in range(2, 2001, 2):
            isometries = sum(1 for u in range(d) if (u * u - 1) % (2 * d) == 0)
            signs = len({1 % d, -1 % d})
            assert isometries % signs == 0, d
            assert fm_partner_count(d) == isometries // signs, d

    def test_degree_that_is_not_an_integer_rejected(self):
        with pytest.raises(CensusError, match="integers"):
            tau(12.7)

    def test_odd_degree_rejected(self):
        with pytest.raises(CensusError):
            tau(9)
        with pytest.raises(CensusError):
            fm_partner_count(-4)

    @given(st.integers(2, 4000))
    @settings(max_examples=60, deadline=None)
    def test_new_odd_prime_doubles(self, half):
        d = 2 * half
        q = int(nextprime(half + 2))
        while (d // 2) % q == 0:
            q = int(nextprime(q))
        if tau(d) >= 1:
            assert fm_partner_count(d * q) == 2 * fm_partner_count(d)


class TestTwistorCount:
    def test_examples(self):
        assert count_integral_twistor_classes(A2, 2).count == 3
        assert count_integral_twistor_classes(Lattice([[2]]), 2).count == 1
        cube = Lattice([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        assert count_integral_twistor_classes(cube, 2).count == 3

    def test_pairs_with_vector_count(self):
        for d in (2, 4, 6, 8):
            res = count_integral_twistor_classes(A2, d)
            assert 2 * res.count == len(vectors_of_norm(A2, d))
            for v in res.representatives:
                assert A2.norm(v) == d

    def test_rejects(self):
        with pytest.raises(CensusError):
            count_integral_twistor_classes(Lattice([[0, 1], [1, 0]]), 2)
        with pytest.raises(CensusError):
            count_integral_twistor_classes(A2, 0)

    def test_degree_that_is_not_an_integer_rejected(self):
        with pytest.raises(LatticeError, match="integers"):
            count_integral_twistor_classes(A2, 2.7)


class TestMinusTwo:
    def test_congruence_certifies_any_twist_by_four(self):
        res = has_minus_two_class(A2.twist(-4))
        assert not res.found and res.certified
        res2 = has_minus_two_class(Lattice([[0, 1], [1, 0]]).twist(4))
        assert not res2.found and res2.certified

    def test_hyperbolic_witness(self):
        res = has_minus_two_class(Lattice([[0, 1], [1, 0]]))
        assert res.found and res.certified
        assert Lattice([[0, 1], [1, 0]]).norm(res.witness) == -2

    def test_block_witness(self):
        res = has_minus_two_class(Lattice([[2, 0], [0, -2]]))
        assert res.found and Lattice([[2, 0], [0, -2]]).norm(res.witness) == -2

    def test_bounded_miss_is_uncertified(self):
        # indefinite, not 0 mod 4, and 2a^2 - 6b^2 = -2 has no solution mod 3
        res = has_minus_two_class(Lattice([[2, 0], [0, -6]]), search_bound=2)
        assert not res.found and not res.certified

    @pytest.mark.parametrize("search_bound", [2.5, True])
    def test_search_bound_that_is_not_an_integer_rejected(self, search_bound):
        for lat in (Lattice([[2, 0], [0, -6]]), A2.twist(-4)):
            with pytest.raises(CensusError, match="integers"):
                has_minus_two_class(lat, search_bound=search_bound)

    def test_negative_search_bound_rejected(self):
        # a negative bound searched nothing and called the miss uncertified,
        # also where bound 6 finds (-3, -5); it is refused before the
        # congruence and definiteness shortcuts
        assert has_minus_two_class(Lattice([[2, 1], [1, -2]])).witness == (-3, -5)
        for gram in ([[2, 1], [1, -2]], [[2, 0], [0, -2]], [[-4, 2], [2, -4]], [[2, 1], [1, 2]]):
            for search_bound in (-1, -6):
                with pytest.raises(CensusError, match="nonnegative"):
                    has_minus_two_class(Lattice(gram), search_bound=search_bound)

    @pytest.mark.parametrize("gram", [[[2]], [[6, 1], [1, 6]], [[1, 1], [1, 1]]],
                             ids=["rank-one", "definite", "semidefinite"])
    def test_positive_semidefinite_is_certified(self, gram):
        res = has_minus_two_class(Lattice(gram), search_bound=0)
        assert not res.found and res.certified

    @pytest.mark.parametrize("a", range(-12, 13))
    def test_rank_one(self, a):
        # a*t^2 = -2 has an integer solution only for a = -2 (t = +-1), so
        # [[-2]] has a witness, [[-8]] is certified by the congruence, [[2]]
        # by definiteness and [[-6]] is a bounded miss
        res = has_minus_two_class(Lattice([[a]]))
        assert res.found == (a == -2)
        assert res.certified == (a == -2 or a % 4 == 0 or a > 0)
        assert res.witness in ((None,) if a != -2 else ((-1,), (1,)))


class TestUnboundedFamily:
    def test_p23_full_certificate(self):
        cert = build_unbounded_family(23, 1)
        assert cert.h == 3 and cert.degree == 4
        assert cert.witness_gaps == ()
        assert all(all(row) for row in cert.genus_checks)
        assert len(set(cert.complement_invariants)) == 3
        assert cert.distinct_orbit_lower_bound == 2  # mirror classes merge
        assert cert.minus_two_free
        for alpha in cert.classes:
            assert cert.ns_lattice.norm(alpha) == 4
            assert math.gcd(*alpha) == 1
        assert verify_certificate(cert)

    def test_p7_degenerate_single_class(self):
        cert = build_unbounded_family(7, 1)
        assert cert.h == 1
        assert cert.classes == ((0, 0, 1),)
        assert verify_certificate(cert)

    def test_nontrivial_d0(self):
        cert = build_unbounded_family(23, 3)
        assert cert.degree == 12
        assert all(cert.ns_lattice.norm(a) == 12
                   for a in cert.classes if a is not None)
        assert len(set(cert.complement_invariants)) == cert.h
        assert verify_certificate(cert)

    @pytest.mark.parametrize("p,d0", [(13, 1), (12, 1), (23, 2), (3, 9), (7, 49)])
    def test_preconditions(self, p, d0):
        with pytest.raises(CensusError):
            build_unbounded_family(p, d0)

    @pytest.mark.parametrize("p,d0,height_bound", [(23.9, 1, 10), (23, 1.0, 10),
                                                   (23, 1, 10.5)],
                             ids=["p", "d0", "height_bound"])
    def test_refuses_parameters_that_are_not_ints(self, p, d0, height_bound):
        # verify_certificate refuses these too, so build must not round them
        with pytest.raises(CensusError):
            build_unbounded_family(p, d0, height_bound=height_bound)

    @pytest.mark.parametrize("height_bound", [0, -1])
    def test_rejects_nonpositive_height_bound(self, height_bound):
        # h(-7) = 1, so no witness search runs that would reject the bound
        with pytest.raises(CensusError, match="height bound must be positive"):
            build_unbounded_family(7, 1, height_bound=height_bound)

    def test_roundtrip_and_file(self, tmp_path):
        cert = build_unbounded_family(23, 1)
        doc = json.loads(json.dumps(certificate_to_json(cert)))
        assert verify_certificate(certificate_from_json(doc))
        path = tmp_path / "cert.json"
        write_certificate(cert, path)
        with open(path) as fh:
            reloaded = certificate_from_json(json.load(fh))
        assert reloaded == cert

    @pytest.mark.parametrize("tamper,message", [
        pytest.param(lambda d: d["classes"].__setitem__(0, [1, 1, 1]),
                     "witness image", id="class"),
        pytest.param(lambda d: d["classes"].append([0, 0, 1]),
                     "must number h", id="extra-class"),
        pytest.param(lambda d: d["genus_checks"].append([True, True, True]),
                     "genus checks", id="extra-genus-row"),
        pytest.param(lambda d: d["genus_checks"][0].pop(),
                     "genus checks", id="short-genus-row"),
        pytest.param(lambda d: d["genus_checks"][1].__setitem__(2, False),
                     "genus checks", id="false-genus-entry"),
        pytest.param(lambda d: d["complement_invariants"].pop(),
                     "must number h", id="dropped-invariant"),
        pytest.param(lambda d: d["complement_invariants"].reverse(),
                     "invariant does not reproduce", id="swapped-invariants"),
        pytest.param(lambda d: d["isometry_witnesses"].pop(),
                     "witness count", id="dropped-witness"),
        pytest.param(lambda d: d["isometry_witnesses"].append(None),
                     "witness count", id="extra-witness"),
        pytest.param(lambda d: d.update(isometry_witnesses=[None] * 3,
                                        classes=[None] * 3, degree=8),
                     "degree", id="degree-without-classes"),
        pytest.param(lambda d: d.update(isometry_witnesses=[None] * 3,
                                        classes=[None] * 3,
                                        ternaries=d["ternaries"][::-1]),
                     "not built from its form", id="ternaries"),
        pytest.param(lambda d: d.__setitem__("minus_two_free", False),
                     "-2", id="minus-two-flag"),
        pytest.param(lambda d: d.__setitem__("ns_lattice", [
            [-4 * x for x in row] for row in d["ternaries"][1]]),
                     "ambient lattice", id="ns-lattice"),
        pytest.param(lambda d: d.__setitem__("height_bound", -5),
                     "height bound must be positive", id="height-bound"),
        pytest.param(lambda d: d.__setitem__("height_bound", 10.0),
                     "height bound must be positive", id="height-bound-not-integer"),
        pytest.param(lambda d: d.__setitem__("p", 23.0),
                     "p must be a prime", id="p-not-integer"),
        pytest.param(lambda d: d.__setitem__("d0", True),
                     "d0 must be a positive odd integer", id="d0-bool"),
        pytest.param(lambda d: d.__setitem__("h", 3.0),
                     "reduced-form scan", id="h-not-integer"),
        pytest.param(lambda d: d.__setitem__("degree", 4.0),
                     "degree", id="degree-not-integer"),
        pytest.param(lambda d: d["genus_checks"][1].__setitem__(2, "no"),
                     "genus checks", id="genus-entry-not-boolean"),
        pytest.param(lambda d: d.__setitem__("minus_two_free", "no"),
                     "-2", id="minus-two-flag-not-boolean"),
        pytest.param(lambda d: d.pop("p"),
                     "malformed certificate document", id="missing-key"),
        pytest.param(lambda d: d.__setitem__("isometry_witnesses", None),
                     "malformed certificate document", id="null-witnesses"),
        pytest.param(lambda d: d["forms"].__setitem__(0, [1, 1]),
                     "malformed certificate document", id="two-entry-form"),
        pytest.param(lambda d: d["isometry_witnesses"].__setitem__(
            1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                     "malformed certificate document", id="witness-not-gram-compatible"),
    ])
    def test_tampered_certificate_fails(self, tamper, message):
        doc = certificate_to_json(build_unbounded_family(23, 1))
        tamper(doc)
        with pytest.raises(CensusError, match=message):
            verify_certificate(certificate_from_json(doc))

    @pytest.mark.parametrize("doc", [[], None, "k3lat/1"],
                             ids=["list", "null", "string"])
    def test_non_object_document_is_refused(self, doc):
        with pytest.raises(CensusError, match="not an unbounded-family"):
            certificate_from_json(doc)

    def test_assembled_family_verifies(self):
        assert verify_certificate(assemble_family(23, 1, 10))

    @pytest.mark.parametrize("d0,height_bound,gaps,message", [
        pytest.param(27, 1, (1, 2), "cube", id="cube"),  # 23*27 = 3^3 * 23
        pytest.param(2, 10, (), "odd", id="even-d0"),
    ])
    def test_verify_refuses_families_outside_the_classification(
            self, d0, height_bound, gaps, message):
        cert = assemble_family(23, d0, height_bound)
        assert cert.witness_gaps == gaps
        with pytest.raises(CensusError, match=message):
            verify_certificate(cert)

    def test_witness_must_map_its_own_ternary(self):
        # p = 23 has a mirror pair of classes, so swapping their witnesses
        # and classes leaves every orientation-free invariant in place
        cert = build_unbounded_family(23, 1)
        w0, w1, w2 = cert.isometry_witnesses
        swapped = UnboundedFamilyCertificate(
            p=cert.p, d0=cert.d0, degree=cert.degree, h=cert.h, forms=cert.forms,
            ternaries=cert.ternaries, genus_checks=cert.genus_checks,
            isometry_witnesses=(w0, w2, w1), ns_lattice=cert.ns_lattice,
            classes=(w0.columns[2], w2.columns[2], w1.columns[2]),
            complement_invariants=cert.complement_invariants,
            minus_two_free=cert.minus_two_free, height_bound=cert.height_bound)
        with pytest.raises(CensusError, match="witness does not map"):
            verify_certificate(swapped)

    def test_build_goes_through_the_checker(self, monkeypatch):
        # build runs the claim checks verify_certificate ends with, on the
        # family it derived itself, and never the public checker
        cert = build_unbounded_family(23, 1)
        checked = []
        claims = census._check_claims
        monkeypatch.setattr(census, "_check_claims",
                            lambda c: checked.append(c) or claims(c))
        monkeypatch.setattr(census, "verify_certificate", None)
        assert build_unbounded_family(23, 1) == cert and checked == [cert]
        assert verify_certificate(cert) and checked == [cert, cert]
        # T_1 = (2, -1, 3) + (-1) is the compared member of p = 23's mirror
        # pair; T_2, its flip, is not compared.  The row compares blocks.
        compared = cert.ternaries[1]._block[0]
        genus = census.same_genus
        monkeypatch.setattr(census, "same_genus",
                            lambda a, b: compared not in (a, b) and genus(a, b))
        with pytest.raises(CensusError, match="genus check does not reproduce"):
            verify_certificate(cert)
        with pytest.raises(CensusError, match="genus check does not reproduce"):
            build_unbounded_family(23, 1)

    @pytest.mark.parametrize("run", [
        lambda cert: build_unbounded_family(cert.p, cert.d0), verify_certificate],
        ids=["build", "verify"])
    def test_each_run_derives_the_family_once(self, monkeypatch, run):
        cert = build_unbounded_family(23, 1)
        calls = dict.fromkeys(["_family", "same_genus", "_orbit_record"], 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(census, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(census, name, counted)
        run(cert)
        # the genus row compares T_0 with each later class whose mirror
        # (a, -b, c) is not earlier in the form list, and _family takes a
        # record for each such class and for T_0; every class is witnessed,
        # and a witnessed class's record is implied, not derived again
        firsts = mirror_firsts(cert.forms)
        assert cert.witness_gaps == () and len(firsts) == 2 < cert.h
        assert calls == {"_family": 1, "same_genus": len(firsts) - 1,
                         "_orbit_record": len(firsts)}

    def test_certificate_documents_are_pinned(self):
        for p, want in CERTIFICATE_DIGESTS.items():
            doc = certificate_to_json(build_unbounded_family(p, 1, height_bound=10))
            blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            assert hashlib.sha256(blob.encode()).hexdigest() == want, p

    def test_genus_row_computes_each_symbol_once(self, monkeypatch):
        # a certificate read back from JSON: its lattices carry no symbols yet
        cert = build_unbounded_family(239, 1)
        cert = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
        calls = []
        jordan = genus._jordan_decomposition
        monkeypatch.setattr(genus, "_jordan_decomposition",
                            lambda gram, p: calls.append(p) or jordan(gram, p))
        census._check_claims(cert)
        # every block Q_j of T_j = Q_j + (-1) has determinant 239: Q_0 is
        # compared at 2 and 239 with the blocks of the 7 classes that come
        # before their mirrors (the 7 mirrors are not compared), and each
        # block's two symbols are computed once
        assert cert.h == 15 and len(mirror_firsts(cert.forms)) == 8
        assert len(calls) == 2 * 8

    def test_a_census_operation_pays_each_proof_once(self, monkeypatch):
        # one k3bench census operation: build, a JSON round trip and verify.
        # The public refusals of orthogonal_complement and padic_symbol are
        # proven by their census callers, so neither is called; each genus
        # row factors det Q_0 once (census._family's cube test of p*d0 is
        # not a row); each lattice the descent runs in builds its constants
        # (the lcm of its pivot products) once, the walked block Q_0 too.
        # Only the level walk takes complements, one per level vector it
        # walks: a record's complement is the block of T_j(-4).  The genus
        # rows split rank-2 blocks only, and no lattice splits off its
        # block twice
        calls = {"orthogonal_complement": 0, "padic_symbol": 0}
        for owner, name in [(Lattice, "orthogonal_complement"), (genus, "padic_symbol")]:
            def counted(*args, _name=name, _fn=getattr(owner, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(owner, name, counted)
        factored, descended, builds = [], [], []
        factor, lcm, points = arith.factor, math.lcm, enumeration._lattice_points

        def counted_factor(n):
            if sys._getframe(1).f_globals["__name__"] != "k3lat.census":
                factored.append(n)
            return factor(n)

        def counted_lcm(*xs):
            builds.append(xs)
            return lcm(*xs)

        def counted_points(lat, norm):
            descended.append(lat)
            return points(lat, norm)

        complemented, walked, split_ranks, blocked = [], [], [], []
        complement, splits = Lattice._complement, enumeration._splits
        jordan, block = genus._jordan_decomposition, Lattice.__dict__["_block"]

        def counted_complement(lat, v):
            complemented.append((lat, v))
            return complement(lat, v)

        def counted_splits(lat, us, k):
            def pulled():
                for u in us:
                    walked.append(u)
                    yield u
            return splits(lat, pulled(), k)

        def counted_jordan(gram, p):
            split_ranks.append(len(gram))
            return jordan(gram, p)

        def counted_block(lat, _split=block.func):
            blocked.append(lat)
            return _split(lat)

        monkeypatch.setattr(arith, "factor", counted_factor)
        monkeypatch.setattr(math, "lcm", counted_lcm)
        monkeypatch.setattr(enumeration, "_lattice_points", counted_points)
        monkeypatch.setattr(Lattice, "_complement", counted_complement)
        monkeypatch.setattr(enumeration, "_splits", counted_splits)
        monkeypatch.setattr(genus, "_jordan_decomposition", counted_jordan)
        monkeypatch.setattr(block, "func", counted_block)
        cert = build_unbounded_family(239, 1)
        doc = json.loads(json.dumps(certificate_to_json(cert)))
        assert verify_certificate(certificate_from_json(doc))
        assert calls == {"orthogonal_complement": 0, "padic_symbol": 0}
        t0 = cert.ternaries[0]
        assert walked and complemented == [(t0, u) for u in walked]
        # two rows, each taking the symbols at 2 and 239 of 8 blocks
        assert split_ranks == [2] * (2 * 2 * 8)
        assert blocked and len({id(lat) for lat in blocked}) == len(blocked)
        # two genus rows, build's and verify's, each comparing Q_0 first
        assert factored == [239, 239]
        distinct = {id(lat): lat for lat in descended}
        t0_block = Lattice([list(row[:2]) for row in cert.ternaries[0].gram[:2]])
        assert t0_block in distinct.values() and len(descended) > len(distinct)
        assert len(builds) == len(distinct)

    def test_the_genus_row_skips_exactly_the_later_mirrors(self, monkeypatch):
        compared = []
        genus = census.same_genus
        monkeypatch.setattr(census, "same_genus",
                            lambda a, b: compared.append((a, b)) or genus(a, b))
        for p in range(3, 260):
            if isprime(p) and p % 4 == 3:
                cert = build_unbounded_family(p, 1)
                compared.clear()
                census._check_claims(cert)
                # the row compares the blocks Q_0 and Q_j of T_0 and T_j
                q0 = cert.ternaries[0]._block[0]
                want = [(q0, cert.ternaries[j]._block[0])
                        for j in mirror_firsts(cert.forms)[1:]]
                assert compared == want, p

    def test_the_genus_row_refuses_a_compared_ternary_outside_the_genus(self):
        # ((2, 1), (1, 1)) + (-23) is I_2 + (-23): determinant -23 and
        # signature (2, 1), as T_0, but another genus; its flip, taken after
        # it, would be skipped only had it passed.  The row compares blocks,
        # so it must also refuse a ternary that does not split (a nonzero
        # (1, 3) entry) and one whose block is Q_1 but whose last entry is
        # not T_0's: both lie outside T_0's genus, as their determinants say
        cert = build_unbounded_family(23, 1)
        t0, t1 = cert.ternaries[:2]
        outside = Lattice([[2, 1, 0], [1, 1, 0], [0, 0, -23]])
        flipped = Lattice([[2, -1, 0], [-1, 1, 0], [0, 0, -23]])
        unsplit = Lattice([[4, -1, 1], [-1, 6, 0], [1, 0, -1]])
        other_k = t1._block[0].direct_sum(Lattice([[-3]]))
        assert t1._block[0] == Lattice([[4, -1], [-1, 6]]) and unsplit._block is None
        assert genus.same_genus(t0._block[0], other_k._block[0])
        for forged_t in (outside, unsplit, other_k):
            assert not genus.same_genus(t0, forged_t)
        for ternaries in [(t0, outside, flipped), (t0, flipped, outside),
                          (t0, t1, outside), (t0, unsplit, t1), (t0, other_k, t1)]:
            forged = UnboundedFamilyCertificate(**{
                **{name: getattr(cert, name) for name in cert._fields},
                "ternaries": ternaries})
            with pytest.raises(CensusError, match="genus check does not reproduce"):
                census._check_claims(forged)

    @pytest.mark.parametrize("d0", [1, 3, 5])
    def test_the_block_row_agrees_with_the_ternary_row(self, d0):
        # the genus row compares the blocks Q_j of T_j = Q_j + (-d0); on
        # every pair of a family that answers as same_genus of the ternaries
        pairs = 0
        for p in range(3, 2000):
            if isprime(p) and p % 4 == 3:
                ternaries = [form_to_lattice(f).direct_sum(Lattice([[-d0]]))
                             for f in class_group(-p).elements]
                for a, b in itertools.combinations(ternaries, 2):
                    assert (genus.same_genus(a._block[0], b._block[0])
                            == genus.same_genus(a, b)), (p, a, b)
                    pairs += 1
        assert pairs > 20000

    @pytest.mark.parametrize("d0", [1, 3, 5])
    def test_each_family_record_is_the_direct_record(self, d0):
        # _family takes the block of T_j(-4) as the complement of e_3 and
        # mirrors the record of the first member of each mirror pair onto
        # the second; each must equal the public record, whose complement
        # is the kernel basis of orthogonal_complement
        mirrored = 0
        for p in range(3, 2000):
            if isprime(p) and p % 4 == 3:
                forms, ternaries, _, records = census._family(p, d0, 10)
                assert records == tuple(orbit_invariant(t.twist(-4), (0, 0, 1))
                                        for t in ternaries), p
                mirrored += len(forms) - len(mirror_firsts(forms))
        assert mirrored > 1000

    def test_each_gram_is_validated_once_where_it_enters(self, monkeypatch):
        calls = []
        check = Lattice.__init__
        monkeypatch.setattr(Lattice, "__init__",
                            lambda lat, gram: check(lat, gram) or calls.append(lat.gram))
        cert = build_unbounded_family(239, 1)
        doc = json.loads(json.dumps(certificate_to_json(cert)))
        assert verify_certificate(certificate_from_json(doc))
        # the h + 1 = 16 Grams read from the document and one (-d0) per
        # _family call (build and verify); every lattice built from them is
        # trusted
        assert cert.h == 15 and len(calls) == cert.h + 1 + 2
        assert calls.count(((-1,),)) == 2

    @pytest.mark.parametrize("d0", [1, 3])
    def test_built_certificates_pass_the_checker_after_a_round_trip(self, d0):
        # build skips the family comparison, so the full checker must accept
        # everything it returns
        for p in range(3, 200):
            if isprime(p) and p % 4 == 3:
                doc = json.loads(json.dumps(certificate_to_json(
                    build_unbounded_family(p, d0))))
                assert verify_certificate(certificate_from_json(doc)), p

    @pytest.mark.parametrize("p", [p for p in range(3, 100)
                                   if isprime(p) and p % 4 == 3])
    def test_witnesses_cover_the_box_search(self, p):
        # oracle: the general-Gram box search, which the census does not call
        cert = build_unbounded_family(p, 1, height_bound=10)
        t0 = cert.ternaries[0]
        for t, w, alpha in zip(cert.ternaries, cert.isometry_witnesses,
                               cert.classes):
            if indefinite_isometry_search(t, t0, 10).found:
                assert w is not None
            if alpha is not None:
                assert abs(alpha[2]) <= cert.height_bound

    @pytest.mark.parametrize("p", [47, 59, 71])
    def test_walk_reaches_every_class(self, p):
        # at height 10 each of these primes keeps witness gaps
        assert build_unbounded_family(p, 1, height_bound=10).witness_gaps
        cert = build_unbounded_family(p, 1, height_bound=150)
        assert cert.witness_gaps == ()
        assert max(abs(a[2]) for a in cert.classes) <= 150

    def test_orbit_counts_match_class_numbers(self):
        for p in (7, 11, 23):
            cert = build_unbounded_family(p, 1)
            assert len(set(cert.complement_invariants)) == class_group(-p).order


def test_orbit_script_totals_its_rows():
    # the totals row sums the witness gaps of the prime rows: h - found each
    script = Path(__file__).resolve().parents[1] / "scripts" / "unbounded_orbits.py"
    proc = subprocess.run([sys.executable, str(script), "--max-prime", "60"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(Path(census.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr
    *rows, total = proc.stdout.splitlines()[1:]
    found = [row.split()[2].split("/") for row in rows]
    gaps = sum(int(h) - int(f) for f, h in found)
    assert len(rows) == 9 and gaps == 6
    assert total.split()[:3] == ["total", str(gaps), "gaps"]


def test_one_default_height_bound(monkeypatch, capsys):
    # build_unbounded_family, k3 unbounded and the orbit script read their
    # default height bound from k3lat.HEIGHT_BOUND
    assert inspect.signature(build_unbounded_family).parameters["height_bound"].default \
        == HEIGHT_BOUND
    assert build_parser("k3 unbounded").parse_args(["-p", "23"]).height_bound == HEIGHT_BOUND
    path = Path(__file__).resolve().parents[1] / "scripts" / "unbounded_orbits.py"
    spec = importlib.util.spec_from_file_location("unbounded_orbits", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    asked = []

    def refused(p, d0, height_bound):
        asked.append(height_bound)
        raise CensusError("not built")

    monkeypatch.setattr(script, "build_unbounded_family", refused)
    monkeypatch.setattr(sys, "argv", [str(path), "--max-prime", "3"])
    script.main()
    assert asked == [HEIGHT_BOUND] and "skipped: not built" in capsys.readouterr().out
