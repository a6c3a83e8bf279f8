"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every comparison is exact: there is no tolerance and no floating
point, and the analytic class numbers of criterion 01 come from the finite
class number formula, computed in integers.
"""

import random
import time

from sympy import isprime, nextprime, primefactors

from k3lat.census import build_unbounded_family, fm_partner_count, tau
from k3lat.cm import (CMField, PeriodVector, enumerate_period_embeddings,
                      is_root_of_unity, max_root_of_unity_order,
                      pairing_sigma_sigmabar, twistor_fiber_bound)
from k3lat.enumeration import (embeddings, is_isometric_definite,
                               vectors_of_norm)
from k3lat.forms import (BinaryForm, apply_transform, class_group, compose,
                         form_to_lattice, reduce_form, verify_principal_genus)
from k3lat.genus import same_genus
from k3lat.lattice import Lattice
from util import (box_embeddings, box_vectors_of_norm, change_basis,
                  dirichlet_class_number, period_image_matches, principal,
                  random_nondegenerate, random_positive_definite, random_unimodular,
                  verify_norm_equation)

from fractions import Fraction


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


def test_criterion_01_class_numbers_match_dirichlet():
    start = time.monotonic()
    primes = [p for p in range(3, 500) if isprime(p) and p % 4 == 3]
    for p in primes:
        assert class_group(-p).order == dirichlet_class_number(-p), p
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"{len(primes)} primes, scan == finite class number formula, "
              f"{elapsed:.2f}s")


def test_criterion_02_unbounded_family_certificates():
    times = {}
    for p in (23, 31, 47, 59, 71):
        start = time.monotonic()
        cert = build_unbounded_family(p, 1, height_bound=10)
        times[p] = time.monotonic() - start
        assert times[p] < 30.0
        h_scan = class_group(-p).order
        assert cert.h == h_scan
        assert len(set(cert.complement_invariants)) == h_scan
        assert all(all(row) for row in cert.genus_checks)
        assert cert.minus_two_free
        if p == 23:
            assert cert.witness_gaps == (), "p=23 must carry explicit witnesses"
    detail = ", ".join(f"p={p}:{t:.2f}s" for p, t in times.items())
    report(2, detail)


def test_criterion_03_principal_genus():
    primes = [p for p in range(3, 200) if isprime(p) and p % 4 == 3]
    for p in primes:
        assert verify_principal_genus(p), p
    report(3, f"squares fill Cl(-p) for all {len(primes)} primes below 200")


def test_criterion_04_rank20_example():
    lat = Lattice([[2, 1], [1, 2]]).direct_sum(Lattice([[2]]))
    comp1, _ = lat.orthogonal_complement((1, 0, 0))
    comp3, _ = lat.orthogonal_complement((0, 0, 1))
    assert comp1.discriminant_group() == (2, 6)
    assert comp3.discriminant_group() == (3,)
    assert comp1.discriminant_group() != comp3.discriminant_group()
    vecs = vectors_of_norm(lat, 2)
    assert len(vecs) == 8
    assert vecs == box_vectors_of_norm(lat, 2)
    report(4, "complement groups (2,6) vs (3,), 8 square-2 vectors == box oracle")


def test_criterion_05_fm_partner_counts():
    assert fm_partner_count(12) == 2
    assert fm_partner_count(60) == 4
    assert fm_partner_count(2) == 1
    rng = random.Random(5)
    checked = 0
    while checked < 50:
        d = 2 * rng.randint(2, 900)
        if tau(d) < 1 or d >= 10 ** 6:
            continue
        q = int(nextprime(rng.randint(3, 700)))
        while (d // 2) % q == 0:
            q = int(nextprime(q))
        assert fm_partner_count(d * q) == 2 * fm_partner_count(d)
        assert len(primefactors(d * q // 2)) == tau(d) + 1
        checked += 1
    report(5, "counts 2/4/1 at d=12/60/2; 50 random degree doublings")


def test_criterion_06_twistor_bounds():
    assert twistor_fiber_bound(21) == 132
    assert max_root_of_unity_order(21) == 66
    report(6, "degree-21 bound 132, largest admissible order 66")


def test_criterion_07_cm_oracle_equivalence():
    field = CMField.imaginary_quadratic(3)
    zeta6 = field.element((Fraction(1, 2), Fraction(1, 2)))
    t = Lattice([[2, -1], [-1, 2]])
    pv = PeriodVector(t, (field.one(), zeta6))
    ssb = pairing_sigma_sigmabar(pv)
    roots = len(field.roots_of_unity())
    assert roots == 6
    for d in (2, 4):
        found = enumerate_period_embeddings(pv, d)
        assert len(found) == 12 == 2 * roots
        target = t.direct_sum(Lattice([[d]]))
        assert {pe.embedding.columns for pe in found} == box_embeddings(t, target)
        for pe in found:
            assert period_image_matches(pv, pe)
            assert verify_norm_equation(pe.lam, pe.lam_prime, pe.nu, d, ssb)
            nonzero = [x for x in (pe.lam, pe.lam_prime) if x != field.zero()]
            assert all(is_root_of_unity(x) is not None for x in nonzero)
    assert twistor_fiber_bound(2, roots) == 12
    report(7, "12 embeddings at d=2 and d=4, equal to the box scan, "
              "lambda and nu exact by substitution, bound 2x6 attained")


def test_criterion_08_enumeration_oracle():
    rng = random.Random(8)
    for trial in range(200):
        lat = random_positive_definite(rng.choice([1, 2, 3]), rng, entry_bound=10)
        n = rng.randint(0, 40)
        assert vectors_of_norm(lat, n) == box_vectors_of_norm(lat, n), (lat, n)
    # Gram compatibility of embedding output is revalidated explicitly
    a2 = Lattice([[2, 1], [1, 2]])
    target = a2.direct_sum(Lattice([[4]]))
    for emb in embeddings(a2, target):
        for i in range(2):
            for j in range(2):
                assert target.inner(emb.columns[i], emb.columns[j]) == a2.gram[i][j]
    report(8, "200 random definite lattices agree with the box oracle")


def test_criterion_09_genus_consistency():
    witness_pairs = []
    # definite witnesses: mirror form pairs across several class groups
    for disc in (-23, -31, -47):
        elems = class_group(disc).elements
        for f in elems:
            mirror = BinaryForm(f.a, -f.b, f.c)
            w = is_isometric_definite(form_to_lattice(f), form_to_lattice(mirror))
            assert w is not None
            witness_pairs.append((w.source, w.target))
    # indefinite witnesses from the degree census
    for p in (23, 31):
        cert = build_unbounded_family(p, 1, height_bound=10)
        for j, w in enumerate(cert.isometry_witnesses):
            if w is not None:
                witness_pairs.append((cert.ternaries[j], cert.ternaries[0]))
    # unimodular rebasings are witnesses by construction
    rng = random.Random(9)
    for _ in range(10):
        lat = random_nondegenerate(rng.choice([2, 3]), rng)
        witness_pairs.append((lat, change_basis(lat, random_unimodular(lat.rank, rng))))
    for l1, l2 in witness_pairs:
        assert same_genus(l1, l2)
    # equivalence relation over the full corpus of the suite
    corpus = [l for pair in witness_pairs for l in pair]
    corpus = corpus[:24]
    rel = [[same_genus(x, y) for y in corpus] for x in corpus]
    n = len(corpus)
    for i in range(n):
        assert rel[i][i]
        for j in range(n):
            assert rel[i][j] == rel[j][i]
            for k in range(n):
                if rel[i][j] and rel[j][k]:
                    assert rel[i][k]
    report(9, f"{len(witness_pairs)} witnessed pairs in one genus; "
              f"equivalence relation on {n} lattices")


def test_criterion_10_property_suite():
    rng = random.Random(10)
    # reduce: idempotence and invariance under 100 random SL2 transforms
    sample_forms = list(class_group(-23).elements) + list(class_group(-84).elements)
    sample_forms += [BinaryForm(5, 3, 7), BinaryForm(12, 11, 9)]
    for f in sample_forms:
        r0, u0 = reduce_form(f)
        assert reduce_form(r0)[0] == r0
        assert apply_transform(f, u0) == r0
        for _ in range(100):
            u = random_unimodular(2, rng, special=True)
            g = apply_transform(f, ((u[0][0], u[0][1]), (u[1][0], u[1][1])))
            assert reduce_form(g)[0] == r0
    # class group axioms for every discriminant above -500
    for disc in range(-3, -500, -1):
        if disc % 4 not in (0, 1):
            continue
        cl = class_group(disc)
        elems = list(cl.elements)
        idx = {f: i for i, f in enumerate(elems)}
        table = [[idx[compose(a, b)] for b in elems] for a in elems]
        e = idx[principal(cl)]
        for i in range(len(elems)):
            assert table[i][e] == i and table[e][i] == i
            assert any(table[i][j] == e for j in range(len(elems)))
            for j in range(len(elems)):
                assert table[i][j] == table[j][i]
                for k in range(len(elems)):
                    assert table[table[i][j]][k] == table[i][table[j][k]]
    # lattice invariants under 100 random rebasings
    for _ in range(100):
        lat = random_nondegenerate(rng.choice([2, 3]), rng)
        other = change_basis(lat, random_unimodular(lat.rank, rng))
        assert other.signature() == lat.signature()
        assert abs(other.determinant()) == abs(lat.determinant())
        assert other.discriminant_group() == lat.discriminant_group()
    report(10, "reduction canonical under SL2, group axioms for |D| < 500, "
               "invariants stable under 100 rebasings")
