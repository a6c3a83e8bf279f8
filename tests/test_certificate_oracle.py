"""An oracle for orbit certificates that shares no code with k3lat.

It reads only the JSON document of a certificate and checks its claims
with sympy: each witness W is a unimodular isometry T_j -> T_0, its image
alpha = W e_3 of the (-d0)-generator is a primitive class of square 4 d0 in
the ambient lattice T_0(-4), the forms are the h(-p) reduced primitive forms
of discriminant -p (h from the analytic class number formula), every entry
of T_0(-4) is divisible by 4, so no class has square -2, and the h orbit
records are those of e_3 in T_j(-4), pairwise distinct.
"""

import json
import math

import pytest
from sympy import ZZ, Matrix, jacobi_symbol, primerange
from sympy.matrices.normalforms import smith_normal_form

from k3lat.census import build_unbounded_family, certificate_to_json

# the 29 census primes below 260 at d0 = 1, and every prime p = 3 mod 4 below
# 400 at d0 = 1, 3 and 5, all at the default height bound of 10
FAMILIES = [(p, d0) for d0 in (1, 3, 5) for p in primerange(3, 400) if p % 4 == 3]


def class_number(p):
    """h(-p) for a prime p = 3 mod 4 by Dirichlet's formula: with w the
    number of units, h = -(w / 2p) sum_{a<p} a (a/p), as (-p/a) = (a/p)."""
    w = 6 if p == 3 else 2
    total = sum(a * jacobi_symbol(a, p) for a in range(1, p))
    assert (-w * total) % (2 * p) == 0
    return -w * total // (2 * p)


def invariant_factors(m):
    """The invariant factors > 1 of a square integer matrix, ascending (which
    is their divisibility order), from sympy's Smith normal form."""
    return sorted(x for x in map(abs, smith_normal_form(m, domain=ZZ).diagonal()) if x > 1)


def check_certificate(doc):
    """The claims of one certificate document, checked from its JSON alone."""
    p, d0, h = doc["p"], doc["d0"], doc["h"]
    assert doc["degree"] == 4 * d0
    forms = [tuple(f) for f in doc["forms"]]
    assert len(forms) == h == class_number(p)
    assert len(set(forms)) == h
    for a, b, c in forms:
        assert b * b - 4 * a * c == -p
        assert math.gcd(a, b, c) == 1
        assert abs(b) <= a <= c and (b >= 0 or (abs(b) != a and a != c))
    ternaries = [Matrix(t) for t in doc["ternaries"]]
    for (a, b, c), t in zip(forms, ternaries):
        assert t == Matrix([[2 * a, b, 0], [b, 2 * c, 0], [0, 0, -d0]])
    t0 = ternaries[0]
    ambient = Matrix(doc["ns_lattice"])
    assert ambient == -4 * t0
    assert all(x % 4 == 0 for x in ambient)
    witnesses, classes = doc["isometry_witnesses"], doc["classes"]
    assert len(witnesses) == len(classes) == h
    assert doc["witness_gaps"] == [j for j, w in enumerate(witnesses) if w is None]
    for j, (cols, alpha) in enumerate(zip(witnesses, classes)):
        if cols is None:
            assert alpha is None
            continue
        w = Matrix(cols).T  # the columns are the images of the basis of T_j
        assert w.T * t0 * w == ternaries[j], (p, j)
        assert w.det() in (1, -1), (p, j)
        alpha_vec = w * Matrix([0, 0, 1])
        assert list(alpha_vec) == alpha, (p, j)
        assert math.gcd(*alpha) == 1
        assert (alpha_vec.T * ambient * alpha_vec)[0, 0] == 4 * d0, (p, j)
    # the record of e_3 in T_j(-4): e_3^perp is Q_j(-4), whose negative has
    # the form (8a, 8b, 8c), reduced as (a, b, c) is
    records = doc["complement_invariants"]
    assert len(records) == h
    for (a, b, c), t, record in zip(forms, ternaries, records):
        assert record["norm"] == 4 * d0
        assert record["complement_class"] == [8 * a, 8 * b, 8 * c]
        assert record["complement_disc"] == invariant_factors(
            Matrix([[8 * a, 4 * b], [4 * b, 8 * c]]))
        assert record["ambient_disc"] == invariant_factors(-4 * t)
    assert len({json.dumps(r, sort_keys=True) for r in records}) == h


@pytest.mark.parametrize("p, d0", FAMILIES, ids=[f"{p}-{d0}" for p, d0 in FAMILIES])
def test_certificate_passes_the_independent_oracle(p, d0):
    check_certificate(certificate_to_json(build_unbounded_family(p, d0, height_bound=10)))


def reduced_forms(d):
    """The reduced primitive positive forms of discriminant d < 0, by a scan
    of |b| <= a <= c with b >= 0 when |b| = a or a = c."""
    out = []
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            c, r = divmod(b * b - d, 4 * a)
            if r == 0 and c >= a and not (b < 0 and a == c) and math.gcd(a, b, c) == 1:
                out.append((a, b, c))
        a += 1
    return out


def test_class_number_formula_counts_the_reduced_forms():
    for p in primerange(3, 400):
        if p % 4 == 3:
            assert class_number(p) == len(reduced_forms(-p)), p


@pytest.mark.parametrize("field, value", [
    ("isometry_witnesses", lambda doc: [doc["isometry_witnesses"][1],
                                        doc["isometry_witnesses"][0],
                                        *doc["isometry_witnesses"][2:]]),
    ("forms", lambda doc: doc["forms"][:-1]),
    ("ns_lattice", lambda doc: [[x // 2 for x in row] for row in doc["ns_lattice"]]),
    ("classes", lambda doc: [None, *doc["classes"][1:]]),
    # the mirror pair's records swapped: their unoriented records agree
    ("complement_invariants", lambda doc: [doc["complement_invariants"][0],
                                           doc["complement_invariants"][2],
                                           doc["complement_invariants"][1]]),
])
def test_oracle_refuses_a_tampered_certificate(field, value):
    doc = certificate_to_json(build_unbounded_family(23, 1))
    doc[field] = value(doc)
    with pytest.raises(AssertionError):
        check_certificate(doc)
