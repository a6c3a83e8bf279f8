"""An oracle for orbit certificates that shares no code with k3lat.

It reads only the JSON document of a certificate and checks its claims
with sympy: each witness W is a unimodular isometry T_j -> T_0, its image
alpha = W e_3 of the (-d0)-generator is a primitive class of square 4 d0 in
the ambient lattice T_0(-4), the forms are the h(-p) reduced primitive forms
of discriminant -p (h from the analytic class number formula), the ternaries
T_j = Q_j + (-d0) share one genus, every entry of T_0(-4) is divisible by 4,
so no class has square -2, and the h orbit records are those of e_3 in
T_j(-4), pairwise distinct.

The genus claim is proven from the even blocks Q_j = ((2a, b), (b, 2c)):
even lattices of equal signature with isomorphic discriminant forms on
L*/L lie in one genus (Nikulin 1980, Cor. 1.9.4), and adding the same
(-d0) to each keeps them in one genus.
"""

import itertools
import json
import math

import pytest
from sympy import ZZ, Matrix, jacobi_symbol, primefactors, primerange
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


def discriminant_form(q):
    """The discriminant form of an even nondegenerate Gram matrix q, as a map
    from the elements of L*/L to their squares mod 2.

    With D = |det q|, an element y = q^-1 x of L* is kept as the integer
    vector D y reduced mod D, and its square y.y = (Dy)^T q (Dy) / D^2 as
    an integer mod 2 D^2.  The group is the closure under addition of the
    columns of the adjugate, +-D q^-1; its order must be D."""
    n, big = q.rows, abs(int(q.det()))
    gens = [tuple(int(x) % big for x in q.adjugate().col(i)) for i in range(n)]
    zero = (0,) * n
    seen, todo = {zero}, [zero]
    while todo:
        y = todo.pop()
        for g in gens:
            z = tuple((u + v) % big for u, v in zip(y, g))
            if z not in seen:
                seen.add(z)
                todo.append(z)
    assert len(seen) == big
    qv = [[int(q[i, j]) for j in range(n)] for i in range(n)]
    return {y: sum(y[i] * qv[i][j] * y[j] for i in range(n) for j in range(n)) % (2 * big * big)
            for y in seen}


def isomorphic_discriminant_forms(a, b):
    """Whether two discriminant forms (discriminant_form) are isomorphic:
    some assignment of images to a generating set of the first group, each
    image of the same square, extends additively to a well-defined,
    injective map that keeps every square.  The squares determine the
    bilinear form, so such a map is an isometry."""
    if len(a) != len(b):
        return False
    big = len(a)
    zero_a, zero_b = (0,) * len(next(iter(a))), (0,) * len(next(iter(b)))

    def add(y, z):
        return tuple((u + v) % big for u, v in zip(y, z))

    # a generating set of the first group: each element not yet generated
    gens, span = [], {zero_a}
    for y in sorted(a):
        if y not in span:
            gens.append(y)
            span = closure(span, y, add)

    def extends(images):
        phi, todo = {zero_a: zero_b}, [zero_a]
        while todo:
            y = todo.pop()
            for g, img in zip(gens, images):
                z, w = add(y, g), add(phi[y], img)
                if z not in phi:
                    phi[z] = w
                    todo.append(z)
                elif phi[z] != w:
                    return False
        return (len(set(phi.values())) == len(phi) == big
                and all(a[y] == b[w] for y, w in phi.items()))

    choices = [[w for w in b if b[w] == a[g]] for g in gens]
    return any(extends(images) for images in itertools.product(*choices))


def closure(span, y, add):
    """The subgroup generated by span and y, span a subgroup."""
    out, multiple = set(span), y
    while multiple not in span:
        out |= {add(s, multiple) for s in span}
        multiple = add(multiple, y)
    return out


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
    # the all-true genus claim, proven: the positive definite even blocks
    # Q_j have isomorphic discriminant forms, so the Q_j share a genus
    # (Nikulin, Cor. 1.9.4), and so do the T_j = Q_j + (-d0)
    assert doc["genus_checks"] == [[True] * h] * h
    blocks = [Matrix([[2 * a, b], [b, 2 * c]]) for a, b, c in forms]
    assert all(q.is_positive_definite for q in blocks)
    first = discriminant_form(blocks[0])
    for j, q in enumerate(blocks[1:], 1):
        assert isomorphic_discriminant_forms(first, discriminant_form(q)), (p, j)
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


def genus_characters(form, d):
    """The genus characters (n/l) of a form of odd discriminant d < 0, for
    the primes l | d and a represented n prime to d (Gauss): forms of
    discriminant d lie in one genus exactly when these agree."""
    a, b, c = form
    n = next(v for x in range(1, 50) for y in range(50)
             if math.gcd(v := a * x * x + b * x * y + c * y * y, d) == 1)
    return tuple(jacobi_symbol(n, ell) for ell in primefactors(d))


@pytest.mark.parametrize("d", [-15, -23, -35, -39, -51, -55, -87, -95, -195])
def test_discriminant_forms_tell_genera_apart(d):
    # forms of discriminant d, whose genera the characters name, against the
    # oracle's genus test on the even blocks ((2a, b), (b, 2c))
    forms = reduced_forms(d)
    discs = [discriminant_form(Matrix([[2 * a, b], [b, 2 * c]])) for a, b, c in forms]
    for f, x in zip(forms, discs):
        for g, y in zip(forms, discs):
            same = genus_characters(f, d) == genus_characters(g, d)
            assert isomorphic_discriminant_forms(x, y) == same, (f, g)
    if len(primefactors(d)) > 1:
        assert len({genus_characters(f, d) for f in forms}) > 1


def test_discriminant_forms_of_other_groups():
    def iso(q1, q2):
        return isomorphic_discriminant_forms(discriminant_form(Matrix(q1)),
                                             discriminant_form(Matrix(q2)))
    a1a1, a3 = [[2, 0], [0, 2]], [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    # (Z/2)^2 against Z/4, and U(2) (squares 0, 0, 1) against A_1 + A_1(-1)
    assert not iso(a1a1, [[4]])
    assert not iso([[0, 2], [2, 0]], [[2, 0], [0, -2]])
    # Z/4 with square 3/4 against 1/4; A_1 + A_1 and A_3 in another basis
    assert not iso(a3, [[4]])
    assert iso(a1a1, [[4, 2], [2, 2]])
    assert iso(a3, [[2, 1, 0], [1, 2, 1], [0, 1, 2]])


@pytest.mark.parametrize("field, value", [
    # one comparison claimed false
    ("genus_checks", lambda doc: [[j != 1 for j in range(len(row))] if i == 0 else row
                                  for i, row in enumerate(doc["genus_checks"])]),
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
