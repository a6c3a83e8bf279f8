import itertools
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lat.forms import (BinaryForm, FormError, apply_transform, class_group,
                         compose, form_to_lattice, reduce_form, verify_principal_genus)
from k3lat.lattice import LatticeError
from util import (dirichlet_class_number, dirichlet_compose, is_fundamental_discriminant,
                  is_reduced, principal, random_unimodular)


def brute_force_reduce(f, entry_bound=6):
    """Oracle: scan all determinant-1 transforms in a small box for the
    unique reduced representative."""
    hits = []
    r = range(-entry_bound, entry_bound + 1)
    for p, q, s, t in itertools.product(r, r, r, r):
        if p * t - q * s != 1:
            continue
        g = apply_transform(f, ((p, q), (s, t)))
        if is_reduced(g):
            hits.append(g.as_tuple())
    assert hits, "oracle box too small"
    assert len(set(hits)) == 1
    return BinaryForm(*hits[0])


@pytest.mark.parametrize("form,disc", [
    ((1, 1, 6), -23), ((2, 1, 3), -23), ((1, 0, 1), -4),
])
def test_discriminant(form, disc):
    assert BinaryForm(*form).discriminant() == disc


@pytest.mark.parametrize("form,expected", [
    ((1, 1, 6), (1, 1, 6)),
    ((6, 5, 2), (2, -1, 3)),
    ((4, 3, 2), (2, 1, 3)),
])
def test_reduce_against_bruteforce_oracle(form, expected):
    f = BinaryForm(*form)
    assert brute_force_reduce(f).as_tuple() == expected
    reduced, u = reduce_form(f)
    assert reduced.as_tuple() == expected
    assert u[0][0] * u[1][1] - u[0][1] * u[1][0] == 1
    assert apply_transform(f, u) == reduced


def test_refuses_coefficients_that_are_not_integers():
    with pytest.raises(LatticeError, match="integers"):
        BinaryForm(1.5, 1, 6.9)


@pytest.mark.parametrize("fn,arg", [
    (class_group, -23.5), (verify_principal_genus, 23.9),
    (is_fundamental_discriminant, -23.5), (dirichlet_class_number, -23.5),
], ids=["class_group", "verify_principal_genus", "is_fundamental_discriminant",
        "dirichlet_class_number"])
def test_refuses_a_discriminant_that_is_not_an_integer(fn, arg):
    with pytest.raises(LatticeError, match="integers"):
        fn(arg)


def test_reduce_rejects_indefinite():
    with pytest.raises(FormError):
        reduce_form(BinaryForm(1, 5, 1))
    with pytest.raises(FormError):
        reduce_form(BinaryForm(-1, 0, -1))


def test_reduce_idempotent_and_boundary():
    for f in [BinaryForm(2, 2, 3), BinaryForm(3, 3, 3), BinaryForm(2, -1, 2)]:
        r, _ = reduce_form(f)
        assert is_reduced(r)
        assert reduce_form(r)[0] == r
        assert r.b >= 0 or (abs(r.b) < r.a < r.c)


@pytest.mark.parametrize("disc,forms", [
    (-23, [(1, 1, 6), (2, -1, 3), (2, 1, 3)]),
    (-4, [(1, 0, 1)]),
    (-3, [(1, 1, 1)]),
])
def test_class_group_small(disc, forms):
    cl = class_group(disc)
    assert [f.as_tuple() for f in cl.elements] == forms
    assert cl.order == len(forms)
    assert all(is_reduced(f) and math.gcd(*f.as_tuple()) == 1 for f in cl.elements)


def test_class_group_rejects_bad_discriminant():
    with pytest.raises(FormError):
        class_group(-5)
    with pytest.raises(FormError):
        class_group(23)


@pytest.mark.parametrize("f,g,expected", [
    ((1, 1, 6), (2, 1, 3), (2, 1, 3)),     # identity element
    ((2, 1, 3), (2, -1, 3), (1, 1, 6)),    # inverse pair
    ((2, 1, 3), (2, 1, 3), (2, -1, 3)),    # squaring in the order-3 group
])
def test_compose_examples(f, g, expected):
    assert compose(BinaryForm(*f), BinaryForm(*g)).as_tuple() == expected


def test_compose_matches_dirichlet_oracle_on_every_small_class_group():
    pairs = 0
    for disc in range(-600, -2):
        if disc % 4 in (0, 1):
            elems = class_group(disc).elements
            for f, g in itertools.product(elems, repeat=2):
                assert compose(f, g) == dirichlet_compose(f, g), (f, g)
            pairs += len(elems) ** 2
    assert pairs == 20706


def test_compose_matches_dirichlet_oracle_at_large_discriminant():
    elems = class_group(-4000000).elements
    rng = random.Random(19)
    for _ in range(200):
        f, g = rng.choice(elems), rng.choice(elems)
        assert compose(f, g) == dirichlet_compose(f, g), (f, g)


def test_compose_rejects():
    with pytest.raises(FormError):
        compose(BinaryForm(1, 1, 6), BinaryForm(1, 0, 1))
    with pytest.raises(FormError):
        compose(BinaryForm(2, 2, 2), BinaryForm(2, 2, 2))


def test_class_group_axioms_sample():
    for disc in (-23, -47, -71, -84, -95):
        cl = class_group(disc)
        elems = list(cl.elements)
        table = {(a, b): compose(a, b) for a in elems for b in elems}
        e = principal(cl)
        assert e in elems
        for a in elems:
            assert table[(a, e)] == a
            assert any(table[(a, b)] == e for b in elems)
        for a in elems:
            for b in elems:
                assert table[(a, b)] == table[(b, a)]
        for a in elems:
            for b in elems:
                for c in elems:
                    assert compose(table[(a, b)], c) == compose(a, table[(b, c)])


def test_verify_principal_genus():
    assert verify_principal_genus(23)
    assert verify_principal_genus(47)
    with pytest.raises(FormError):
        verify_principal_genus(13)
    with pytest.raises(FormError):
        verify_principal_genus(15)


@pytest.mark.parametrize("form,gram", [
    ((1, 1, 6), ((2, 1), (1, 12))),
    ((2, 1, 3), ((4, 1), (1, 6))),
    ((1, 0, 1), ((2, 0), (0, 2))),
])
def test_form_to_lattice(form, gram):
    lat = form_to_lattice(BinaryForm(*form))
    assert lat.gram == gram
    assert lat.determinant() == -BinaryForm(*form).discriminant()
    assert _form_of(lat).as_tuple() == (2 * form[0], 2 * form[1], 2 * form[2])


def _form_of(lat):
    """The form (g11, 2 g12, g22) that a rank-2 Gram matrix evaluates, built
    unchecked from its entries."""
    g = lat.gram
    return BinaryForm._of(g[0][0], 2 * g[0][1], g[1][1])


def _trusted(f):
    """f is what the public constructor makes of its coefficients."""
    assert f == BinaryForm(*f.as_tuple()), f
    assert all(type(x) is int for x in f.as_tuple()), f
    return f


def test_built_forms_equal_their_checked_construction():
    rng = random.Random(20)
    for d in (-3, -4, -23, -47, -56, -239, -1000):
        for f in class_group(d).elements:
            _trusted(f)
            _trusted(_form_of(form_to_lattice(f)))
            u = random_unimodular(2, rng, special=True)
            g = _trusted(apply_transform(f, ((u[0][0], u[0][1]), (u[1][0], u[1][1]))))
            assert _trusted(reduce_form(g)[0]) == f
            assert _trusted(_form_of(form_to_lattice(g).twist(3))).a == 6 * g.a


@pytest.mark.parametrize("f", [(1, 1, 1), [2, 1, 3], None])
def test_form_to_lattice_refuses_what_is_not_a_form(f):
    with pytest.raises(FormError, match="BinaryForm"):
        form_to_lattice(f)


@pytest.mark.parametrize("call", [
    lambda: reduce_form((1, 1, 1)),
    lambda: compose((1, 1, 6), BinaryForm(1, 1, 6)),
    lambda: compose(BinaryForm(1, 1, 6), (2, 1, 3)),
], ids=["reduce_form", "compose-f", "compose-g"])
def test_form_functions_refuse_what_is_not_a_form(call):
    with pytest.raises(FormError, match="BinaryForm"):
        call()


def test_apply_transform_refuses_entries_that_are_not_integers():
    with pytest.raises(LatticeError):
        apply_transform(BinaryForm(1, 1, 6), ((1.5, 0), (0, 1)))


def test_dirichlet_matches_scan_on_fundamentals():
    for d in range(-1999, -2):
        if not is_fundamental_discriminant(d):
            continue
        assert dirichlet_class_number(d) == class_group(d).order, d


@pytest.mark.parametrize("d", [-12, -16, -27, -75, 5, 0])
def test_dirichlet_rejects_non_fundamental(d):
    with pytest.raises(FormError):
        dirichlet_class_number(d)


@pytest.mark.parametrize("module", ["numpy", "sympy"])
def test_import_does_not_load(module):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, k3lat.cli; "
         f"print(any(m.split('.')[0] == {module!r} for m in sys.modules))"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@given(st.integers(1, 60), st.integers(-40, 40), st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_reduce_is_canonical_under_sl2(a, b, c):
    f = BinaryForm(a, b, c)
    if f.discriminant() >= 0:
        return
    import random
    rng = random.Random(a * 10007 + b * 101 + c)
    r0, _ = reduce_form(f)
    for _ in range(5):
        u = random_unimodular(2, rng, special=True)
        g = apply_transform(f, ((u[0][0], u[0][1]), (u[1][0], u[1][1])))
        assert reduce_form(g)[0] == r0
