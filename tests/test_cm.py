import collections
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from sympy import (I, Poly, Rational, Symbol, cyclotomic_poly, exp,
                   minimal_polynomial, pi, real_roots)

from k3lat import arith, cm
from k3lat.cli import run
from k3lat.cm import (_CYCLOTOMIC, CMElement, CMError, CMField, PeriodVector,
                      _totally_nonneg, enumerate_bounded_integers, enumerate_period_embeddings,
                      is_root_of_unity, max_root_of_unity_order,
                      pairing_sigma_sigmabar, solve_lambda, twistor_fiber_bound)
from k3lat.enumeration import EmbeddingMatrix, vectors_of_norm
from k3lat.forms import class_group, form_to_lattice
from k3lat.lattice import Lattice
from util import (box_embeddings, cm_field_trace_form, field_period_tables,
                  field_solve_lambda, is_integral, lazy_gram_compatible,
                  min_poly_totally_nonneg, period_image_matches, period_refusal,
                  root_of_unity_order, scanned_max_root_of_unity_order,
                  verify_norm_equation)

GAUSS = CMField.imaginary_quadratic(1)
EISEN = CMField.imaginary_quadratic(3)
T_HEX = Lattice([[2, -1], [-1, 2]])


def gen(field):
    """The generator of the field's power basis, by its coordinates."""
    return field.element([int(i == 1) for i in range(field.degree)])


def power(x, k):
    """x^k for k >= 0, by k multiplications."""
    out = x.field.one()
    for _ in range(k):
        out = out * x
    return out


def zeta6():
    return EISEN.element((Fraction(1, 2), Fraction(1, 2)))


def hex_period():
    return PeriodVector(T_HEX, (EISEN.one(), zeta6()))


class TestFieldArithmetic:
    def test_constructor_validation(self):
        with pytest.raises(CMError):
            CMField.imaginary_quadratic(4)       # not squarefree
        with pytest.raises(CMError):
            CMField((2, 0, 1, 0, 0, 1), (0, -1, 0, 0, 0), ())  # degree 5
        with pytest.raises(CMError):
            CMField((-2, 0, 1), (Fraction(0), Fraction(-1)),
                    ((1, 0), (0, 1)))            # real quadratic field

    def test_omega_is_integral_cube_root(self):
        omega = EISEN.element((Fraction(-1, 2), Fraction(1, 2)))
        assert is_integral(omega) and omega in EISEN.roots_of_unity()
        assert power(omega, 3) == EISEN.one()
        assert omega * omega.conjugate() == EISEN.one()
        assert omega.conjugate() == omega * omega

    def test_sqrt_minus3_not_half_integral(self):
        theta = gen(EISEN)
        assert is_integral(theta)
        assert not is_integral(theta * EISEN.rational(Fraction(1, 2)))

    def test_inverse_and_division(self):
        x = GAUSS.element((3, 2))
        assert x * x.inverse() == GAUSS.one()
        with pytest.raises(CMError, match="division by zero"):
            GAUSS.zero().inverse()

    def test_cyclotomic_degree4(self):
        z12 = CMField.cyclotomic(12)
        z = gen(z12)
        assert power(z, 12) == z12.one() and power(z, 6) != z12.one()
        assert z * z.conjugate() == z12.one()
        i = power(z, 3)
        assert i * i == z12.rational(-1)

    def test_zeta8_square_minpoly(self):
        z8 = CMField.cyclotomic(8)
        sq = gen(z8) * gen(z8)
        assert sq * sq == z8.rational(-1)


# Q(i, sqrt 2) = Q(theta), theta = (2 + 2i) + (1 + 2i) sqrt 2, on the power
# basis; the images of theta under complex conjugation and under the
# automorphism sqrt 2 -> -sqrt 2, which fixes i
_QI_SQRT2 = (36, -48, 44, -8, 1)
_QI_SQRT2_CONJ = (Fraction(6, 5), Fraction(-16, 15), Fraction(1, 15), Fraction(-1, 30))
_QI_SQRT2_TAU = (8, Fraction(-22, 3), Fraction(4, 3), Fraction(-1, 6))
_POWER_BASIS_2 = ((1, 0), (0, 1))
_POWER_BASIS_4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))

# presentations the constructors do not build, with the first claim of the
# field oracle that each breaks (None: the oracle is not run).  In order:
# conjugation i -> 1; zeta_5 -> zeta_5^2 of order 4; the identity; sqrt 2 ->
# -sqrt 2, under which theta * tau(theta) = 6 is totally positive but T_K has
# signature (2, 2); a basis missing i; a basis with i / 2, whose square is
# -1 / 4; sqrt 2 -> -sqrt 2; theta -> -theta with theta^2 = 1 +- sqrt 2, so
# that +-sqrt(1 + sqrt 2) are real; theta = sqrt 2 + sqrt 3 -> 1 / theta =
# sqrt 3 - sqrt 2; Q(zeta_8) by another generator, with its complex
# conjugation (sympy's round_two fails on this polynomial); Z[2i], the
# order of index 2 in Z[i], on x^2 + 4
_FOREIGN_PRESENTATIONS = {
    "fixes-min-poly": (((1, 0, 1), (1, 0), _POWER_BASIS_2), "not a root"),
    "involution": ((_CYCLOTOMIC[5], (0, 0, 1, 0), _POWER_BASIS_4), "not an involution"),
    "nontrivial": (((1, 0, 1), (0, 1), _POWER_BASIS_2), "the identity"),
    "complex-conjugation": ((_QI_SQRT2, _QI_SQRT2_TAU, _POWER_BASIS_4), "positive definite"),
    "contains-order": (((1, 0, 1), (0, -1), ((1, 0), (0, 2))), "ring of integers"),
    "closed": (((1, 0, 1), (0, -1), ((1, 0), (0, Fraction(1, 2)))), "ring of integers"),
    "real-quadratic": (((-2, 0, 1), (0, -1), _POWER_BASIS_2), "positive definite"),
    "two-real-embeddings": (((-1, 0, -2, 0, 1), (0, -1, 0, 0), _POWER_BASIS_4),
                            "positive definite"),
    "totally-real": (((1, 0, -10, 0, 1), (0, 10, 0, -1), _POWER_BASIS_4), "positive definite"),
    "q-i-sqrt2": ((_QI_SQRT2, _QI_SQRT2_CONJ, _POWER_BASIS_4), None),
    "z-2i": (((4, 0, 1), (0, -1), _POWER_BASIS_2), "ring of integers"),
}


@pytest.mark.parametrize("args, claim", _FOREIGN_PRESENTATIONS.values(),
                         ids=_FOREIGN_PRESENTATIONS.keys())
def test_only_the_constructors_presentations_are_taken(args, claim):
    with pytest.raises(CMError, match="cyclotomic.*imaginary_quadratic"):
        CMField(*args)
    if claim is not None:
        with pytest.raises(AssertionError, match=claim):
            cm_field_trace_form(*args)


_ORACLE_FIELDS = {**{f"zeta{k}": (CMField.cyclotomic, k) for k in sorted(_CYCLOTOMIC)},
                  **{f"sqrt-{m}": (CMField.imaginary_quadratic, m)
                     for m in range(1, 301) if arith.is_squarefree(m)}}


@pytest.mark.parametrize("make, arg", _ORACLE_FIELDS.values(), ids=_ORACLE_FIELDS.keys())
def test_constructed_fields_pass_the_field_oracle(make, arg):
    # every field the CLI builds from --cyclotomic, and from --disc m <= 300
    field = make(arg)
    fields = (field.min_poly, field.conj_gen, field.integral_basis)
    assert cm_field_trace_form(*fields) == [list(row) for row in field._trace_lattice.gram]
    assert CMField(*fields) == field


def test_the_two_constructors_agree_on_the_gaussian_field():
    assert CMField.imaginary_quadratic(1) == CMField.cyclotomic(4)


@pytest.mark.parametrize("m", [2, 3, 15, 299, 2 ** 61 - 1, 1000003 * 1000033, 4, 12])
def test_imaginary_quadratic_factors_m_once(m, monkeypatch):
    # the constructor decides squarefreeness; m = 1 is Q(zeta_4) and factors
    # nothing
    squarefree, calls, factor = arith.is_squarefree(m), [], arith.factor
    monkeypatch.setattr(arith, "factor", lambda n: calls.append(n) or factor(n))
    if squarefree:
        assert CMField.imaginary_quadratic(m).min_poly == (m, 0, 1)
    else:
        with pytest.raises(CMError, match="squarefree"):
            CMField.imaginary_quadratic(m)
    assert calls == [m]


def _sympy_totally_nonneg(y: CMElement, k: int) -> bool:
    # y = sum c_i zeta_k^i; every embedding is real and >= 0 exactly when
    # every root of the minimal polynomial is, and sympy isolates them exactly
    x = Symbol("x")
    zeta = exp(2 * pi * I / k)
    value = sum(Rational(c.numerator, c.denominator) * zeta ** i
                for i, c in enumerate(y.coords))
    mp = Poly(minimal_polynomial(value, x), x)
    roots = real_roots(mp)
    return len(roots) == mp.degree() and all(r >= 0 for r in roots)


@pytest.mark.parametrize("k", [5, 8])
@pytest.mark.parametrize("of_trace,expected", [
    (lambda t: t, False), (lambda t: t + 1, False), (lambda t: t * t, True),
    (lambda t: t + 2, True), (lambda t: -t - 2, False)],
    ids=["trace", "one-plus-trace", "trace-squared", "two-plus-trace",
         "minus-two-minus-trace"])
def test_totally_nonneg_on_real_quadratic_subfields(k, of_trace, expected):
    # t = zeta + zetabar generates the real quadratic subfield of Q(zeta_k),
    # with conjugates (-1 +- sqrt 5) / 2 for k = 5 and +- sqrt 2 for k = 8;
    # -2 - t has both conjugates negative
    field = CMField.cyclotomic(k)
    y = of_trace(gen(field) + gen(field).conjugate())
    assert _totally_nonneg(y) is expected
    assert _sympy_totally_nonneg(y, k) is expected


_FIELDS = {**{f"zeta{k}": CMField.cyclotomic(k) for k in sorted(_CYCLOTOMIC)},
           **{f"sqrt-{m}": CMField.imaginary_quadratic(m)
              for m in (1, 2, 3, 5, 7, 11, 15, 19, 10 ** 6 + 3)}}


@pytest.mark.parametrize("field", _FIELDS.values(), ids=_FIELDS.keys())
def test_totally_nonneg_matches_the_minimal_polynomial(field):
    # self-conjugate y from a box of integral x: x + xbar, x xbar, x xbar - r
    # and (x + xbar)^2 - r for rationals r, and rationals; the shifts make
    # y = 0 and embeddings of either sign
    radius = 2 if field.degree == 2 else 1
    shifts = [field.rational(r) for r in (1, 2, Fraction(5, 2), 5)]
    ys = [field.rational(r) for r in (-1, 0, Fraction(1, 3), 7)]
    for z in itertools.product(range(-radius, radius + 1), repeat=field.degree):
        x = field.from_integral(z)
        t, norm = x + x.conjugate(), x * x.conjugate()
        ys += [t, norm, *(norm - r for r in shifts), *(t * t - r for r in shifts)]
    decisions = {(y, strict): _totally_nonneg(y, strict) for y in ys for strict in (False, True)}
    wrong = [key for key, got in decisions.items() if got != min_poly_totally_nonneg(*key)]
    assert not wrong, wrong
    assert set(decisions.values()) == {False, True}


class TestPolynomialChecks:
    @pytest.mark.parametrize("k", sorted(_CYCLOTOMIC))
    def test_cyclotomic_table(self, k):
        x = Symbol("x")
        coeffs = Poly(cyclotomic_poly(k, x), x).all_coeffs()
        assert _CYCLOTOMIC[k] == tuple(int(c) for c in reversed(coeffs))

    @pytest.mark.parametrize("k", [-5, 0, 1, 2, 7, 9, 16, 10 ** 30])
    def test_cyclotomic_rejects_other_degrees(self, k):
        with pytest.raises(CMError, match="degree 2 or 4"):
            CMField.cyclotomic(k)


@pytest.mark.parametrize("call", [
    lambda: CMField.imaginary_quadratic(3.9),
    lambda: CMField.cyclotomic(4.5),
    lambda: enumerate_bounded_integers(EISEN, 1.7),
    lambda: CMField((3.5, 0, 1), (0, -1), ((1, 0), (0, 1))),
    lambda: max_root_of_unity_order(2.5),
    lambda: twistor_fiber_bound(True),
    lambda: twistor_fiber_bound(2, 2.5),
    lambda: enumerate_period_embeddings(hex_period(), 2.5),
    lambda: enumerate_period_embeddings(hex_period(), 2, overlattice_index=1.5),
    lambda: CMField((3, 0, 1), (0.0, -1.0), ((1.0, 0), (0.5, 0.5))),
    lambda: CMField((3, 0, 1), (0, -1), ((1, 0), (0.5, Fraction(1, 2)))),
    lambda: GAUSS.element((0.1, 1)),
    lambda: GAUSS.element((True, 0)),
    lambda: GAUSS.element(("1/2", 0)),
    lambda: GAUSS.rational(0.5),
    lambda: GAUSS.from_integral((0.5, 0)),
    lambda: GAUSS.from_integral((Fraction(1, 2), 0)),
    lambda: GAUSS.from_integral((True, 0)),
], ids=["imaginary-quadratic", "cyclotomic", "bounded-integers", "min-poly",
        "root-order", "fiber-bound", "fiber-bound-roots", "period-d",
        "overlattice-index", "field-floats", "basis-float", "element-float",
        "element-bool", "element-string", "rational", "from-integral",
        "from-integral-fraction", "from-integral-bool"])
def test_refuses_arguments_that_are_not_integers(call):
    # int() would truncate most of them, to Q(sqrt(-3)), Q(zeta_4), bound 1,
    # ...; the root-of-unity count would give the bound 5.0.  Coordinates may
    # be Fractions too, but Fraction() would take a float at its binary value
    # (0.1 as 3602879701896397/36028797018963968) and build Q(sqrt(-3)) from
    # the field-floats case.  Integral-basis coordinates are integers only:
    # Fraction(1, 2) would give the non-integral 1/2, and True the element 1
    with pytest.raises(CMError, match="integers"):
        call()


def test_coordinates_come_out_as_fractions():
    x = GAUSS.element((1, Fraction(1, 2)))
    assert x.coords == (1, Fraction(1, 2))
    assert all(type(c) is Fraction for c in x.coords + GAUSS.rational(3).coords)
    field = CMField((3, 0, 1), (0, -1), ((1, 0), (Fraction(1, 2), Fraction(1, 2))))
    assert field == EISEN and type(field.conj_gen[0]) is Fraction


@pytest.mark.parametrize("field", _FIELDS.values(), ids=_FIELDS.keys())
def test_field_tables_are_integral_and_elements_stay_fractions(field):
    # the reduction table and the powers of conjugation hold ints, so period
    # tables multiply integers; elements made from them still hold Fractions
    assert all(type(t) is int for row in (*field._red, *field._conj_pows) for t in row)
    x = gen(field)
    for y in (x * x, x.conjugate(), x.inverse(), x * x.conjugate(), x * x * x, field.one()):
        assert all(type(c) is Fraction for c in y.coords)


class TestBoundedIntegers:
    def test_gaussian_unit_disk(self):
        got = enumerate_bounded_integers(GAUSS, 1)
        assert len(got) == 5
        assert GAUSS.zero() in got and gen(GAUSS) in got

    def test_eisenstein_unit_disk(self):
        got = enumerate_bounded_integers(EISEN, 1)
        assert len(got) == 7

    def test_zero_bound(self):
        assert enumerate_bounded_integers(EISEN, 0) == [EISEN.zero()]

    def test_closed_under_negation_and_conjugation(self):
        got = enumerate_bounded_integers(EISEN, 2)
        as_set = set(got)
        for x in got:
            assert -x in as_set
            assert x.conjugate() in as_set
            assert is_integral(x)


class TestRootsOfUnity:
    @pytest.mark.parametrize("coords,order", [
        ((1, 0), 1), ((-1, 0), 2), ((Fraction(-1, 2), Fraction(1, 2)), 3),
        ((Fraction(1, 2), Fraction(1, 2)), 6), ((2, 0), None), ((0, 1), None),
    ])
    def test_eisenstein_orders(self, coords, order):
        assert is_root_of_unity(EISEN.element(coords)) == order

    def test_gaussian_i(self):
        assert is_root_of_unity(gen(GAUSS)) == 4

    @pytest.mark.parametrize("field,count", [
        *((CMField.cyclotomic(k), k if k % 2 == 0 else 2 * k) for k in sorted(_CYCLOTOMIC)),
        *((CMField.imaginary_quadratic(m), {1: 4, 3: 6}.get(m, 2))
          for m in (1, 2, 3, 5, 7, 11, 15, 19, 10 ** 6 + 3)),
    ], ids=[f"zeta{k}" for k in sorted(_CYCLOTOMIC)]
        + [f"sqrt-{m}" for m in (1, 2, 3, 5, 7, 11, 15, 19, 10 ** 6 + 3)])
    def test_against_powering_a_box(self, field, count):
        # oracle: every element of a small integral-coordinate box whose
        # power x^m is 1 for some m <= 24; the known count of roots shows
        # the box holds them all
        n = field.degree
        radius = 2 if n == 2 else 1
        found = []
        for z in itertools.product(range(-radius, radius + 1), repeat=n):
            x = power = field.from_integral(z)
            for _ in range(24):
                if power == field.one():
                    found.append(x)
                    break
                power = power * x
        got = field.roots_of_unity()
        assert got == sorted(found, key=lambda x: x.coords)
        assert len(got) == count

    def test_counts(self):
        assert len(EISEN.roots_of_unity()) == 6
        assert len(GAUSS.roots_of_unity()) == 4
        assert len(CMField.cyclotomic(12).roots_of_unity()) == 12
        assert len(CMField.cyclotomic(5).roots_of_unity()) == 10

    def test_max_orders(self):
        assert max_root_of_unity_order(2) == 6
        assert max_root_of_unity_order(4) == 12
        assert max_root_of_unity_order(21) == 66

    def test_max_orders_match_one_totient_per_order(self):
        assert [max_root_of_unity_order(d) for d in range(1, 22)] == \
            [scanned_max_root_of_unity_order(d) for d in range(1, 22)]

    def test_fiber_bound(self):
        assert twistor_fiber_bound(21) == 132
        assert twistor_fiber_bound(2, 6) == 12
        with pytest.raises(CMError):
            twistor_fiber_bound(22)


_ROOT_FIELDS = {name: field for name, field in _FIELDS.items() if name != "sqrt-1000003"}


def _root_grid(field):
    """Power coordinates in (1/2)Z and [-2, 2], at most two of them not integers."""
    halves = [Fraction(k, 2) for k in range(-4, 5)]
    return [c for c in itertools.product(halves, repeat=field.degree)
            if sum(x.denominator == 2 for x in c) <= 2]


def test_root_orders_match_the_integrality_oracle():
    # the full grid in process, and through cm roots --element --json each
    # root in it and 10 seeded other elements per field
    rng, total = random.Random(3939), 0
    for name, field in _ROOT_FIELDS.items():
        grid = _root_grid(field)
        total += len(grid)
        want = {c: root_of_unity_order(field.element(c)) for c in grid}
        assert {c: is_root_of_unity(field.element(c)) for c in grid} == want, name
        roots = [c for c in grid if want[c] is not None]
        assert len(roots) == len(field.roots_of_unity()), name
        flag = ["--cyclotomic", name[4:]] if name.startswith("zeta") else ["--disc", name[5:]]
        others = rng.sample(grid, 10)
        assert any(not is_integral(field.element(c)) for c in others), name
        for c in roots + others:
            res = run(["cm", "roots", *flag, f"--element={','.join(map(str, c))}", "--json"])
            assert res.payload["result"] == {"element": list(map(str, c)), "order": want[c]}
    assert total == 20991


class TestPeriodVector:
    def test_hex_pairing_is_three(self):
        assert pairing_sigma_sigmabar(hex_period()) == EISEN.rational(3)

    def test_scaling_is_quadratic(self):
        c = Fraction(2, 5)
        pv = PeriodVector(T_HEX, (EISEN.rational(c), EISEN.rational(c) * zeta6()))
        assert pairing_sigma_sigmabar(pv) == EISEN.rational(3 * c * c)

    def test_rational_period_rejected(self):
        with pytest.raises(CMError):
            PeriodVector(T_HEX, (EISEN.one(), EISEN.rational(2)))
        # sigma = 2 gamma_1 is rational and isotropic on the hyperbolic
        # plane, so (sigma.sigmabar) = sigma.sigma = 0
        with pytest.raises(CMError, match="totally positive"):
            PeriodVector(Lattice([[0, 1], [1, 0]]), (EISEN.rational(2), EISEN.zero()))

    def test_non_isotropic_rejected(self):
        with pytest.raises(CMError, match="not isotropic"):
            PeriodVector(Lattice([[2, 0], [0, 2]]), (EISEN.one(), zeta6()))


class TestSolveLambda:
    def test_identity_embedding(self):
        pv = hex_period()
        tgt = T_HEX.direct_sum(Lattice([[2]]))
        ident = EmbeddingMatrix(T_HEX, tgt, ((1, 0, 0), (0, 1, 0)))
        lam, lam_p, nu = solve_lambda(pv, ident)
        assert lam == EISEN.one() and lam_p == EISEN.zero() and nu == EISEN.zero()

    def test_negated_identity(self):
        pv = hex_period()
        tgt = T_HEX.direct_sum(Lattice([[2]]))
        neg = EmbeddingMatrix(T_HEX, tgt, ((-1, 0, 0), (0, -1, 0)))
        lam, _, _ = solve_lambda(pv, neg)
        assert lam == EISEN.rational(-1)

    def test_order_six_rotation(self):
        pv = hex_period()
        tgt = T_HEX.direct_sum(Lattice([[2]]))
        rot = EmbeddingMatrix(T_HEX, tgt, ((1, 1, 0), (-1, 0, 0)))
        lam, lam_p, nu = solve_lambda(pv, rot)
        assert is_root_of_unity(lam) == 6
        assert lam_p == EISEN.zero() and nu == EISEN.zero()

    def test_norm_equation_examples(self):
        ssb = pairing_sigma_sigmabar(hex_period())
        one, zero = EISEN.one(), EISEN.zero()
        assert verify_norm_equation(one, zero, zero, 2, ssb)
        assert verify_norm_equation(zero, one, zero, 2, ssb)
        assert not verify_norm_equation(one, one, zero, 2, ssb)


class TestInternedResults:
    def test_a_reused_period_gives_the_results_of_fresh_ones(self):
        shared, values = hex_period(), set()
        for index in (1, 2, 4):
            for d in (2, 4, 6):
                found = enumerate_period_embeddings(shared, d, overlattice_index=index)
                assert found == enumerate_period_embeddings(
                    hex_period(), d, overlattice_index=index)
                for pe in found:
                    solved = (pe.lam, pe.lam_prime, pe.nu)
                    assert solved == field_solve_lambda(shared, pe.embedding)
                    values.update(solved)
                assert len(shared._tables._elements) <= len(values)

    def test_one_entry_per_distinct_value_on_the_benchmark_cases(self):
        pv, values = hex_period(), set()
        for index, d in [(1, 2), (1, 4), (1, 6), (1, 8), (2, 2)]:
            for pe in enumerate_period_embeddings(pv, d, overlattice_index=index):
                values.update((pe.lam, pe.lam_prime, pe.nu))
            assert len(pv._tables._elements) <= len(values)
        assert len(values) == 19


def assert_matches_box_oracle(pv, d, index=1):
    """The enumeration equals the box-scan embedding list, and every entry's
    lambda, lambda' and nu pass substitution and the norm equation."""
    found = enumerate_period_embeddings(pv, d, overlattice_index=index)
    t = pv.lattice
    source = t.twist(index * index)
    target = t.direct_sum(Lattice([[d]]))
    assert {pe.embedding.columns for pe in found} == box_embeddings(source, target)
    ssb = pairing_sigma_sigmabar(pv)
    for pe in found:
        assert period_image_matches(pv, pe)
        k = pv.field.rational(Fraction(1, index))
        assert verify_norm_equation(pe.lam * k, pe.lam_prime * k, pe.nu * k, d, ssb)
    return found


def _squarefree_split(n):
    """(f, m) with n = f^2 m and m squarefree."""
    f = max(k for k in range(1, math.isqrt(n) + 1) if n % (k * k) == 0)
    return f, n // (f * f)


def _form_period(form, sign):
    """T = form_to_lattice(form) with mu = (1, (-g01 + s sqrt(-m)) / g11)."""
    t = form_to_lattice(form)
    s, m = _squarefree_split(-form.discriminant())
    field = CMField.imaginary_quadratic(m)
    g01, g11 = t.gram[0][1], t.gram[1][1]
    mu2 = field.element((Fraction(-g01, g11), Fraction(sign * s, g11)))
    return PeriodVector(t, (field.one(), mu2))


_REDUCED_FORMS = [f for disc in range(-3, -61, -1) if disc % 4 in (0, 1)
                  for f in class_group(disc).elements]


class TestPeriodEmbeddings:
    @pytest.mark.parametrize("d", [2, 4])
    def test_hex_lattice_counts_and_oracle(self, d):
        found = assert_matches_box_oracle(hex_period(), d)
        assert len(found) == 12
        assert all(pe.nu == EISEN.zero() for pe in found)

    def test_bound_is_attained(self):
        found = enumerate_period_embeddings(hex_period(), 2)
        assert len(found) == 2 * len(EISEN.roots_of_unity())
        assert len(found) <= twistor_fiber_bound(2, len(EISEN.roots_of_unity()))

    def test_norm_equation_holds_exactly(self):
        pv = hex_period()
        ssb = pairing_sigma_sigmabar(pv)
        for pe in enumerate_period_embeddings(pv, 2):
            assert verify_norm_equation(pe.lam, pe.lam_prime, pe.nu, 2, ssb)

    def test_lambdas_are_roots_of_unity_here(self):
        for pe in enumerate_period_embeddings(hex_period(), 2):
            nonzero = [x for x in (pe.lam, pe.lam_prime) if x != EISEN.zero()]
            assert len(nonzero) == 1
            assert is_root_of_unity(nonzero[0]) is not None

    def test_gaussian_square_lattice_with_nontrivial_nu(self):
        # exercises the e-direction reconstruction: here one third of the
        # maps have fractional lambda = +-1/2 and a nonzero e-component
        t = Lattice([[2, 0], [0, 2]])
        pv = PeriodVector(t, (GAUSS.one(), gen(GAUSS)))
        assert pairing_sigma_sigmabar(pv) == GAUSS.rational(4)
        found = assert_matches_box_oracle(pv, 2)
        assert len(found) == 24
        assert sum(1 for pe in found if pe.nu != GAUSS.zero()) == 16

    def test_overlattice_index_two(self):
        found = assert_matches_box_oracle(hex_period(), 2, index=2)
        assert len(found) == 48

    def test_reduced_forms_match_box_oracle(self, rng):
        # binary lattices of discriminant -3 .. -60, each with one of its two
        # conjugate periods, at a random d and overlattice index
        cases = [(f, sign, d, index) for f in _REDUCED_FORMS for sign in (1, -1)
                 for d in range(1, 13) for index in (1, 2)]
        for form, sign, d, index in rng.sample(cases, 100):
            assert_matches_box_oracle(_form_period(form, sign), d, index)

    def test_rank_restriction(self):
        # over Q(zeta_8), sigma = (1, i sqrt2, sqrt2 / 2) on <1> + <1> + <2> is
        # isotropic with (sigma.sigmabar) = 4 and general, so only its rank
        # refuses it, when it is built
        z8 = CMField.cyclotomic(8)
        lat3 = Lattice([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        mu = (z8.one(), z8.element((0, 1, 0, 1)),
              z8.element((0, Fraction(1, 2), 0, Fraction(-1, 2))))
        assert period_refusal(lat3, mu) is None
        with pytest.raises(CMError, match="only rank-2 period lattices are supported"):
            PeriodVector(lat3, mu)


# periods of rank 1 and 3, isotropic or not, with the refusal of the every-
# rank oracle: (1, i, 0) is isotropic on <1> + <1> + <-1> but not general
_OTHER_RANKS = {
    "rank1-isotropic": (Lattice([[0]]), (zeta6(),), "(sigma.sigmabar) is not totally positive"),
    "rank1-not-isotropic": (Lattice([[2]]), (zeta6(),), "period is not isotropic"),
    "rank3-isotropic": (Lattice([[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
                        (GAUSS.one(), gen(GAUSS), GAUSS.zero()),
                        "period is not general: a proper primitive sublattice contains it"),
    "rank3-not-isotropic": (Lattice([[2, 0, 0], [0, 2, 0], [0, 0, 2]]), (GAUSS.one(),) * 3,
                            "period is not isotropic"),
    "rank3-two-fields": (Lattice([[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
                         (GAUSS.one(), EISEN.one(), GAUSS.one()),
                         "coordinates must share one field"),
}


@pytest.mark.parametrize("lattice, mu, oracle", _OTHER_RANKS.values(), ids=_OTHER_RANKS.keys())
def test_other_ranks_are_refused_before_mu_is_read(lattice, mu, oracle):
    # the rank refusal follows the coordinate count at once, so its message
    # does not depend on mu
    assert period_refusal(lattice, mu) == oracle
    with pytest.raises(CMError) as refused:
        PeriodVector(lattice, mu)
    assert str(refused.value) == "only rank-2 period lattices are supported"
    with pytest.raises(CMError, match="one coordinate per basis vector"):
        PeriodVector(lattice, mu[:-1] if len(mu) > 1 else mu * 2)


_ORACLE_M = (1, 2, 3, 5, 6, 7, 11, 15)


def _isotropic_rank_two_periods(rng, count):
    """count (lattice, mu) pairs, isotropic by construction: for a | b^2 +
    m s^2 and c = (b^2 + m s^2) / a, x = (-b +- s sqrt(-m)) / a is a root of
    a x^2 + 2 b x + c, so mu = (k x, k) is isotropic on ((a, b), (b, c)) and
    mu = (k, k x) on ((c, b), (b, a)).  Then (sigma.sigmabar) = 2 m s^2 k
    kbar / a, which is totally positive exactly when a > 0, s != 0 and k !=
    0; with s = 0, sigma is a multiple of a rational vector."""
    fields = {m: CMField.imaginary_quadratic(m) for m in _ORACLE_M}
    out = []
    while len(out) < count:
        m, s, b = rng.choice(_ORACLE_M), rng.randint(-3, 3), rng.randint(-6, 6)
        n = b * b + m * s * s
        if n == 0:
            continue
        a = rng.choice([q for q in range(1, n + 1) if n % q == 0]) * rng.choice((1, -1))
        field, c = fields[m], n // a
        x = field.element((Fraction(-b, a), Fraction(rng.choice((1, -1)) * s, a)))
        k = field.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)])
        out += [(Lattice([[a, b], [b, c]]), (k * x, k)), (Lattice([[c, b], [b, a]]), (k, k * x))]
    return out


def test_rank_two_periods_are_refused_as_the_every_rank_oracle_refuses():
    # the oracle keeps the refusals "period is not general" and "(gamma_1.sigma)
    # vanishes" after positivity; at rank 2 neither is ever reached
    outcomes = collections.Counter()
    for lattice, mu in _isotropic_rank_two_periods(random.Random(3838), 2000):
        want = period_refusal(lattice, mu)
        outcomes[want] += 1
        if want is None:
            assert PeriodVector(lattice, mu).mu == mu
        else:
            with pytest.raises(CMError) as refused:
                PeriodVector(lattice, mu)
            assert str(refused.value) == want
    assert set(outcomes) == {None, "(sigma.sigmabar) is not totally positive"}, outcomes
    assert min(outcomes.values()) > 500, outcomes


def test_one_frame_per_period(monkeypatch):
    # the period inverts its solving minor once, when it is built; the 48
    # embeddings at index 2 are then solved and checked without an inverse
    calls = []

    def counted(self):
        calls.append(self)
        return inverse(self)

    inverse = CMElement.inverse
    pv = hex_period()
    monkeypatch.setattr(CMElement, "inverse", counted)
    assert len(enumerate_period_embeddings(pv, 2, overlattice_index=2)) == 48
    assert len(calls) == 0


def test_field_construction_solves_no_linear_system(monkeypatch):
    # a field keeps no inverse table: the roots of unity come from its trace
    # lattice, and only CMElement.inverse inverts a matrix, once per call
    calls = []
    inverse = cm.inverse

    def counted(rows):
        calls.append(rows)
        return inverse(rows)

    monkeypatch.setattr(cm, "inverse", counted)
    field = CMField.cyclotomic(12)
    assert calls == []
    assert is_root_of_unity(gen(field)) == 12 and calls == []
    assert gen(field) * gen(field).inverse() == field.one() and len(calls) == 1


_SQUARE = PeriodVector(Lattice([[2, 0], [0, 2]]), (GAUSS.one(), gen(GAUSS)))
_ZETA12 = CMField.cyclotomic(12)
# the hexagonal period over Q(zeta_12), with zeta_6 = zeta_12^2
_HEX_QUARTIC = PeriodVector(T_HEX, (_ZETA12.one(), _ZETA12.element((0, 0, 1, 0))))


@pytest.mark.parametrize("pv,d,index", [
    *((hex_period(), d, index) for d in (2, 4) for index in (1, 2, 3, 4)),
    *((_SQUARE, d, index) for d in (1, 2, 3) for index in (1, 2)),
    *((_HEX_QUARTIC, d, index) for d, index in ((2, 1), (3, 2), (6, 1))),
], ids=[*(f"hex-d{d}-index{k}" for d in (2, 4) for k in (1, 2, 3, 4)),
        *(f"square-d{d}-index{k}" for d in (1, 2, 3) for k in (1, 2)),
        "hex-zeta12-d2-index1", "hex-zeta12-d3-index2", "hex-zeta12-d6-index1"])
def test_solve_matches_field_arithmetic(pv, d, index):
    found = enumerate_period_embeddings(pv, d, overlattice_index=index)
    assert found
    for pe in found:
        want = field_solve_lambda(pv, pe.embedding)
        assert (pe.lam, pe.lam_prime, pe.nu) == want
        assert solve_lambda(pv, pe.embedding) == want
        assert all(type(c) is Fraction for x in want for c in x.coords)


@pytest.mark.parametrize("index", [1, 2])
def test_one_solve_and_two_norm_checks_per_pair(index, monkeypatch):
    # phi and -phi share one solve; the norm identity is still evaluated on
    # every embedding returned
    solves, checks = [], []
    solve, norm_holds = cm.solve_lambda, cm._PeriodTables.norm_holds

    def counted_solve(pv, phi):
        solves.append(phi.columns)
        return solve(pv, phi)

    def counted_norm_holds(self, columns, d, scale):
        checks.append(columns)
        return norm_holds(self, columns, d, scale)

    monkeypatch.setattr(cm, "solve_lambda", counted_solve)
    monkeypatch.setattr(cm._PeriodTables, "norm_holds", counted_norm_holds)
    found = enumerate_period_embeddings(hex_period(), 2, overlattice_index=index)
    assert len(found) == (12 if index == 1 else 48)
    assert len(solves) == len(found) // 2
    assert sorted(checks) == [pe.embedding.columns for pe in found]


def test_a_failed_norm_check_on_the_negated_member_raises(monkeypatch):
    # the check on -phi is not implied away: failing only there must raise
    norm_holds = cm._PeriodTables.norm_holds

    def fails_below_its_negation(self, columns, d, scale):
        negated = tuple(tuple(-x for x in c) for c in columns)
        return columns > negated and norm_holds(self, columns, d, scale)

    monkeypatch.setattr(cm._PeriodTables, "norm_holds", fails_below_its_negation)
    with pytest.raises(CMError, match="period identity"):
        enumerate_period_embeddings(hex_period(), 2)


@pytest.mark.parametrize("index", [4, 8])
def test_indices_above_two_match_field_arithmetic_and_the_full_search(index):
    pv = hex_period()
    source, target = T_HEX.twist(index * index), T_HEX.direct_sum(Lattice([[2]]))
    found = enumerate_period_embeddings(pv, 2, overlattice_index=index)
    full = lazy_gram_compatible(source, target, lambda n: vectors_of_norm(target, n))
    assert [pe.embedding.columns for pe in found] == list(full)
    for pe in found:
        assert (pe.lam, pe.lam_prime, pe.nu) == field_solve_lambda(pv, pe.embedding)


def field_norm_holds(pv, columns, d, scale):
    """The norm identity (|lambda|^2 + |lambda'|^2)(sigma.sigmabar) + |nu|^2 d
    = scale (sigma.sigmabar) in CMElement arithmetic: lambda, lambda' and nu
    by Cramer's rule on the period's coordinates (field_solve_lambda, which
    at rank 2 solves every matrix), (sigma.sigmabar) summed from mu."""
    lam, lam_p, nu = field_solve_lambda(pv, SimpleNamespace(columns=columns))
    mu, g = pv.mu, pv.lattice.gram
    ssb = sum((mu[a].conjugate() * mu[b] * g[a][b] for a in range(2) for b in range(2)),
              pv.field.zero())
    return ((lam * lam.conjugate() + lam_p * lam_p.conjugate()) * ssb
            + nu * nu.conjugate() * d) == ssb * scale


@pytest.mark.parametrize("pv,rows", [(hex_period(), 2), (_HEX_QUARTIC, 4)],
                         ids=["hex", "hex-zeta12"])
def test_kept_norm_rows_decide_as_field_arithmetic(pv, rows):
    # the norm value is rational for these periods, so one coordinate row of
    # the identity is kept; the dropped ones read 0 = 0 for every matrix
    tables, rng = pv._tables, random.Random(3303)
    assert pv.field.degree == rows and len(tables._norm_rows) == 1
    assert all(g or any(s) or any(t) for s, t, g in tables._norm_rows)
    outcomes = []
    for d, k in ((2, 1), (3, 1), (2, 2), (6, 3)):
        found = [pe.embedding.columns
                 for pe in enumerate_period_embeddings(pv, d, overlattice_index=k)]
        drawn = [tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(2))
                 for _ in range(60)]
        for columns in found[:12] + drawn:
            for scale in (1, k * k):
                holds = tables.norm_holds(columns, d, scale)
                assert holds == field_norm_holds(pv, columns, d, scale), (columns, d, scale)
                outcomes.append(holds)
    assert outcomes.count(True) > 40 and outcomes.count(False) > 400


class TestNegated:
    def test_a_value_off_the_table_denominator_is_negated_exactly(self):
        tables = hex_period()._tables
        assert tables._den == 6
        for x in (EISEN.rational(Fraction(1, 5)), EISEN.element((Fraction(2, 7), Fraction(-1, 4)))):
            assert tables.negated(x) == -x

    def test_table_values_negate_to_interned_elements(self):
        pv = hex_period()
        tables = pv._tables
        for pe in enumerate_period_embeddings(pv, 2, overlattice_index=2):
            for x in (pe.lam, pe.lam_prime, pe.nu):
                neg = tables.negated(x)
                assert neg == -x and any(neg is y for y in tables._elements.values())
                copy = EISEN.element(x.coords)
                assert tables.negated(copy) == -x

    def test_short_lived_elements_never_read_a_stale_entry(self):
        # thousands of off-table elements are made and dropped, so their ids
        # recur; none may be answered as some other element's negation
        pv = hex_period()
        tables = pv._tables
        enumerate_period_embeddings(pv, 2, overlattice_index=2)
        interned, rng = len(tables._elements), random.Random(3304)
        for _ in range(5000):
            x = EISEN.element(tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 30))
                                    for _ in range(2)))
            assert tables.negated(x).coords == tuple(-c for c in x.coords)
        assert len(tables._elements) == interned


def test_period_tables_are_built_once_on_the_first_solve():
    pv = hex_period()
    assert "_tables" not in vars(pv)
    tables = pv._tables
    assert len(enumerate_period_embeddings(pv, 2)) == 12
    assert pv._tables is tables


_TABLE_PERIODS = {"hex": hex_period(), "square": _SQUARE, "hex-zeta12": _HEX_QUARTIC}


def _assert_tables_match_field_arithmetic(pv):
    tables = cm._PeriodTables(pv)
    for name, want in field_period_tables(pv).items():
        assert getattr(tables, name) == want, name
    return tables


@pytest.mark.parametrize("name", _TABLE_PERIODS)
def test_integer_tables_equal_the_field_arithmetic_build(name):
    _assert_tables_match_field_arithmetic(_TABLE_PERIODS[name])


def test_integer_tables_equal_the_field_arithmetic_build_on_rescaled_periods():
    # mu -> c mu keeps the period valid (c cbar is totally positive) and
    # changes the common denominator of mu, mubar, (sigma.sigmabar) and 1/det
    rng, bases, dens = random.Random(3636), list(_TABLE_PERIODS.values()), set()
    for _ in range(20):
        base = rng.choice(bases)
        c = base.field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                for _ in range(base.field.degree)])
        if c == base.field.zero():
            c = base.field.rational(Fraction(7, 3))
        dens.add(_assert_tables_match_field_arithmetic(
            PeriodVector(base.lattice, tuple(c * m for m in base.mu)))._den)
    assert len(dens) > 10


@pytest.mark.parametrize("index", [1, 2])
@pytest.mark.parametrize("make", [hex_period, lambda: PeriodVector(
    T_HEX, (_ZETA12.one(), _ZETA12.element((0, 0, 1, 0))))], ids=["hex", "hex-zeta12"])
def test_tables_and_a_pass_make_no_field_multiplication(make, index, monkeypatch):
    # from a built period on, the tables and the enumeration use integer
    # arithmetic only: no CMElement product and no inverse
    pv, calls = make(), []

    def counted(name):
        method = getattr(CMElement, name)

        def wrapper(self, *args):
            calls.append(name)
            return method(self, *args)
        return wrapper

    for name in ("__mul__", "__rmul__", "inverse"):
        monkeypatch.setattr(CMElement, name, counted(name))
    pv._tables
    found = enumerate_period_embeddings(pv, 2, overlattice_index=index)
    assert len(found) == (12 if index == 1 else 48) and calls == []
