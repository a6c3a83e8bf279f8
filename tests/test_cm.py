import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import (I, Poly, Rational, Symbol, cyclotomic_poly, exp,
                   minimal_polynomial, pi, real_roots)

from k3lat import cm
from k3lat.cm import (_CYCLOTOMIC, CMElement, CMError, CMField, PeriodVector,
                      _is_irreducible, _totally_nonneg,
                      enumerate_bounded_integers, enumerate_period_embeddings,
                      is_root_of_unity, max_root_of_unity_order,
                      pairing_sigma_sigmabar, solve_lambda,
                      twistor_fiber_bound, verify_norm_equation)
from k3lat.enumeration import EmbeddingMatrix, embeddings
from k3lat.forms import class_group, form_to_lattice
from k3lat.lattice import Lattice
from util import (box_embeddings, field_solve_lambda, min_poly_totally_nonneg,
                  period_image_matches, scanned_max_root_of_unity_order)

GAUSS = CMField.imaginary_quadratic(1)
EISEN = CMField.imaginary_quadratic(3)
T_HEX = Lattice([[2, -1], [-1, 2]])


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
        assert omega.is_integral()
        assert omega ** 3 == EISEN.one()
        assert omega * omega.conjugate() == EISEN.one()
        assert omega.conjugate() == omega ** 2

    def test_sqrt_minus3_not_half_integral(self):
        theta = EISEN.gen()
        assert theta.is_integral()
        assert not (theta / 2).is_integral()

    def test_inverse_and_division(self):
        x = GAUSS.element((3, 2))
        assert x * x.inverse() == GAUSS.one()
        with pytest.raises(CMError):
            GAUSS.zero().inverse()

    def test_cyclotomic_degree4(self):
        z12 = CMField.cyclotomic(12)
        z = z12.gen()
        assert z ** 12 == z12.one() and z ** 6 != z12.one()
        assert z * z.conjugate() == z12.one()
        i = z ** 3
        assert i * i == z12.rational(-1)

    def test_zeta8_square_minpoly(self):
        z8 = CMField.cyclotomic(8)
        sq = z8.gen() ** 2
        assert sq * sq == z8.rational(-1)


# Q(i, sqrt 2) = Q(theta), theta = (2 + 2i) + (1 + 2i) sqrt 2, on the power
# basis; the images of theta under complex conjugation and under the
# automorphism sqrt 2 -> -sqrt 2, which fixes i
_QI_SQRT2 = (36, -48, 44, -8, 1)
_QI_SQRT2_CONJ = (Fraction(6, 5), Fraction(-16, 15), Fraction(1, 15), Fraction(-1, 30))
_QI_SQRT2_TAU = (8, Fraction(-22, 3), Fraction(4, 3), Fraction(-1, 6))
_POWER_BASIS_2 = ((1, 0), (0, 1))
_POWER_BASIS_4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


class TestFieldValidation:
    @pytest.mark.parametrize("args,message", [
        (((1, 0, 1), (1, 0), _POWER_BASIS_2), "does not fix the minimal polynomial"),
        ((_CYCLOTOMIC[5], (0, 0, 1, 0), _POWER_BASIS_4), "must be an involution"),
        (((1, 0, 1), (0, 1), _POWER_BASIS_2), "must be nontrivial"),
        ((_QI_SQRT2, _QI_SQRT2_TAU, _POWER_BASIS_4), "is not complex conjugation"),
        (((1, 0, 1), (0, -1), ((1, 0), (0, 2))),
         "must contain 1 and the generator's order"),
        (((1, 0, 1), (0, -1), ((1, 0), (0, Fraction(1, 2)))),
         "is not multiplicatively closed"),
    ], ids=["fixes-min-poly", "involution", "nontrivial", "complex-conjugation",
            "contains-order", "closed"])
    def test_structural_refusals(self, args, message):
        # conjugation i -> 1; zeta_5 -> zeta_5^2 of order 4; the identity;
        # sqrt 2 -> -sqrt 2, under which theta * tau(theta) = 6 is totally
        # positive but the trace form has signature (2, 2); a basis missing
        # 1 (2i spans no i); a basis with i / 2 whose square is -1 / 4
        with pytest.raises(CMError, match=message):
            CMField(*args)

    @pytest.mark.parametrize("min_poly,conj_gen", [
        ((-2, 0, 1), (0, -1)),
        ((-1, 0, -2, 0, 1), (0, -1, 0, 0)),
        ((1, 0, -10, 0, 1), (0, 10, 0, -1)),
    ], ids=["real-quadratic", "two-real-embeddings", "totally-real"])
    def test_fields_with_a_real_embedding_are_refused(self, min_poly, conj_gen):
        # sqrt 2 -> -sqrt 2; theta -> -theta with theta^2 = 1 +- sqrt 2, so
        # that +-sqrt(1 + sqrt 2) are real; theta = sqrt 2 + sqrt 3 -> 1 /
        # theta = sqrt 3 - sqrt 2.  Each is a nontrivial involution, so a
        # real embedding g and g o conj != g span a hyperbolic plane of T_K
        basis = _POWER_BASIS_2 if len(min_poly) == 3 else _POWER_BASIS_4
        with pytest.raises(CMError, match="is not complex conjugation"):
            CMField(min_poly, conj_gen, basis)

    def test_complex_conjugation_of_the_same_order_is_accepted(self):
        field = CMField(_QI_SQRT2, _QI_SQRT2_CONJ, _POWER_BASIS_4)
        assert field.element(_QI_SQRT2_CONJ) == field.gen().conjugate()
        assert field.roots_of_unity() == [field.rational(-1), field.one()]


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
    (lambda t: t, False), (lambda t: 1 + t, False), (lambda t: t * t, True),
    (lambda t: 2 + t, True), (lambda t: -2 - t, False)],
    ids=["trace", "one-plus-trace", "trace-squared", "two-plus-trace",
         "minus-two-minus-trace"])
def test_totally_nonneg_on_real_quadratic_subfields(k, of_trace, expected):
    # t = zeta + zetabar generates the real quadratic subfield of Q(zeta_k),
    # with conjugates (-1 +- sqrt 5) / 2 for k = 5 and +- sqrt 2 for k = 8;
    # -2 - t has both conjugates negative
    field = CMField.cyclotomic(k)
    y = of_trace(field.gen() + field.gen().conjugate())
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


def _monic(degree):
    return st.lists(st.integers(-20, 20), min_size=degree,
                    max_size=degree).map(lambda c: tuple(c) + (1,))


def _product(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


# random quartics are almost all irreducible, so also draw products of a
# linear or quadratic factor with a cofactor
_SMALL = st.integers(-5, 5)
_MONIC_POLYS = st.one_of(
    _monic(2), _monic(4),
    st.tuples(_SMALL, _SMALL, _SMALL, _SMALL).map(
        lambda t: _product((t[0], t[1], 1), (t[2], t[3], 1))),
    st.tuples(_SMALL, _SMALL, _SMALL, _SMALL).map(
        lambda t: _product((t[0], 1), (t[1], t[2], t[3], 1))))


class TestPolynomialChecks:
    @given(_MONIC_POLYS)
    @settings(max_examples=300, deadline=None)
    def test_decisions_match_sympy(self, mp):
        poly = Poly(list(reversed(mp)), Symbol("x"))
        assert _is_irreducible(mp) == poly.is_irreducible

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


class TestBoundedIntegers:
    def test_gaussian_unit_disk(self):
        got = enumerate_bounded_integers(GAUSS, 1)
        assert len(got) == 5
        assert GAUSS.zero() in got and GAUSS.gen() in got

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
            assert x.is_integral()


class TestRootsOfUnity:
    @pytest.mark.parametrize("coords,order", [
        ((1, 0), 1), ((-1, 0), 2), ((Fraction(-1, 2), Fraction(1, 2)), 3),
        ((Fraction(1, 2), Fraction(1, 2)), 6), ((2, 0), None), ((0, 1), None),
    ])
    def test_eisenstein_orders(self, coords, order):
        assert is_root_of_unity(EISEN.element(coords)) == order

    def test_gaussian_i(self):
        assert is_root_of_unity(GAUSS.gen()) == 4

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

    def test_non_isotropic_rejected(self):
        with pytest.raises(CMError):
            PeriodVector(Lattice([[2, 0], [0, 2]]), (EISEN.one(), zeta6()))

    def test_normalized_fixes_sigma1(self):
        pv = hex_period().normalized()
        assert pv.sigma1() == EISEN.one()


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
        assert verify_norm_equation(pe.lam / index, pe.lam_prime / index,
                                    pe.nu / index, d, ssb)
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
        pv = PeriodVector(t, (GAUSS.one(), GAUSS.gen()))
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
        # rank 3 cannot even form a valid period over a quadratic field, so
        # the guard is exercised with an unchecked stand-in
        lat3 = Lattice([[2, -1, 0], [-1, 2, 0], [0, 0, 2]])
        pv = object.__new__(PeriodVector)
        object.__setattr__(pv, "lattice", lat3)
        object.__setattr__(pv, "mu", (EISEN.one(), zeta6(), EISEN.one()))
        with pytest.raises(CMError):
            enumerate_period_embeddings(pv, 2)


def test_normalized_inverts_the_first_pairing_once(monkeypatch):
    # one inverse for (gamma_1.sigma), one for the solving minor of the
    # rescaled period
    calls = []

    def counted(self):
        calls.append(self)
        return inverse(self)

    inverse = CMElement.inverse
    pv = hex_period()
    monkeypatch.setattr(CMElement, "inverse", counted)
    normed = pv.normalized()
    assert normed.sigma1() == EISEN.one()
    assert len(calls) == 2


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
    # integrality reads the inverse of the integral basis that the field
    # computes once; each of the 16 basis products of Q(zeta_12) used to
    # solve its own system (18 solves per construction)
    calls = []
    solve = cm.solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(cm, "solve", counted)
    field = CMField.cyclotomic(12)
    assert calls == []
    assert field.gen().is_integral() and not (field.gen() / 2).is_integral()


_SQUARE = PeriodVector(Lattice([[2, 0], [0, 2]]), (GAUSS.one(), GAUSS.gen()))
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


def test_rank_three_solve_matches_field_arithmetic():
    # over Q(zeta_8), sigma = (1, i sqrt2, sqrt2 / 2) on <1> + <1> + <2> is
    # isotropic with (sigma.sigmabar) = 4; most embeddings of the lattice into
    # itself plus Z(d) send sigma outside the span of sigma, sigmabar and e,
    # so the residual rows decide there, and None must agree too
    z8 = CMField.cyclotomic(8)
    t = Lattice([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    pv = PeriodVector(t, (z8.one(), z8.element((0, 1, 0, 1)),
                          z8.element((0, Fraction(1, 2), 0, Fraction(-1, 2)))))
    for d, misses in ((1, 40), (2, 28), (3, 12)):
        embs = embeddings(t, t.direct_sum(Lattice([[d]])))
        got = [solve_lambda(pv, e) for e in embs]
        assert got == [field_solve_lambda(pv, e) for e in embs]
        assert sum(x is None for x in got) == misses < len(embs)


def test_period_tables_are_built_once_on_the_first_solve():
    pv = hex_period()
    assert "_tables" not in vars(pv)
    tables = pv._tables
    assert len(enumerate_period_embeddings(pv, 2)) == 12
    assert pv._tables is tables
