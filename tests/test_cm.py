import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, Symbol, cyclotomic_poly

from k3lat.cm import (_CYCLOTOMIC, CMError, CMField, PeriodVector,
                      _has_real_root, _is_irreducible,
                      enumerate_bounded_integers, enumerate_period_embeddings,
                      is_root_of_unity, max_root_of_unity_order,
                      pairing_sigma_sigmabar, solve_lambda,
                      twistor_fiber_bound, verify_norm_equation)
from k3lat.enumeration import EmbeddingMatrix
from k3lat.forms import class_group, form_to_lattice
from k3lat.lattice import Lattice
from util import box_embeddings, period_image_matches

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
        assert i.min_poly_coeffs() == (Fraction(1), Fraction(0), Fraction(1))

    def test_zeta8_square_minpoly(self):
        z8 = CMField.cyclotomic(8)
        sq = z8.gen() ** 2
        assert sq.min_poly_coeffs() == (Fraction(1), Fraction(0), Fraction(1))


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
        assert _has_real_root(mp) == bool(poly.real_roots())

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
], ids=["imaginary-quadratic", "cyclotomic", "bounded-integers", "min-poly",
        "root-order", "fiber-bound", "fiber-bound-roots", "period-d",
        "overlattice-index"])
def test_refuses_arguments_that_are_not_integers(call):
    # int() would truncate most of them, to Q(sqrt(-3)), Q(zeta_4), bound 1,
    # ...; the root-of-unity count would give the bound 5.0
    with pytest.raises(CMError, match="integers"):
        call()


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

    def test_counts(self):
        assert len(EISEN.roots_of_unity()) == 6
        assert len(GAUSS.roots_of_unity()) == 4
        assert len(CMField.cyclotomic(12).roots_of_unity()) == 12
        assert len(CMField.cyclotomic(5).roots_of_unity()) == 10

    def test_max_orders(self):
        assert max_root_of_unity_order(2) == 6
        assert max_root_of_unity_order(4) == 12
        assert max_root_of_unity_order(21) == 66

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
