import dataclasses
import math
from fractions import Fraction

import pytest
from sympy import factorint, isprime, nextprime, prevprime, primerange, totient
from sympy.ntheory.primetest import mr

from k3lat import arith, census, cm, enumeration, forms, genus
from k3lat.lattice import Lattice
from util import totient as util_totient

# strong pseudoprimes to the bases 2..7, 2..23 and 2..37 (Jaeschke 1993;
# Sorenson and Webster 2017)
STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051, 318665857834031151167461)


def test_factor_matches_sympy_on_small_range():
    for n in range(-10 ** 4, 10 ** 4 + 1):
        if n:
            assert arith.factor(n) == factorint(n), n


def test_factor_matches_sympy_next_to_each_trial_prime():
    # the trial division stops at the first prime q with q^2 above what is
    # left: powers and products of neighbouring primes sit on that boundary,
    # below it (the cofactor is read as prime) and past the last trial prime
    trial = list(primerange(2, 1000))
    beyond = nextprime(trial[-1])
    for q, r in zip(trial, trial[1:] + [beyond]):
        for n in (q * q, q ** 3, q ** 5, q * r, q * q * r, q * r * r, r * r - 2):
            assert arith.factor(n) == factorint(n), n
            assert arith.factor(-n) == factorint(-n), -n


def test_factor_matches_sympy_on_random_large(rng):
    cases = [rng.getrandbits(rng.randint(40, 80)) | 1 << 39 for _ in range(180)]
    cases += [nextprime(rng.getrandbits(29) | 1 << 29)
              * nextprime(rng.getrandbits(29) | 1 << 29) for _ in range(20)]
    for n in cases:
        # by unique factorization this is factor(n) == factorint(n), without
        # paying for sympy's slower factoring
        fac = arith.factor(n)
        assert math.prod(p ** e for p, e in fac.items()) == n
        assert all(isprime(p) and e > 0 for p, e in fac.items()), n


@pytest.mark.parametrize("fn,arg", [(arith.is_prime, 7.5), (arith.factor, 12.9),
                                    (util_totient, 6.0), (arith.is_prime, True)],
                         ids=["is_prime", "factor", "totient", "bool"])
def test_refuses_arguments_that_are_not_integers(fn, arg):
    with pytest.raises(arith.DomainError, match="integers"):
        fn(arg)


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        arith.factor(0)


def test_is_prime_matches_sympy():
    assert [arith.is_prime(n) for n in range(10 ** 5 + 1)] == \
        [isprime(n) for n in range(10 ** 5 + 1)]
    assert not any(arith.is_prime(-n) for n in range(10 ** 3))


def test_is_prime_rejects_strong_pseudoprimes():
    for n in STRONG_PSEUDOPRIMES:
        assert not isprime(n)
        assert not arith.is_prime(n), n


def test_is_prime_rejects_carmichael_numbers():
    # Chernick: (6k+1)(12k+1)(18k+1) is a Carmichael number when all three
    # factors are prime
    chernick = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in range(1, 2000)
                if all(isprime(m * k + 1) for m in (6, 12, 18))]
    assert chernick[:3] == [1729, 294409, 56052361]
    for n in chernick + [561, 1105, 2465, 2821, 6601, 8911, 41041, 825265]:
        assert not arith.is_prime(n), n
        assert arith.factor(n) == factorint(n), n


def test_totient_matches_sympy():
    assert [util_totient(n) for n in range(1, 10 ** 4 + 1)] == \
        [int(totient(n)) for n in range(1, 10 ** 4 + 1)]
    with pytest.raises(ValueError):
        util_totient(0)


def test_is_squarefree():
    for n in range(1, 2000):
        assert arith.is_squarefree(n) == all(e == 1 for e in factorint(n).values())


def test_range_error_at_the_proven_bound():
    bound = arith.PRIME_BOUND
    # the bound is the least composite passing Miller-Rabin to bases 2..41
    assert mr(bound, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41])
    assert len(factorint(bound)) == 2
    for n in (bound, -bound, bound + 1, 10 ** 30):
        with pytest.raises(arith.RangeError, match="beyond the proven primality range"):
            arith.is_prime(n)
        with pytest.raises(arith.RangeError):
            arith.factor(n)
    assert not arith.is_prime(bound - 1)
    assert arith.factor(bound - 1) == factorint(bound - 1)
    assert arith.factor(1 - bound) == factorint(1 - bound)
    assert arith.is_prime(prevprime(bound))


def test_trial_primes_are_the_primes_below_1000():
    assert arith._TRIAL == tuple(primerange(2, 1000))


@pytest.mark.parametrize("value, text", [
    (["x"], "['x']"), ("x" * 200, repr("x" * 200)[:200] + "..."),
    (list(range(100)), repr(list(range(100)))[:200] + "...")],
    ids=["short", "long-string", "long-list"])
def test_quoted_cuts_after_the_limit(value, text):
    assert arith.quoted(value) == text
    assert len(arith.quoted(value)) <= arith.QUOTE_LIMIT + 3


def test_quoted_names_a_value_too_deep_to_print():
    deep = []
    for _ in range(10 ** 5):
        deep = [deep]
    assert arith.quoted(deep) == "<list nested too deep to print>"


# -- Record: the frozen-dataclass contract --------------------------------------

A2 = Lattice([[2, 1], [1, 2]])
EISEN = cm.CMField.imaginary_quadratic(3)
PERIOD = cm.PeriodVector(Lattice([[2, -1], [-1, 2]]),
                         (EISEN.one(), EISEN.element((Fraction(1, 2), Fraction(1, 2)))))
T23 = forms.form_to_lattice(forms.BinaryForm(2, 1, 3)).direct_sum(Lattice([[-1]]))

# one instance of every record class, with its field names as the frozen
# dataclass it replaces declared them
RECORDS = {
    "Lattice": (lambda: A2, "gram"),
    "BinaryForm": (lambda: forms.BinaryForm(2, 1, 3), "a b c"),
    "FormClassGroup": (lambda: forms.class_group(-23), "discriminant elements"),
    "GenusBlock": (lambda: genus.padic_symbol(T23, 2).blocks[0],
                   "scale dim sign type oddity"),
    "GenusSymbol": (lambda: genus.padic_symbol(T23, 23), "prime blocks"),
    "EmbeddingMatrix": (lambda: enumeration.embeddings(A2, A2)[0], "source target columns"),
    "IsometrySearchResult": (
        lambda: enumeration.indefinite_isometry_search(T23, T23, 3), "witness conclusive"),
    "OrbitInvariant": (lambda: enumeration.orbit_invariant(T23.twist(-4), (0, 0, 1)),
                       "norm ambient_disc complement_disc complement_class"),
    "TwistorCount": (lambda: census.count_integral_twistor_classes(A2, 2),
                     "count representatives"),
    "MinusTwoResult": (lambda: census.has_minus_two_class(Lattice([[0, 1], [1, 0]])),
                       "found certified witness"),
    "UnboundedFamilyCertificate": (
        lambda: census.build_unbounded_family(23, 1),
        "p d0 degree h forms ternaries genus_checks isometry_witnesses ns_lattice"
        " classes complement_invariants minus_two_free height_bound"),
    "CMField": (lambda: EISEN, "min_poly conj_gen integral_basis"),
    "CMElement": (lambda: EISEN.one(), "field coords"),
    "PeriodVector": (lambda: PERIOD, "lattice mu"),
    "PeriodEmbedding": (lambda: cm.enumerate_period_embeddings(PERIOD, 2)[0],
                        "embedding lam lam_prime nu"),
}
CUSTOM_REPRS = {"Lattice": "Lattice(2,1;1,2)", "BinaryForm": "BinaryForm(2, 1, 3)",
                "CMElement": "CMElement(1, 0)"}


@pytest.mark.parametrize("name", RECORDS)
def test_record_keeps_the_frozen_dataclass_contract(name):
    make, names = RECORDS[name]
    x = make()
    assert type(x).__name__ == name
    names = names.split()
    values = [getattr(x, n) for n in names]
    oracle = dataclasses.make_dataclass(name, names, frozen=True)(*values)
    assert repr(x) == CUSTOM_REPRS.get(name, repr(oracle))
    assert hash(x) == hash(oracle) == hash(tuple(values))
    again = type(x)(*values)
    assert x == again and not x != again and hash(again) == hash(x)
    assert x != oracle and oracle != x  # equal only to the same class
    assert (x == tuple(values)) is False
    for attr in (names[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(x, attr, None)
        with pytest.raises(AttributeError):
            delattr(x, attr)
    assert [getattr(x, n) for n in names] == values


def test_cached_computes_once_per_record():
    calls = []

    class Box(arith.Record):
        x: int

        @arith.cached
        def square(self):
            """x squared."""
            calls.append(self.x)
            return self.x * self.x

    a, b = Box(3), Box(4)
    assert (a.square, a.square, b.square, a.square) == (9, 9, 16, 9)
    assert calls == [3, 4] and vars(a)["square"] == 9
    assert Box.square.__doc__ == "x squared."
    with pytest.raises(AttributeError):
        a.square = 1


def test_record_fields_defaults_and_post_init():
    class Point(arith.Record):
        x: int
        y: int = 7
        label: str = "p"

        def __post_init__(self):
            self.__dict__["norm"] = self.x * self.x + self.y * self.y

    class Pair(arith.Record):
        x: int
        y: int = 7
        label: str = "p"

    assert Point._fields == ("x", "y", "label")
    p = Point(1)
    assert (p.x, p.y, p.label, p.norm) == (1, 7, "p", 50)
    assert p == Point(1, 7, label="p") != Point(1, 8)
    assert repr(p).endswith("<locals>.Point(x=1, y=7, label='p')")
    assert p != Pair(1) and hash(p) == hash(Pair(1)) == hash((1, 7, "p"))
    with pytest.raises(TypeError):
        Point()
