import math

import pytest
from sympy import factorint, isprime, nextprime, prevprime, totient
from sympy.ntheory.primetest import mr

from k3lat import arith

# strong pseudoprimes to the bases 2..7, 2..23 and 2..37 (Jaeschke 1993;
# Sorenson and Webster 2017)
STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051, 318665857834031151167461)


def test_factor_matches_sympy_on_small_range():
    for n in range(-10 ** 4, 10 ** 4 + 1):
        if n:
            assert arith.factor(n) == factorint(n), n


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
                                    (arith.totient, 6.0), (arith.is_prime, True)],
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
    assert [arith.totient(n) for n in range(1, 10 ** 4 + 1)] == \
        [int(totient(n)) for n in range(1, 10 ** 4 + 1)]
    with pytest.raises(ValueError):
        arith.totient(0)


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
