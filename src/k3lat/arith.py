"""Proven integer arithmetic: primality, factorization, Euler's phi.

Miller-Rabin with the prime bases 2..41 is proven below PRIME_BOUND
(Sorenson and Webster, Math. Comp. 86 (2017)); factor certifies every factor
with it.  At or beyond the bound both raise RangeError, never guess.
"""

import math

PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_TRIAL = tuple(p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1)))


class RangeError(ValueError):
    """An input lies where primality is not proven."""


def _check(n: int) -> int:
    n = int(n)
    if abs(n) >= PRIME_BOUND:
        raise RangeError(f"{n} is beyond the proven primality range")
    return n


def is_prime(n: int) -> bool:
    """Whether n is prime: trial division below 10^6, else Miller-Rabin."""
    n = _check(n)
    if n < 2:
        return False
    for p in _TRIAL:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper divisor of a composite n free of primes below 1000.

    Pollard's rho with Brent's cycle search, one gcd per 128 steps (Brent,
    BIT 20 (1980)); a batch that catches every factor at once restarts
    with the next c.
    """
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


def factor(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of a nonzero n; -1: 1 marks n < 0."""
    n = _check(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out = {-1: 1} if n < 0 else {}
    n = abs(n)
    for p in _TRIAL:
        if p * p > n:
            break
        while n % p == 0:
            out[p], n = out.get(p, 0) + 1, n // p
    todo = [n]
    while todo:
        m = todo.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        elif m > 1:
            d = _rho(m)
            todo += [d, m // d]
    return dict(sorted(out.items()))


def totient(n: int) -> int:
    """Euler's phi of a positive n."""
    n = int(n)
    if n < 1:
        raise ValueError("totient needs a positive integer")
    for p in factor(n):
        n = n // p * (p - 1)
    return n


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factor(n).values())
