"""Proven integer arithmetic: primality, factorization, Euler's phi; and
Record, the immutable value every other module builds its results from.

Miller-Rabin with the prime bases 2..41 is proven below PRIME_BOUND
(Sorenson and Webster, Math. Comp. 86 (2017)); factor certifies every factor
with it.  At or beyond the bound both raise RangeError, never guess.
"""

import itertools
import math
import operator

PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
QUOTE_LIMIT = 200  # characters of an offending input that an error message quotes


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(itertools.compress(range(n), sieve))


_TRIAL = _primes_below(1000)


class DomainError(ValueError):
    """A computation's precondition failed: the CLI answers with exit code 1."""


class RangeError(DomainError):
    """An input lies where primality is not proven."""


def integers(xs, error: type[DomainError] = DomainError) -> tuple[int, ...]:
    """The entries of xs as ints.  An entry that is not an integer is refused
    with error, even one that only looks like one, such as 2.0, Fraction(2)
    or True."""
    try:
        out = tuple(xs)
        if all(type(x) is int for x in out):
            return out
        if any(isinstance(x, bool) for x in out):
            raise TypeError
        return tuple(map(operator.index, out))
    except TypeError:
        raise error(f"entries must be integers, got {quoted(xs)}") from None


def quoted(x) -> str:
    """repr(x) cut after QUOTE_LIMIT characters, for an error message."""
    try:
        text = repr(x)
    except RecursionError:
        text = f"<{type(x).__name__} nested too deep to print>"
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "..."


def _check(n: int) -> int:
    (n,) = integers((n,))
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
            # n has no prime factor below p, so it is 1 or prime
            if n > 1:
                out[n] = 1
            return dict(sorted(out.items()))
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
    (n,) = integers((n,))
    if n < 1:
        raise ValueError("totient needs a positive integer")
    for p in factor(n):
        n = n // p * (p - 1)
    return n


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factor(n).values())


class cached:
    """functools.cached_property without its lock, which Python 3.11 takes
    on every first read, class-wide (3.12 dropped it).  The first read stores
    func(obj) in the instance, where later reads find it before this
    non-data descriptor; threads racing on a first read each compute and
    store, so it suits only a value that every computation gives alike."""

    def __init__(self, func) -> None:
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.name, value)
        return value


# a frozen dataclass's __init__, __eq__ and __hash__.  __init__ stores through
# __s = object.__setattr__, which keeps CPython's fast attribute reads (a write
# through self.__dict__ would not); no field is named __s, as a class body
# mangles that name
_RECORD_METHODS = """\
def __init__(self{params}):
{stores}{post}    pass

def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented

def __hash__(self):
    return hash(({mine}))
"""


class Record:
    """An immutable value with the contract of a frozen dataclass, without
    the dataclasses import.  The annotated names are the fields, class
    attributes their defaults; __init__ (unless the class writes one) sets
    them and runs __post_init__, if any.  Equality (with the same class
    only), hash and repr are the dataclass's; assignment and deletion raise
    AttributeError.  A __dict__ remains, for cached and _of."""

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own = vars(cls)
        cls._fields = names = tuple(own.get("__annotations__", ()))
        mine = "".join(f"self.{n}, " for n in names)
        ns = {"__s": object.__setattr__, **{f"__default_{n}": own[n] for n in names if n in own}}
        exec(_RECORD_METHODS.format(
            params="".join(f", {n}=__default_{n}" if n in own else f", {n}" for n in names),
            stores="".join(f"    __s(self, {n!r}, {n})\n" for n in names),
            post="    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "",
            mine=mine, theirs=mine.replace("self.", "other.")), ns)
        for name in ("__init__", "__eq__", "__hash__"):
            if name not in own:
                setattr(cls, name, ns[name])

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
