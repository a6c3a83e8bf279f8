"""Closed integer formulas: Fourier-Mukai partner counts and the twistor-fibre
bound.  They need only arith, so k3 fm-count and cm bound load no compute
module; census and cm re-export every name here."""

from . import arith


class CensusError(arith.DomainError):
    """A census precondition failed or a certificate could not be assembled."""


class CMError(arith.DomainError):
    """A CM-field or period precondition was violated."""


def tau(d: int) -> int:
    """Number of distinct primes dividing d/2, for even d > 0."""
    (d,) = arith.integers((d,), CensusError)
    if d <= 0 or d % 2 != 0:
        raise CensusError("d must be a positive even integer")
    return len(arith.factor(d // 2))


def fm_partner_count(d: int) -> int:
    """Generic Fourier-Mukai partner count 2^(tau(d)-1) in degree d.

    The formula has no meaning at tau(d) = 0 (degree 2), where the generic
    surface is its own unique partner, so the count is clamped to 1 there.
    """
    t = tau(d)
    return 1 if t == 0 else 2 ** (t - 1)


def max_root_of_unity_order(degree: int) -> int:
    """Largest m with phi(m) <= degree; phi(m) >= sqrt(m/2) bounds the scan,
    and one sieve gives every phi(m) up to that bound."""
    (degree,) = arith.integers((degree,), CMError)
    if degree < 1:
        raise CMError("degree must be positive")
    limit = 2 * degree * degree + 2
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # untouched, so p is prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return max(m for m in range(1, limit + 1) if phi[m] <= degree)


def twistor_fiber_bound(field_degree: int, roots_of_unity: int | None = None) -> int:
    """Upper bound for the number of twistor fibres isomorphic to the base.

    Twice the number of roots of unity when that count is known, else twice
    the largest possible order of a root of unity in a field of the given
    degree.  Transcendental ranks above 21 cannot occur.
    """
    (field_degree,) = arith.integers((field_degree,), CMError)
    if not 1 <= field_degree <= 21:
        raise CMError("field degree must be between 1 and 21")
    if roots_of_unity is not None:
        (roots_of_unity,) = arith.integers((roots_of_unity,), CMError)
        if roots_of_unity < 1:
            raise CMError("root-of-unity count must be positive")
        return 2 * roots_of_unity
    return 2 * max_root_of_unity_order(field_degree)
