"""Exact integer arithmetic underlying the Hall-property criteria.

Multiplicative orders modulo odd primes, pi-parts of integers, and closed
forms for the r-part of k^m - 1 and k^m - (-1)^m.  All arithmetic is exact
arbitrary-precision integer arithmetic; there is no floating point anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

__all__ = [
    "PrimeSet",
    "is_prime",
    "multiplicative_order",
    "e_star",
    "pi_part",
    "r_part_pow_minus_one",
    "r_part_pow_minus_sign",
]

# Miller-Rabin with the first 13 primes as bases is a proven deterministic
# primality test for all n below _MR_BOUND, the least strong pseudoprime to
# all of them (Sorenson and Webster, 2015).  The twelve bases up to 37 are
# not enough: 318665857834031151167461 passes all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed proven bases).
    A number at or above ``_MR_BOUND`` that passes every base is a
    ValueError, as the bases cannot prove it prime; a composite never is."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise ValueError(f"cannot prove {n} prime: primality is decided exactly "
                         f"only below {_MR_BOUND}")
    return True


class PrimeSet:
    """A finite set of distinct primes, kept sorted strictly increasing."""

    __slots__ = ("primes",)

    def __init__(self, primes: Iterable[int] = ()):
        ps = sorted({int(p) for p in primes})
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        self.primes: tuple[int, ...] = tuple(ps)

    @classmethod
    def _subset(cls, primes: Iterable[int]) -> "PrimeSet":
        """Members picked in order from an already validated PrimeSet, so
        they are distinct primes, increasing, and need no primality test."""
        ps = cls.__new__(cls)
        ps.primes = tuple(primes)
        return ps

    def __contains__(self, p: int) -> bool:
        return p in self.primes

    def __iter__(self) -> Iterator[int]:
        return iter(self.primes)

    def __len__(self) -> int:
        return len(self.primes)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PrimeSet):
            return self.primes == other.primes
        if isinstance(other, (set, frozenset, tuple, list)):
            return set(self.primes) == set(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.primes)

    def __repr__(self) -> str:
        return "PrimeSet({%s})" % ", ".join(map(str, self.primes))

    @property
    def smallest(self) -> int:
        """Least member; errors on the empty set."""
        if not self.primes:
            raise ValueError("empty prime set has no smallest element")
        return self.primes[0]

    def without(self, p: int) -> "PrimeSet":
        """The members other than p; the set itself when p is not one, as a
        PrimeSet never changes."""
        if p not in self.primes:
            return self
        i = self.primes.index(p)
        return PrimeSet._subset(self.primes[:i] + self.primes[i + 1 :])

    def union(self, other: Iterable[int]) -> "PrimeSet":
        return PrimeSet(list(self.primes) + list(other))


def _check_odd_prime(r: int) -> None:
    if r == 2:
        raise ValueError("r must be odd")
    if not is_prime(r):
        raise ValueError(f"{r} is not prime")


@lru_cache(maxsize=None)
def multiplicative_order(q: int, r: int) -> int:
    """Least e >= 1 with q^e = 1 (mod r), for an odd prime r not dividing q.

    The result always divides r - 1.  Computed by scanning the divisors of
    r - 1 in increasing order; r is small even when q is huge.
    """
    _check_odd_prime(r)
    if q % r == 0:
        raise ValueError(f"order undefined: {r} divides {q}")
    divisors = sorted(d for d in range(1, r) if (r - 1) % d == 0)
    for e in divisors:
        if pow(q, e, r) == 1:
            return e
    raise AssertionError("unreachable: order must divide r - 1")


def e_star(e: int) -> int:
    """Adjusted order driving the r-part of k^m - (-1)^m."""
    if e < 1:
        raise ValueError("e must be positive")
    if e % 2 == 1:
        return 2 * e
    if e % 4 == 0:
        return e
    return e // 2


def pi_part(n: int, pi: Iterable[int]) -> int:
    """Largest divisor of n all of whose prime divisors lie in pi.

    Extracts each prime of pi by repeated division; n is never factored.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    part = 1
    for p in pi:
        while n % p == 0:
            n //= p
            part *= p
    return part


def r_part_pow_minus_one(k: int, m: int, r: int) -> int:
    """(k^m - 1)_r via the closed form, never forming k^m.

    Equals (k^e - 1)_r * (m/e)_r when e = ord(k mod r) divides m, else 1.
    """
    _check_odd_prime(r)
    if k < 2:
        raise ValueError("k must be at least 2")
    if m < 1:
        raise ValueError("m must be positive")
    if k % r == 0:
        raise ValueError(f"{r} divides {k}")
    e = multiplicative_order(k, r)
    if m % e != 0:
        return 1
    return pi_part(k**e - 1, (r,)) * pi_part(m // e, (r,))


def r_part_pow_minus_sign(k: int, m: int, r: int) -> int:
    """(k^m - (-1)^m)_r via the closed form based on e*."""
    _check_odd_prime(r)
    if k < 2:
        raise ValueError("k must be at least 2")
    if m < 1:
        raise ValueError("m must be positive")
    if k % r == 0:
        raise ValueError(f"{r} divides {k}")
    es = e_star(multiplicative_order(k, r))
    if m % es != 0:
        return 1
    return pi_part(k**es - (-1) ** es, (r,)) * pi_part(m // es, (r,))
