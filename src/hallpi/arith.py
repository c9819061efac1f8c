"""Exact integer arithmetic underlying the Hall-property criteria.

Multiplicative orders modulo odd primes, pi-parts of integers, and closed
forms for the r-part of k^m - 1 and k^m - (-1)^m.  Every ord(q mod r) the
package reads comes from one table per q kept here, filled by one order
loop.  All arithmetic is exact arbitrary-precision integer arithmetic;
there is no floating point anywhere.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Iterable

__all__ = [
    "PrimeSet",
    "is_prime",
    "multiplicative_order",
    "e_star",
    "pi_part",
    "r_part_pow_minus_one",
    "r_part_pow_minus_sign",
    "read_decimal",
    "DigitsError",
    "MAX_DIGITS",
]

# Miller-Rabin with the first 13 primes as bases is a proven deterministic
# primality test for all n below _MR_BOUND, the least strong pseudoprime to
# all of them (Sorenson and Webster, 2015).  The twelve bases up to 37 are
# not enough: 318665857834031151167461 passes all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


# The most digits ``read_decimal`` reads: a q of lie_catalog.MAX_Q_BITS =
# 4096 bits, the largest the oracle takes, has at most 1,234, and int()
# refuses a string of over 4,300 digits.
MAX_DIGITS = 1234


class DigitsError(ValueError):
    """A digit string longer than ``MAX_DIGITS``, refused before it is read."""


def read_decimal(text: str) -> int:
    """The integer that text spells in plain ASCII digits 0-9, at most
    ``MAX_DIGITS`` of them (a ``DigitsError`` otherwise).  ``int`` also
    reads a sign, ``_``, surrounding space and non-ASCII digits, so each of
    these is a ValueError here instead of another number."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not a plain decimal integer")
    if len(text) > MAX_DIGITS:
        raise DigitsError(f"a decimal integer of {len(text)} digits is longer than "
                          f"MAX_DIGITS = {MAX_DIGITS}")
    return int(text)


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


class PrimeSet(tuple):
    """A finite set of distinct primes: a tuple kept sorted strictly
    increasing, so length, iteration and membership are the tuple's own.
    Equality and hashing are the tuple's, so it equals, and hashes as, the
    sorted tuple of its members and nothing else."""

    __slots__ = ()

    def __new__(cls, primes: Iterable[int] = ()):
        return super().__new__(cls, sorted({int(p) for p in primes}))

    def __init__(self, primes: Iterable[int] = ()):
        # checked here, not in __new__: bench/spans.py times this method
        # as arith.prime_set, and _subset builds past both
        for p in self:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")

    def __repr__(self) -> str:
        return "PrimeSet({%s})" % ", ".join(map(str, self))

    def without(self, p: int) -> "PrimeSet":
        """The members other than p; the set itself when p is not one, as a
        PrimeSet never changes."""
        if p not in self:
            return self
        i = self.index(p)
        return _subset(self[:i] + self[i + 1 :])


# The PrimeSet of members picked in order from an already validated one, so
# distinct primes, increasing, and needing no primality test: one C call.
_subset = partial(tuple.__new__, PrimeSet)


def _distinct_prime_set(values: list[int]) -> PrimeSet:
    """The PrimeSet of values given each at most once, for input read
    exactly: a value given twice is a ValueError naming it, where PrimeSet
    itself merges the two."""
    ps = PrimeSet(values)
    if len(ps) < len(values):
        repeated = next(v for i, v in enumerate(values) if v in values[:i])
        raise ValueError(f"{repeated} is repeated")
    return ps


def _check_odd_prime(r: int) -> None:
    if r == 2:
        raise ValueError("r must be odd")
    if not is_prime(r):
        raise ValueError(f"{r} is not prime")


class _Orders(dict):
    """ord(q mod s) for one q, keyed by the odd prime s: on its first read,
    the least divisor e of s - 1 with q^e = 1 (mod s).  s is not proven
    prime here, as the oracle reads members of a validated PrimeSet and
    ``multiplicative_order`` tests s first; an s dividing q is a ValueError."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        self.q = q

    def __missing__(self, s: int) -> int:
        x = self.q % s
        if x == 0:
            raise ValueError(f"order undefined: {s} divides {self.q}")
        for e in range(1, s):
            if (s - 1) % e == 0 and pow(x, e, s) == 1:
                self[s] = e
                return e
        raise AssertionError("unreachable: order must divide s - 1")


_order_table = lru_cache(maxsize=None)(_Orders)  # the one table per q


def multiplicative_order(q: int, r: int) -> int:
    """Least e >= 1 with q^e = 1 (mod r), for an odd prime r not dividing q.

    The result always divides r - 1.  r is small even when q is huge.
    """
    _check_odd_prime(r)
    return _order_table(q)[r]


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


def _check_closed_form_args(k: int, m: int, r: int) -> None:
    """What both closed forms need: r an odd prime, k >= 2, m >= 1 and r
    not dividing k, checked in that order."""
    _check_odd_prime(r)
    if k < 2:
        raise ValueError("k must be at least 2")
    if m < 1:
        raise ValueError("m must be positive")
    if k % r == 0:
        raise ValueError(f"{r} divides {k}")


def r_part_pow_minus_one(k: int, m: int, r: int) -> int:
    """(k^m - 1)_r via the closed form, never forming k^m.

    Equals (k^e - 1)_r * (m/e)_r when e = ord(k mod r) divides m, else 1.
    """
    _check_closed_form_args(k, m, r)
    e = multiplicative_order(k, r)
    if m % e != 0:
        return 1
    return pi_part(k**e - 1, (r,)) * pi_part(m // e, (r,))


def r_part_pow_minus_sign(k: int, m: int, r: int) -> int:
    """(k^m - (-1)^m)_r via the closed form based on e*."""
    _check_closed_form_args(k, m, r)
    es = e_star(multiplicative_order(k, r))
    if m % es != 0:
        return 1
    return pi_part(k**es - (-1) ** es, (r,)) * pi_part(m // es, (r,))
