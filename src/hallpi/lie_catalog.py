"""Symbolic descriptors of finite simple groups of Lie type.

Exact group orders, Weyl-group orders, inner-diagonal quotient orders and
prime-divisibility tests.  The A/2A parameter is the natural-module
dimension n (so ``A:2:q=7`` is the 2-dimensional linear group over F_7,
Lie rank 1); for B/C/D/2D it is the Lie rank.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial, gcd, log, prod

from .arith import _SMALL_PRIMES, PrimeSet, is_prime

__all__ = [
    "GroupId",
    "GroupSpecError",
    "parse_group_id",
    "validate_simple",
    "group_order",
    "weyl_order",
    "diag_quotient_order",
    "prime_divides_order",
    "pi_intersection",
]

CLASSICAL_FAMILIES = ("A", "2A", "B", "C", "D", "2D")
EXCEPTIONAL_FAMILIES = ("3D4", "E6", "2E6", "E7", "E8", "F4", "G2", "2B2", "2F4", "2G2")
FAMILIES = CLASSICAL_FAMILIES + EXCEPTIONAL_FAMILIES

SUZUKI_REE_FAMILIES = ("2B2", "2F4", "2G2")

# minimum dimension (A/2A) or rank (B/C/D/2D) for simplicity
_MIN_PARAM = {"A": 2, "2A": 3, "B": 2, "C": 2, "D": 4, "2D": 4}


class GroupSpecError(ValueError):
    """Malformed or invalid group descriptor."""


@dataclass(frozen=True)
class GroupId:
    """Symbolic identifier: family, dimension/rank parameter, q = p^f."""

    family: str
    n: int | None
    p: int
    f: int

    @cached_property
    def q(self) -> int:
        return self.p**self.f

    @cached_property
    def _spec(self) -> str:
        qtxt = str(self.p) if self.f == 1 else f"{self.p}^{self.f}"
        if self.n is None:
            return f"{self.family}:q={qtxt}"
        return f"{self.family}:{self.n}:q={qtxt}"

    def spec(self) -> str:
        """Canonical textual form; re-parses to an equal GroupId."""
        return self._spec

    def __str__(self) -> str:
        return self.spec()


_SPEC_RE = re.compile(
    r"^(?P<fam>2A|2B2|2D|2E6|2F4|2G2|3D4|A|B|C|D|E6|E7|E8|F4|G2)"
    r"(?::(?P<n>\d+))?:q=(?P<q>\d+)(?:\^(?P<f>\d+))?$"
)


def _iroot(v: int, f: int) -> int:
    """The integer part of the f-th root of v >= 1, by Newton's method from
    above, in exact integers."""
    x = 1 << -(-v.bit_length() // f)  # a power of 2 at or above the root
    while True:
        y = ((f - 1) * x + v // x ** (f - 1)) // f
        if y >= x:
            return x
        x = y


def _prime_power(v: int) -> tuple[int, int]:
    """Split v as p^f with p prime, or raise: v is p^f exactly when its
    f-th root p is an integer and prime.  A p below 50 is v's least prime
    factor, found by trial division, and f = log_p(v); a larger p has
    2^(5f) < 53^f <= v, which bounds the roots to try."""
    if v >= 2:
        p = next((p for p in _SMALL_PRIMES if v % p == 0), None)
        if p is not None:
            f = round(log(v, p))
            if p**f == v:
                return p, f
        else:
            for f in range(1, v.bit_length() // 5 + 1):
                p = _iroot(v, f)
                if p**f == v and is_prime(p):
                    return p, f
    raise GroupSpecError(f"q={v} is not a prime power")


def parse_group_id(text: str) -> GroupId:
    """Parse ``<family>:<n>:q=<p>[^<f>]`` (``<n>`` omitted for exceptionals)."""
    m = _SPEC_RE.match(text.strip())
    if m is None:
        raise GroupSpecError(f"malformed group spec: {text!r}")
    fam = m.group("fam")
    n = int(m.group("n")) if m.group("n") else None
    base = int(m.group("q"))
    if m.group("f"):
        p, f = base, int(m.group("f"))
        if not is_prime(p):
            raise GroupSpecError(f"base {p} of q is not prime")
        if f < 1:
            raise GroupSpecError("field exponent must be positive")
    else:
        p, f = _prime_power(base)
    if fam in CLASSICAL_FAMILIES and n is None:
        raise GroupSpecError(f"family {fam} requires a dimension/rank parameter")
    if fam in EXCEPTIONAL_FAMILIES and n is not None:
        raise GroupSpecError(f"family {fam} takes no dimension/rank parameter")
    g = GroupId(fam, n, p, f)
    ok, reason = validate_simple(g)
    if not ok:
        raise GroupSpecError(f"{text!r} does not name a simple group: {reason}")
    return g


def validate_simple(g: GroupId) -> tuple[bool, str]:
    """True iff the descriptor names a finite simple group, with a reason."""
    if g.family not in FAMILIES:
        return False, f"unknown family {g.family!r}"
    if not is_prime(g.p) or g.f < 1:
        return False, "q is not a prime power"
    q = g.q
    if g.family in CLASSICAL_FAMILIES:
        if g.n is None or g.n < _MIN_PARAM[g.family]:
            return False, "rank below family minimum"
    if g.family == "A" and g.n == 2 and q in (2, 3):
        return False, f"PSL_2({q}) is solvable"
    if g.family == "2A" and g.n == 3 and q == 2:
        return False, "PSU_3(2) is solvable"
    if g.family in ("B", "C") and g.n == 2 and q == 2:
        return False, f"{g.family}_2(2) is S_6, not simple"
    if g.family == "G2" and q == 2:
        return False, "G_2(2) is not simple"
    if g.family == "2B2":
        if g.p != 2 or g.f % 2 == 0 or g.f < 3:
            return False, "2B2 requires q = 2^(2m+1), m >= 1"
    if g.family == "2G2":
        if g.p != 3 or g.f % 2 == 0 or g.f < 3:
            return False, "2G2 requires q = 3^(2m+1), m >= 1"
    if g.family == "2F4":
        if g.p != 2 or g.f % 2 == 0:
            return False, "2F4 requires q = 2^(2m+1)"
        if g.f == 1:
            return False, "Tits group excluded"
    return True, "simple"


@lru_cache(maxsize=None)
def group_order(g: GroupId) -> int:
    """Exact order of the simple group (center factor divided out)."""
    q, n = g.q, g.n
    fam = g.family
    if fam == "A":
        return q ** (n * (n - 1) // 2) * prod(q**i - 1 for i in range(2, n + 1)) // gcd(n, q - 1)
    if fam == "2A":
        return (
            q ** (n * (n - 1) // 2)
            * prod(q**i - (-1) ** i for i in range(2, n + 1))
            // gcd(n, q + 1)
        )
    if fam in ("B", "C"):
        return q ** (n * n) * prod(q ** (2 * i) - 1 for i in range(1, n + 1)) // gcd(2, q - 1)
    if fam == "D":
        return (
            q ** (n * (n - 1))
            * (q**n - 1)
            * prod(q ** (2 * i) - 1 for i in range(1, n))
            // gcd(4, q**n - 1)
        )
    if fam == "2D":
        return (
            q ** (n * (n - 1))
            * (q**n + 1)
            * prod(q ** (2 * i) - 1 for i in range(1, n))
            // gcd(4, q**n + 1)
        )
    if fam == "G2":
        return q**6 * (q**6 - 1) * (q**2 - 1)
    if fam == "F4":
        return q**24 * (q**12 - 1) * (q**8 - 1) * (q**6 - 1) * (q**2 - 1)
    if fam == "E6":
        return (
            q**36
            * prod(q**d - 1 for d in (12, 9, 8, 6, 5, 2))
            // gcd(3, q - 1)
        )
    if fam == "2E6":
        return (
            q**36
            * (q**12 - 1)
            * (q**9 + 1)
            * (q**8 - 1)
            * (q**6 - 1)
            * (q**5 + 1)
            * (q**2 - 1)
            // gcd(3, q + 1)
        )
    if fam == "E7":
        return q**63 * prod(q**d - 1 for d in (18, 14, 12, 10, 8, 6, 2)) // gcd(2, q - 1)
    if fam == "E8":
        return q**120 * prod(q**d - 1 for d in (30, 24, 20, 18, 14, 12, 8, 2))
    if fam == "3D4":
        return q**12 * (q**8 + q**4 + 1) * (q**6 - 1) * (q**2 - 1)
    if fam == "2B2":
        return q**2 * (q**2 + 1) * (q - 1)
    if fam == "2G2":
        return q**3 * (q**3 + 1) * (q - 1)
    if fam == "2F4":
        return q**12 * (q**6 + 1) * (q**4 - 1) * (q**3 + 1) * (q - 1)
    raise GroupSpecError(f"unknown family {fam!r}")


_WEYL_FIXED = {
    "G2": 12,
    "F4": 1152,
    "E6": 51840,
    "2E6": 51840,
    "E7": 2903040,
    "E8": 696729600,
    "3D4": 192,  # W(D4)
    "2B2": 8,  # W(B2)
    "2F4": 1152,  # W(F4)
    "2G2": 12,  # W(G2)
}


def weyl_order(g: GroupId) -> int:
    """Order of the (untwisted) Weyl group of the underlying root system."""
    fam, n = g.family, g.n
    if fam in ("A", "2A"):
        return factorial(n)
    if fam in ("B", "C"):
        return 2**n * factorial(n)
    if fam in ("D", "2D"):
        return 2 ** (n - 1) * factorial(n)
    return _WEYL_FIXED[fam]


def diag_quotient_order(g: GroupId) -> int:
    """Order of the inner-diagonal quotient for this family."""
    q, n = g.q, g.n
    fam = g.family
    if fam == "A":
        return gcd(n, q - 1)
    if fam == "2A":
        return gcd(n, q + 1)
    if fam in ("B", "C", "E7"):
        return gcd(2, q - 1)
    if fam == "D":
        return gcd(4, q**n - 1)
    if fam == "2D":
        return gcd(4, q**n + 1)
    if fam == "E6":
        return gcd(3, q - 1)
    if fam == "2E6":
        return gcd(3, q + 1)
    return 1


def prime_divides_order(t: int, g: GroupId) -> bool:
    return group_order(g) % t == 0


def pi_intersection(pi: PrimeSet, g: GroupId) -> PrimeSet:
    """Subset of pi dividing |g|, pi itself when every member does; a pi
    that is not a PrimeSet is validated as one first.

    The smallest member and the rest are available as ``.smallest`` and
    ``.without(r)`` on the result.
    """
    if not isinstance(pi, PrimeSet):
        pi = PrimeSet(pi)
    order = group_order(g)
    kept = tuple(t for t in pi.primes if order % t == 0)
    return pi if len(kept) == len(pi) else PrimeSet._subset(kept)
