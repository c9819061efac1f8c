"""Symbolic descriptors of finite simple groups of Lie type.

Exact group orders, Weyl-group orders, inner-diagonal quotient orders and
the primes of pi dividing the order.  The A/2A parameter is the natural-module
dimension n (so ``A:2:q=7`` is the 2-dimensional linear group over F_7,
Lie rank 1); for B/C/D/2D it is the Lie rank.  Both orders are read off
the degrees of the Weyl group's basic invariants, and the centre's order
is stated once, in ``diag_quotient_order`` (Carter, *Simple Groups of Lie
Type*, 10.2 and 14.3); only 3D4 and the Suzuki-Ree orders are written out.
A ``GroupId`` sets its facts (q, hash, spec) once, as plain attributes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, log, prod

from .arith import _SMALL_PRIMES, MAX_DIGITS, PrimeSet, _subset, is_prime

__all__ = [
    "GroupId",
    "GroupSpecError",
    "parse_group_id",
    "validate_simple",
    "group_order",
    "weyl_order",
    "diag_quotient_order",
    "pi_intersection",
]

CLASSICAL_FAMILIES = ("A", "2A", "B", "C", "D", "2D")
EXCEPTIONAL_FAMILIES = ("3D4", "E6", "2E6", "E7", "E8", "F4", "G2", "2B2", "2F4", "2G2")
FAMILIES = CLASSICAL_FAMILIES + EXCEPTIONAL_FAMILIES

SUZUKI_REE_FAMILIES = ("2B2", "2F4", "2G2")

# minimum dimension (A/2A) or rank (B/C/D/2D) for simplicity
_MIN_PARAM = {"A": 2, "2A": 3, "B": 2, "C": 2, "D": 4, "2D": 4}

# The bound on q's bit length.  |E8(q)| has about 248 times q's bits, the
# most of any family: an E decision on E8 at {3,5,13} took 0.12 s at
# q = 7^1459 (4,096 bits), 0.80 s at 15,331 bits and 5.9 s at 61,327, and
# forming q = 7^(10^7) alone took 6.9 s (Python 3.11.7, one process on a
# 2-core x86-64 machine).
MAX_Q_BITS = 4096

# The bound on |G|'s bits, estimated as the group's dimension times q's
# bits: E8 at the q bound, the largest group MAX_Q_BITS admits, so only
# large-rank classical groups are refused.  A decision at {3,5} or
# {3,5,13}, parse included, took 0.16-0.30 s on A:581:q=7, 0.04-0.07 s on
# A:712:q=2 and on C:503:q=2, and 0.09-0.17 s on E8:q=7^1459, all at the
# bound; past it, A:1000:q=7 took 2.0 s (same machine as MAX_Q_BITS).
MAX_ORDER_BITS = 248 * MAX_Q_BITS


class GroupSpecError(ValueError):
    """Malformed or invalid group descriptor."""


@dataclass(frozen=True)
class GroupId:
    """Symbolic identifier: family, dimension/rank parameter, q = p^f.
    q, the hash and the spec are set when it is made and read with no lock.
    q is None unless p is prime, f >= 1 and p^f has at most ``MAX_Q_BITS``
    bits, so a spec that ``validate_simple`` refuses on its base, its
    exponent or its size never forms a p^f of more than twice that."""

    family: str
    n: int | None
    p: int
    f: int

    def __post_init__(self) -> None:
        fix, fam, n, p, f = object.__setattr__, self.family, self.n, self.p, self.f
        # p^f has over f*(bits(p) - 1) bits, so it is formed only below
        # 2 * MAX_Q_BITS bits, and then kept only up to MAX_Q_BITS
        q = p**f if f >= 1 and f * (p.bit_length() - 1) < MAX_Q_BITS and is_prime(p) else None
        fix(self, "q", q if q and q.bit_length() <= MAX_Q_BITS else None)
        # every lru_cache lookup keyed by a GroupId hashes it
        fix(self, "_hash", hash((fam, n, p, f)))
        qtxt = str(p) if f == 1 else f"{p}^{f}"
        fix(self, "_spec", f"{fam}:q={qtxt}" if n is None else f"{fam}:{n}:q={qtxt}")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild from the fields, so no hash is carried to another process
        return GroupId, (self.family, self.n, self.p, self.f)

    def spec(self) -> str:
        """Canonical textual form; re-parses to an equal GroupId."""
        return self._spec

    def __str__(self) -> str:
        return self.spec()


_SPEC_RE = re.compile(
    r"^(?P<fam>2A|2B2|2D|2E6|2F4|2G2|3D4|A|B|C|D|E6|E7|E8|F4|G2)"
    r"(?::(?P<n>[0-9]+))?:q=(?P<q>[0-9]+)(?:\^(?P<f>[0-9]+))?$"
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


# the one GroupId of each simple group parsed or scanned, keyed by
# (family, n, p, f), so every lru_cache keyed by one finds it by identity,
# never through the generated __eq__
_PARSED: dict[tuple, GroupId] = {}


def _simple_group(fam: str, n: int | None, p: int, f: int) -> tuple[GroupId | None, str]:
    """(the one GroupId of (fam, n, q = p^f), "simple") where it names a
    simple group, else (None, the reason ``validate_simple`` gives).  Both
    ``parse_group_id`` and the scans' ``simple_groups`` take their groups
    from here."""
    g = _PARSED.get((fam, n, p, f))
    if g is not None:
        return g, "simple"
    g = GroupId(fam, n, p, f)
    ok, reason = validate_simple(g)
    if not ok:
        return None, reason
    _PARSED[fam, n, p, f] = g
    return g, reason


# a field of more than MAX_DIGITS digits, the length of 2^MAX_Q_BITS,
# names a value over every bound
_OVER = 2**MAX_Q_BITS


def _read_digits(digits: str) -> int:
    """The integer a digit string names, or 2^MAX_Q_BITS where the string,
    leading zeros dropped, has more digits than that: every field refuses
    the stand-in on the rule it refuses the value by (q over MAX_Q_BITS
    bits for a q, base or exponent, |G| over MAX_ORDER_BITS for a rank),
    and int() refuses a string of over 4,300 digits."""
    digits = digits.lstrip("0")
    return _OVER if len(digits) > MAX_DIGITS else int(digits or "0")


def parse_group_id(text: str) -> GroupId:
    """Parse ``<family>:<n>:q=<p>[^<f>]`` (``<n>`` omitted for exceptionals).
    Specs naming the same group parse to the same object; a spec naming
    none is refused with the reason ``validate_simple`` gives."""
    m = _SPEC_RE.match(text.strip())
    if m is None:
        raise GroupSpecError(f"malformed group spec: {text!r}")
    n = _read_digits(m.group("n")) if m.group("n") else None
    base = _read_digits(m.group("q"))
    if m.group("f"):
        p, f = base, _read_digits(m.group("f"))
    else:  # a q over the bound is refused for its size, unsplit
        p, f = (base, 1) if base.bit_length() > MAX_Q_BITS else _prime_power(base)
    g, reason = _simple_group(m.group("fam"), n, p, f)
    if g is None:
        raise GroupSpecError(f"{text!r} does not name a simple group: {reason}")
    return g


def validate_simple(g: GroupId) -> tuple[bool, str]:
    """True iff the descriptor names a finite simple group, with a reason."""
    if g.family not in FAMILIES:
        return False, f"unknown family {g.family!r}"
    q = g.q
    if q is None:  # p is not prime, f < 1 or q is over the bound, named in that order
        if g.p.bit_length() <= MAX_Q_BITS and not is_prime(g.p):
            return False, f"base {g.p} of q is not prime"
        if g.f < 1:
            return False, "field exponent must be positive"
        return False, f"q has more than MAX_Q_BITS = {MAX_Q_BITS} bits"
    if g.family in CLASSICAL_FAMILIES:
        if g.n is None:
            return False, f"family {g.family} requires a dimension/rank parameter"
        if g.n < _MIN_PARAM[g.family]:
            return False, "rank below family minimum"
    elif g.n is not None:
        return False, f"family {g.family} takes no dimension/rank parameter"
    if _order_bits(g) > MAX_ORDER_BITS:
        return False, (f"|G| has more than MAX_ORDER_BITS = 248 * MAX_Q_BITS = "
                       f"{MAX_ORDER_BITS} bits, estimated as its dimension times q's bits")
    if g.family == "A" and g.n == 2 and q in (2, 3):
        return False, f"PSL_2({q}) is solvable"
    if g.family == "2A" and g.n == 3 and q == 2:
        return False, "PSU_3(2) is solvable"
    if g.family in ("B", "C") and g.n == 2 and q == 2:
        return False, f"{g.family}_2(2) is S_6, not simple"
    if g.family == "G2" and q == 2:
        return False, "G_2(2) is not simple"
    if g.family in ("2B2", "2G2"):
        p = 2 if g.family == "2B2" else 3
        if g.p != p or g.f % 2 == 0 or g.f < 3:
            return False, f"{g.family} requires q = {p}^(2m+1), m >= 1"
    if g.family == "2F4":
        if g.p != 2 or g.f % 2 == 0:
            return False, "2F4 requires q = 2^(2m+1)"
        if g.f == 1:
            return False, "Tits group excluded"
    return True, "simple"


# the degrees of the basic invariants of the exceptional Weyl groups
_EXCEPTIONAL_DEGREES = {
    "G2": (2, 6),
    "F4": (2, 6, 8, 12),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
}


@lru_cache(maxsize=None)
def _degrees(family: str, n: int | None) -> tuple[int, ...]:
    """The degrees of the basic invariants of the Weyl group of the
    family's untwisted type: 3D4 uses D4, 2B2 uses B2, and every other
    twisted family its name without the twist.  For D/2D the last degree
    is n.  Cached by (family, n), which hashes faster than a GroupId."""
    fam, n = {"3D4": ("D", 4), "2B2": ("B", 2)}.get(family, (family.lstrip("23"), n))
    if fam in _EXCEPTIONAL_DEGREES:
        return _EXCEPTIONAL_DEGREES[fam]
    if fam == "A":
        return tuple(range(2, n + 1))
    if fam in ("B", "C"):
        return tuple(range(2, 2 * n + 1, 2))
    if fam == "D":
        return (*range(2, 2 * n - 1, 2), n)
    raise GroupSpecError(f"unknown family {family!r}")


@lru_cache(maxsize=None)
def _dimension(family: str, n: int | None) -> int:
    """The dimension of the family's algebraic group, its roots plus its
    rank, 2 * sum(degrees) - rank: written out for the classical families,
    so a large n builds no degree tuple.  Cached by (family, n), as
    ``_degrees`` is."""
    if family in ("A", "2A"):
        return n * n - 1
    if family in ("B", "C"):
        return n * (2 * n + 1)
    if family in ("D", "2D"):
        return n * (2 * n - 1)
    degrees = _degrees(family, n)
    return 2 * sum(degrees) - len(degrees)


def _order_bits(g: GroupId) -> int:
    """|G|'s bits, estimated as its dimension times q's bits, for a g whose
    q is set: the estimate MAX_ORDER_BITS bounds."""
    return _dimension(g.family, g.n) * g.q.bit_length()


@lru_cache(maxsize=None)
def group_order(g: GroupId) -> int:
    """Exact order of the simple group: q^N * prod(q^d - e_d) over the Weyl
    degrees d, with N = sum(d - 1), divided by the centre's order.  e_d is
    1, except (-1)^d for 2A and 2E6 and -1 for 2D's last degree n.  3D4 and
    the Suzuki-Ree groups have their orders written out."""
    q, fam = g.q, g.family
    if fam == "3D4":
        return q**12 * (q**8 + q**4 + 1) * (q**6 - 1) * (q**2 - 1)
    if fam == "2B2":
        return q**2 * (q**2 + 1) * (q - 1)
    if fam == "2G2":
        return q**3 * (q**3 + 1) * (q - 1)
    if fam == "2F4":
        return q**12 * (q**6 + 1) * (q**4 - 1) * (q**3 + 1) * (q - 1)
    degrees = _degrees(fam, g.n)
    if fam in ("2A", "2E6"):
        factors = [q**d - (-1) ** d for d in degrees]
    else:
        factors = [q**d - 1 for d in degrees]
        if fam == "2D":
            factors[-1] = q**g.n + 1  # the last degree is n
    return q ** (sum(degrees) - len(degrees)) * prod(factors) // diag_quotient_order(g)


@lru_cache(maxsize=None)
def weyl_order(g: GroupId) -> int:
    """Order of the (untwisted) Weyl group: the product of its degrees,
    computed once per group, as its order is."""
    return prod(_degrees(g.family, g.n))


def diag_quotient_order(g: GroupId) -> int:
    """Order of the inner-diagonal quotient, the centre of the simply
    connected group; the one place that states it.  A family twisted by a
    graph automorphism of order 2 has q + 1 where its untwisted type has
    q - 1."""
    q, n, fam = g.q, g.n, g.family
    sign = -1 if fam[0] == "2" else 1
    if fam in ("D", "2D"):
        return gcd(4, q**n - sign)
    bound = {"A": n, "2A": n, "B": 2, "C": 2, "E7": 2, "E6": 3, "2E6": 3}.get(fam, 1)
    return gcd(bound, q - sign)


def pi_intersection(pi: PrimeSet, g: GroupId) -> PrimeSet:
    """Subset of pi dividing |g|, pi itself when every member does; a pi
    that is not a PrimeSet is validated as one first."""
    if not isinstance(pi, PrimeSet):
        pi = PrimeSet(pi)
    order = group_order(g)
    kept = tuple(t for t in pi if order % t == 0)
    return pi if len(kept) == len(pi) else _subset(kept)
