"""Arithmetic decision engine for the Hall properties E, C, D and U.

Evaluates the four condition families (I-IV) that characterise the D
property for a simple group of Lie type with 2 outside pi, the trivial
small-intersection case, the classification of groups having Hall
subgroups without the full conjugacy-and-dominance property, and the
composition-factor reductions.  Every verdict carries a predicate trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Union

from .arith import PrimeSet, is_prime, multiplicative_order, pi_part, r_part_pow_minus_one
from .lie_catalog import (
    GroupId,
    SUZUKI_REE_FAMILIES,
    group_order,
    pi_intersection,
    weyl_order,
)

__all__ = [
    "Verdict",
    "FactorDescriptor",
    "ONAN",
    "check_condition_I",
    "check_condition_II",
    "check_condition_III",
    "check_condition_IV",
    "decide_dpi",
    "decide_upi",
    "decide_epi",
    "decide_cpi",
    "classify_epi_minus_dpi",
    "reduce_composition",
]

# Marker for the one sporadic group appearing in the E-minus-D classification.
ONAN = "O'N"
_ONAN_PRIMES = (2, 3, 5, 7, 11, 19, 31)

Trace = list[dict[str, Any]]


def _rec(trace: Trace, pred: str, value: bool, **args: Any) -> bool:
    trace.append({"pred": pred, "args": args, "value": bool(value)})
    return bool(value)


@dataclass
class Verdict:
    """Answer of a property decision, with its full predicate trace.
    ``inter`` is the pi inter pi(S) the decision computed, so a decision
    derived from this one need not compute it again."""

    property: str  # one of E, C, D, U
    holds: str  # yes | no | out_of_scope
    condition: str | None = None
    trace: Trace = field(default_factory=list)
    hall_cyclic: bool | None = None
    group: str | None = None
    pi: tuple[int, ...] = ()
    inter: PrimeSet | None = field(default=None, repr=False, compare=False)

    @property
    def yes(self) -> bool:
        return self.holds == "yes"

    def to_json(self) -> dict[str, Any]:
        return {
            "group": self.group,
            "pi": list(self.pi),
            "property": self.property,
            "holds": self.holds,
            "condition": self.condition,
            "hall_cyclic": self.hall_cyclic,
            "trace": self.trace,
        }


@dataclass(frozen=True)
class FactorDescriptor:
    """One composition factor: a Lie-type group, a prime cyclic group, an
    explicitly pi- or pi'-group, or a named unsupported factor."""

    kind: str  # lie | cyclic | pi_group | pi_prime_group | unsupported
    group: GroupId | None = None
    prime: int | None = None
    name: str | None = None

    @classmethod
    def lie(cls, g: GroupId) -> "FactorDescriptor":
        return cls("lie", group=g)

    @classmethod
    def cyclic(cls, p: int) -> "FactorDescriptor":
        if not is_prime(p):
            raise ValueError("cyclic factors carry a prime order")
        return cls("cyclic", prime=p)

    @classmethod
    def pi_group(cls) -> "FactorDescriptor":
        return cls("pi_group")

    @classmethod
    def pi_prime_group(cls) -> "FactorDescriptor":
        return cls("pi_prime_group")

    @classmethod
    def unsupported(cls, name: str) -> "FactorDescriptor":
        return cls("unsupported", name=name)


def _orders_on(q: int, primes) -> dict[int, int]:
    return {s: multiplicative_order(q, s) for s in primes}


def check_condition_I(g: GroupId, pi: PrimeSet) -> tuple[bool, Trace]:
    """Characteristic-in-pi case: the rest of pi sits in pi(q-1) and the
    Weyl order avoids every relevant prime."""
    if g.p not in pi:
        raise ValueError("Condition I requires the defining characteristic in pi")
    if 2 in pi:
        raise ValueError("Condition I requires 2 outside pi")
    return _condition_I(g, pi_intersection(pi, g))


def _condition_I(g: GroupId, inter: PrimeSet) -> tuple[bool, Trace]:
    """Condition I's body on ``inter`` = pi inter pi(g)."""
    trace: Trace = []
    tau = inter.without(g.p)
    q = g.q
    w = weyl_order(g)
    ok = True
    for t in tau:
        ok &= _rec(trace, "t divides q-1", (q - 1) % t == 0, t=t, q=q)
    for t in inter:
        ok &= _rec(trace, "t does not divide |W|", w % t != 0, t=t, weyl_order=w)
    return bool(ok), trace


def _floors_equal(n: int, r: int) -> bool:
    return n // (r - 1) == n // r


def _floors_off_by_one(n: int, r: int) -> bool:
    return n // (r - 1) == n // r + 1


def check_condition_II(g: GroupId, pi: PrimeSet) -> tuple[str | None, Trace]:
    """Mixed-order case: some member of tau has order b different from a.

    Returns the first satisfied subcase (a)-(h) in listing order, or None.
    """
    return _condition_II(g, *_order_facts(g, _check_II_III_pre(g, pi)))


def _order_facts(g: GroupId, inter: PrimeSet) -> tuple[int, PrimeSet, int, dict[int, int]]:
    """What Conditions II and III both start from, given ``inter`` = pi
    inter pi(g): r = min(inter), tau = inter without r, ord(q mod r) and
    ord(q mod s) for each s in tau."""
    r = inter.smallest
    tau = inter.without(r)
    return r, tau, multiplicative_order(g.q, r), _orders_on(g.q, tau)


def _condition_II(g: GroupId, r: int, tau: PrimeSet, a: int,
                  orders: dict[int, int]) -> tuple[str | None, Trace]:
    """Condition II's body on the facts ``_order_facts`` lists, with
    a = ord(q mod r)."""
    trace: Trace = []
    q, n = g.q, g.n
    _rec(trace, "a = ord(q mod r)", True, r=r, a=a)
    for s, o in orders.items():
        _rec(trace, "ord(q mod s)", True, s=s, order=o)
    if not _rec(trace, "exists t in tau with ord(q,t) != a", any(o != a for o in orders.values())):
        return None, trace

    fam = g.family
    if fam == "A":
        b = r
        common = (
            _rec(trace, "a == r-1", a == r - 1, a=a, r=r)
            and _rec(
                trace, "(q^(r-1)-1)_r == r", r_part_pow_minus_one(q, r - 1, r) == r, q=q, r=r
            )
            and all(
                _rec(trace, "ord(q,s) == b", orders[s] == b, s=s, b=b)
                and _rec(trace, "n < b*s", n < b * s, n=n, b=b, s=s)
                for s in tau
            )
        )
        if common:
            if _rec(trace, "[n/(r-1)] == [n/r]", _floors_equal(n, r), n=n, r=r):
                return "II(a)", trace
            if _rec(
                trace, "[n/(r-1)] == [n/r]+1", _floors_off_by_one(n, r), n=n, r=r
            ) and _rec(trace, "n == -1 mod r", n % r == r - 1, n=n, r=r):
                return "II(b)", trace
        return None, trace

    if fam == "2A":
        b = 2 * r
        if not all(
            _rec(trace, "ord(q,s) == b", orders[s] == b, s=s, b=b) for s in tau
        ):
            return None, trace
        if not _rec(
            trace, "(q^(r-1)-1)_r == r", r_part_pow_minus_one(q, r - 1, r) == r, q=q, r=r
        ):
            return None, trace
        r_mod4 = r % 4
        a_ok = (r_mod4 == 1 and a == r - 1) or (r_mod4 == 3 and a == (r - 1) // 2)
        _rec(trace, "a matches r mod 4 shape", a_ok, a=a, r_mod_4=r_mod4)
        if not a_ok:
            return None, trace
        if _rec(trace, "[n/(r-1)] == [n/r]", _floors_equal(n, r), n=n, r=r):
            return ("II(c)" if r_mod4 == 1 else "II(d)"), trace
        if _rec(
            trace, "[n/(r-1)] == [n/r]+1", _floors_off_by_one(n, r), n=n, r=r
        ) and _rec(trace, "n == -1 mod r", n % r == r - 1, n=n, r=r):
            return ("II(e)" if r_mod4 == 1 else "II(f)"), trace
        return None, trace

    if fam == "2D":
        # (g): a odd, n = b = 2a; (h): b odd, n = a = 2b
        if (
            _rec(trace, "a odd", a % 2 == 1, a=a)
            and _rec(trace, "n == 2a", n == 2 * a, n=n, a=a)
            and _rec(trace, "some ord(q,t) == n", any(o == n for o in orders.values()))
            and all(
                _rec(trace, "ord(q,s) in {a, 2a}", orders[s] in (a, 2 * a), s=s)
                for s in tau
            )
        ):
            return "II(g)", trace
        b = a // 2
        if (
            _rec(trace, "a even", a % 2 == 0, a=a)
            and _rec(trace, "a/2 odd", a % 4 == 2, a=a)
            and _rec(trace, "n == a", n == a, n=n, a=a)
            and _rec(trace, "some ord(q,t) == a/2", any(o == b for o in orders.values()), b=b)
            and all(
                _rec(trace, "ord(q,s) in {a/2, a}", orders[s] in (b, a), s=s)
                for s in tau
            )
        ):
            return "II(h)", trace
        return None, trace

    _rec(trace, "family has a Condition II subcase", False, family=fam)
    return None, trace


def check_condition_III(g: GroupId, pi: PrimeSet) -> tuple[str | None, Trace]:
    """Uniform-order case: every member of tau has the same order c as r."""
    return _condition_III(g, *_order_facts(g, _check_II_III_pre(g, pi)))


def _condition_III(g: GroupId, r: int, tau: PrimeSet, c: int,
                   orders: dict[int, int]) -> tuple[str | None, Trace]:
    """Condition III's body on the facts ``_order_facts`` lists, with
    c = ord(q mod r)."""
    trace: Trace = []
    n = g.n
    _rec(trace, "c = ord(q mod r)", True, r=r, c=c)
    if not all(
        _rec(trace, "ord(q,t) == c", orders[t] == c, t=t, c=c) for t in tau
    ):
        return None, trace

    fam = g.family

    def forall(pred_name: str, f) -> bool:
        return all(_rec(trace, pred_name, f(s), s=s, c=c, n=n) for s in tau)

    if fam == "A":
        if forall("n < c*s", lambda s: n < c * s):
            return "III(a)", trace
    elif fam == "2A":
        if _rec(trace, "c == 0 mod 4", c % 4 == 0, c=c) and forall(
            "n < c*s", lambda s: n < c * s
        ):
            return "III(b)", trace
        if _rec(trace, "c == 2 mod 4", c % 4 == 2, c=c) and forall(
            "2n < c*s", lambda s: 2 * n < c * s
        ):
            return "III(c)", trace
        if _rec(trace, "c odd", c % 2 == 1, c=c) and forall(
            "n < 2*c*s", lambda s: n < 2 * c * s
        ):
            return "III(d)", trace
    elif fam in ("B", "C", "D", "2D"):
        if fam in ("B", "C", "2D"):
            if _rec(trace, "c even", c % 2 == 0, c=c) and forall(
                "2n < c*s", lambda s: 2 * n < c * s
            ):
                return "III(e)", trace
        if fam in ("B", "C", "D"):
            if _rec(trace, "c odd", c % 2 == 1, c=c) and forall(
                "n < c*s", lambda s: n < c * s
            ):
                return "III(f)", trace
        if fam == "D":
            if _rec(trace, "c even", c % 2 == 0, c=c) and forall(
                "2n <= c*s", lambda s: 2 * n <= c * s
            ):
                return "III(g)", trace
        if fam == "2D":
            if _rec(trace, "c odd", c % 2 == 1, c=c) and forall(
                "n <= c*s", lambda s: n <= c * s
            ):
                return "III(h)", trace
    elif fam == "3D4":
        return "III(i)", trace
    elif fam == "E6":
        if _rec(
            trace,
            "not (r=3, c=1 with 5 or 13 in tau)",
            not (r == 3 and c == 1 and (5 in tau or 13 in tau)),
            r=r,
            c=c,
        ):
            return "III(j)", trace
    elif fam == "2E6":
        if _rec(
            trace,
            "not (r=3, c=2 with 5 or 13 in tau)",
            not (r == 3 and c == 2 and (5 in tau or 13 in tau)),
            r=r,
            c=c,
        ):
            return "III(k)", trace
    elif fam == "E7":
        ok = not (r == 3 and c in (1, 2) and any(t in tau for t in (5, 7, 13)))
        ok = ok and not (r == 5 and c in (1, 2) and 7 in tau)
        if _rec(trace, "E7 exclusion lists", ok, r=r, c=c):
            return "III(l)", trace
    elif fam == "E8":
        ok = not (r == 3 and c in (1, 2) and any(t in tau for t in (5, 7, 13)))
        ok = ok and not (r == 5 and c in (1, 2) and any(t in tau for t in (7, 31)))
        if _rec(trace, "E8 exclusion lists", ok, r=r, c=c):
            return "III(m)", trace
    elif fam == "G2":
        return "III(n)", trace
    elif fam == "F4":
        if _rec(
            trace,
            "not (r=3, c=1 with 13 in tau)",
            not (r == 3 and c == 1 and 13 in tau),
            r=r,
            c=c,
        ):
            return "III(o)", trace
    return None, trace


def _check_II_III_pre(g: GroupId, pi: PrimeSet) -> PrimeSet:
    """pi inter pi(g), once the premises of Conditions II/III are checked."""
    if 2 in pi:
        raise ValueError("Conditions II/III require 2 outside pi")
    if g.p in pi:
        raise ValueError("Conditions II/III require the characteristic outside pi")
    if g.family in SUZUKI_REE_FAMILIES:
        raise ValueError("Conditions II/III exclude the Suzuki/Ree families")
    inter = pi_intersection(pi, g)
    if len(inter) < 2:
        raise ValueError("Conditions II/III require at least two relevant primes")
    return inter


def _torus_prime_sets(g: GroupId) -> list[tuple[str, int]]:
    """Maximal-torus order values whose prime sets gate Condition IV."""
    q = g.q
    m = (g.f - 1) // 2
    if g.family == "2B2":
        return [
            ("q-1", q - 1),
            ("q+2^(m+1)+1", q + 2 ** (m + 1) + 1),
            ("q-2^(m+1)+1", q - 2 ** (m + 1) + 1),
        ]
    if g.family == "2G2":
        return [
            ("q-1", q - 1),
            ("q+3^(m+1)+1", q + 3 ** (m + 1) + 1),
            ("q-3^(m+1)+1", q - 3 ** (m + 1) + 1),
        ]
    if g.family == "2F4":
        t = 2 ** (m + 1)
        u = 2 ** (3 * m + 2)
        # The two double-sign expressions are expanded with the sign choices
        # paired top-with-top, giving four values.
        return [
            ("q^2-1", q * q - 1),
            ("q^2+1", q * q + 1),
            ("q+2^(m+1)+1", q + t + 1),
            ("q-2^(m+1)+1", q - t + 1),
            ("q^2+2^(3m+2)-2^(m+1)-1", q * q + u - t - 1),
            ("q^2-2^(3m+2)+2^(m+1)-1", q * q - u + t - 1),
            ("q^2+2^(3m+2)+q+2^(m+1)-1", q * q + u + q + t - 1),
            ("q^2-2^(3m+2)+q-2^(m+1)-1", q * q - u + q - t - 1),
        ]
    raise ValueError("Condition IV applies only to the Suzuki/Ree families")


def check_condition_IV(g: GroupId, pi: PrimeSet) -> tuple[str | None, Trace]:
    """Suzuki/Ree case: the relevant primes fit inside one torus-order set."""
    if g.family not in SUZUKI_REE_FAMILIES:
        raise ValueError("Condition IV applies only to the Suzuki/Ree families")
    if 2 in pi:
        raise ValueError("Condition IV requires 2 outside pi")
    return _condition_IV(g, pi_intersection(pi, g))


def _condition_IV(g: GroupId, inter: PrimeSet) -> tuple[str | None, Trace]:
    """Condition IV's body on ``inter`` = pi inter pi(g)."""
    trace: Trace = []
    subcase = {"2B2": "IV(a)", "2G2": "IV(b)", "2F4": "IV(c)"}[g.family]
    for label, value in _torus_prime_sets(g):
        contained = all(value % t == 0 for t in inter)
        _rec(trace, "pi(S)-primes contained in pi(torus order)", contained,
             torus=label, torus_order=value)
        if contained:
            return subcase, trace
    return None, trace


def _base_verdict(prop: str, g: GroupId, pi: PrimeSet, inter: PrimeSet) -> Verdict:
    return Verdict(property=prop, holds="no", group=g.spec(), pi=tuple(pi), inter=inter)


def decide_dpi(g: GroupId, pi: PrimeSet) -> Verdict:
    """Decide the full Sylow-analogue property for a simple Lie-type group.

    Each branch below reaches a condition only where that condition's
    premises hold, so the condition bodies take the ``inter`` computed here,
    Conditions II and III the order facts computed once from it, and their
    answers are the public ``check_condition_*`` answers.
    """
    inter = pi_intersection(pi, g)
    v = _base_verdict("D", g, pi, inter)
    if len(inter) <= 1:
        v.holds = "yes"
        v.condition = "trivial_small_pi"
        _rec(v.trace, "|pi inter pi(S)| <= 1", True, intersection=list(inter))
        return v
    if 2 in pi:
        v.holds = "out_of_scope"
        _rec(v.trace, "2 in pi: criterion not covered", True)
        return v
    if g.family in SUZUKI_REE_FAMILIES:
        _rec(v.trace, "Suzuki/Ree family: routed to Condition IV", True, family=g.family)
        sub, trace = _condition_IV(g, inter)
        v.trace.extend(trace)
        if sub is not None:
            v.holds, v.condition = "yes", sub
        return v
    if g.p in pi:
        ok, trace = _condition_I(g, inter)
        v.trace.extend(trace)
        if ok:
            v.holds, v.condition = "yes", "I"
        return v
    facts = _order_facts(g, inter)
    sub, trace = _condition_II(g, *facts)
    v.trace.extend(trace)
    if sub is not None:
        v.holds, v.condition = "yes", sub
        if sub in ("II(g)", "II(h)"):
            v.hall_cyclic = True
        return v
    sub, trace = _condition_III(g, *facts)
    v.trace.extend(trace)
    if sub is not None:
        v.holds, v.condition = "yes", sub
    return v


def decide_upi(g: GroupId, pi: PrimeSet) -> Verdict:
    """Overgroup-hereditary variant; identical verdict by the main theorem."""
    v = decide_dpi(g, pi)
    v.property = "U"
    _rec(v.trace, "U equals D by main theorem", True)
    return v


def classify_epi_minus_dpi(
    g_or_sporadic: Union[GroupId, str], pi: PrimeSet
) -> tuple[str | None, Trace]:
    """Match the classification of simple groups having a pi-Hall subgroup
    while failing the D property.  Returns the case tag or None."""
    if 2 in pi:
        raise ValueError("classification requires 2 outside pi")
    if isinstance(g_or_sporadic, str):
        trace: Trace = []
        if g_or_sporadic not in (ONAN, "ON", "O'N"):
            raise ValueError(f"unsupported sporadic marker {g_or_sporadic!r}")
        inter = sorted(t for t in pi if t in _ONAN_PRIMES)
        if _rec(trace, "pi inter pi(O'N) == {3,5}", inter == [3, 5], intersection=inter):
            return "epi_case_1", trace
        return None, trace

    d = decide_dpi(g_or_sporadic, pi)
    return _classify_lie(g_or_sporadic, pi, d.inter, d.yes)


def _classify_lie(
    g: GroupId, pi: PrimeSet, inter: PrimeSet, d_holds: bool
) -> tuple[str | None, Trace]:
    """The classification for a Lie-type g with 2 outside pi, given
    ``inter`` = pi inter pi(g) and whether D holds on (g, pi)."""
    trace: Trace = []
    if not _rec(trace, "|pi inter pi(S)| >= 2", len(inter) >= 2, intersection=list(inter)):
        return None, trace
    if d_holds:
        _rec(trace, "D holds, so not in E minus D", True)
        return None, trace
    q, n = g.q, g.n

    if g.p in pi:
        w = weyl_order(g)
        ok = _rec(trace, "p divides |W|", w % g.p == 0, p=g.p, weyl_order=w)
        for t in inter.without(g.p):
            ok &= _rec(trace, "t divides q-1", (q - 1) % t == 0, t=t, q=q)
            ok &= _rec(trace, "t does not divide |W|", w % t != 0, t=t, weyl_order=w)
        return ("epi_case_2A", trace) if ok else (None, trace)

    r = inter.smallest
    tau = inter.without(r)
    fam = g.family

    if fam in ("A", "2A"):
        a = multiplicative_order(q, r)
        _rec(trace, "ord(q mod r)", True, r=r, order=a)
        if fam == "A":
            tag, b_req, a_req = "epi_case_2B(a)", 1, r - 1
            shape_ok = True
        else:
            if r % 4 == 1:
                tag, b_req, a_req = "epi_case_2B(b)", 2, r - 1
            else:
                tag, b_req, a_req = "epi_case_2B(c)", 2, (r - 1) // 2
            shape_ok = _rec(trace, "r mod 4 shape", True, r_mod_4=r % 4)
        ok = (
            shape_ok
            and _rec(trace, "ord(q,r) as required", a == a_req, order=a, required=a_req)
            and _rec(
                trace, "(q^(r-1)-1)_r == r", r_part_pow_minus_one(q, r - 1, r) == r, q=q, r=r
            )
            and _rec(trace, "[n/(r-1)] == [n/r]", _floors_equal(n, r), n=n, r=r)
            and all(
                _rec(
                    trace,
                    "ord(q,s) as required",
                    multiplicative_order(q, s) == b_req,
                    s=s,
                    required=b_req,
                )
                and _rec(trace, "n < s", n < s, n=n, s=s)
                for s in tau
            )
        )
        return (tag, trace) if ok else (None, trace)

    def contained_in(value: int, label: str) -> bool:
        return _rec(
            trace,
            "pi(S)-primes contained in pi(value)",
            all(value % t == 0 for t in inter),
            value_label=label,
        )

    def required(present: tuple[int, ...], absent: tuple[int, ...]) -> bool:
        ok = True
        for t in present:
            ok &= _rec(trace, "t in pi inter pi(S)", t in inter, t=t)
        for t in absent:
            ok &= _rec(trace, "t not in pi inter pi(S)", t not in inter, t=t)
        return ok

    if fam == "E6":
        if contained_in(q - 1, "q-1") and required((3, 13), (5,)):
            return "epi_case_2B(d)", trace
    elif fam == "2E6":
        if contained_in(q + 1, "q+1") and required((3, 13), (5,)):
            return "epi_case_2B(e)", trace
    elif fam == "E7":
        if (contained_in(q - 1, "q-1") or contained_in(q + 1, "q+1")) and required(
            (3, 13), (5, 7)
        ):
            return "epi_case_2B(f)", trace
    elif fam == "E8":
        in_set = contained_in(q - 1, "q-1") or contained_in(q + 1, "q+1")
        if in_set and required((3, 13), (5, 7)):
            return "epi_case_2B(g)", trace
        if in_set and required((5, 31), (3, 7)):
            return "epi_case_2B(h)", trace
    elif fam == "F4":
        if (contained_in(q - 1, "q-1") or contained_in(q + 1, "q+1")) and required(
            (3, 13), ()
        ):
            return "epi_case_2B(i)", trace
    return None, trace


def decide_epi(g: GroupId, pi: PrimeSet) -> Verdict:
    """Hall-subgroup existence; with 2 outside pi this coincides with the
    conjugacy property."""
    return _epi_from_dpi(g, pi, decide_dpi(g, pi))


def _epi_from_dpi(g: GroupId, pi: PrimeSet, d: Verdict) -> Verdict:
    """E on (g, pi) from ``d``, the D verdict on the same point: D implies
    E, and where D fails E holds exactly on the E-minus-D classification.
    Where D is not "no" (a yes, the Sylow case |pi inter pi(S)| <= 1, or
    out of scope with 2 in pi) E is D's answer.  ``d`` is read, never
    changed, and its pi inter pi(g) reused."""
    v = _base_verdict("E", g, pi, d.inter)
    if d.holds != "no":
        v.holds, v.condition, v.hall_cyclic = d.holds, d.condition, d.hall_cyclic
        v.trace.extend(d.trace)
        return v
    tag, trace = _classify_lie(g, pi, d.inter, False)
    v.trace.extend(trace)
    if tag is not None:
        v.holds, v.condition = "yes", tag
    return v


def decide_cpi(g: GroupId, pi: PrimeSet) -> Verdict:
    """Conjugacy property; equals existence when 2 is outside pi, and when
    |pi inter pi(S)| <= 1 by Sylow's theorem."""
    v = decide_epi(g, pi)
    v.property = "C"
    if 2 not in pi:
        _rec(v.trace, "C equals E for odd pi", True)
    return v


def reduce_composition(
    factors: list[FactorDescriptor], pi: PrimeSet, property: str
) -> Verdict:
    """Conjunction of per-factor verdicts for D, U or E."""
    if property not in ("D", "U", "E"):
        raise ValueError("property must be one of D, U, E")
    if property == "E" and 2 in pi:
        raise ValueError("the E reduction requires 2 outside pi")
    v = Verdict(property=property, holds="yes", pi=tuple(pi))
    if not factors:
        _rec(v.trace, "empty factor list: trivial group", True)
        return v
    decide = {"D": decide_dpi, "U": decide_upi, "E": decide_epi}[property]
    any_oos = False
    for i, fd in enumerate(factors):
        if fd.kind == "cyclic":
            _rec(v.trace, "cyclic factor: holds", True, index=i, prime=fd.prime)
        elif fd.kind == "pi_group":
            _rec(v.trace, "pi-group factor: holds", True, index=i)
        elif fd.kind == "pi_prime_group":
            _rec(v.trace, "pi'-group factor: holds", True, index=i)
        elif fd.kind == "unsupported":
            any_oos = True
            _rec(v.trace, "unsupported factor: out of scope", True, index=i, name=fd.name)
        elif fd.kind == "lie":
            sub = decide(fd.group, pi)
            _rec(
                v.trace,
                "lie factor verdict",
                sub.yes,
                index=i,
                group=fd.group.spec(),
                holds=sub.holds,
                condition=sub.condition,
            )
            if sub.holds == "no":
                v.holds = "no"
                return v
            if sub.holds == "out_of_scope":
                any_oos = True
        else:
            raise ValueError(f"unknown factor kind {fd.kind!r}")
    if any_oos:
        v.holds = "out_of_scope"
    return v
