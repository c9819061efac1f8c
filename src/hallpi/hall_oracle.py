"""Arithmetic decision engine for the Hall properties E, C, D and U.

Evaluates the four condition families (I-IV) that characterise the D
property for a simple group of Lie type with 2 outside pi, the trivial
small-intersection case, the classification of groups having Hall
subgroups without the full conjugacy-and-dominance property, and the
composition-factor reductions.  pi enters a Hall property only through
inter = pi inter pi(G), so a decision is a body on (g, inter) that returns
the bare answer (holds, condition) and records a predicate trace only into
a list its caller hands it.  ``_dpi_answers`` and ``_epi_answers`` are
the one dispatch: they read a group's route, p and ord(q mod s) table once
for its list of inter.  The scans that read only answers (``hallpi scan``,
the exclusivity scan, the cross suite) call them once per group with no
list; the public ``decide_*`` call them on one inter with a fresh list,
and only they and ``reduce_composition`` build a ``Verdict``.

Condition III's subcases (a)-(o) and the exceptional E-minus-D cases
2B(d)-(i) are tables, one row per subcase in the paper's listing order
(arXiv:1504.03137), each read by one evaluator.  The trace records every
predicate a row tests, in row order, up to the row that decides.

An untraced decision calls no ``_rec``: each recording body has a ``trace
is None`` branch that tests, in any order and up to the first that fails,
predicates the traced body records.  A subcase is their conjunction, so
both give the same answer; with p outside pi, a traced decision runs II,
then III where II fails, and an untraced one tests every ord(q mod s)
against ord(q mod r) once to pick the one that can still hold.
ord(q mod s) is read from arith's one table per q, with no second
primality test.  The primes of inter are distinct, so with m = prod(inter)
all divide N exactly when m divides N, and none does exactly when
gcd(N, m) = 1: an untraced body tests a prime set with one such operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod
from typing import Any

from .arith import PrimeSet, _Orders, _order_table, is_prime
from .lie_catalog import (
    GroupId,
    SUZUKI_REE_FAMILIES,
    pi_intersection,
    weyl_order,
)

__all__ = [
    "Verdict",
    "FactorDescriptor",
    "decide_dpi",
    "decide_upi",
    "decide_epi",
    "decide_cpi",
    "reduce_composition",
]

Trace = list[dict[str, Any]]


# a body's bare answer: holds, condition
Answer = tuple[str, str | None]
_TRIVIAL, _OUT_OF_SCOPE, _NO = ("yes", "trivial_small_pi"), ("out_of_scope", None), ("no", None)

# the only subcases whose Hall subgroup is cyclic
_CYCLIC_HALL = ("II(g)", "II(h)")


# a traced body's one recorder; an untraced body tests the bare values instead
def _rec(trace: Trace | None, pred: str, value: bool, **args: Any) -> bool:
    value = bool(value)
    if trace is not None:
        trace.append({"pred": pred, "args": args, "value": value})
    return value


@dataclass(slots=True)
class Verdict:
    """Answer of a property decision with its full predicate trace.  Only
    the public deciders, around the answer and trace ``_dpi_answers`` and
    ``_epi_answers`` give them, and ``reduce_composition`` build one; a scan
    that reads only the answers gets the dispatch's bare tuples instead."""

    property: str  # one of E, C, D, U
    holds: str  # yes | no | out_of_scope
    condition: str | None = None
    trace: Trace = field(default_factory=list)
    group: GroupId | None = None  # spelled as its spec only by to_json
    pi: tuple[int, ...] = ()

    @property
    def yes(self) -> bool:
        return self.holds == "yes"

    @property
    def hall_cyclic(self) -> bool | None:
        """True where the condition is II(g) or II(h), else None."""
        return True if self.condition in _CYCLIC_HALL else None

    def to_json(self) -> dict[str, Any]:
        return {
            "group": None if self.group is None else self.group.spec(),
            "pi": list(self.pi),
            "property": self.property,
            "holds": self.holds,
            "condition": self.condition,
            "hall_cyclic": self.hall_cyclic,
            "trace": self.trace,
        }


@dataclass(frozen=True)
class FactorDescriptor:
    """One composition factor: a Lie-type group, a prime cyclic group or a
    named unsupported factor."""

    kind: str  # lie | cyclic | unsupported
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
    def unsupported(cls, name: str) -> "FactorDescriptor":
        return cls("unsupported", name=name)


def _condition_I(trace: Trace | None, g: GroupId, inter: PrimeSet) -> bool:
    """Condition I's body on ``inter`` = pi inter pi(g), recorded in
    ``trace``.  p never divides q - 1, so the first test skips it."""
    q, p = g.q, g.p
    w = weyl_order(g)
    if trace is None:  # the rest divide q - 1 exactly when m divides (q - 1)p
        m = prod(inter)
        return (q - 1) * p % m == 0 and gcd(w, m) == 1
    ok = True
    for t in inter.without(p):
        ok &= _rec(trace, "t divides q-1", (q - 1) % t == 0, t=t, q=q)
    for t in inter:
        ok &= _rec(trace, "t does not divide |W|", w % t != 0, t=t, weyl_order=w)
    return ok


def _floors(trace: Trace | None, n: int, r: int, equal_tag: str,
            off_by_one_tag: str) -> str | None:
    """The [n/(r-1)] tail of Condition II's A and 2A subcases: equal_tag
    where [n/(r-1)] = [n/r], off_by_one_tag where it is [n/r] + 1 and
    n = -1 (mod r)."""
    if trace is None:
        if n // (r - 1) == n // r:
            return equal_tag
        return off_by_one_tag if n // (r - 1) == n // r + 1 and n % r == r - 1 else None
    if _rec(trace, "[n/(r-1)] == [n/r]", n // (r - 1) == n // r, n=n, r=r):
        return equal_tag
    if _rec(trace, "[n/(r-1)] == [n/r]+1", n // (r - 1) == n // r + 1, n=n, r=r) and _rec(
        trace, "n == -1 mod r", n % r == r - 1, n=n, r=r
    ):
        return off_by_one_tag
    return None


# the families with a Condition II subcase: (a)/(b), (c)-(f) and (g)/(h)
_II_FAMILIES = ("A", "2A", "2D")
# the 2A subcases' tags by r mod 4: II(c)/(e) for r = 1, II(d)/(f) for r = 3
_II_UNITARY = {1: ("II(c)", "II(e)"), 3: ("II(d)", "II(f)")}


def _unitary_order(r: int) -> int:
    """The ord(q mod r) that the unitary subcases II(c)-(f) and E-minus-D
    2B(b)/(c) require: r - 1 for r = 1 (mod 4), (r - 1)/2 for r = 3."""
    return r - 1 if r % 4 == 1 else (r - 1) // 2


def _condition_II(trace: Trace | None, g: GroupId, r: int, tau: tuple[int, ...], a: int,
                  orders: _Orders) -> str | None:
    """Condition II's body on r = min(inter), tau = the rest, a = ord(q mod r)
    and q's ord(q mod s) table ``orders``, recorded in ``trace``.  Untraced,
    it is entered only for a family in ``_II_FAMILIES`` where some
    ord(q mod s) differs from a, and tests what the family's subcases need
    of n and a first: most points fail there."""
    q, n, fam = g.q, g.n, g.family
    # (q^(r-1) - 1)_r = r iff q^a != 1 mod r^2, as r does not divide (r - 1)/a
    if trace is None:
        if fam == "A":
            ok = (a == r - 1 and pow(q, a, r * r) != 1
                  and all(orders[s] == r and n < r * s for s in tau))
            return _floors(None, n, r, "II(a)", "II(b)") if ok else None
        if fam == "2A":
            ok = (all(orders[s] == 2 * r for s in tau) and pow(q, a, r * r) != 1
                  and a == _unitary_order(r))
            return _floors(None, n, r, *_II_UNITARY[r % 4]) if ok else None
        # 2D: some ord(q mod s) is b and each is a or b: (g) b = n = 2a, (h) 2b = n = a
        if n == 2 * a and a % 2:
            tag, b = "II(g)", n
        elif n == a and a % 4 == 2:
            tag, b = "II(h)", a // 2
        else:
            return None
        found = [orders[s] for s in tau]
        return tag if b in found and set(found) <= {a, b} else None

    _rec(trace, "a = ord(q mod r)", True, r=r, a=a)
    for s in tau:
        _rec(trace, "ord(q mod s)", True, s=s, order=orders[s])
    if not _rec(trace, "exists t in tau with ord(q,t) != a",
                any(orders[s] != a for s in tau)):
        return None
    if fam == "A":
        b = r
        common = (
            _rec(trace, "a == r-1", a == r - 1, a=a, r=r)
            and _rec(trace, "(q^(r-1)-1)_r == r", pow(q, a, r * r) != 1, q=q, r=r)
            and all(
                _rec(trace, "ord(q,s) == b", orders[s] == b, s=s, b=b)
                and _rec(trace, "n < b*s", n < b * s, n=n, b=b, s=s)
                for s in tau
            )
        )
        return _floors(trace, n, r, "II(a)", "II(b)") if common else None

    if fam == "2A":
        b = 2 * r
        if not all(_rec(trace, "ord(q,s) == b", orders[s] == b, s=s, b=b) for s in tau):
            return None
        if not _rec(trace, "(q^(r-1)-1)_r == r", pow(q, a, r * r) != 1, q=q, r=r):
            return None
        if not _rec(trace, "a matches r mod 4 shape", a == _unitary_order(r), a=a, r_mod_4=r % 4):
            return None
        return _floors(trace, n, r, *_II_UNITARY[r % 4])

    if fam == "2D":
        # (g): a odd, n = b = 2a; (h): b odd, n = a = 2b
        if (
            _rec(trace, "a odd", a % 2 == 1, a=a)
            and _rec(trace, "n == 2a", n == 2 * a, n=n, a=a)
            and _rec(trace, "some ord(q,t) == n", any(orders[s] == n for s in tau))
            and all(
                _rec(trace, "ord(q,s) in {a, 2a}", orders[s] in (a, 2 * a), s=s)
                for s in tau
            )
        ):
            return "II(g)"
        b = a // 2
        if (
            _rec(trace, "a even", a % 2 == 0, a=a)
            and _rec(trace, "a/2 odd", a % 4 == 2, a=a)
            and _rec(trace, "n == a", n == a, n=n, a=a)
            and _rec(trace, "some ord(q,t) == a/2", any(orders[s] == b for s in tau), b=b)
            and all(
                _rec(trace, "ord(q,s) in {a/2, a}", orders[s] in (b, a), s=s)
                for s in tau
            )
        ):
            return "II(h)"
        return None

    _rec(trace, "family has a Condition II subcase", False, family=fam)
    return None


# Condition III's rows per family in the paper's listing order: (tag, test
# on c, bound every s in tau meets), either None where the row has none.  A
# test is (text, m, k) for c = k (mod m); a bound is (text, f(n, c, s)).
_C_EVEN, _C_ODD = ("c even", 2, 0), ("c odd", 2, 1)
_N_LT_CS = ("n < c*s", lambda n, c, s: n < c * s)
_2N_LT_CS = ("2n < c*s", lambda n, c, s: 2 * n < c * s)
_III_E, _III_F = ("III(e)", _C_EVEN, _2N_LT_CS), ("III(f)", _C_ODD, _N_LT_CS)
_III_ROWS = {
    "A": (("III(a)", None, _N_LT_CS),),
    "2A": (
        ("III(b)", ("c == 0 mod 4", 4, 0), _N_LT_CS),
        ("III(c)", ("c == 2 mod 4", 4, 2), _2N_LT_CS),
        ("III(d)", _C_ODD, ("n < 2*c*s", lambda n, c, s: n < 2 * c * s)),
    ),
    "B": (_III_E, _III_F),
    "C": (_III_E, _III_F),
    "D": (_III_F, ("III(g)", _C_EVEN, ("2n <= c*s", lambda n, c, s: 2 * n <= c * s))),
    "2D": (_III_E, ("III(h)", _C_ODD, ("n <= c*s", lambda n, c, s: n <= c * s))),
    "3D4": (("III(i)", None, None),),
    "G2": (("III(n)", None, None),),
}

# The exceptional families' one row each: (tag, trace text, the excluded
# (r, values of c, primes any one of which in tau excludes)).
_III_EXCLUSIONS = {
    "E6": ("III(j)", "not (r=3, c=1 with 5 or 13 in tau)", ((3, (1,), (5, 13)),)),
    "2E6": ("III(k)", "not (r=3, c=2 with 5 or 13 in tau)", ((3, (2,), (5, 13)),)),
    "E7": ("III(l)", "E7 exclusion lists", ((3, (1, 2), (5, 7, 13)), (5, (1, 2), (7,)))),
    "E8": ("III(m)", "E8 exclusion lists",
           ((3, (1, 2), (5, 7, 13)), (5, (1, 2), (7, 31)))),
    "F4": ("III(o)", "not (r=3, c=1 with 13 in tau)", ((3, (1,), (13,)),)),
}


def _condition_III(trace: Trace | None, g: GroupId, r: int, tau: tuple[int, ...], c: int,
                   orders: _Orders) -> str | None:
    """Condition III's body on the facts ``_condition_II`` takes, with
    c = ord(q mod r), recorded in ``trace``: the first of the family's rows
    that holds.  Untraced, it is entered only where every ord(q mod t) is c,
    so it starts at the rows."""
    n, rows = g.n, _III_ROWS.get(g.family, ())
    if trace is None:
        for tag, test, bound in rows:
            if ((test is None or c % test[1] == test[2])
                    and (bound is None or all(bound[1](n, c, s) for s in tau))):
                return tag
    else:
        _rec(trace, "c = ord(q mod r)", True, r=r, c=c)
        for t in tau:
            if not _rec(trace, "ord(q,t) == c", orders[t] == c, t=t, c=c):
                return None
        for tag, test, bound in rows:
            if test is not None and not _rec(trace, test[0], c % test[1] == test[2], c=c):
                continue
            if bound is None or all(
                _rec(trace, bound[0], bound[1](n, c, s), s=s, c=c, n=n) for s in tau
            ):
                return tag
    if g.family in _III_EXCLUSIONS:
        tag, text, excluded = _III_EXCLUSIONS[g.family]
        ok = not any(r == r_ex and c in cs and any(t in tau for t in ts)
                     for r_ex, cs, ts in excluded)
        if trace is not None:
            _rec(trace, text, ok, r=r, c=c)
        return tag if ok else None
    return None


def _torus_prime_sets(g: GroupId) -> list[tuple[str, int]]:
    """Maximal-torus order values whose prime sets gate Condition IV, with
    q = p^(2m+1): the pair q +- p^(m+1) + 1 is written once in p."""
    q, p = g.q, g.p
    m = (g.f - 1) // 2
    t = p ** (m + 1)
    pm = [(f"q+{p}^(m+1)+1", q + t + 1), (f"q-{p}^(m+1)+1", q - t + 1)]
    if g.family != "2F4":
        return [("q-1", q - 1), *pm]
    u = 2 ** (3 * m + 2)
    # The two double-sign expressions are expanded with the sign choices
    # paired top-with-top, giving four values.
    return [
        ("q^2-1", q * q - 1),
        ("q^2+1", q * q + 1),
        *pm,
        ("q^2+2^(3m+2)-2^(m+1)-1", q * q + u - t - 1),
        ("q^2-2^(3m+2)+2^(m+1)-1", q * q - u + t - 1),
        ("q^2+2^(3m+2)+q+2^(m+1)-1", q * q + u + q + t - 1),
        ("q^2-2^(3m+2)+q-2^(m+1)-1", q * q - u + q - t - 1),
    ]


def _condition_IV(trace: Trace | None, g: GroupId, inter: PrimeSet) -> str | None:
    """Condition IV's body on ``inter`` = pi inter pi(g), recorded in
    ``trace``."""
    subcase = {"2B2": "IV(a)", "2G2": "IV(b)", "2F4": "IV(c)"}[g.family]
    m = prod(inter)
    if trace is None:
        return subcase if any(value % m == 0 for _, value in _torus_prime_sets(g)) else None
    for label, value in _torus_prime_sets(g):
        if _rec(trace, "pi(S)-primes contained in pi(torus order)", value % m == 0,
                torus=label, torus_order=value):
            return subcase
    return None


def decide_dpi(g: GroupId, pi: PrimeSet) -> Verdict:
    """Decide the full Sylow-analogue property for a simple Lie-type group."""
    trace: Trace = []
    ((holds, condition),) = _dpi_answers(g, (pi_intersection(pi, g),), trace)
    return Verdict("D", holds, condition, trace, g, pi)


def _dpi_answers(g: GroupId, inters, trace: Trace | None = None) -> list[Answer]:
    """decide_dpi's answer (holds, condition) at each of ``inters``,
    increasing prime tuples pi inter pi(g), recorded in ``trace`` if one is
    given; g's route, p and q's ord(q mod s) table are read once.  2 and p
    divide every |g| ``validate_simple`` accepts, so once |inter| >= 2 they
    lie in inter just where they lie in pi.  With p outside pi, r = inter[0]
    and tau the rest: traced, II runs, then III where II fails; untraced, one
    test of whether every s in tau has ord(q mod s) = ord(q mod r), II's
    first test and III's, enters III if so, else II for a family in
    ``_II_FAMILIES``: the traced run tests it too, to the same answer."""
    p, orders = g.p, _order_table(g.q)
    suzuki_ree, has_II = g.family in SUZUKI_REE_FAMILIES, g.family in _II_FAMILIES
    answers = []
    for inter in inters:
        if len(inter) <= 1:
            if trace is not None:
                _rec(trace, "|pi inter pi(S)| <= 1", True, intersection=list(inter))
            answers.append(_TRIVIAL)
            continue
        if 2 in inter:
            if trace is not None:
                _rec(trace, "2 in pi: criterion not covered", True)
            answers.append(_OUT_OF_SCOPE)
            continue
        if suzuki_ree:
            if trace is not None:
                _rec(trace, "Suzuki/Ree family: routed to Condition IV", True, family=g.family)
            sub = _condition_IV(trace, g, inter)
        elif p in inter:
            sub = "I" if _condition_I(trace, g, inter) else None
        else:
            r, tau, a = inter[0], inter[1:], orders[inter[0]]
            if trace is not None:
                sub = _condition_II(trace, g, r, tau, a, orders)
                if sub is None:
                    sub = _condition_III(trace, g, r, tau, a, orders)
            elif all(map(a.__eq__, map(orders.__getitem__, tau))):  # opens no generator frame
                sub = _condition_III(None, g, r, tau, a, orders)
            else:
                sub = _condition_II(None, g, r, tau, a, orders) if has_II else None
        answers.append(_NO if sub is None else ("yes", sub))
    return answers


def decide_upi(g: GroupId, pi: PrimeSet) -> Verdict:
    """Overgroup-hereditary variant; identical verdict by the main theorem."""
    v = decide_dpi(g, pi)
    v.property = "U"
    _rec(v.trace, "U equals D by main theorem", True)
    return v


# The exceptional E-minus-D cases 2B(d)-(i) per family: the tori whose
# order pi inter pi(S) may divide, in the order they are tried, and the rows
# (tag, primes present, primes absent) in the paper's listing order.
_EXCEPTIONAL_CASES = {
    "E6": (("q-1",), (("epi_case_2B(d)", (3, 13), (5,)),)),
    "2E6": (("q+1",), (("epi_case_2B(e)", (3, 13), (5,)),)),
    "E7": (("q-1", "q+1"), (("epi_case_2B(f)", (3, 13), (5, 7)),)),
    "E8": (("q-1", "q+1"), (("epi_case_2B(g)", (3, 13), (5, 7)),
                            ("epi_case_2B(h)", (5, 31), (3, 7)))),
    "F4": (("q-1", "q+1"), (("epi_case_2B(i)", (3, 13), ()),)),
}
# the families with an E-minus-D row for p outside pi: 2B(a)-(c) and the above
_E_MINUS_D_FAMILIES = ("A", "2A", *_EXCEPTIONAL_CASES)


def _classify_lie(trace: Trace | None, g: GroupId, inter: PrimeSet,
                  orders: _Orders) -> str | None:
    """The classification for a Lie-type g with 2 outside ``inter`` =
    pi inter pi(g), entered only where D fails, so |inter| >= 2: recorded in
    ``trace``, or untraced with no record, each branch stopping at its first
    failing test.  A and 2A read r, tau and q's table ``orders`` as II does."""
    if trace is not None:
        _rec(trace, "|pi inter pi(S)| >= 2", len(inter) >= 2, intersection=list(inter))
    q, n = g.q, g.n

    if g.p in inter:
        p, w = g.p, weyl_order(g)
        if trace is None:
            rest = prod(inter) // p
            ok = w % p == 0 and (q - 1) % rest == 0 and gcd(w, rest) == 1
        else:
            ok = _rec(trace, "p divides |W|", w % p == 0, p=p, weyl_order=w)
            for t in inter.without(p):
                ok &= _rec(trace, "t divides q-1", (q - 1) % t == 0, t=t, q=q)
                ok &= _rec(trace, "t does not divide |W|", w % t != 0, t=t, weyl_order=w)
        return "epi_case_2A" if ok else None

    fam = g.family
    if fam in ("A", "2A"):
        r, tau, a = inter[0], inter[1:], orders[inter[0]]
        if fam == "A":
            tag, b_req, a_req = "epi_case_2B(a)", 1, r - 1
        else:
            tag = "epi_case_2B(b)" if r % 4 == 1 else "epi_case_2B(c)"
            b_req, a_req = 2, _unitary_order(r)
        if trace is None:
            ok = (a == a_req and pow(q, a, r * r) != 1 and n // (r - 1) == n // r
                  and all(orders[s] == b_req and n < s for s in tau))
            return tag if ok else None
        _rec(trace, "ord(q mod r)", True, r=r, order=a)
        ok = (
            (fam == "A" or _rec(trace, "r mod 4 shape", True, r_mod_4=r % 4))
            and _rec(trace, "ord(q,r) as required", a == a_req, order=a, required=a_req)
            and _rec(trace, "(q^(r-1)-1)_r == r", pow(q, a, r * r) != 1, q=q, r=r)
            and _rec(trace, "[n/(r-1)] == [n/r]", n // (r - 1) == n // r, n=n, r=r)
            and all(
                _rec(trace, "ord(q,s) as required", orders[s] == b_req, s=s, required=b_req)
                and _rec(trace, "n < s", n < s, n=n, s=s)
                for s in tau
            )
        )
        return tag if ok else None

    if fam not in _EXCEPTIONAL_CASES:
        return None
    tori, rows = _EXCEPTIONAL_CASES[fam]
    order, m = {"q-1": q - 1, "q+1": q + 1}, prod(inter)
    if trace is None:  # some value's residue mod m is 0, with no generator frame
        contained = 0 in map(m.__rmod__, map(order.__getitem__, tori))
    else:
        contained = any(_rec(trace, "pi(S)-primes contained in pi(value)",
                             order[label] % m == 0, value_label=label) for label in tori)
    if not contained:
        return None
    for tag, present, absent in rows:
        if trace is None:
            ok = all(t in inter for t in present) and not any(t in inter for t in absent)
        else:
            oks = [_rec(trace, "t in pi inter pi(S)", t in inter, t=t) for t in present]
            oks += [_rec(trace, "t not in pi inter pi(S)", t not in inter, t=t) for t in absent]
            ok = all(oks)
        if ok:
            return tag
    return None


def decide_epi(g: GroupId, pi: PrimeSet) -> Verdict:
    """Hall-subgroup existence, equal to conjugacy with 2 outside pi: D's
    answer and trace where D is not "no" (a yes, the Sylow case or 2 in pi),
    else the E-minus-D classification's, recorded in the same list."""
    inters, trace = (pi_intersection(pi, g),), []
    ((holds, condition),) = _epi_answers(g, inters, _dpi_answers(g, inters, trace), trace)
    return Verdict("E", holds, condition, trace, g, pi)


def _epi_answers(g: GroupId, inters, ds: list[Answer],
                 trace: Trace | None = None) -> list[Answer]:
    """decide_epi's answer at each of ``inters`` from D's answers ``ds``
    there: D's, or where D fails the classification's, on q's ord(q mod s)
    table read once for g and recorded in ``trace`` in place of D's
    records.  Untraced, where D fails with p outside pi, a family with no
    E-minus-D row fails at once, as the classification would at its end;
    traced, it is classified, which records the classification's first test."""
    p, orders = g.p, _order_table(g.q)
    classified = trace is not None or g.family in _E_MINUS_D_FAMILIES
    answers = []
    for inter, d in zip(inters, ds):
        if d[0] == "no" and (classified or p in inter):
            if trace is not None:
                trace.clear()
            tag = _classify_lie(trace, g, inter, orders)
            d = _NO if tag is None else ("yes", tag)
        answers.append(d)
    return answers


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
