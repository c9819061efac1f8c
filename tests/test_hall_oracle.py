"""Tests for the arithmetic Hall-property oracle."""

import ast
import collections
import hashlib
import inspect
import itertools
import json
import math
import re

import pytest

from hallpi import hall_oracle, verifier
from hallpi.arith import PrimeSet, _order_table, is_prime, pi_part
from hallpi.cli import main
from hallpi.hall_oracle import (
    FactorDescriptor,
    decide_cpi,
    decide_dpi,
    decide_epi,
    decide_upi,
    reduce_composition,
)
from hallpi.lie_catalog import SUZUKI_REE_FAMILIES, group_order, parse_group_id, pi_intersection
from hallpi.verifier import _SCAN_PRIMES, scan_groups, scan_points


def g(spec):
    return parse_group_id(spec)


def records(v):
    """A verdict's trace as (predicate, value) pairs."""
    return [(r["pred"], r["value"]) for r in v.trace]


# ---------------------------------------------------------------------------
# routing


def test_two_in_pi_is_out_of_scope():
    for decide in (decide_epi, decide_cpi, decide_dpi, decide_upi):
        v = decide(g("A:2:q=7"), PrimeSet([2, 3]))
        assert v.holds == "out_of_scope"


def test_small_intersection_is_trivially_yes():
    v = decide_dpi(g("A:2:q=7"), PrimeSet([3, 5]))  # 5 does not divide 168
    assert v.holds == "yes"
    assert v.condition == "trivial_small_pi"
    v = decide_dpi(g("A:2:q=7"), PrimeSet([11, 13]))
    assert v.yes


def test_verdict_json_shape():
    v = decide_dpi(g("A:2:q=7"), PrimeSet([3, 7]))
    payload = v.to_json()
    assert set(payload) == {
        "group", "pi", "property", "holds", "condition", "hall_cyclic", "trace",
    }
    assert payload["group"] == "A:2:q=7"
    assert all({"pred", "args", "value"} == set(rec) for rec in payload["trace"])


# ---------------------------------------------------------------------------
# Condition I


def test_condition_I_holds_for_psl2_7():
    v = decide_dpi(g("A:2:q=7"), PrimeSet([3, 7]))
    assert v.yes and v.condition == "I"


def test_condition_I_fails_when_tau_misses_q_minus_one():
    v = decide_dpi(g("A:2:q=13"), PrimeSet([7, 13]))  # 7 does not divide 12
    assert v.holds == "no"


def test_condition_I_weyl_gate():
    # tau = {3} divides q-1 = 12, but 3 divides |W(A_3)| = 6
    v = decide_dpi(g("A:3:q=13"), PrimeSet([3, 13]))
    assert (v.holds, v.condition) == ("no", None)
    assert records(v) == [("t divides q-1", True), ("t does not divide |W|", False),
                          ("t does not divide |W|", True)]


# ---------------------------------------------------------------------------
# Conditions II and III


def test_order_table_agrees_with_multiplicative_order():
    """arith's per-q table of ord(q mod s), which ``multiplicative_order``
    and the oracle read, must give the least e >= 1 with q^e = 1 (mod s),
    found here by a naive search over every e < s, for every scanned q and
    prime power q <= 64, and refuse an s dividing q."""
    prime_powers = [q for q in range(2, 65) if len({p for p in range(2, q + 1)
                                                    if q % p == 0 and is_prime(p)}) == 1]
    odd_primes = [s for s in range(3, 64) if is_prime(s)]
    for q in sorted({*verifier._SCAN_Q, *prime_powers}):
        table = _order_table(q)
        for s in odd_primes:
            if q % s:
                assert table[s] == min(e for e in range(1, s) if pow(q, e, s) == 1), (q, s)
    with pytest.raises(ValueError, match="3 divides 9"):
        _order_table(9)[3]


def test_r_part_test_reads_ord_q_mod_r():
    """The oracle tests (q^(r-1) - 1)_r == r as r^2 not dividing q^a - 1,
    a = ord(q mod r): the two agree for every q <= 500 and odd prime
    r <= 31 not dividing q."""
    for r in (s for s in range(3, 32) if is_prime(s)):
        for q in (q for q in range(2, 501) if q % r):
            a = _order_table(q)[r]
            assert (pow(q, a, r * r) != 1) == (pi_part(q ** (r - 1) - 1, (r,)) == r), (q, r)


def conditions_II_III(gg, pi):
    """Conditions II and III's answers and traces, each from its traced
    body on r = min(inter), tau = the rest, ord(q mod r) and q's table,
    where their premises hold: 2 and p outside pi, no Suzuki-Ree family and
    |inter| >= 2, inter = pi inter pi(G).  None elsewhere."""
    inter = pi_intersection(pi, gg)
    if 2 in pi or gg.p in pi or gg.family in SUZUKI_REE_FAMILIES or len(inter) < 2:
        return None
    orders = _order_table(gg.q)
    facts = inter[0], inter[1:], orders[inter[0]], orders
    trace2, trace3 = [], []
    return (hall_oracle._condition_II(trace2, gg, *facts), trace2,
            hall_oracle._condition_III(trace3, gg, *facts), trace3)


# E, C and U take D's condition where D holds, and with it hall_cyclic,
# which a verdict reads off its condition
ALL_DECIDERS = (decide_dpi, decide_upi, decide_epi, decide_cpi)


def test_condition_II_a_instance():
    # A:3:q=5, pi={3,31}: e(5,3)=2=r-1, e(5,31)=3=b, n=3 < bs
    for decide in ALL_DECIDERS:
        v = decide(g("A:3:q=5"), PrimeSet([3, 31]))
        assert v.yes and v.condition == "II(a)", decide
        assert v.hall_cyclic is None, decide


def test_condition_II_g_gives_cyclic_hall():
    # 2D:6:q=4, pi={7,13}: a=e(4,7)=3 odd, n=6=2a=b, e(4,13)=6
    for decide in ALL_DECIDERS:
        v = decide(g("2D:6:q=4"), PrimeSet([7, 13]))
        assert v.yes and v.condition == "II(g)", decide
        assert v.hall_cyclic is True and v.to_json()["hall_cyclic"] is True, decide


def test_condition_II_h_gives_cyclic_hall():
    # 2D:6:q=3, pi={7,13}: a=e(3,7)=6=n, b=e(3,13)=3 odd
    for decide in ALL_DECIDERS:
        v = decide(g("2D:6:q=3"), PrimeSet([7, 13]))
        assert v.yes and v.condition == "II(h)", decide
        assert v.hall_cyclic is True and v.to_json()["hall_cyclic"] is True, decide


@pytest.mark.parametrize(
    "spec,pi,tag",
    [
        ("A:5:q=2^2", (11, 31), "III(a)"),
        ("2A:4:q=2^3", (5, 13), "III(b)"),
        ("2A:3:q=17", (7, 13), "III(c)"),
        ("2A:6:q=3^2", (7, 13), "III(d)"),
        ("B:2:q=2^3", (5, 13), "III(e)"),
        ("B:5:q=2^2", (11, 31), "III(f)"),
        ("D:4:q=2^3", (5, 13), "III(g)"),
        ("2D:6:q=2^2", (11, 31), "III(h)"),
        ("3D4:q=3^2", (7, 13), "III(i)"),
        ("E6:q=2^2", (11, 31), "III(j)"),
        ("2E6:q=2^3", (5, 13), "III(k)"),
        ("E7:q=2^2", (11, 31), "III(l)"),
        ("E8:q=2^2", (11, 31), "III(m)"),
        ("G2:q=3^2", (7, 13), "III(n)"),
        ("F4:q=2^3", (5, 13), "III(o)"),
    ],
)
def test_condition_III_subcases(spec, pi, tag):
    v = decide_dpi(g(spec), PrimeSet(pi))
    assert v.yes and v.condition == tag
    # III requires all orders equal, so II's premise must fail here, before III
    fails = records(v).index(("exists t in tau with ord(q,t) != a", False))
    assert fails < records(v).index(("c = ord(q mod r)", True))


def test_conditions_II_III_mutually_exclusive_on_samples():
    samples = [
        (g("A:3:q=5"), PrimeSet([3, 31])),
        (g("2D:6:q=4"), PrimeSet([7, 13])),
        (g("C:3:q=2"), PrimeSet([3, 5])),
        (g("B:2:q=5"), PrimeSet([3, 13])),
    ]
    for gg, pi in samples:
        sub2, _, sub3, _ = conditions_II_III(gg, pi)
        assert sub2 is None or sub3 is None


# sha256 over every D verdict, trace included, on the exclusivity-scan
# points; generated before decide_dpi handed pi inter pi(G) to the condition
# bodies.
_EXCLUSIVITY_D_DIGEST = "b50b07d6fb91c7fc91921b56aab659d4505a5bbe44ce65ada85ce17b28ec6b00"


def _exclusivity_d_digest(decide) -> str:
    digest = hashlib.sha256()
    for gg, pi in scan_points(scan_groups(), (2, 3)):
        digest.update(json.dumps(decide(gg, pi).to_json(), sort_keys=True).encode())
    return digest.hexdigest()


def test_dpi_verdicts_on_exclusivity_points_are_pinned():
    assert _exclusivity_d_digest(decide_dpi) == _EXCLUSIVITY_D_DIGEST


def test_dpi_with_intersection_handed_over_keeps_the_pin():
    """The exclusivity scan and ``hallpi scan`` hand each point's pi, which
    is pi inter pi(G), to the D body; its answer and trace there, wrapped
    in a Verdict as decide_dpi wraps them, are decide_dpi's."""

    def handed_over(gg, pi):
        trace = []
        ((holds, condition),) = hall_oracle._dpi_answers(gg, [pi], trace)
        return hall_oracle.Verdict("D", holds, condition, trace, gg, pi)

    assert _exclusivity_d_digest(handed_over) == _EXCLUSIVITY_D_DIGEST


def test_dpi_condition_is_first_public_II_then_III():
    """Wherever the II/III premises hold, decide_dpi's condition is
    Condition II's answer, else Condition III's, each from its body handed
    a fresh list, and its trace is II's trace followed, where II fails, by
    III's: the condition bodies record into the verdict's list, and a record
    shared between lists or leaked between them shows here."""
    premise_points = ii_points = 0
    for gg, pi in scan_points(scan_groups(), (2, 3)):
        answers = conditions_II_III(gg, pi)
        if answers is None:
            continue
        sub, trace, sub3, trace3 = answers
        premise_points += 1
        ii_points += sub is not None
        if sub is None:
            sub, trace = sub3, trace + trace3
        d = decide_dpi(gg, pi)
        assert d.condition == sub, (gg, pi)
        assert d.trace == trace, (gg, pi)
    assert (premise_points, ii_points) == (12013, 48)


def test_untraced_decisions_enter_only_the_condition_that_can_hold(monkeypatch, capsys):
    """With the condition bodies and the E-minus-D classification counted:
    over the exclusivity scan no untraced D decision enters both
    Conditions II and III, only A, 2A and 2D enter II, and the one traced
    body is the scan's own Condition III on the 48 II points.  Over
    ``hallpi scan`` of B and E7, neither with a II subcase, no point enters
    II, and B, with no E-minus-D row, enters the classification only with
    p in pi.  Over these and a scan of A, each group reads q's
    ord(q mod s) table once for D and once for E, however many of its
    points the classification enters.  The counts are the scans' own."""
    calls = []
    for name in ("_condition_II", "_condition_III", "_classify_lie"):
        def counted(trace, gg, *args, _name=name, _body=getattr(hall_oracle, name)):
            calls.append((_name, trace is None, gg, args[:2]))
            return _body(trace, gg, *args)
        monkeypatch.setattr(hall_oracle, name, counted)
        if hasattr(verifier, name):  # the exclusivity scan's own Condition III
            monkeypatch.setattr(verifier, name, counted)

    def tally():
        counts = collections.Counter((name, untraced) for name, untraced, _, _ in calls)
        return {f"{name}{'' if untraced else ' traced'}": n for (name, untraced), n in counts.items()}

    verifier.exclusivity_scan()
    entered = {name: {(gg, args) for n, untraced, gg, args in calls if n == name and untraced}
               for name in ("_condition_II", "_condition_III")}
    assert not entered["_condition_II"] & entered["_condition_III"]
    assert {gg.family for gg, _ in entered["_condition_II"]} == {"A", "2A", "2D"}
    assert tally() == {"_condition_II": 2801, "_condition_III": 401,
                       "_condition_III traced": 48}

    def table(q, _table=hall_oracle._order_table):
        calls.append(("_order_table", True, None, (q,)))
        return _table(q)
    monkeypatch.setattr(hall_oracle, "_order_table", table)
    for fam, counts in (
        ("B", {"_condition_III": 47, "_classify_lie": 176, "_order_table": 138}),
        ("E7", {"_condition_III": 8, "_classify_lie": 256, "_order_table": 20}),
        ("A", {"_condition_II": 454, "_condition_III": 43, "_classify_lie": 573, "_order_table": 136}),
    ):
        calls.clear()
        argv = ["scan", "--family", fam, "--q", "2..16", "--pi-size", "2"]
        assert main(argv + (["--n", "2..8"] if fam != "E7" else [])) == 0
        assert tally() == counts, fam
        if fam == "B":
            assert all(gg.p in inter for name, _, gg, (inter, *_) in calls
                       if name == "_classify_lie")
    capsys.readouterr()


# One point per D outcome: yes through Conditions I, II, III and IV, the
# Sylow case, out of scope with 2 in pi, and no with E holding or not.
D_OUTCOME_POINTS = [
    ("A:2:q=7", (3, 7), "yes"),
    ("A:3:q=2", (3, 7), "yes"),
    ("A:5:q=4", (11, 31), "yes"),
    ("2F4:q=8", (3, 7), "yes"),
    ("A:3:q=2", (3,), "yes"),
    ("A:2:q=7", (2, 3), "out_of_scope"),
    ("A:4:q=2", (3, 5), "no"),
    ("2A:3:q=4", (3, 5), "no"),
    ("B:4:q=7", (3, 5), "no"),  # E fails on a family with no E-minus-D row
    ("2D:6:q=3", (7, 13), "yes"),  # II(h), past the untraced gates on n and a
    ("2D:4:q=2", (3, 5), "no"),  # II(h)'s n == a fails, then III
]

# the traced D records at the 2D points, which the untraced body rejects or
# accepts on n and a before it reads tau: every record is still made
_2D_GATES = [("a = ord(q mod r)", True), ("ord(q mod s)", True),
             ("exists t in tau with ord(q,t) != a", True), ("a odd", False),
             ("a even", True), ("a/2 odd", True)]
D_TRACES = {
    "2D:6:q=3": _2D_GATES + [("n == a", True), ("some ord(q,t) == a/2", True),
                             ("ord(q,s) in {a/2, a}", True)],
    "2D:4:q=2": _2D_GATES + [("n == a", False), ("c = ord(q mod r)", True),
                             ("ord(q,t) == c", False)],
}


@pytest.mark.parametrize("spec, pi, holds", D_OUTCOME_POINTS,
                         ids=[f"{spec}-{','.join(map(str, pi))}" for spec, pi, _ in D_OUTCOME_POINTS])
def test_deriving_from_a_dpi_verdict_leaves_it_unchanged(spec, pi, holds):
    """E's answer is derived from D's, and C adds a record to E's trace; the
    D verdict, trace included, must be what it was before either, and the
    answers derived from D's bare answer must be decide_epi's.  Where E
    takes D's answer it takes D's trace as well; where D fails, E's trace is
    the classification's alone, which starts with its first test, also for
    a family with no E-minus-D row."""
    gg, pi = g(spec), PrimeSet(pi)
    d = decide_dpi(gg, pi)
    assert d.holds == holds
    if spec in D_TRACES:
        assert records(d) == D_TRACES[spec]
    before = json.dumps(d.to_json(), sort_keys=True)
    inter = pi_intersection(pi, gg)
    (d_answer,) = hall_oracle._dpi_answers(gg, [inter])
    assert d_answer == (d.holds, d.condition)
    e = decide_epi(gg, pi)
    assert hall_oracle._epi_answers(gg, [inter], [d_answer]) == [(e.holds, e.condition)]
    if holds != "no":
        assert e.trace == d.trace
    else:
        assert records(e)[0] == ("|pi inter pi(S)| >= 2", True)
        if spec == "B:4:q=7":
            assert records(e) == [("|pi inter pi(S)| >= 2", True)]
    e.trace.append({"pred": "C equals E for odd pi", "args": {}, "value": True})
    assert json.dumps(d.to_json(), sort_keys=True) == before


# The untraced ``_rec`` calls by predicate, all from the bodies with no
# untraced copy: Conditions I and II and the classification's p in pi, A/2A
# and torus tests keep one, so none of their predicates is here.
UNTRACED_EXCLUSIVITY = collections.Counter({
    # the [n/(r-1)] tail
    "[n/(r-1)] == [n/r]": 68, "[n/(r-1)] == [n/r]+1": 36, "n == -1 mod r": 36,
    # Condition III's rows and exclusion rows
    "c even": 199, "c odd": 144, "c == 0 mod 4": 39, "c == 2 mod 4": 30,
    "n < c*s": 142, "n <= c*s": 20, "2n < c*s": 111, "2n <= c*s": 22, "n < 2*c*s": 12,
    "not (r=3, c=1 with 5 or 13 in tau)": 15, "not (r=3, c=2 with 5 or 13 in tau)": 14,
    "not (r=3, c=1 with 13 in tau)": 13, "E7 exclusion lists": 16, "E8 exclusion lists": 16,
    # the dispatch's Suzuki/Ree route and Condition IV's tori
    "Suzuki/Ree family: routed to Condition IV": 55,
    "pi(S)-primes contained in pi(torus order)": 317,
})
UNTRACED_SCANS = collections.Counter({
    "[n/(r-1)] == [n/r]": 64, "[n/(r-1)] == [n/r]+1": 36, "n == -1 mod r": 30,
    "c even": 83, "c odd": 74, "c == 0 mod 4": 25, "c == 2 mod 4": 15,
    "n < c*s": 86, "n <= c*s": 26, "2n < c*s": 24, "n < 2*c*s": 15, "E8 exclusion lists": 8,
    "Suzuki/Ree family: routed to Condition IV": 10,
    "pi(S)-primes contained in pi(torus order)": 29,
    # the exceptional E-minus-D rows
    "t in pi inter pi(S)": 4, "t not in pi inter pi(S)": 4,
})


def test_untraced_decisions_record_only_in_one_body_conditions(monkeypatch, capsys):
    """An untraced decision calls ``_rec`` only from a body with no untraced
    copy, each call recording nothing: over the exclusivity scan (1,305
    calls) and ``hallpi scan`` of A, 2A and 2D (with Condition II's
    subcases), B (Condition III and p in pi), E8 (the exceptional
    E-minus-D rows) and 2B2 (Condition IV) (533 calls), the calls are
    exactly these, by predicate.  The public deciders still record a
    non-empty trace at every D outcome point, each record through the
    wrapped recorder (E's trace where D fails is its last records: D's are
    cleared)."""
    untraced, traced = collections.Counter(), []

    def counted(trace, pred, value, _rec=hall_oracle._rec, **args):
        if trace is None:
            untraced[pred] += 1
        else:
            traced.append(pred)
        return _rec(trace, pred, value, **args)
    monkeypatch.setattr(hall_oracle, "_rec", counted)
    verifier.exclusivity_scan()
    assert untraced == UNTRACED_EXCLUSIVITY and untraced.total() == 1305
    untraced.clear()
    for fam in ("A", "2A", "2D", "B", "E8", "2B2"):
        for k in ("2", "3"):
            argv = ["scan", "--family", fam, "--q", "2..16" if fam != "2B2" else "8..512",
                    "--pi-size", k]
            assert main(argv + (["--n", "2..8"] if fam in ("A", "2A", "2D", "B") else [])) == 0
    capsys.readouterr()
    assert untraced == UNTRACED_SCANS and untraced.total() == 533
    for spec, pi, _ in D_OUTCOME_POINTS:
        for decide in (decide_dpi, decide_epi):
            traced.clear()
            v = decide(g(spec), PrimeSet(pi))
            assert v.trace and traced[-len(v.trace):] == [r["pred"] for r in v.trace], spec


# ---------------------------------------------------------------------------
# Condition IV


def test_condition_IV_tags_for_suzuki():
    # |2B2(8)| = 2^6 * 5 * 7 * 13; torus orders q-1=7, q+2m+1... the three
    # cyclic tori have orders 7, 5, 13.  D holds at {5} as the Sylow case, so
    # the body, whose premises are 2 outside pi and a Suzuki-Ree family,
    # gives IV(a).
    assert hall_oracle._condition_IV([], g("2B2:q=8"), PrimeSet([5])) == "IV(a)"
    v = decide_dpi(g("2B2:q=8"), PrimeSet([5, 13]))
    assert v.holds == "no"


def test_condition_IV_c_for_2F4():
    v = decide_dpi(g("2F4:q=8"), PrimeSet([5, 13]))
    assert v.yes and v.condition == "IV(c)"


# ---------------------------------------------------------------------------
# U = D, E/C and the E-minus-D classification


@pytest.fixture(scope="module")
def grid_verdicts():
    """(group, pi, E, C, D, U) on every exclusivity-scan point, every
    singleton pi, each singleton with 2 added, and the Sylow 2-subgroup
    points: pi = {2} and pi = {2, t} for each odd scan prime t not dividing
    |G|."""
    points = []
    for gg, pi in scan_points(scan_groups(), (1, 2, 3)):
        points.append((gg, pi))
        if len(pi) == 1:
            points.append((gg, PrimeSet([*pi, 2])))
    for gg in scan_groups():
        points.append((gg, PrimeSet([2])))
        points.extend((gg, PrimeSet([2, t])) for t in _SCAN_PRIMES
                      if group_order(gg) % t != 0)
    return [
        (gg, pi, decide_epi(gg, pi), decide_cpi(gg, pi), decide_dpi(gg, pi),
         decide_upi(gg, pi))
        for gg, pi in points
    ]


def test_upi_equals_dpi_pointwise(grid_verdicts):
    for gg, pi, _, _, d, u in grid_verdicts:
        assert (u.holds, u.condition) == (d.holds, d.condition), (gg, pi)


def test_cpi_equals_epi_for_odd_pi(grid_verdicts):
    for gg, pi, e, c, _, _ in grid_verdicts:
        if 2 not in pi:
            assert (c.holds, c.condition) == (e.holds, e.condition), (gg, pi)


def test_epi_cpi_verdicts_on_grid_are_pinned(grid_verdicts):
    """sha256 over every E and C verdict, trace included, on the grid
    above: every scan_points(scan_groups(), (1, 2, 3)) point and the points
    with 2 in pi; generated before E was derived from D's verdict."""
    digest = hashlib.sha256()
    for _, _, e, c, _, _ in grid_verdicts:
        for v in (e, c):
            digest.update(json.dumps(v.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "9ada8a555e82c3e7db0fabfcecfd165a9158ba696e9cc33a79ff39b4936669b7"
    )


# One point per subcase the scan points above never reach, with the tag
# each D or E verdict there carries.
UNSCANNED_WITNESSES = [
    ("2A:9:q=2", (5, 11), "II(e)"),
    ("2B2:q=128", (5, 29), "IV(a)"),
    ("2G2:q=243", (7, 31), "IV(b)"),
    ("E6:q=79", (3, 13), "epi_case_2B(d)"),
    ("2E6:q=233", (3, 13), "epi_case_2B(e)"),
    ("E7:q=79", (3, 13), "epi_case_2B(f)"),
    ("E8:q=79", (3, 13), "epi_case_2B(g)"),
    ("E8:q=311", (5, 31), "epi_case_2B(h)"),
    ("F4:q=79", (3, 13), "epi_case_2B(i)"),
]


def test_unscanned_subcase_verdicts_are_pinned():
    """sha256 over the D and E verdicts, traces included, on the witnesses
    above; generated before the subcase lists became tables."""
    digest = hashlib.sha256()
    for spec, pi, tag in UNSCANNED_WITNESSES:
        d, e = decide_dpi(g(spec), PrimeSet(pi)), decide_epi(g(spec), PrimeSet(pi))
        assert e.yes and e.condition == tag, spec
        for v in (d, e):
            digest.update(json.dumps(v.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "c112fc1c8141d403280df4f77c630fc0607b2320ed5f577d210309bad0778c04"
    )


def test_untraced_decisions_answer_as_traced_ones(grid_verdicts):
    """A scan's D answers, decided per group with no trace, and the E
    answers derived from them are the traced bodies' answers and the public
    deciders' on every grid_verdicts point and every witness above.  Each
    group's points go to ``_dpi_answers`` and ``_epi_answers`` in one call,
    as plain tuples in the order they appear, so the group's facts are read
    once and none leaks into another group's call.  A record whose value
    drives the decision still decides it when nothing is recorded, and each
    untraced early return gives the traced answer.  Between them the points
    reach every subcase tag of a Lie-type group."""
    assert hall_oracle._rec(None, "p", 0) is False
    points = [(gg, pi, d, e) for gg, pi, e, _, d, _ in grid_verdicts]
    points += [(g(spec), PrimeSet(pi), decide_dpi(g(spec), PrimeSet(pi)),
                decide_epi(g(spec), PrimeSet(pi))) for spec, pi, _ in UNSCANNED_WITNESSES]
    by_group = {}  # each group's points, in the order they first appear
    for gg, pi, traced_d, traced_e in points:
        by_group.setdefault(gg, []).append((pi_intersection(pi, gg), traced_d, traced_e))
    reached = set()
    for gg, rows in by_group.items():
        inters = [tuple(inter) for inter, _, _ in rows]
        ds = hall_oracle._dpi_answers(gg, inters)
        es = hall_oracle._epi_answers(gg, inters, ds)
        for (inter, traced_d, traced_e), d, e in zip(rows, ds, es, strict=True):
            assert [d] == hall_oracle._dpi_answers(gg, [inter], []), (gg, inter)
            assert [e] == hall_oracle._epi_answers(gg, [inter], [d], []), (gg, inter)
            assert d == (traced_d.holds, traced_d.condition), (gg, inter)
            assert e == (traced_e.holds, traced_e.condition), (gg, inter)
            reached |= {d[1], e[1]}
    assert len(points) == 26428 + 9  # the 17,082 exclusivity points among them
    assert reached - {None} == _written_tags()


_TAG = re.compile(r"I|II\([a-h]\)|III\([a-o]\)|IV\([a-c]\)|trivial_small_pi|epi_case_.+")


def _written_tags() -> set[str]:
    """Every condition tag written in hall_oracle's source."""
    return {node.value for node in ast.walk(ast.parse(inspect.getsource(hall_oracle)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and _TAG.fullmatch(node.value)}


def test_every_subcase_tag_is_pinned(grid_verdicts):
    """Every condition tag written in hall_oracle is carried by a verdict on
    the pinned scan points or on a witness above, so no subcase goes
    unpinned.  O'N's epi_case_1 is written in this file, with its row."""
    written = _written_tags()
    reached = {v.condition for _, _, e, _, d, _ in grid_verdicts for v in (d, e)}
    reached |= {tag for _, _, tag in UNSCANNED_WITNESSES}
    # I, II(a)-(h), III(a)-(o), IV(a)-(c), trivial_small_pi, epi_case_2A
    # and epi_case_2B(a)-(i)
    assert len(written) == 38
    assert written == reached - {None}


def test_paper_invariants_on_scan_grid(grid_verdicts):
    """D implies E; the Sylow case |pi inter pi(G)| <= 1 is trivially yes
    for all four, with 2 in pi or not; E is out of scope only when 2 is in
    pi and |pi inter pi(G)| >= 2."""
    sylow_2 = 0
    for gg, pi, e, c, d, u in grid_verdicts:
        if d.yes:
            assert e.yes, (gg, pi)
        if len(pi_intersection(pi, gg)) <= 1:
            sylow_2 += 2 in pi
            for v in (e, c, d, u):
                assert (v.holds, v.condition) == ("yes", "trivial_small_pi"), (gg, pi)
        elif 2 in pi:
            assert e.holds == "out_of_scope", (gg, pi)
        if 2 in pi:
            assert all(r["pred"] != "C equals E for odd pi" for r in c.trace), (gg, pi)
    assert sylow_2 > len(scan_groups())


def test_classification_case_2B_a():
    v = decide_epi(g("A:3:q=11"), PrimeSet([3, 5]))
    assert v.yes and v.condition == "epi_case_2B(a)"
    assert decide_dpi(g("A:3:q=11"), PrimeSet([3, 5])).holds == "no"


# pi(O'N), the one sporadic group in the E-minus-D classification
_O_N_PRIMES = (2, 3, 5, 7, 11, 19, 31)


def _classify_onan(pi: PrimeSet) -> tuple[str | None, list]:
    """The classification's one sporadic row, kept here until O'N has a
    descriptor: epi_case_1 where pi inter pi(O'N) = {3, 5}, with its
    one-record trace."""
    trace = []
    inter = sorted(t for t in pi if t in _O_N_PRIMES)
    if hall_oracle._rec(trace, "pi inter pi(O'N) == {3,5}", inter == [3, 5],
                        intersection=inter):
        return "epi_case_1", trace
    return None, trace


def test_classification_onan():
    tag, trace = _classify_onan(PrimeSet([3, 5]))
    assert tag == "epi_case_1"
    assert trace == [{"pred": "pi inter pi(O'N) == {3,5}", "args": {"intersection": [3, 5]},
                      "value": True}]
    tag, trace = _classify_onan(PrimeSet([3, 7]))
    assert tag is None and [r["value"] for r in trace] == [False]


def test_epi_no_when_unclassified():
    v = decide_epi(g("A:2:q=11"), PrimeSet([3, 5]))
    assert v.holds == "no"


# ---------------------------------------------------------------------------
# Borel subgroups of PSU_3(q): a solvable subgroup holding a Hall pi-subgroup


def _odd_prime_divisors(n: int) -> list[int]:
    """The odd primes dividing n, by trial division."""
    while n % 2 == 0:
        n //= 2
    primes, d = [], 3
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 2
    return primes + ([n] if n > 1 else [])


def _part(n: int, pi) -> int:
    """The pi-part of n."""
    part = 1
    for t in pi:
        while n % t == 0:
            n //= t
            part *= t
    return part


def _borel_points():
    """(q, pi, |G|) for each 2A:3:q with odd q < 50 and each pi of 2 or 3 odd
    primes of |G| that holds p and has |B|_pi = |G|_pi, where B, the
    stabiliser of an isotropic point, has order q^3 (q^2 - 1) / gcd(3, q + 1)
    and |G| = |B| (q^3 + 1)."""
    points = []
    for q in range(3, 50, 2):
        p = _odd_prime_divisors(q)
        if len(p) != 1:
            continue
        borel = q**3 * (q * q - 1) // math.gcd(3, q + 1)
        order = borel * (q**3 + 1)
        for k in (2, 3):
            for pi in itertools.combinations(_odd_prime_divisors(order), k):
                if p[0] in pi and _part(borel, pi) == _part(order, pi):
                    points.append((q, pi, order))
    return points


# the points where the oracle reads the Weyl group of A_2 in Condition I and
# answers no (ROADMAP item 21)
_BOREL_MISSES = {(7, (3, 7)), (13, (3, 13)), (19, (3, 19)), (25, (3, 5)), (31, (3, 31)),
                 (31, (3, 5, 31)), (37, (3, 37)), (43, (3, 43)), (43, (3, 7, 43)),
                 (49, (3, 7))}


@pytest.mark.parametrize("q, pi, order", [
    pytest.param(q, pi, order, id=f"2A:3:q={q}-{','.join(map(str, pi))}",
                 marks=[pytest.mark.xfail(strict=True, reason="ROADMAP item 21")]
                 if (q, pi) in _BOREL_MISSES else [])
    for q, pi, order in _borel_points()
])
def test_epi_holds_where_the_borel_subgroup_holds_a_hall_subgroup(q, pi, order):
    """B is solvable, so it has a Hall pi-subgroup, of order |B|_pi =
    |G|_pi: a Hall pi-subgroup of G, and E holds."""
    gg = g(f"2A:3:q={q}")
    assert group_order(gg) == order
    assert decide_epi(gg, PrimeSet(pi)).holds == "yes"


# ---------------------------------------------------------------------------
# composition-factor reduction


def test_reduce_composition_conjunction():
    pi = PrimeSet([3, 7])
    factors = [FactorDescriptor.cyclic(2), FactorDescriptor.lie(g("A:2:q=7"))]
    assert reduce_composition(factors, pi, "D").yes
    factors.append(FactorDescriptor.lie(g("A:2:q=13")))
    v = reduce_composition(factors, pi, "D")
    assert v.holds == "no"


def test_reduce_composition_out_of_scope_propagates():
    # an unsupported factor, and a Lie factor whose own verdict is out of scope
    for factors, pi in (([FactorDescriptor.unsupported("M11")], [3, 5]),
                        ([FactorDescriptor.lie(g("A:2:q=7"))], [2, 3])):
        assert reduce_composition(factors, PrimeSet(pi), "D").holds == "out_of_scope"


def test_reduce_composition_empty_is_yes():
    assert reduce_composition([], PrimeSet([3]), "U").yes


def test_reduce_composition_e_needs_odd_pi():
    with pytest.raises(ValueError):
        reduce_composition([FactorDescriptor.cyclic(3)], PrimeSet([2, 3]), "E")
    # the reduction's other refusals
    with pytest.raises(ValueError, match="cyclic factors carry a prime order"):
        FactorDescriptor.cyclic(4)
    with pytest.raises(ValueError, match="property must be one of D, U, E"):
        reduce_composition([FactorDescriptor.cyclic(3)], PrimeSet([3]), "C")
    with pytest.raises(ValueError, match="unknown factor kind 'bogus'"):
        reduce_composition([FactorDescriptor("bogus")], PrimeSet([3]), "D")
