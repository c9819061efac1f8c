"""Tests for the oracle-vs-brute verification suites."""

import gc
import hashlib
import itertools
import json
import weakref

import pytest

from hallpi import perm_engine, verifier
from hallpi.arith import PrimeSet
from hallpi.hall_oracle import Verdict
from hallpi.lie_catalog import GroupId, group_order, parse_group_id
from hallpi.verifier import (
    cross_check_simple,
    default_grid,
    exclusivity_scan,
    main_theorem_check,
    perm_realization,
    run_suite,
    scan_groups,
    star_consistency_check,
)


_DEFAULT_GRID = [
    ("A:2:q=4", (3,)), ("A:2:q=4", (5,)), ("A:2:q=4", (3, 5)),
    ("A:2:q=5", (3,)), ("A:2:q=5", (5,)), ("A:2:q=5", (3, 5)),
    ("A:2:q=7", (3,)), ("A:2:q=7", (7,)), ("A:2:q=7", (3, 7)),
    ("A:2:q=8", (3,)), ("A:2:q=8", (7,)), ("A:2:q=8", (3, 7)),
    ("A:2:q=9", (3,)), ("A:2:q=9", (5,)), ("A:2:q=9", (3, 5)),
    ("A:2:q=11", (3,)), ("A:2:q=11", (5,)), ("A:2:q=11", (11,)),
    ("A:2:q=11", (3, 5)), ("A:2:q=11", (3, 11)), ("A:2:q=11", (5, 11)),
    ("A:2:q=11", (3, 5, 11)),
    ("A:2:q=13", (3,)), ("A:2:q=13", (7,)), ("A:2:q=13", (13,)),
    ("A:2:q=13", (3, 7)), ("A:2:q=13", (3, 13)), ("A:2:q=13", (7, 13)),
    ("A:2:q=13", (3, 7, 13)),
]


def test_default_grid_is_pinned():
    """The 29 points in order, and the rule they follow: each group's pi
    sets are the nonempty subsets of the odd primes dividing its order."""
    grid = default_grid()
    assert grid == [(parse_group_id(s), PrimeSet(pi)) for s, pi in _DEFAULT_GRID]
    assert all(type(g) is GroupId and type(pi) is PrimeSet for g, pi in grid)
    for g in dict.fromkeys(g for g, _ in grid):
        order = group_order(g)
        odd = [t for t in range(3, order + 1, 2)
               if order % t == 0 and all(t % d for d in range(3, t, 2))]
        subsets = {sub for k in range(1, len(odd) + 1)
                   for sub in itertools.combinations(odd, k)}
        assert {tuple(pi) for h, pi in grid if h == g} == subsets


def test_perm_realization_routing():
    assert perm_realization(parse_group_id("A:2:q=7")) == "psl2:7"
    assert perm_realization(parse_group_id("A:2:q=31")) == "psl2:31"
    assert perm_realization(parse_group_id("A:2:q=32")) is None
    assert perm_realization(parse_group_id("B:3:q=3")) is None


def test_cross_check_agrees_on_default_grid():
    report = cross_check_simple(default_grid())
    assert report.ok
    assert len(report.cases) == 29
    assert report.disagreements == 0


def test_cross_check_routes_out_of_scope_and_skips():
    grid = [
        (parse_group_id("A:2:q=7"), PrimeSet([2, 3])),
        (parse_group_id("B:3:q=3"), PrimeSet([5, 7])),
        (parse_group_id("A:2:q=11"), PrimeSet([3, 5])),
    ]
    report = cross_check_simple(grid)
    assert len(report.out_of_scope) == 1
    assert len(report.skipped) == 1
    assert "no permutation construction" in report.skipped[0]["reason"]
    case = report.cases[0]
    assert case["group"] == "A:2:q=11"
    assert case["oracle"]["dpi"] == "no" and case["brute"]["dpi"] is False
    assert case["agree"]


def test_main_theorem_check_default_grid():
    report = main_theorem_check(default_grid())
    assert report.ok and len(report.cases) == 29


def test_star_consistency_excludes_p_in_pi():
    report = star_consistency_check(default_grid())
    assert report.ok
    # every case with the defining characteristic in pi is routed out
    oos = {(c["group"], tuple(c["pi"])) for c in report.out_of_scope}
    assert ("A:2:q=7", (3, 7)) in oos
    assert ("A:2:q=13", (3, 7)) not in oos


def test_suites_agree_on_psl2_above_the_default_grid():
    """PSL_2(q) for q above 16 through the three building suites.  At
    {3,5}, q = 29 and 31 are D_pi (their {3,5}-Hall subgroup is the
    cyclic torus of order 15, (q + 1)/2 and (q - 1)/2) and q = 19 is not;
    at {3,17}, q = 17 is not, and star routes it out (p = 17 is in pi).
    D, U and star hold at both D_pi points: star's first non-vacuous cases
    with |pi| >= 2."""
    grid = [(parse_group_id(f"A:2:q={q}"), PrimeSet(pi))
            for q, pi in ((29, (3, 5)), (31, (3, 5)), (17, (3, 17)), (19, (3, 5)))]
    cross, theorem, star, _ = run_suite("all", grid)
    assert cross.ok and len(cross.cases) == 4
    assert [c["brute"]["dpi"] for c in cross.cases] == [True, True, False, False]
    assert theorem.ok and [c["detail"] for c in theorem.cases[:2]] == ["d=True u=True"] * 2
    assert star.ok and len(star.cases) == 3
    assert [c["detail"] for c in star.cases[:2]] == ["d=True star=True"] * 2
    assert [c["group"] for c in star.out_of_scope] == ["A:2:q=17"]


def test_exclusivity_scan_is_clean():
    report = exclusivity_scan()
    assert report.ok
    assert "0 violations" in report.cases[-1]["detail"]


def test_exclusivity_reports_both_satisfied(monkeypatch):
    # A:3:q=5 has four scan points; only {3,31} satisfies II, as II(a)
    calls = []

    def always_III(g, pi):
        calls.append((g.spec(), list(pi)))
        return "III(a)", []

    monkeypatch.setattr(verifier, "check_condition_III", always_III)
    report = exclusivity_scan([parse_group_id("A:3:q=5")])
    assert calls == [("A:3:q=5", [3, 31])]
    assert report.cases[:-1] == [{"group": "A:3:q=5", "pi": [3, 31], "agree": False,
                                  "detail": "II(a) and III(a) both satisfied"}]
    assert report.cases[-1]["detail"] == "4 grid points scanned, 1 violations"


def test_exclusivity_reports_yes_without_condition(monkeypatch):
    monkeypatch.setattr(verifier, "_decide_dpi", lambda g, pi, inter: Verdict("D", "yes"))
    report = exclusivity_scan([parse_group_id("A:3:q=5")])
    assert [c["detail"] for c in report.cases[:-1]] == [
        "yes verdict without a condition tag"
    ] * 4
    assert not report.ok


def test_scan_groups_bounds():
    groups = scan_groups()
    assert all(g.q <= 32 for g in groups)
    assert all(g.n is None or g.n <= 6 for g in groups)
    specs = {g.spec() for g in groups}
    assert "2F4:q=2" not in specs  # Tits group stays excluded
    assert "2B2:q=2^3" in specs


def _masked(report) -> dict:
    """A report's JSON payload with every case's runtime removed (the
    exclusivity scan's cases carry none)."""
    payload = json.loads(report.to_json())
    for case in payload["cases"]:
        case.pop("runtime", None)
    return payload


def test_reports_are_deterministic():
    grid = default_grid()[:6]
    a = cross_check_simple(grid)
    b = cross_check_simple(grid)
    ja = json.loads(a.to_json())
    jb = json.loads(b.to_json())
    for case in ja["cases"] + jb["cases"]:
        case.pop("runtime")
    assert ja == jb


def test_verify_all_output_is_pinned():
    """Every report of ``run_suite("all")`` on the default grid, runtimes
    removed: a change to how the suites walk the grid keeps this digest."""
    text = json.dumps([_masked(r) for r in run_suite("all")], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b79ccde74e44a316d32b127a643e08c0b634a3ebf8a2d3c05cec7ed4f32f0f98"
    )


def _record_builds(monkeypatch) -> list:
    """(spec, weak reference) for each group the suites build from now on."""
    built = []

    def recording(spec, order_bound):
        G = perm_engine.construct_named(spec, order_bound)
        built.append((spec, weakref.ref(G)))
        return G

    monkeypatch.setattr(verifier, "construct_named", recording)
    verifier._constructible.cache_clear()  # a group a direct suite call left there
    return built


def test_verify_all_builds_each_default_grid_group_once(monkeypatch):
    """The three grid suites share each group over its run of points."""
    built = _record_builds(monkeypatch)
    run_suite("all")
    assert [spec for spec, _ in built] == [f"psl2:{q}" for q in (4, 5, 7, 8, 9, 11, 13)]


def test_run_suite_keeps_no_group_alive(monkeypatch):
    """No group a run_suite call built is reachable once it returns."""
    built = _record_builds(monkeypatch)
    grid = [(parse_group_id(f"A:2:q={q}"), PrimeSet([3])) for q in (4, 7, 8)]
    assert all(r.ok for r in run_suite("all", grid))
    gc.collect()
    assert all(ref() is None for _, ref in built)
    assert [spec for spec, _ in built] == ["psl2:4", "psl2:7", "psl2:8"]


def test_run_suite_on_interleaved_groups_matches_each_suite_alone():
    """Points that leave a group and come back to it (A, B, A), with a
    group that has no construction and points out of scope between them:
    run_suite's report of each grid suite is that suite's own on the grid."""
    a, b, c = (parse_group_id(s) for s in ("A:2:q=7", "B:3:q=3", "A:2:q=8"))
    grid = [(a, PrimeSet([3])), (a, PrimeSet([2, 3])), (b, PrimeSet([5, 7])),
            (c, PrimeSet([3, 7])), (c, PrimeSet([7])), (a, PrimeSet([3, 7])), (a, PrimeSet([7]))]
    together = run_suite("all", grid)[:3]
    alone = [cross_check_simple(grid), main_theorem_check(grid), star_consistency_check(grid)]
    assert [_masked(r) for r in together] == [_masked(r) for r in alone]
    assert all(r.cases and r.skipped for r in alone) and alone[2].out_of_scope


def test_run_suite_all():
    reports = run_suite("all", default_grid()[:3])
    assert [r.suite for r in reports] == ["cross", "main-theorem", "star", "exclusivity"]
    assert all(r.ok for r in reports)


def test_verify_cap_skips_without_building(monkeypatch):
    """Under a cap below every grid group's order, each in-scope case is
    skipped with a reason naming the cap, and no group is built."""
    def no_build(*args, **kwargs):
        raise AssertionError("a group was built before the cap refused it")

    monkeypatch.setattr(perm_engine.PermGroup, "__init__", no_build)
    [report] = run_suite("cross", order_bound=50)
    assert report.cases == [] and len(report.skipped) == 29
    assert all("cap 50" in case["reason"] for case in report.skipped)


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("bogus")
