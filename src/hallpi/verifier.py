"""Cross-checks between the arithmetic oracle and the brute-force engine.

Four suites: oracle-vs-brute agreement on E/C/D, the D = U identity over
overgroup lattices, the D-implies-star consistency check, and a purely
symbolic exclusivity scan over the Condition II/III premises.  Any
disagreement is a hard failure of the build, not a warning.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import dataclass, field

from .arith import PrimeSet, _distinct_prime_set
from .hall_oracle import _decide_dpi, _epi_from_dpi, check_condition_III
from .lie_catalog import (
    CLASSICAL_FAMILIES,
    EXCEPTIONAL_FAMILIES,
    GroupId,
    GroupSpecError,
    parse_group_id,
    pi_intersection,
)
from .perm_engine import (_PSL2_MAX_Q, DEFAULT_MAX_ORDER, OrderLimitError, brute_property,
                          construct_named)

__all__ = [
    "CrossCheckReport",
    "default_grid",
    "load_grid",
    "perm_realization",
    "cross_check_simple",
    "main_theorem_check",
    "star_consistency_check",
    "exclusivity_scan",
    "run_suite",
]


@dataclass
class CrossCheckReport:
    """Outcome of one verification suite.

    ``cases`` holds the comparisons actually made; out-of-scope and
    unconstructible inputs are listed separately and never counted as
    agreement.
    """

    suite: str
    cases: list[dict] = field(default_factory=list)
    out_of_scope: list[dict] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)

    @property
    def agreements(self) -> int:
        return sum(1 for c in self.cases if c["agree"])

    @property
    def disagreements(self) -> int:
        return sum(1 for c in self.cases if not c["agree"])

    @property
    def ok(self) -> bool:
        return self.disagreements == 0

    def summary(self) -> dict:
        return {
            "suite": self.suite,
            "cases": len(self.cases),
            "agreements": self.agreements,
            "disagreements": self.disagreements,
            "out_of_scope": len(self.out_of_scope),
            "skipped": len(self.skipped),
            "ok": self.ok,
        }

    def to_json(self) -> str:
        payload = {
            "summary": self.summary(),
            "cases": self.cases,
            "out_of_scope": self.out_of_scope,
            "skipped": self.skipped,
        }
        return json.dumps(payload, indent=1, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for c in self.cases:
            mark = "ok " if c["agree"] else "FAIL"
            pi = ",".join(map(str, c["pi"]))
            lines.append(
                f"  [{mark}] {c['group']} pi={{{pi}}} {c['detail']}"
            )
        for c in self.out_of_scope:
            pi = ",".join(map(str, c["pi"]))
            lines.append(f"  [oos ] {c['group']} pi={{{pi}}}")
        for c in self.skipped:
            lines.append(f"  [skip] {c['group']}: {c['reason']}")
        s = self.summary()
        lines.append(
            f"  {s['cases']} cases, {s['disagreements']} disagreements, "
            f"{s['out_of_scope']} out of scope, {s['skipped']} skipped"
        )
        return "\n".join(lines)


def load_grid(path) -> list[tuple[GroupId, PrimeSet]]:
    """The grid in a file: a JSON object whose ``cases`` list holds objects
    with a ``group`` string and a ``pi`` list of one or more distinct primes.
    An unreadable file or any other shape is a ValueError."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ValueError(f"cannot read grid: {exc}") from None
    try:
        grid = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"a grid must be JSON: {exc}") from None
    cases = grid.get("cases") if isinstance(grid, dict) else None
    if not isinstance(cases, list):
        raise ValueError("a grid must be a JSON object with a 'cases' list")
    out = []
    for i, case in enumerate(cases):
        if not (isinstance(case, dict) and isinstance(case.get("group"), str)
                and isinstance(case.get("pi"), list) and case["pi"]
                and all(type(p) is int for p in case["pi"])):  # PrimeSet reads 3.9 as 3
            raise ValueError(f"grid case {i} must be an object with a 'group' string "
                             "and a 'pi' list of one or more integers")
        try:
            point = parse_group_id(case["group"]), _distinct_prime_set(case["pi"])
        except GroupSpecError as exc:
            raise ValueError(f"grid case {i}: bad 'group' {case['group']!r}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"grid case {i}: bad 'pi' list {case['pi']}: {exc}") from None
        out.append(point)
    return out


def default_grid() -> list[tuple[GroupId, PrimeSet]]:
    """The desk-scale grid: PSL_2(q) for each q up to ``_GRID_MAX_Q`` that
    gives a simple group, at every nonempty pi of odd scan primes
    (``_SCAN_PRIMES``) dividing |G|.  Up to q = 13 these are all the odd
    primes of |G|."""
    groups = simple_groups(f"A:2:q={q}" for q in range(2, _GRID_MAX_Q + 1))
    return list(scan_points(groups, range(1, len(_SCAN_PRIMES) + 1)))


def perm_realization(g: GroupId) -> str | None:
    """Named perm_engine spec realizing g concretely, if one exists."""
    if g.family == "A" and g.n == 2 and g.q <= _PSL2_MAX_Q:
        return f"psl2:{g.q}"
    return None


@functools.lru_cache(maxsize=1)  # one group's points share its build; run_suite clears it
def _constructible(g: GroupId, order_bound: int):
    spec = perm_realization(g)
    if spec is None:
        return None, f"no permutation construction for {g}"
    try:
        return construct_named(spec, order_bound), None
    except OrderLimitError as exc:
        return None, str(exc)


def _run_cases(suite, grid, order_bound, in_scope, check) -> CrossCheckReport:
    """One case per grid point in scope whose group can be built;
    ``check(g, pi, G)`` returns the case's verdict fields."""
    report = CrossCheckReport(suite)
    for g, pi in grid:
        entry = {"group": g.spec(), "pi": list(pi)}
        if not in_scope(g, pi):
            report.out_of_scope.append(entry)
            continue
        G, reason = _constructible(g, order_bound)
        if G is None:
            report.skipped.append({**entry, "reason": reason})
            continue
        t0 = time.perf_counter()
        case = {**entry, **check(g, pi, G)}
        case["runtime"] = round(time.perf_counter() - t0, 4)
        report.cases.append(case)
    return report


def _implied_by_d(prop: str, label: str):
    """Check that brute D true implies brute ``prop`` true."""

    def check(g, pi, G) -> dict:
        if not brute_property(G, pi, "D")[0]:
            return {"agree": True, "detail": "d=False (vacuous)"}
        holds, witness = brute_property(G, pi, prop)
        case = {"agree": holds, "detail": f"d=True {label}={holds}"}
        if not holds:
            case["counterexample"] = witness
        return case

    return check


def cross_check_simple(
    grid: list[tuple[GroupId, PrimeSet]], order_bound: int = DEFAULT_MAX_ORDER
) -> CrossCheckReport:
    """decide_dpi vs brute D and decide_epi vs brute E and C, per case.
    Each case decides D once, untraced, and derives E from that verdict, as
    decide_epi does; only their answers are read."""

    def check(g, pi, G) -> dict:
        oracle_d = _decide_dpi(g, pi, pi_intersection(pi, g))
        oracle_e = _epi_from_dpi(g, pi, oracle_d)
        brute_d, _ = brute_property(G, pi, "D")
        brute_e, _ = brute_property(G, pi, "E")
        brute_c, _ = brute_property(G, pi, "C")
        return {
            "oracle": {"dpi": oracle_d.holds, "epi": oracle_e.holds},
            "brute": {"dpi": brute_d, "epi": brute_e, "cpi": brute_c},
            "agree": oracle_d.yes == brute_d and oracle_e.yes == brute_e == brute_c,
            "detail": f"oracle d={oracle_d.holds}/e={oracle_e.holds} "
            f"brute d={brute_d}/e={brute_e}/c={brute_c}",
        }

    return _run_cases("cross", grid, order_bound, lambda g, pi: 2 not in pi, check)


def main_theorem_check(
    grid: list[tuple[GroupId, PrimeSet]], order_bound: int = DEFAULT_MAX_ORDER
) -> CrossCheckReport:
    """Wherever brute D holds, brute U must hold as well."""
    return _run_cases("main-theorem", grid, order_bound, lambda g, pi: True,
                      _implied_by_d("U", "u"))


def star_consistency_check(
    grid: list[tuple[GroupId, PrimeSet]], order_bound: int = DEFAULT_MAX_ORDER
) -> CrossCheckReport:
    """For p not in pi: brute D true must imply brute star true."""
    return _run_cases("star", grid, order_bound, lambda g, pi: 2 not in pi and g.p not in pi,
                      _implied_by_d("star", "star"))


# ---------------------------------------------------------------------------
# symbolic exclusivity scan

_SCAN_PRIMES = PrimeSet((3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
_SCAN_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)
_SCAN_MAX_PARAM = 6  # the largest dimension or rank in the scan
_EXCLUSIVITY_SIZES = (2, 3)  # the sizes of pi in the exclusivity scan
_GRID_MAX_Q = 13  # the largest q of the default grid's PSL_2(q)


def simple_groups(specs) -> list[GroupId]:
    """The specs that name simple groups, parsed; the others are skipped."""
    groups = []
    for spec in specs:
        try:
            groups.append(parse_group_id(spec))
        except GroupSpecError:
            continue
    return groups


def scan_groups() -> list[GroupId]:
    """All valid simple-group descriptors with q in ``_SCAN_Q`` and
    dimension or rank at most ``_SCAN_MAX_PARAM``."""
    specs = []
    for q in _SCAN_Q:
        for fam in CLASSICAL_FAMILIES:
            specs.extend(f"{fam}:{n}:q={q}" for n in range(1, _SCAN_MAX_PARAM + 1))
        specs.extend(f"{fam}:q={q}" for fam in EXCEPTIONAL_FAMILIES)
    return simple_groups(specs)


def scan_points(groups, subset_sizes):
    """(group, pi) grid points, group by group: for each size, each
    combination of that many odd scan primes dividing |G|.  Every prime of
    a point's pi divides |G|, so pi is already pi inter pi(G) and a caller
    can hand it to the D decision as its own intersection; an E decision
    drawn from that D verdict then reads D's order facts as well."""
    for g in groups:
        primes = pi_intersection(_SCAN_PRIMES, g)
        for k in subset_sizes:
            for sub in itertools.combinations(primes, k):
                yield g, PrimeSet._subset(sub)


def exclusivity_scan(groups=None) -> CrossCheckReport:
    """No input may satisfy a II-subcase and a III-subcase simultaneously,
    and every yes verdict must carry exactly one condition tag.

    Each point takes one D verdict, with the point's pi handed over as pi
    inter pi(G), which it already is, and Condition III is checked only
    where that verdict carries a II subcase.  The check stays complete: a
    point can satisfy both only where the II/III premises hold, decide_dpi
    reaches Condition II on exactly those points, and its II answer is
    check_condition_II's.
    """
    report = CrossCheckReport("exclusivity")
    if groups is None:
        groups = scan_groups()
    checked = 0
    violations = []
    for g, pi in scan_points(groups, _EXCLUSIVITY_SIZES):
        checked += 1
        verdict = _decide_dpi(g, pi, pi)
        if verdict.condition is None:
            if not verdict.yes:
                continue
            detail = "yes verdict without a condition tag"
        elif verdict.condition.startswith("II("):
            sub3, _ = check_condition_III(g, pi)
            if sub3 is None:
                continue
            detail = f"{verdict.condition} and {sub3} both satisfied"
        else:
            continue
        violations.append(
            {"group": g.spec(), "pi": list(pi), "agree": False, "detail": detail}
        )
    report.cases = violations
    report.cases.append(
        {
            "group": "*",
            "pi": [],
            "agree": not violations,
            "detail": f"{checked} grid points scanned, {len(violations)} violations",
        }
    )
    return report


# suite name -> its report on grid points under an order cap; run_suite hands them
# one group's points at a time, so each group is built once and gone before the next.
# Each suite function is looked up by name when it runs, so a wrapper rebound
# over it (as bench/spans.py binds its timers) sees the call.
_GRID_SUITES = {
    "cross": lambda points, cap: cross_check_simple(points, cap),
    "main-theorem": lambda points, cap: main_theorem_check(points, cap),
    "star": lambda points, cap: star_consistency_check(points, cap),
}
_SUITES = (*_GRID_SUITES, "exclusivity")  # the CLI's choices, in the order "all" runs them


def run_suite(
    name: str,
    grid: list[tuple[GroupId, PrimeSet]] | None = None,
    order_bound: int = DEFAULT_MAX_ORDER,
) -> list[CrossCheckReport]:
    """Run one suite or all of them on the given (default: generated) grid."""
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {(*_SUITES, 'all')}")
    if grid is None:
        grid = default_grid()
    names = _SUITES if name == "all" else (name,)
    reports = [CrossCheckReport(n) for n in names if n in _GRID_SUITES]
    for _, points in itertools.groupby(grid, key=lambda point: point[0]):
        points = list(points)
        for report in reports:
            part = _GRID_SUITES[report.suite](points, order_bound)
            for key in ("cases", "out_of_scope", "skipped"):
                getattr(report, key).extend(getattr(part, key))
    _constructible.cache_clear()
    if "exclusivity" in names:
        reports.append(exclusivity_scan())
    return reports
