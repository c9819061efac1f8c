"""Cross-checks between the arithmetic oracle and the brute-force engine.

Four suites: oracle-vs-brute agreement on E/C/D, the D = U identity over
overgroup lattices, the D-implies-star consistency check, and a purely
symbolic exclusivity scan over the Condition II/III premises.  Any
disagreement is a hard failure of the build, not a warning.

The three grid suites share one loop, ``run_suite``: it builds each group
at its run's first point in scope and drops it when the run ends, and runs
the runs and the exclusivity scan on the usable CPUs.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field

from .arith import (DigitsError, PrimeSet, _distinct_prime_set, _order_table, _subset,
                    read_decimal)
from .hall_oracle import _condition_III, _dpi_answers, _epi_answers
from .lie_catalog import (
    CLASSICAL_FAMILIES,
    EXCEPTIONAL_FAMILIES,
    GroupId,
    GroupSpecError,
    _prime_power,
    _simple_group,
    group_order,
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
    """The grid in a file: a JSON object whose nonempty ``cases`` list holds
    objects with a ``group`` string and a ``pi`` list of one or more
    distinct primes.  An unreadable file or any other shape is a ValueError."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ValueError(f"cannot read grid: {exc}") from None
    try:  # read_decimal reads each integer's digits, under its bound
        grid = json.loads(text, parse_int=lambda s: (
            -read_decimal(s[1:]) if s[0] == "-" else read_decimal(s)))
    except (json.JSONDecodeError, DigitsError) as exc:
        raise ValueError(f"a grid must be JSON: {exc}") from None
    cases = grid.get("cases") if isinstance(grid, dict) else None
    if not isinstance(cases, list):
        raise ValueError("a grid must be a JSON object with a 'cases' list")
    if not cases:  # a grid that verifies nothing must not pass
        raise ValueError("a grid must list at least one case")
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
    groups = simple_groups(("A", 2, q) for q in range(2, _GRID_MAX_Q + 1))
    return list(scan_points(groups, range(1, len(_SCAN_PRIMES) + 1)))


def perm_realization(g: GroupId) -> str | None:
    """Named perm_engine spec realizing g concretely, if one exists."""
    if g.family == "A" and g.n == 2 and g.q <= _PSL2_MAX_Q:
        return f"psl2:{g.q}"
    return None


def _build(g: GroupId, order_bound: int):
    """(G, None) for the group realizing g under the cap, or (None, the
    reason it cannot be built)."""
    spec = perm_realization(g)
    if spec is None:
        return None, f"no permutation construction for {g}"
    try:
        return construct_named(spec, order_bound), None
    except OrderLimitError as exc:
        return None, str(exc)


def _cross(g, pi, G) -> dict:
    """decide_dpi vs brute D and decide_epi vs brute E and C at one point.
    It takes D's answer once, untraced, and E's from it, as decide_epi
    does; no verdict is built."""
    inters = (pi_intersection(pi, g),)
    ds = _dpi_answers(g, inters)
    oracle_d, oracle_e = ds[0][0], _epi_answers(g, inters, ds)[0][0]
    brute_d, _ = brute_property(G, pi, "D")
    brute_e, _ = brute_property(G, pi, "E")
    brute_c, _ = brute_property(G, pi, "C")
    return {
        "oracle": {"dpi": oracle_d, "epi": oracle_e},
        "brute": {"dpi": brute_d, "epi": brute_e, "cpi": brute_c},
        "agree": (oracle_d == "yes") == brute_d
        and (oracle_e == "yes") == brute_e == brute_c,
        "detail": f"oracle d={oracle_d}/e={oracle_e} "
        f"brute d={brute_d}/e={brute_e}/c={brute_c}",
    }


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


# ---------------------------------------------------------------------------
# symbolic exclusivity scan

_SCAN_PRIMES = PrimeSet((3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
_SCAN_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)
_SCAN_MAX_PARAM = 6  # the largest dimension or rank in the scan
_EXCLUSIVITY_SIZES = (2, 3)  # the sizes of pi in the exclusivity scan
_GRID_MAX_Q = 13  # the largest q of the default grid's PSL_2(q)


def simple_groups(triples) -> list[GroupId]:
    """The simple groups among the (family, n, q) triples, n None for an
    exceptional family, in order: each the GroupId ``parse_group_id`` gives
    for the triple's spec, with no spec written.  Each q is split into p^f
    once; a triple whose q is not a prime power, or that names no simple
    group, is skipped."""
    split: dict[int, tuple[int, int] | None] = {}
    groups = []
    for fam, n, q in triples:
        if q not in split:
            try:
                split[q] = _prime_power(q)
            except GroupSpecError:
                split[q] = None
        if split[q] is not None:
            g, _ = _simple_group(fam, n, *split[q])
            if g is not None:
                groups.append(g)
    return groups


def scan_groups() -> list[GroupId]:
    """All valid simple-group descriptors with q in ``_SCAN_Q`` and
    dimension or rank at most ``_SCAN_MAX_PARAM``."""
    params = [(fam, n) for fam in CLASSICAL_FAMILIES for n in range(1, _SCAN_MAX_PARAM + 1)]
    params += [(fam, None) for fam in EXCEPTIONAL_FAMILIES]
    return simple_groups((fam, n, q) for q in _SCAN_Q for fam, n in params)


def scan_pis(groups, subset_sizes):
    """(group, [pi, ...]) per group: for each size, each combination of that
    many odd scan primes dividing |G|, an increasing tuple equal to pi inter
    pi(G), so that ``_dpi_answers`` decides a group's list in one call."""
    for g in groups:
        primes = pi_intersection(_SCAN_PRIMES, g)
        yield g, [pi for k in subset_sizes for pi in itertools.combinations(primes, k)]


def scan_points(groups, subset_sizes):
    """The (group, pi) points of ``scan_pis``, in order, pi a PrimeSet."""
    for g, pis in scan_pis(groups, subset_sizes):
        yield from zip(itertools.repeat(g), map(_subset, pis))


def exclusivity_scan(groups=None) -> CrossCheckReport:
    """No input may satisfy a II-subcase and a III-subcase simultaneously,
    and every yes verdict must carry exactly one condition tag.

    Each point takes one untraced D answer (``_dpi_answers``, per group),
    and Condition III is checked only where it carries a II subcase.  The
    check stays complete: a point can satisfy both only where the II/III
    premises hold and it satisfies a II subcase.  Such a point is
    non-uniform, some ord(q mod s) differing from ord(q mod r), as II's
    first test requires, and its family has a II subcase, so the untraced
    D answer still enters Condition II there.  Condition III runs traced, so
    it starts at its own first test, the uniform order that the untraced
    body takes as given.
    """
    report = CrossCheckReport("exclusivity")
    if groups is None:
        groups = scan_groups()
    checked = 0
    violations = []
    for g, pis in scan_pis(groups, _EXCLUSIVITY_SIZES):
        checked += len(pis)
        for pi, (holds, condition) in zip(pis, _dpi_answers(g, pis)):
            if condition is None:
                if holds != "yes":
                    continue
                detail = "yes verdict without a condition tag"
            elif condition.startswith("II("):
                orders = _order_table(g.q)
                sub3 = _condition_III([], g, pi[0], pi[1:], orders[pi[0]], orders)
                if sub3 is None:
                    continue
                detail = f"{condition} and {sub3} both satisfied"
            else:
                continue
            violations.append({"group": g.spec(), "pi": list(pi), "agree": False,
                               "detail": detail})
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


# suite name -> (in_scope(g, pi), check(g, pi, G)): check returns a case's
# verdict fields at a point in scope whose group G could be built.
_GRID_SUITES = {
    "cross": (lambda g, pi: 2 not in pi, _cross),
    "main-theorem": (lambda g, pi: True, _implied_by_d("U", "u")),
    "star": (lambda g, pi: 2 not in pi and g.p not in pi, _implied_by_d("star", "star")),
}
_SUITES = (*_GRID_SUITES, "exclusivity")  # the CLI's choices, in the order "all" runs them


def run_suite(
    name: str,
    grid: list[tuple[GroupId, PrimeSet]] | None = None,
    order_bound: int = DEFAULT_MAX_ORDER,
) -> list[CrossCheckReport]:
    """Run one suite or all of them on the given (default: generated) grid.

    The grid is cut into runs of consecutive points on one group, and each
    run is one task, taken suite by suite; the exclusivity scan is one more.
    A run's group is built at its first point in scope, shared by the run's
    suites and dropped when the run ends, so each process holds one group
    at a time and none outlives the call.  The tasks run on the usable CPUs
    (``_run_tasks``): the scan is handed out first, then the runs by
    decreasing |G|, and their reports are merged in grid order.  Each grid
    suite makes one case per point in scope whose group can be built.
    """
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {(*_SUITES, 'all')}")
    if grid is None:
        grid = default_grid()
    names = _SUITES if name == "all" else (name,)
    suites = [n for n in names if n in _GRID_SUITES]
    runs = []  # (group, its points) for each run of consecutive points on one group
    if suites:
        runs = [(g, list(points)) for g, points in itertools.groupby(grid, key=lambda p: p[0])]
    scan = "exclusivity" in names

    def task(i: int) -> list[CrossCheckReport]:
        return [exclusivity_scan()] if i == len(runs) else _run(*runs[i], suites, order_bound)

    # runs that build nothing are instant; the others take longer the larger |G| is
    size = [group_order(g) if perm_realization(g) else 0 for g, _ in runs]
    first = [len(runs)] if scan else []
    reports = [CrossCheckReport(n) for n in suites]
    parts = _run_tasks(task, first + sorted(range(len(runs)), key=size.__getitem__, reverse=True))
    for part in parts[:len(runs)]:
        for report, run in zip(reports, part):
            report.cases += run.cases
            report.out_of_scope += run.out_of_scope
            report.skipped += run.skipped
    return reports + (parts[-1] if scan else [])


def _run(g: GroupId, points: list, suites: list[str], order_bound: int) -> list[CrossCheckReport]:
    """Each grid suite's report on one run of points on g, suite by suite,
    with g built at the run's first point in scope and dropped on return."""
    reports = [CrossCheckReport(n) for n in suites]
    G = reason = None  # the run's group, or why it cannot be built, once needed
    for report in reports:
        in_scope, check = _GRID_SUITES[report.suite]
        for _, pi in points:
            entry = {"group": g.spec(), "pi": list(pi)}
            if not in_scope(g, pi):
                report.out_of_scope.append(entry)
                continue
            if G is None and reason is None:
                G, reason = _build(g, order_bound)
            if G is None:
                report.skipped.append({**entry, "reason": reason})
                continue
            t0 = time.perf_counter()
            case = {**entry, **check(g, pi, G)}
            case["runtime"] = round(time.perf_counter() - t0, 4)
            report.cases.append(case)
    return reports


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_tasks(task, order: list[int]) -> list:
    """[task(0), ..., task(n - 1)] for n = len(order), on up to one process
    per usable CPU: this one and forked workers, each claiming the next
    index of ``order`` from one pipe as it finishes a task.  A worker's
    exception is raised here, and every worker is reaped on every path.
    The tasks run here, in index order, on one usable CPU, for one task,
    with no ``os.fork``, or beside another live thread, which a forked
    child would not have.

    Where the platform sets affinities, each process of the pool is pinned
    to its own CPU of this process's mask, this one to the first and
    worker k to the (k + 1)-th, wrapping round where the mask is shorter,
    and this process gets its mask back on return.  A kernel that does not
    balance load (a cpuset with ``sched_load_balance`` 0) never moves a
    forked worker off its parent's CPU, so unpinned, the pool shares one."""
    workers = min(_usable_cpus(), len(order)) - 1
    if workers < 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [task(i) for i in range(len(order))]
    import pickle  # loaded only where workers are forked
    import signal
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    todo_r, todo_w = _pipe(buffering=0)  # unbuffered: a read takes no index beyond its own
    children = {}  # pid -> the read end of its results pipe
    try:
        if cpus:
            os.sched_setaffinity(0, cpus[:1])
        for k in range(1, workers + 1):
            out, w = _pipe()
            with w:  # closed here once the worker holds its own copy
                pid = os.fork()
                if pid == 0:  # the worker never returns into its caller
                    try:
                        todo_w.close()
                        _work(task, todo_r, w, cpus[k % len(cpus)] if cpus else None)
                    finally:
                        os._exit(0)
            children[pid] = out
        for i in order:  # a write of at most PIPE_BUF bytes is atomic
            todo_w.write(i.to_bytes(4, "little"))
        todo_w.close()
        results = {i: task(i) for i in _claims(todo_r)}
        for out in children.values():
            payload = out.read()
            if not payload:
                raise RuntimeError("a verify worker ended without sending its results")
            done = pickle.loads(payload)
            if isinstance(done, BaseException):
                raise done
            results.update(done)
        return [results[i] for i in range(len(order))]
    finally:
        todo_r.close()
        todo_w.close()
        for pid, out in children.items():  # a worker still running is no longer needed
            out.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if cpus:
            os.sched_setaffinity(0, cpus)


def _pipe(**kwargs):
    """The read and write ends of a new pipe, as binary files."""
    r, w = os.pipe()
    return os.fdopen(r, "rb", **kwargs), os.fdopen(w, "wb", **kwargs)


def _claims(todo):
    """The task indices claimed from the pipe ``todo`` until it is empty:
    each write to it is one 4-byte index, so each read is one."""
    while index := todo.read(4):
        yield int.from_bytes(index, "little")


def _work(task, todo, out, cpu: int | None) -> None:
    """A worker: pinned to ``cpu`` unless it is None, write {index: result}
    for the tasks it claims from ``todo``, pickled, to the pipe ``out``.
    After an exception, a failed pinning or an interrupt included, it drains
    the claims unrun, so the other processes stop at once, and writes the
    exception instead, for the parent to raise."""
    import pickle  # loaded already by _run_tasks
    try:
        if cpu is not None:
            os.sched_setaffinity(0, (cpu,))
        done = {i: task(i) for i in _claims(todo)}
    except BaseException as exc:
        for _ in _claims(todo):
            pass
        done = exc
    try:
        payload = pickle.dumps(done)
        if isinstance(done, BaseException):
            pickle.loads(payload)  # an exception may pickle and yet not unpickle
    except Exception as exc:  # what pickle cannot carry is sent as its type's name and text
        failed = done if isinstance(done, BaseException) else exc
        payload = pickle.dumps(RuntimeError(f"{type(failed).__name__}: {failed}"))
    with out:
        out.write(payload)
