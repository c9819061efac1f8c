"""Tests for the oracle-vs-brute verification suites."""

import gc
import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
import time
import weakref

import pytest

import hallpi
from hallpi import hall_oracle, perm_engine, verifier
from hallpi.arith import PrimeSet
from hallpi.cli import main
from hallpi.hall_oracle import Verdict, decide_dpi, decide_epi
from hallpi.lie_catalog import (
    CLASSICAL_FAMILIES,
    EXCEPTIONAL_FAMILIES,
    FAMILIES,
    GroupId,
    GroupSpecError,
    group_order,
    parse_group_id,
)
from hallpi.verifier import (
    default_grid,
    exclusivity_scan,
    perm_realization,
    run_suite,
    scan_groups,
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
    [report] = run_suite("cross", default_grid())
    assert report.ok
    assert len(report.cases) == 29
    assert report.disagreements == 0


def test_cross_check_routes_out_of_scope_and_skips():
    grid = [
        (parse_group_id("A:2:q=7"), PrimeSet([2, 3])),
        (parse_group_id("B:3:q=3"), PrimeSet([5, 7])),
        (parse_group_id("A:2:q=11"), PrimeSet([3, 5])),
    ]
    [report] = run_suite("cross", grid)
    assert len(report.out_of_scope) == 1
    assert len(report.skipped) == 1
    assert "no permutation construction" in report.skipped[0]["reason"]
    case = report.cases[0]
    assert case["group"] == "A:2:q=11"
    assert case["oracle"]["dpi"] == "no" and case["brute"]["dpi"] is False
    assert case["agree"]


def test_main_theorem_check_default_grid():
    [report] = run_suite("main-theorem", default_grid())
    assert report.ok and len(report.cases) == 29


def test_star_consistency_excludes_p_in_pi():
    [report] = run_suite("star", default_grid())
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


def test_q31_grid_verifies_under_100_mb(tmp_path):
    """CI's grid, in a child process as CI runs it: PSL_2(q) for every
    q <= 31 at every nonempty pi of odd scan primes, 89 points, through
    ``verify all --grid``.  Each process of verify holds one group at a
    time, so it must agree everywhere with a peak RSS of at most 100 MB in
    the child and in each worker it forks (36.2 and 36.1 MB measured on
    two CPUs, 47.9 and 51.1 MB while each search walked its own classes;
    144 MB while every group stayed cached).  CI alone bounds its
    time.  The child's peak is its VmHWM, the peak since its exec: Linux
    carries the forking test process's peak into ru_maxrss.  The workers'
    is ru_maxrss of the child's reaped children, which start from the
    child's own size."""
    code = (
        "import json, resource\n"
        "from hallpi.cli import main\n"
        "from hallpi.verifier import _SCAN_PRIMES, scan_points, simple_groups\n"
        "groups = simple_groups(('A', 2, q) for q in range(2, 32))\n"
        "points = list(scan_points(groups, range(1, len(_SCAN_PRIMES) + 1)))\n"
        "with open('grid-q31.json', 'w') as f:\n"
        "    json.dump({'cases': [{'group': g.spec(), 'pi': list(pi)} for g, pi in points]}, f)\n"
        "code = main(['verify', 'all', '--grid', 'grid-q31.json'])\n"
        "status = open('/proc/self/status').read()\n"
        "workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(len(points), code, int(status.split('VmHWM:')[1].split()[0]) / 1024,\n"
        "      workers / 1024)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hallpi.__file__))}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, check=True,
                          capture_output=True, text=True)
    points, exit_code, rss_mb, workers_mb = done.stdout.splitlines()[-1].split()
    assert (int(points), int(exit_code)) == (89, 0)
    assert max(float(rss_mb), float(workers_mb)) <= 100, (rss_mb, workers_mb)


def test_exclusivity_scan_is_clean():
    report = exclusivity_scan()
    assert report.ok
    assert report.cases[-1]["detail"] == "17082 grid points scanned, 0 violations"


def test_exclusivity_reports_both_satisfied(monkeypatch):
    # A:3:q=5 has four scan points; only {3,31} satisfies II, as II(a)
    calls = []

    def always_III(trace, g, r, tau, c, orders):
        assert trace == []  # traced, so the body tests the uniform order itself
        calls.append((g.spec(), [r, *tau]))
        return "III(a)"

    monkeypatch.setattr(verifier, "_condition_III", always_III)
    report = exclusivity_scan([parse_group_id("A:3:q=5")])
    assert calls == [("A:3:q=5", [3, 31])]
    assert report.cases[:-1] == [{"group": "A:3:q=5", "pi": [3, 31], "agree": False,
                                  "detail": "II(a) and III(a) both satisfied"}]
    assert report.cases[-1]["detail"] == "4 grid points scanned, 1 violations"


def test_exclusivity_reports_yes_without_condition(monkeypatch):
    monkeypatch.setattr(verifier, "_dpi_answers", lambda g, inters: [("yes", None)] * len(inters))
    report = exclusivity_scan([parse_group_id("A:3:q=5")])
    assert [c["detail"] for c in report.cases[:-1]] == [
        "yes verdict without a condition tag"
    ] * 4
    assert not report.ok


def test_untraced_paths_build_no_verdict(monkeypatch, capsys):
    """hallpi scan, the exclusivity scan and the cross suite read the
    oracle's bare answers and build no Verdict; the public deciders, which
    look the class up where they build one, still return Verdicts.  The
    suite runs in this process, where the Verdicts are counted."""
    _in_process(monkeypatch)
    built = []

    class CountedVerdict(Verdict):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.property)

    monkeypatch.setattr(hall_oracle, "Verdict", CountedVerdict)
    assert main(["scan", "--family", "A", "--n", "2..4", "--q", "2..16", "--pi-size", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) > 1
    assert exclusivity_scan().ok
    assert run_suite("cross", default_grid())[0].ok
    assert built == []
    g, pi = parse_group_id("A:2:q=7"), PrimeSet([3, 7])
    assert type(decide_dpi(g, pi)) is CountedVerdict
    assert type(decide_epi(g, pi)) is CountedVerdict
    assert built == ["D", "E"]


def test_simple_groups_are_the_parsed_groups():
    """Every (family, n, q) with n in 0..9 (None for an exceptional family)
    and q in 0..64 gives, through simple_groups, the very GroupId objects
    parse_group_id gives for its spec, in order, each triple that names no
    simple group skipped in both; scan_groups is those of its 575 specs."""
    triples = [(fam, n, q) for fam in FAMILIES
               for n in ((None,) if fam in EXCEPTIONAL_FAMILIES else range(10))
               for q in range(65)]
    groups = verifier.simple_groups(triples)

    def parsed(triples):
        out = []
        for fam, n, q in triples:
            try:
                out.append(parse_group_id(f"{fam}:q={q}" if n is None else f"{fam}:{n}:q={q}"))
            except GroupSpecError:
                continue
        return out

    def same(a, b):
        return len(a) == len(b) and all(x is y for x, y in zip(a, b))

    assert same(groups, parsed(triples))
    assert {g.family for g in groups} == set(FAMILIES)
    params = [(fam, n) for fam in CLASSICAL_FAMILIES for n in range(1, 7)]
    params += [(fam, None) for fam in EXCEPTIONAL_FAMILIES]
    groups = scan_groups()
    assert len(groups) == 575
    assert same(groups, parsed((fam, n, q) for q in verifier._SCAN_Q for fam, n in params))


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
    [a] = run_suite("cross", grid)
    [b] = run_suite("cross", grid)
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


def _in_process(monkeypatch) -> None:
    """Make run_suite run its tasks in this process, as on one CPU, so that
    what a test records of them is recorded here."""
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 1)


def _forks(monkeypatch, cpus: int = 2) -> list:
    """Make run_suite see ``cpus`` usable CPUs; the pids it forks from now
    on are listed in the list returned."""
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: cpus)
    forks, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return forks


def _mask():
    """This process's affinity mask, where the platform has one."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


_pins = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                           reason="the platform sets no affinity")


def _no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _record_builds(monkeypatch) -> list:
    """(spec, weak reference) for each group the suites build from now on."""
    built = []

    def recording(spec, order_bound):
        G = perm_engine.construct_named(spec, order_bound)
        built.append((spec, weakref.ref(G)))
        return G

    monkeypatch.setattr(verifier, "construct_named", recording)
    return built


def test_verify_all_builds_each_default_grid_group_once(monkeypatch):
    """The three grid suites share each group over its run of points.  The
    runs go in this process, in grid order, where the builds are recorded."""
    _in_process(monkeypatch)
    built = _record_builds(monkeypatch)
    run_suite("all")
    assert [spec for spec, _ in built] == [f"psl2:{q}" for q in (4, 5, 7, 8, 9, 11, 13)]


def test_a_run_walks_each_subgroup_member_once(monkeypatch):
    """psl2:13's run of the default grid through every grid suite: each
    member a search extends is walked once on the group's index, however
    many searches and queries reach it.  U reads N_G(H) off the record the
    pi-subgroup search made, and starts its overgroup search from it, so a
    U query walks H and the other pi-subgroups no more: only the overgroups
    of H that no earlier search walked."""
    walks = []  # (index, K, the property being queried) per walk
    running = [None]
    walk = perm_engine._Index._walk
    monkeypatch.setattr(perm_engine._Index, "_walk", lambda self, K, gens: (
        walks.append((self, K, running[0])) or walk(self, K, gens)))
    u_queries = []  # (H, the members of H's overgroup classes) per U query
    brute = verifier.brute_property

    def query(G, pi, prop):
        running[0] = prop
        result = brute(G, pi, prop)
        running[0] = None
        if prop == "U":
            H = perm_engine.pi_hall_subgroups(G, pi)[0].member
            u_queries.append((H, {c.member for c in perm_engine.hall_overgroups(G, pi)}))
        return result

    monkeypatch.setattr(verifier, "brute_property", query)
    g = parse_group_id("A:2:q=13")
    points = [point for point in default_grid() if point[0] == g]
    reports = verifier._run(g, points, list(verifier._GRID_SUITES), perm_engine.DEFAULT_MAX_ORDER)
    assert len(points) == 7 and all(r.ok and r.cases for r in reports)
    assert len({ix for ix, _, _ in walks}) == 1
    members = [K for _, K, _ in walks]
    assert len(set(members)) == len(members)
    in_u = {K for _, K, prop in walks if prop == "U"}
    assert u_queries and all(H not in in_u for H, _ in u_queries)
    assert in_u <= set().union(*(overgroups - {H} for H, overgroups in u_queries))


def test_parallel_verify_all_builds_each_default_grid_group_once(monkeypatch, tmp_path):
    """On two CPUs, each of the 8 tasks (7 runs and the exclusivity scan)
    goes to one process: every group is built once, in whichever process
    ran its run, and the worker is reaped before run_suite returns."""
    forks = _forks(monkeypatch)
    log = tmp_path / "builds"

    def recording(spec, order_bound):
        with open(log, "a") as f:  # one short line per write, from either process
            f.write(f"{spec}\n")
        return perm_engine.construct_named(spec, order_bound)

    monkeypatch.setattr(verifier, "construct_named", recording)
    mask = _mask()
    assert all(r.ok for r in run_suite("all"))
    assert _mask() == mask
    assert len(forks) == 1
    _no_child_left()
    assert sorted(log.read_text().split(), key=lambda s: int(s[5:])) == [
        f"psl2:{q}" for q in (4, 5, 7, 8, 9, 11, 13)]


@pytest.mark.parametrize("grid, order_bound", [
    (None, perm_engine.DEFAULT_MAX_ORDER),
    # out of scope ({2,3}; p = 7 in pi for star), no construction (B:3:q=3),
    # over the cap (psl2:13 has order 1092) and back to a group seen before
    ([("A:2:q=7", (2, 3)), ("A:2:q=7", (3, 7)), ("B:3:q=3", (5, 7)), ("A:2:q=13", (3, 7)),
      ("A:2:q=8", (3,)), ("A:2:q=7", (7,))], 1000),
], ids=["default-grid", "skips-and-out-of-scope"])
def test_parallel_reports_are_the_in_process_reports(monkeypatch, grid, order_bound):
    """run_suite("all") gives the same reports, runtimes removed, on the
    parallel path as in this process, and leaves no child behind."""
    if grid is not None:
        grid = [(parse_group_id(g), PrimeSet(pi)) for g, pi in grid]
    forks = _forks(monkeypatch)
    parallel = run_suite("all", grid, order_bound)
    assert len(forks) == 1
    _no_child_left()
    _in_process(monkeypatch)
    alone = run_suite("all", grid, order_bound)
    assert len(forks) == 1
    assert [_masked(r) for r in parallel] == [_masked(r) for r in alone]
    if grid is not None:
        cross = alone[0]
        assert len(cross.cases) == 3 and [c["pi"] for c in cross.out_of_scope] == [[2, 3]]
        assert [c["group"] for c in cross.skipped] == ["B:3:q=3", "A:2:q=13"]
        assert "cap 1000" in cross.skipped[1]["reason"]


@pytest.mark.parametrize("parallel", [False, True], ids=["in-process", "parallel"])
def test_run_suite_raises_a_task_error_and_reaps(monkeypatch, parallel):
    """brute_property raising ValueError on one group makes run_suite raise
    ValueError on either path, and no child is left running or unreaped."""
    real = verifier.brute_property

    def brute(G, pi, prop):
        if G.order == 504:  # psl2:8
            raise ValueError("brute failed on psl2:8")
        return real(G, pi, prop)

    monkeypatch.setattr(verifier, "brute_property", brute)
    forks = _forks(monkeypatch, 2 if parallel else 1)
    mask = _mask()
    with pytest.raises(ValueError, match="brute failed on psl2:8"):
        run_suite("all")
    assert _mask() == mask
    assert len(forks) == parallel
    _no_child_left()


class _Unpicklable(LookupError):
    """An exception pickle cannot carry: it holds a lock."""

    def __init__(self, text):
        super().__init__(text)
        self.lock = threading.Lock()


@pytest.mark.parametrize("error, raised, text", [
    (LookupError, LookupError, "in a worker"),
    (_Unpicklable, RuntimeError, "_Unpicklable: in a worker"),
], ids=["picklable", "unpicklable"])
def test_a_worker_exception_is_raised_here(monkeypatch, error, raised, text):
    """Two tasks on two processes: this process's task waits until the
    worker has claimed the other one, whose exception is then raised here,
    with its type where pickle can carry it and as a RuntimeError naming the
    type where it cannot."""
    forks = _forks(monkeypatch)
    parent, (r, w) = os.getpid(), os.pipe()

    def task(i):
        if os.getpid() == parent:
            os.read(r, 1)
            return i
        os.write(w, b"x")
        raise error("in a worker")

    try:
        with pytest.raises(raised) as caught:
            verifier._run_tasks(task, [0, 1])
    finally:
        os.close(r)
        os.close(w)
    assert str(caught.value) == text and type(caught.value) is raised
    assert len(forks) == 1
    _no_child_left()


def test_an_interrupt_kills_and_reaps_the_workers(monkeypatch):
    """A KeyboardInterrupt in this process's task, raised once the worker
    has started a long task, reaches the caller at once, and the worker is
    killed and reaped."""
    forks = _forks(monkeypatch)
    parent, (r, w) = os.getpid(), os.pipe()

    def task(i):
        if os.getpid() == parent:
            os.read(r, 1)
            raise KeyboardInterrupt
        os.write(w, b"x")
        time.sleep(60)

    mask = _mask()
    t0 = time.perf_counter()
    try:
        with pytest.raises(KeyboardInterrupt):
            verifier._run_tasks(task, [0, 1])
    finally:
        os.close(r)
        os.close(w)
    assert time.perf_counter() - t0 < 10
    assert _mask() == mask
    assert len(forks) == 1
    _no_child_left()


@_pins
@pytest.mark.skipif(len(_mask() or ()) < 2, reason="fewer than two usable CPUs")
def test_each_process_of_the_pool_runs_on_its_own_cpu(monkeypatch):
    """Two tasks on two processes, each returning its pid and affinity
    mask: each mask holds one CPU, the two differ, and this process has its
    own mask back once the pool is done."""
    forks = _forks(monkeypatch)
    parent, (r, w) = os.getpid(), os.pipe()

    def task(i):
        if os.getpid() == parent:
            os.read(r, 1)  # until the worker has claimed the other task
        else:
            os.write(w, b"x")
        return os.getpid(), os.sched_getaffinity(0)

    mask = _mask()
    try:
        ran = dict(verifier._run_tasks(task, [0, 1]))
    finally:
        os.close(r)
        os.close(w)
    assert set(ran) == {parent, *forks} and len(forks) == 1
    assert all(len(cpus) == 1 for cpus in ran.values())
    assert ran[parent] != ran[forks[0]]
    assert _mask() == mask
    _no_child_left()


@_pins
def test_two_workers_share_a_one_cpu_mask(monkeypatch):
    """Two processes forced onto a one-CPU mask both pin to that CPU:
    run_suite("all") passes, reaps its worker and leaves this process on
    the mask it read."""
    forks = _forks(monkeypatch)
    real, getaffinity = _mask(), os.sched_getaffinity
    cpu = min(real)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {cpu})
    try:
        assert all(r.ok for r in run_suite("all"))
        assert getaffinity(0) == {cpu}
    finally:
        os.sched_setaffinity(0, real)
    assert len(forks) == 1
    _no_child_left()


@_pins
def test_a_worker_that_cannot_pin_raises_here(monkeypatch):
    """A sched_setaffinity that fails in the worker is raised here, the
    worker is reaped and this process has its own mask back."""
    forks = _forks(monkeypatch)
    parent, setaffinity = os.getpid(), os.sched_setaffinity

    def pin(pid, cpus):
        if os.getpid() != parent:
            raise OSError("pinning refused")
        setaffinity(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", pin)
    mask = _mask()
    with pytest.raises(OSError, match="pinning refused"):
        verifier._run_tasks(lambda i: i, [0, 1])
    assert _mask() == mask
    assert len(forks) == 1
    _no_child_left()


def test_run_suite_keeps_no_group_alive(monkeypatch):
    """No group a run_suite call built is reachable once it returns.  The
    runs go in this process, where the groups are recorded."""
    _in_process(monkeypatch)
    built = _record_builds(monkeypatch)
    grid = [(parse_group_id(f"A:2:q={q}"), PrimeSet([3])) for q in (4, 7, 8)]
    assert all(r.ok for r in run_suite("all", grid))
    gc.collect()
    assert all(ref() is None for _, ref in built)
    assert [spec for spec, _ in built] == ["psl2:4", "psl2:7", "psl2:8"]


def test_run_suite_that_raises_keeps_no_group_alive(monkeypatch):
    """A grid suite that raises after an earlier suite built the group
    leaves no group a run_suite call built reachable.  The run goes in this
    process, where the group is recorded."""
    _in_process(monkeypatch)
    built = _record_builds(monkeypatch)

    def failing(g, pi, G):
        raise RuntimeError("suite failed")

    monkeypatch.setitem(verifier._GRID_SUITES, "star", (lambda g, pi: True, failing))
    with pytest.raises(RuntimeError, match="suite failed"):
        run_suite("all", [(parse_group_id("A:2:q=7"), PrimeSet([3]))])
    gc.collect()
    assert [spec for spec, _ in built] == ["psl2:7"]
    assert all(ref() is None for _, ref in built)


@pytest.mark.parametrize("suite", ["cross", "main-theorem", "star"])
def test_direct_suite_call_keeps_no_group_alive(monkeypatch, suite):
    """No group a grid suite run on its own built is reachable once it
    returns."""
    built = _record_builds(monkeypatch)
    assert run_suite(suite, [(parse_group_id("A:2:q=7"), PrimeSet([3]))])[0].ok
    gc.collect()
    assert [spec for spec, _ in built] == ["psl2:7"]
    assert all(ref() is None for _, ref in built)


def test_run_suite_on_interleaved_groups_matches_each_suite_alone():
    """Points that leave a group and come back to it (A, B, A), with a
    group that has no construction and points out of scope between them:
    run_suite's report of each grid suite is that suite's own on the grid."""
    a, b, c = (parse_group_id(s) for s in ("A:2:q=7", "B:3:q=3", "A:2:q=8"))
    grid = [(a, PrimeSet([3])), (a, PrimeSet([2, 3])), (b, PrimeSet([5, 7])),
            (c, PrimeSet([3, 7])), (c, PrimeSet([7])), (a, PrimeSet([3, 7])), (a, PrimeSet([7]))]
    together = run_suite("all", grid)[:3]
    alone = [run_suite(name, grid)[0] for name in ("cross", "main-theorem", "star")]
    assert [_masked(r) for r in together] == [_masked(r) for r in alone]
    assert all(r.cases and r.skipped for r in alone) and alone[2].out_of_scope


def test_run_suite_all():
    reports = run_suite("all", default_grid()[:3])
    assert [r.suite for r in reports] == ["cross", "main-theorem", "star", "exclusivity"]
    assert all(r.ok for r in reports)


def _failing_brute(monkeypatch, prop):
    """brute_property with ``prop`` failing everywhere, with a witness."""
    real = verifier.brute_property
    witness = {"reason": f"{prop} made to fail"}

    def brute(G, pi, property):
        return (False, witness) if property == prop else real(G, pi, property)

    monkeypatch.setattr(verifier, "brute_property", brute)
    return witness


@pytest.mark.parametrize("prop, suite", [("U", "main-theorem"), ("star", "star")])
def test_suite_reports_a_counterexample(monkeypatch, prop, suite):
    """Where brute D holds and ``prop`` fails, the case disagrees and
    carries the witness; A:2:q=7 is D_{3} (Sylow) and 7 is not in pi."""
    witness = _failing_brute(monkeypatch, prop)
    [report] = run_suite(suite, [(parse_group_id("A:2:q=7"), PrimeSet([3]))])
    [case] = report.cases
    assert not case["agree"] and case["counterexample"] == witness
    assert case["detail"].startswith("d=True ") and not report.ok


def test_verify_prints_fail_and_exits_one(monkeypatch, capsys):
    _failing_brute(monkeypatch, "U")
    assert main(["verify", "main-theorem"]) == 1
    out = capsys.readouterr().out
    assert "  [FAIL] A:2:q=7 pi={3} d=True u=False" in out.splitlines()


def test_text_report_lists_out_of_scope_and_skipped():
    grid = [(parse_group_id("A:2:q=7"), PrimeSet([2, 3])),
            (parse_group_id("B:3:q=3"), PrimeSet([5, 7]))]
    assert run_suite("cross", grid)[0].to_text().splitlines() == [
        "suite: cross",
        "  [oos ] A:2:q=7 pi={2,3}",
        "  [skip] B:3:q=3: no permutation construction for B:3:q=3",
        "  0 cases, 0 disagreements, 1 out of scope, 1 skipped",
    ]


def test_verify_cap_skip_names_the_cap(capsys):
    assert main(["verify", "cross", "--max-order", "100"]) == 0
    skips = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("  [skip] ")]
    assert skips and all("cap 100" in line for line in skips)


def test_verify_cap_skips_without_building(monkeypatch):
    """Under a cap below every grid group's order, each in-scope case is
    skipped with a reason naming the cap, and no group is built."""
    def no_build(*args, **kwargs):
        raise AssertionError("a group was built before the cap refused it")

    monkeypatch.setattr(perm_engine.PermGroup, "__init__", no_build)
    [report] = run_suite("cross", order_bound=50)
    assert report.cases == [] and len(report.skipped) == 29
    assert all("cap 50" in case["reason"] for case in report.skipped)


def test_verify_skips_a_group_over_max_entries(monkeypatch):
    """A grid group whose |G| times degree is above MAX_ENTRIES is skipped
    with that bound named, as one over the order cap is, and not built.
    Every default-grid group is far below the bound (psl2:13 has 15,288
    points), so it is lowered here to 1,000: psl2:4 and psl2:5 have 300 and
    360 points, psl2:7 has 1,344."""
    monkeypatch.setattr(perm_engine, "MAX_ENTRIES", 1000)
    [report] = run_suite("cross")
    built = {case["group"] for case in report.cases}
    skipped = {case["group"] for case in report.skipped}
    assert built == {"A:2:q=2^2", "A:2:q=5"}
    assert skipped == {"A:2:q=7", "A:2:q=2^3", "A:2:q=3^2", "A:2:q=11", "A:2:q=13"}
    assert all("above MAX_ENTRIES = 1000" in case["reason"] for case in report.skipped)


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("bogus")
