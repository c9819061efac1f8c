#!/usr/bin/env python3
"""hallpi benchmark: three closed-loop workloads, one caller, one thread.

    python3 bench/run.py --workload brute-cold --seed 1 --seconds 20 --trace 0

Workloads (bench/NOTES.md says why each was chosen):

- ``oracle-scan``: ``hallpi scan`` over all 16 families, n <= 8, q <= 16,
  pi of size 2 and 3, then ``verifier.exclusivity_scan()``.  The seed
  shuffles the order of the scan invocations.
- ``brute-cold``: ``hallpi brute`` queries, each on a freshly relabelled
  copy of a named group passed as a ``raw:`` spec.  The seed picks the
  relabellings and the query order.
- ``verify-all``: ``hallpi verify all --format json`` in a fresh
  interpreter.  Its input is the pinned grid; the seed is only recorded.

Every operation calls ``hallpi.cli.main`` (the exclusivity scan calls
``hallpi.verifier.exclusivity_scan``) on a freshly imported package, so no
module-level cache of one operation serves the next: each operation costs
what a new process costs, except interpreter start.  A pass is the
workload's whole operation list.  A run makes ``--seconds`` divided by the
workload's usual pass time passes, at least one, so how much work a run does
depends on ``--seconds`` alone, not on how fast the machine is at the time.
Every answer is checked against ``bench/pins.json`` (written by
``bench/pin.py``).

Timings are corrected for the speed the shared machine has at the moment.
Next to every timed operation the reference kernel below runs on the same
core, before and after; the operation's seconds are multiplied by
``REF_S / r``, where ``r`` is the kernel's mean time around it.  The
uncorrected seconds are printed beside the corrected ones.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass over the same inputs and prints the per-layer
metrics of ``bench/spans.py``.  Lines before the last one are the run record
and the metrics in words; the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS, LAYERS, Recorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pins.json"

SETUPS = 15  # set-ups timed per run; setup_s is their median
CHILD_TIMEOUT_S = 170

# -- workload definitions (bench/pin.py pins the answers to these) ---------

FAMILIES = (
    "A", "2A", "B", "C", "D", "2D",
    "3D4", "E6", "2E6", "E7", "E8", "F4", "G2", "2B2", "2F4", "2G2",
)
CLASSICAL = FAMILIES[:6]
SCAN_N = "2..8"
SCAN_Q = "2..16"
SCAN_PI_SIZES = (2, 3)
SCAN_HEADER = ["group", "pi", "epi", "cpi", "dpi", "upi", "condition"]
DEFAULT_ROW = ("no", "no", "no", "no", "")  # verdict of every row pins.json does not list
POINTS_RE = re.compile(r"^(\d+) grid points scanned")

PROPS = ("epi", "cpi", "dpi", "upi", "star")
# group -> (odd pi, pi containing 2)
BRUTE_GROUPS = {
    "dihedral:15": ("3,5", "2,3"),
    "alt:5": ("3,5", "2,3"),
    "sym:5": ("3,5", "2,3"),
    "product:cyclic:3xalt:5": ("3,5", "2,3"),
    "psl2:7": ("3,7", "2,3"),
    "alt:6": ("3,5", "2,3"),
    "psl2:8": ("3,7", "2,3"),
    "psl2:11": ("3,5", "2,3"),
    "psl2:13": ("3,7", "2,3"),
}
# Groups not listed get all ten (pi, property) pairs.  One lattice of the
# four large groups costs 1-11 s, so they get one or two queries.  The
# product and psl2:7 get seven, so that as many queries cost more than the
# sym:5 ones as cost less, and the median query sits inside the sym:5 block.
BRUTE_PAIRS = {
    "product:cyclic:3xalt:5": (("3,5", "epi"), ("3,5", "cpi"), ("3,5", "dpi"), ("3,5", "star"),
                               ("2,3", "epi"), ("2,3", "dpi"), ("2,3", "upi")),
    "psl2:7": (("3,7", "epi"), ("3,7", "cpi"), ("3,7", "dpi"), ("3,7", "upi"),
               ("2,3", "dpi"), ("2,3", "upi"), ("2,3", "star")),
    "alt:6": (("3,5", "upi"), ("2,3", "dpi")),
    "psl2:8": (("3,7", "cpi"), ("2,3", "star")),
    "psl2:11": (("3,5", "epi"),),
    "psl2:13": (("3,7", "dpi"),),
}
ORACLE_DECIDERS = {"epi": "decide_epi", "cpi": "decide_cpi", "dpi": "decide_dpi",
                   "upi": "decide_upi"}
SELF_CHECK_GROUP = "alt:5"


def scan_argvs() -> list[tuple[str, list[str]]]:
    """(family/pi-size key, ``hallpi scan`` argv) for every invocation."""
    out = []
    for fam in FAMILIES:
        for k in SCAN_PI_SIZES:
            argv = ["scan", "--family", fam, "--q", SCAN_Q, "--pi-size", str(k)]
            if fam in CLASSICAL:
                argv[3:3] = ["--n", SCAN_N]
            out.append((f"{fam}/{k}", argv))
    return out


def brute_queries() -> list[tuple[str, str, str]]:
    """(named group, pi, property) for every brute-cold query of a pass."""
    out = []
    for name, pis in BRUTE_GROUPS.items():
        pairs = BRUTE_PAIRS.get(name) or [(pi, prop) for pi in pis for prop in PROPS]
        out.extend((name, pi, prop) for pi, prop in pairs)
    return out


def pi_digest(pis) -> str:
    return hashlib.sha256(";".join(sorted(pis)).encode()).hexdigest()[:16]


def json_documents(text: str) -> list:
    """The JSON documents of ``text``, written one after another."""
    docs, dec, pos = [], json.JSONDecoder(), 0
    while text[pos:].strip():
        while text[pos].isspace():
            pos += 1
        doc, pos = dec.raw_decode(text, pos)
        docs.append(doc)
    return docs


# -- machine speed -----------------------------------------------------------

# Typical time of one reference_kernel run on the machine the benchmark was
# written on (2 cores, Python 3.11.7).  Corrected timings are seconds at
# the speed at which the kernel takes this long.
REF_S = 0.004
SAMPLE_EVERY_S = 0.25  # kernel samples taken while an operation runs


def reference_kernel() -> int:
    """A fixed mix of what hallpi spends its time on: composing tuple
    permutations, hashing them into sets and dicts, modular powers."""
    a = tuple(range(24))
    b, c = a[7:] + a[:7], a[::-1]
    seen = {}
    x = a
    for i in range(1200):
        x = tuple(b[j] for j in x) if i % 3 else tuple(c[j] for j in x)
        seen[frozenset(x[:8])] = x
    n, acc = 1_000_003, 0
    for k in range(400):
        acc += pow(k + 2, n - 1, n) + k * k % 7
    return len(seen) + acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def timed(fn):
    """Run ``fn()``; return (seconds, kernel seconds, result).

    The kernel runs three times before and after ``fn`` and, from a SIGALRM
    handler, every SAMPLE_EVERY_S seconds while it runs; the handler's time
    is left out of the seconds.  Kernel seconds is the harmonic mean of the
    samples: the speed averaged over the operation's time.
    """
    samples = [kernel_seconds() for _ in range(3)]
    paused = 0.0

    def sample(signum, frame):
        nonlocal paused
        k = kernel_seconds()
        samples.append(k)
        paused += k

    old = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0 - paused
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    samples += [kernel_seconds() for _ in range(3)]
    return dt, statistics.harmonic_mean(samples), result


# -- calling hallpi ---------------------------------------------------------


def drop_hallpi() -> None:
    """Forget every imported hallpi module and collect what they held."""
    for name in [n for n in sys.modules if n == "hallpi" or n.startswith("hallpi.")]:
        del sys.modules[name]
    gc.collect()


def import_hallpi() -> dict:
    """Import hallpi's layer modules and return them by name."""
    return {layer: importlib.import_module(f"hallpi.{layer}") for layer in LAYERS}


def fresh_hallpi() -> dict:
    drop_hallpi()
    return import_hallpi()


def _prepare(recorder):
    mods = fresh_hallpi()
    if recorder is not None:
        recorder.install(mods)
    return mods


def _root(recorder, name):
    return recorder.root(name) if recorder is not None else contextlib.nullcontext()


def call_cli(mods, argv, recorder=None, root=""):
    """Time one ``hallpi.cli.main`` call; return (seconds, kernel seconds,
    (exit code, stdout))."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), _root(recorder, root):
        dt, ref, rc = timed(lambda: mods["cli"].main(argv))
    return dt, ref, (rc, buf.getvalue())


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, what: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        if len(self.notes) < 20:
            self.notes.append(what)

    def check(self, ok: bool, what: str) -> None:
        if ok:
            self.ok()
        else:
            self.fail(what)


# -- oracle-scan -------------------------------------------------------------


class OracleScan:
    name = "oracle-scan"
    usual_pass_s = 9.0  # about what one pass takes, with its untimed preparation

    def __init__(self, pins):
        self.pins = pins["scan"]
        self.defect = pins["known_defect"]["groups"]
        self.points = pins["exclusivity_points"]

    def inputs(self, mods, seed, index):
        ops = scan_argvs()
        random.Random(f"{seed}:{index}").shuffle(ops)
        return [("scan", op) for op in ops] + [("exclusivity", None)]

    def run(self, op, recorder):
        kind, payload = op
        mods = _prepare(recorder)
        if kind == "scan":
            return call_cli(mods, payload[1], recorder, "op:scan")
        with _root(recorder, "op:exclusivity"):
            return timed(mods["verifier"].exclusivity_scan)

    def check(self, op, result, tally, facts):
        """Every row matches its pin (and C = E, U = D, D implies E);
        every pinned row is produced."""
        kind, payload = op
        if kind == "exclusivity":
            check_exclusivity(result.cases, self.points, tally, facts)
            return
        key = payload[0]
        rc, out = result
        expected = self.pins[key]
        lines = list(csv.reader(io.StringIO(out)))
        if rc != 0 or lines[:1] != [SCAN_HEADER]:
            tally.fail(f"scan {key}: exit {rc} or bad header",
                       sum(count for count, _, _ in expected.values()))
            return
        seen: dict[str, list[str]] = {}
        for group, pi, *verdict in lines[1:]:
            verdict = tuple(verdict)
            facts["rows"] += 1
            seen.setdefault(group, []).append(pi)
            e, c, d, u, _ = verdict
            ok = c == e and u == d and (d != "yes" or e == "yes")
            if group in self.defect:
                facts["defect_rows"] += 1
            else:
                pinned = expected.get(group, [0, "", {}])[2]
                ok = ok and verdict == tuple(pinned.get(pi, DEFAULT_ROW))
            tally.check(ok, f"scan {key}: {group} pi={pi} gave {verdict}")
        # rows pinned but not produced count as failed operations
        for group, (count, digest, _) in expected.items():
            got = seen.get(group, [])
            if len(got) != count or pi_digest(got) != digest:
                tally.fail(f"scan {key}: {group} gave {len(got)} of {count} pinned rows "
                           "or other pi sets", max(count - len(got), 1))
        extra = [g for g in seen if g not in expected and g not in self.defect]
        if extra:
            tally.fail(f"scan {key}: groups not pinned: {extra[:3]}")


def check_exclusivity(cases, points, tally, facts):
    """The exclusivity report must scan the pinned points (less those of
    the known-defect groups, if a fix dropped them) with no violation.
    Its last case is the summary; the ones before it are violations."""
    m = POINTS_RE.match(cases[-1]["detail"]) if cases else None
    scanned = int(m.group(1)) if m else 0
    allowed = (points["total"], points["total"] - points["known_defect"])
    violations = cases[:-1]
    facts["points"] += scanned
    if scanned not in allowed:
        tally.fail(f"exclusivity: {scanned} points scanned, expected one of {allowed}")
    tally.ok(max(scanned - len(violations), 0))
    if violations:
        tally.fail(f"exclusivity: {violations[0]['group']}: {violations[0]['detail']}",
                   len(violations))


# -- brute-cold --------------------------------------------------------------


def relabel(gens, degree, rng) -> tuple[str, list[tuple[int, ...]]]:
    """Conjugate the generators by a random point permutation s (point i
    becomes s[i]); return the ``raw:`` spec and the new generators."""
    s = list(range(degree))
    rng.shuffle(s)
    new = []
    for g in gens:
        img = [0] * degree
        for i in range(degree):
            img[s[i]] = s[g[i]]
        new.append(tuple(img))
    return f"raw:{degree}:" + ";".join(cycles(g) for g in new), new


def cycles(p) -> str:
    """0-based cycle notation, as ``raw:`` specs take it."""
    seen, out = set(), []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc, j = [i], p[i]
        seen.add(i)
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = p[j]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


class BruteCold:
    name = "brute-cold"
    usual_pass_s = 25.0

    def __init__(self, pins):
        self.pins = pins["brute"]

    def inputs(self, mods, seed, index):
        rng = random.Random(f"{seed}:{index}")
        pe, oracle, catalog = mods["perm_engine"], mods["hall_oracle"], mods["lie_catalog"]
        named = {name: pe.construct_named(name) for name in BRUTE_GROUPS}
        ops, specs = [], set()
        for name, pi, prop in brute_queries():
            G = named[name]
            spec, gens = relabel(G.generators, G.degree, rng)
            while spec in specs:
                spec, gens = relabel(G.generators, G.degree, rng)
            specs.add(spec)
            oracle_says = None
            if name.startswith("psl2:") and "2" not in pi.split(",") and prop in ORACLE_DECIDERS:
                g = catalog.parse_group_id(f"A:2:q={name[5:]}")
                pis = mods["arith"].PrimeSet(int(t) for t in pi.split(","))
                oracle_says = getattr(oracle, ORACLE_DECIDERS[prop])(g, pis).holds == "yes"
            ops.append(("brute", {
                "group": name, "spec": spec, "gens": gens, "degree": G.degree,
                "order": G.order, "pi": pi, "prop": prop, "oracle": oracle_says,
            }))
        rng.shuffle(ops)
        return ops

    def run(self, op, recorder):
        q = op[1]
        argv = ["brute", "--group", q["spec"], "--pi", q["pi"], "--prop", q["prop"],
                "--format", "json"]
        return call_cli(_prepare(recorder), argv, recorder, "op:brute")

    def check(self, op, result, tally, facts):
        """The verdict equals the named group's pinned verdict and, for
        psl2:q with odd pi, the oracle's verdict on A:2:q=q."""
        q = op[1]
        rc, out = result
        try:
            holds = json.loads(out)["holds"]
        except (ValueError, KeyError, TypeError):
            holds = None
        want = self.pins[q["group"]][q["pi"]][q["prop"]]
        ok = rc == (0 if holds else 1) and holds is want
        if q["oracle"] is not None:
            ok = ok and holds is q["oracle"]
        tally.check(ok, f"brute {q['group']} pi={q['pi']} {q['prop']}: exit {rc}, "
                        f"holds {holds}, pinned {want}, oracle {q['oracle']}")

    def self_check(self, ops, tally):
        """Relabelled groups keep the named group's order, and on one small
        group the relabelled verdicts equal the named group's, live."""
        mods = fresh_hallpi()
        PermGroup = mods["perm_engine"].PermGroup
        for _, q in ops:
            tally.check(
                PermGroup(q["degree"], q["gens"]).order == q["order"],
                f"self-check: relabelled {q['group']} changed the group order",
            )
        spec = next(q["spec"] for _, q in ops if q["group"] == SELF_CHECK_GROUP)
        for pi in BRUTE_GROUPS[SELF_CHECK_GROUP]:
            for prop in PROPS:
                answers = [
                    call_cli(mods, ["brute", "--group", group, "--pi", pi, "--prop", prop])[2][0]
                    for group in (SELF_CHECK_GROUP, spec)
                ]
                tally.check(
                    answers[0] == answers[1] and answers[0] in (0, 1),
                    f"self-check: {SELF_CHECK_GROUP} pi={pi} {prop}: named exit "
                    f"{answers[0]}, relabelled exit {answers[1]}",
                )


# -- verify-all --------------------------------------------------------------


class VerifyAll:
    name = "verify-all"
    usual_pass_s = 15.0

    def __init__(self, pins):
        self.pins = pins["verify"]
        self.points = pins["exclusivity_points"]
        self.child_rss_kb = 0

    def inputs(self, mods, seed, index):
        return [("verify", None)]

    def run(self, op, recorder):
        # the child ignores --seed and --seconds: it runs one verify all
        argv = [sys.executable, str(Path(__file__)), "--workload", self.name, "--seed", "0",
                "--seconds", "1", "--trace", "1" if recorder is not None else "0", "--child"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"verify child exited {proc.returncode}: {proc.stderr[-2000:]}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        self.child_rss_kb = max(self.child_rss_kb, res["maxrss_kb"])
        if recorder is not None:
            recorder.merge(res["trace"])
        return res["seconds"], res["kernel_seconds"], res

    def check(self, op, res, tally, facts):
        """Exit 0, no disagreement, and the pinned case counts per suite.
        A verify case is one operation; exclusivity counts its points."""
        if res["rc"] != 0:
            tally.fail(f"verify all exited {res['rc']}")
        by_suite = {s["suite"]: s for s in res["summaries"]}
        for suite, want in self.pins.items():
            got = by_suite.get(suite)
            if got is None:
                tally.fail(f"verify: no {suite} report", max(want["cases"], 1))
                continue
            counts = {k: got[k] for k in want}
            if counts != want:
                tally.fail(f"verify {suite}: counts {counts}, pinned {want}")
            if suite == "exclusivity":
                check_exclusivity(res["exclusivity_cases"], self.points, tally, facts)
                continue
            tally.ok(got["cases"] - got["disagreements"])
            if got["disagreements"]:
                tally.fail(f"verify {suite}: {got['disagreements']} disagreements",
                           got["disagreements"])


def verify_child(traced: bool) -> int:
    """One ``hallpi verify all --format json`` in this fresh interpreter;
    print timing, report summaries and (traced) spans as one JSON line."""
    recorder = Recorder() if traced else None
    dt, ref, (rc, out) = call_cli(_prepare(recorder), ["verify", "all", "--format", "json"],
                                  recorder, "op:verify")
    reports = json_documents(out)
    excl = next((r["cases"] for r in reports if r["summary"]["suite"] == "exclusivity"), [])
    print(json.dumps({
        "seconds": dt,
        "kernel_seconds": ref,
        "rc": rc,
        "summaries": [r["summary"] for r in reports],
        "exclusivity_cases": excl,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": recorder.dump() if recorder is not None else None,
    }))
    return 0


WORKLOADS = {w.name: w for w in (OracleScan, BruteCold, VerifyAll)}


# -- measurement --------------------------------------------------------------


def percentile_tail(samples):
    """(p, value, samples beyond) for the highest whole percentile (nearest
    rank) with at least 10 samples above it; p100 with 10 or fewer."""
    xs, n = sorted(samples), len(samples)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1], n - rank
    return 100, xs[-1], 0


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        if (git / ref[5:]).exists():
            return (git / ref[5:]).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def loadavg() -> str:
    return ",".join(f"{x:.2f}" for x in os.getloadavg())


class Passes:
    """Corrected and uncorrected times of the untraced passes of one run."""

    def __init__(self):
        self.pass_s, self.pass_raw_s, self.op_s, self.kernel_s = [], [], [], []
        self.scan_s, self.rows, self.excl_s, self.points = [], [], [], []

    def add(self, ops, samples, facts_before, facts):
        corrected = [dt * REF_S / ref for dt, ref, _ in samples]
        self.pass_s.append(sum(corrected))
        self.pass_raw_s.append(sum(dt for dt, _, _ in samples))
        # the exclusivity scan closing an oracle-scan pass is not a query:
        # it counts in pass_s and exclusivity_points_per_s only
        self.op_s.extend(t for op, t in zip(ops, corrected) if op[0] != "exclusivity")
        self.kernel_s.extend(ref for _, ref, _ in samples)
        scan = [t for op, t in zip(ops, corrected) if op[0] == "scan"]
        if scan:
            self.scan_s.append(sum(scan))
            self.rows.append(facts["rows"] - facts_before["rows"])
        excl = [t for op, t in zip(ops, corrected) if op[0] == "exclusivity"]
        if excl:
            self.excl_s.append(sum(excl))
            self.points.append(facts["points"] - facts_before["points"])


def run(args) -> int:
    pins = json.loads(PINS.read_text())
    workload = WORKLOADS[args.workload](pins)
    traced = args.trace == 1
    print(f"# hallpi benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# run record: nproc={os.cpu_count()} python={platform.python_version()} "
          f"commit={git_commit()} loadavg_start={loadavg()}")

    def set_up():
        return workload.inputs(import_hallpi(), args.seed, 0)

    setups, setups_raw, ops = [], [], None
    for _ in range(SETUPS):
        drop_hallpi()
        dt, ref, ops = timed(set_up)
        setups.append(dt * REF_S / ref)
        setups_raw.append(dt)

    tally = Tally()
    facts = {"rows": 0, "defect_rows": 0, "points": 0}
    if isinstance(workload, BruteCold):
        workload.self_check(ops, tally)
    self_checked = tally.attempted

    recorder = Recorder() if traced else None
    passes, traced_s = Passes(), 0.0
    n_passes = max(1, int(args.seconds // (workload.usual_pass_s * (2 if traced else 1))))
    for index in range(n_passes):
        if index:
            ops = workload.inputs(fresh_hallpi(), args.seed, index)
        for rec in (None, recorder) if traced else (None,):
            samples = [workload.run(op, rec) for op in ops]
            before = dict(facts)
            for op, (_, _, res) in zip(ops, samples):
                workload.check(op, res, tally, facts)
            if rec is None:
                passes.add(ops, samples, before, facts)
            else:
                traced_s += sum(dt * REF_S / ref for dt, ref, _ in samples)

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 getattr(workload, "child_rss_kb", 0))
    print(f"# passes={n_passes}{' (each untraced, then traced)' if traced else ''} "
          f"operations per pass={len(ops)} loadavg_end={loadavg()} "
          f"reference kernel: median {statistics.median(passes.kernel_s) * 1e3:.3f} ms "
          f"over {len(passes.kernel_s)} operations, REF_S={REF_S * 1e3:g} ms")
    for note in tally.notes:
        print(f"# FAILED: {note}")

    if traced:
        out_metrics = report_layers(recorder, passes, traced_s, n_passes)
    else:
        out_metrics = report_end_to_end(args.workload, passes, setups, setups_raw, rss_kb,
                                        facts, n_passes, len(ops))

    print(f"fail_frac = {tally.failed / max(tally.attempted, 1):.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations, {self_checked} of them self-checks)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": out_metrics,
    }))
    return 0


def report_end_to_end(workload, passes, setups, setups_raw, rss_kb, facts, n_passes, n_ops):
    """Print the end-to-end metrics and return them in result form."""
    p = passes
    n = len(p.op_s)
    tail_p, tail_v, beyond = percentile_tail(p.op_s)
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups, import plus input generation; "
                    f"{statistics.median(setups_raw):.6g} s uncorrected"),
        "pass_s": (statistics.median(p.pass_s), "s",
                   f"median of {len(p.pass_s)} pass(es) of {n_ops} operations; "
                   f"{statistics.median(p.pass_raw_s):.6g} s uncorrected"),
        "op_p50_s": (statistics.median(p.op_s), "s", f"p50 of {n} operations"),
        "op_tail_s": (tail_v, "s", f"p{tail_p} of {n} operations, {beyond} beyond it"),
        "peak_rss_mb": (rss_kb / 1024, "MB", "ru_maxrss of this run"
                        + (" and its verify children" if workload == "verify-all" else "")),
    }
    for name, (value, unit, how) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({how})")
    # the same figures under the names each workload's users know them by
    if workload == "oracle-scan":
        rates = [r / t for r, t in zip(p.rows, p.scan_s)]
        prates = [k / t for k, t in zip(p.points, p.excl_s)]
        print(f"scan_rows_per_s = {statistics.median(rates):.6g} 1/s (median of {len(rates)} "
              f"pass(es) of {p.rows[0]} rows, {facts['defect_rows'] // n_passes} of them "
              "known-defect rows)")
        print(f"exclusivity_points_per_s = {statistics.median(prates):.6g} 1/s (median of "
              f"{len(prates)} scan(s) of {p.points[0]} points)")
    elif workload == "brute-cold":
        for alias, name in (("brute_cold_s", "pass_s"), ("brute_query_p50_s", "op_p50_s"),
                            ("brute_query_tail_s", "op_tail_s")):
            print(f"{alias} = {metrics[name][0]:.6g} s ({metrics[name][2]})")
    else:
        print(f"verify_all_s = {metrics['pass_s'][0]:.6g} s ({metrics['pass_s'][2]})")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}


def report_layers(recorder, passes, traced_s, n_passes):
    """Print the per-layer metrics and span tree; return them in result form."""
    metrics = recorder.metrics(n_passes, sum(passes.rows))
    metrics["trace.overhead_frac"] = traced_s / sum(passes.pass_s) - 1
    units = dict(LAYER_METRICS, **{"trace.overhead_frac": "ratio"})
    print("# per-layer metrics, per traced pass, in uncorrected seconds.  Self times "
          "include about 1 us of wrapper cost per traced call, a large share for "
          "us-scale functions such as arith.is_prime, and the reference-kernel "
          "samples taken while an operation runs, about 1.5% of its time.")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    selfs = sorted(recorder.self_times().items(), key=lambda kv: -kv[1])
    spent = sum(value for _, value in selfs)
    print("# largest self times, as a share of all traced self time:")
    for name, value in selfs[:6]:
        print(f"#   {name}: {value / n_passes:.6g} s per pass, {value / spent:.1%}")
    print("# span tree (caller -> callee, totals over all traced passes):")
    for line in recorder.tree_lines():
        print("#   " + line)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "hallpi" / "__init__.py").is_file() or not PINS.is_file():
        print(f"bench: no hallpi sources under {SRC} or no {PINS.name}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        return verify_child(args.trace == 1)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
