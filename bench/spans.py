"""Per-layer spans and counts for the hallpi benchmark, recorded from outside
the package.

``Recorder.install`` wraps the public functions of each hallpi module (its
``__all__``, or its non-underscore names when it has none) plus a few
methods, and rebinds every attribute of every loaded hallpi module that
refers to one of them, so calls made through ``from .x import y`` names are
seen too.  Nothing under ``src/`` changes.

A span is one call of a wrapped function.  Spans are folded into totals as
they end instead of being kept one by one, so memory stays flat however
many calls a run makes:

- per (root operation, span name): calls, inclusive seconds, self seconds;
- per (caller span name, callee span name): calls and inclusive seconds,
  which is the span tree printed by ``--trace 1``.

Self time is the span's duration minus the time covered by its child
spans.  Each wrapper costs about a microsecond per call; for
microsecond-scale functions such as ``arith.is_prime`` that cost is part of
the self time reported for them and for their callers.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

LAYERS = ("cli", "verifier", "hall_oracle", "lie_catalog", "arith", "perm_engine")

# Permutation primitives run once per group element or product, millions of
# times on the larger groups; wrapping them would cost more than their work.
UNWRAPPED = {"perm_engine": frozenset({"identity", "pmul", "pinv"})}

# Methods traced besides module-level functions: (class, method, span label).
METHODS = {
    "arith": (("PrimeSet", "__init__", "prime_set"),),
    "perm_engine": (
        ("PermGroup", "__init__", "perm_group"),
        ("PermGroup", "elements", "elements"),
    ),
}

DECIDERS = tuple(f"hall_oracle.decide_{p}" for p in ("epi", "cpi", "dpi", "upi"))
CONDITIONS = tuple(
    f"hall_oracle.check_condition_{c}" for c in ("I", "II", "III", "IV")
) + ("hall_oracle.classify_epi_minus_dpi",)
SUITES = {
    "verifier.cross_check_simple": "cross",
    "verifier.main_theorem_check": "main_theorem",
    "verifier.star_consistency_check": "star",
    "verifier.exclusivity_scan": "exclusivity",
}

# (metric name, unit) in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("perm_engine.enumerate_subgroups.calls", "count"),
    ("perm_engine.enumerate_subgroups.self_s", "s"),
    ("perm_engine.lattice.builds", "count"),
    ("perm_engine.lattice.reuse_ratio", "ratio"),
    ("perm_engine.lattice.classes", "count"),
    ("perm_engine.lattice.subgroups", "count"),
    ("perm_engine.lattice.s_per_subgroup", "s"),
    ("perm_engine.perm_group.calls", "count"),
    ("perm_engine.perm_group.self_s", "s"),
    ("perm_engine.elements.self_s", "s"),
    ("perm_engine.construct_named.self_s", "s"),
    ("perm_engine.brute_property.calls", "count"),
    ("perm_engine.brute_property.self_s", "s"),
    ("hall_oracle.decide.calls", "count"),
    ("hall_oracle.decide.self_s", "s"),
    ("hall_oracle.decide_dpi.calls", "count"),
    ("hall_oracle.conditions.calls", "count"),
    ("hall_oracle.dpi_per_row", "ratio"),
    ("lie_catalog.parse_group_id.calls", "count"),
    ("lie_catalog.group_order.calls", "count"),
    ("lie_catalog.pi_intersection.calls", "count"),
    ("lie_catalog.self_s", "s"),
    ("arith.is_prime.calls", "count"),
    ("arith.multiplicative_order.calls", "count"),
    ("arith.prime_set.calls", "count"),
    ("arith.self_s", "s"),
    ("verifier.cross.self_s", "s"),
    ("verifier.main_theorem.self_s", "s"),
    ("verifier.star.self_s", "s"),
    ("verifier.exclusivity.self_s", "s"),
    ("verifier.cases", "count"),
    ("cli.main.self_s", "s"),
)


class Recorder:
    """Span and count totals for one benchmark run."""

    def __init__(self):
        # span name -> ({root: [calls, total_s, self_s]}, {caller: [calls, total_s]})
        self.nodes: dict[str, tuple[dict, dict]] = {}
        self.lattice = {"builds": 0, "classes": 0, "subgroups": 0, "build_s": 0.0}
        self.cases = 0
        self._stack: list[list] = []  # [span name, seconds covered by children]
        self._lattice_seen: dict[int, object] = {}

    @contextlib.contextmanager
    def root(self, name: str):
        """Open the root span of one benchmark operation."""
        self._stack.append([name, 0.0])
        try:
            yield
        finally:
            self._stack.pop()
            self._lattice_seen.clear()

    def wrap(self, name: str, fn, observe=None):
        stack = self._stack
        by_root, by_caller = self.nodes.setdefault(name, ({}, {}))
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    caller = stack[-1]
                    caller[1] += dt
                    s = by_root.get(stack[0][0])
                    if s is None:
                        s = by_root[stack[0][0]] = [0, 0.0, 0.0]
                    s[0] += 1
                    s[1] += dt
                    s[2] += dt - frame[1]
                    e = by_caller.get(caller[0])
                    if e is None:
                        e = by_caller[caller[0]] = [0, 0.0]
                    e[0] += 1
                    e[1] += dt
            if observe is not None and stack:
                observe(args, kwargs, result, dt)
            return result

        return span

    def _observe_lattice(self, args, kwargs, result, dt):
        group = args[0] if args else kwargs.get("G")
        if id(group) in self._lattice_seen:
            return
        self._lattice_seen[id(group)] = group  # held until the root span ends
        self.lattice["builds"] += 1
        self.lattice["classes"] += len(result)
        self.lattice["subgroups"] += sum(getattr(c, "class_size", 1) for c in result)
        self.lattice["build_s"] += dt

    def _observe_suite(self, args, kwargs, result, dt):
        self.cases += len(result.cases)

    def install(self, modules: dict) -> None:
        """Wrap the layers in ``modules`` (layer name -> freshly imported
        module) and rebind every hallpi module attribute naming them."""
        replaced = {}
        for layer in LAYERS:
            mod = modules[layer]
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            for attr in names:
                fn = getattr(mod, attr, None)
                if (
                    attr in UNWRAPPED.get(layer, ())
                    or inspect.isclass(fn)
                    or not callable(fn)
                    or getattr(fn, "__module__", None) != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                observe = None
                if name == "perm_engine.enumerate_subgroups":
                    observe = self._observe_lattice
                elif name in SUITES:
                    observe = self._observe_suite
                replaced[id(fn)] = (fn, self.wrap(name, fn, observe))
            for cls_name, meth, label in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(f"{layer}.{label}", cls.__dict__[meth]))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hallpi" and not mod_name.startswith("hallpi."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    # -- exchange with a child process -------------------------------------

    def dump(self) -> dict:
        return {"nodes": self.nodes, "lattice": self.lattice, "cases": self.cases}

    def merge(self, data: dict) -> None:
        for name, (by_root, by_caller) in data["nodes"].items():
            mine = self.nodes.setdefault(name, ({}, {}))
            for have, add in zip(mine, (by_root, by_caller)):
                for key, vals in add.items():
                    acc = have.setdefault(key, [0] * len(vals))
                    for i, v in enumerate(vals):
                        acc[i] += v
        for k, v in data["lattice"].items():
            self.lattice[k] += v
        self.cases += data["cases"]

    # -- metrics -----------------------------------------------------------

    def _sum(self, names, field: int, root: str | None = None) -> float:
        return sum(
            v[field]
            for name in names
            for r, v in self.nodes.get(name, ({}, {}))[0].items()
            if root is None or r == root
        )

    def self_times(self) -> dict[str, float]:
        return {name: sum(v[2] for v in node[0].values()) for name, node in self.nodes.items()}

    def metrics(self, passes: int, scan_rows: int) -> dict[str, float]:
        """Per-layer metrics, per traced pass.  ``scan_rows`` is the number
        of scan-table rows the traced passes produced."""
        calls = lambda *names: self._sum(names, 0)  # noqa: E731
        self_s = lambda *names: self._sum(names, 2)  # noqa: E731
        selfs = self.self_times()
        layer_self = lambda layer: sum(  # noqa: E731
            v for n, v in selfs.items() if n.startswith(layer + ".")
        )
        lat = self.lattice
        enum_calls = calls("perm_engine.enumerate_subgroups")
        scan_dpi = self._sum(("hall_oracle.decide_dpi",), 0, root="op:scan")
        suite = {label: self_s(name) for name, label in SUITES.items()}
        totals = {
            "perm_engine.enumerate_subgroups.calls": enum_calls,
            "perm_engine.enumerate_subgroups.self_s": self_s("perm_engine.enumerate_subgroups"),
            "perm_engine.lattice.builds": lat["builds"],
            "perm_engine.lattice.classes": lat["classes"],
            "perm_engine.lattice.subgroups": lat["subgroups"],
            "perm_engine.perm_group.calls": calls("perm_engine.perm_group"),
            "perm_engine.perm_group.self_s": self_s("perm_engine.perm_group"),
            "perm_engine.elements.self_s": self_s("perm_engine.elements"),
            "perm_engine.construct_named.self_s": self_s("perm_engine.construct_named"),
            "perm_engine.brute_property.calls": calls("perm_engine.brute_property"),
            "perm_engine.brute_property.self_s": self_s("perm_engine.brute_property"),
            "hall_oracle.decide.calls": calls(*DECIDERS),
            "hall_oracle.decide.self_s": self_s(*DECIDERS),
            "hall_oracle.decide_dpi.calls": calls("hall_oracle.decide_dpi"),
            "hall_oracle.conditions.calls": calls(*CONDITIONS),
            "lie_catalog.parse_group_id.calls": calls("lie_catalog.parse_group_id"),
            "lie_catalog.group_order.calls": calls("lie_catalog.group_order"),
            "lie_catalog.pi_intersection.calls": calls("lie_catalog.pi_intersection"),
            "lie_catalog.self_s": layer_self("lie_catalog"),
            "arith.is_prime.calls": calls("arith.is_prime"),
            "arith.multiplicative_order.calls": calls("arith.multiplicative_order"),
            "arith.prime_set.calls": calls("arith.prime_set"),
            "arith.self_s": layer_self("arith"),
            "verifier.cross.self_s": suite["cross"],
            "verifier.main_theorem.self_s": suite["main_theorem"],
            "verifier.star.self_s": suite["star"],
            "verifier.exclusivity.self_s": suite["exclusivity"],
            "verifier.cases": self.cases,
            "cli.main.self_s": self_s("cli.main"),
        }
        out = {k: v / passes for k, v in totals.items()}
        # ratios are taken over all traced passes, not divided per pass
        out["perm_engine.lattice.reuse_ratio"] = (
            (enum_calls - lat["builds"]) / enum_calls if enum_calls else 0.0
        )
        out["perm_engine.lattice.s_per_subgroup"] = (
            lat["build_s"] / lat["subgroups"] if lat["subgroups"] else 0.0
        )
        out["hall_oracle.dpi_per_row"] = scan_dpi / scan_rows if scan_rows else 0.0
        return {name: out[name] for name, _ in LAYER_METRICS}

    def tree_lines(self) -> list[str]:
        """The aggregated span tree: one line per caller -> callee edge."""
        edges = [
            (caller, name, n, total)
            for name, (_, by_caller) in self.nodes.items()
            for caller, (n, total) in by_caller.items()
        ]
        edges.sort(key=lambda e: (e[0], -e[3]))
        return [f"{c} -> {n}: calls={k} total_s={t:.6f}" for c, n, k, t in edges]
