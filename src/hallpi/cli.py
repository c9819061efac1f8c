"""Command-line front end: decide, brute, scan, verify.

Exit codes for decide/brute: 0 = yes/true, 1 = no/false, 2 = out of scope,
3 and up = input or usage error.  verify exits nonzero on any disagreement.

``_COMMANDS`` describes each subcommand once: its help and the function
adding its options.  ``main`` builds only the subcommand its first argument
names, as a query runs once per process; ``-h``, a missing command or an
unknown one gets all four.  Help, usage and error texts are the same
either way.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .arith import PrimeSet
from .hall_oracle import _epi_from_dpi, decide_cpi, decide_dpi, decide_epi, decide_upi
from .lie_catalog import (
    CLASSICAL_FAMILIES,
    FAMILIES,
    GroupSpecError,
    parse_group_id,
    pi_intersection,
)
from .perm_engine import (
    DEFAULT_MAX_ORDER,
    OrderLimitError,
    brute_property,
    construct_named,
    refuse_over_cap,
)
from .verifier import _SCAN_PRIMES, _SUITES, load_grid, run_suite, scan_points, simple_groups

_PROP_MAP = {"epi": "E", "cpi": "C", "dpi": "D", "upi": "U", "star": "star"}
_DECIDERS = {"E": decide_epi, "C": decide_cpi, "D": decide_dpi, "U": decide_upi}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 by default; that slot means
    out-of-scope here, so usage errors are moved to 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _parse_pi(text: str) -> PrimeSet:
    """A comma-separated list of one or more primes, with no empty entry."""
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise GroupSpecError(f"--pi: bad prime list {text!r}: an entry is empty; "
                             "give one or more primes, such as 3,5")
    try:
        return PrimeSet(int(tok) for tok in tokens)
    except ValueError as exc:
        raise GroupSpecError(f"--pi: bad prime list {text!r}: {exc}") from None


def _parse_range(option: str, text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise GroupSpecError(f"{option}: bad range {text!r}; use N or LO..HI") from None
    if lo > hi:
        raise GroupSpecError(f"{option}: empty range {text!r}; LO must not exceed HI")
    return range(lo, hi + 1)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as f:
        config = json.load(f)
    if not isinstance(config, dict):
        raise ValueError("the config file must hold a JSON object")
    return config


def _order_cap(args) -> int:
    """The order cap: --max-order, else the config's max_group_order, else
    the default.  Anything but a positive integer is an input error."""
    try:
        config = _load_config(args.config)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config: {exc}") from None
    if args.max_order is not None:
        cap, source = args.max_order, "--max-order"
    else:
        cap, source = config.get("max_group_order", DEFAULT_MAX_ORDER), "max_group_order"
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise ValueError(f"{source} must be a positive integer, got {cap!r}")
    return cap


def _add_format(p: _Parser) -> None:
    p.add_argument("--format", choices=("json", "text"), default="text")


def _add_cap(p: _Parser) -> None:
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--config", default=None)


def _decide_options(p: _Parser) -> None:
    _add_format(p)
    p.add_argument("--group", required=True)
    p.add_argument("--pi", required=True)
    p.add_argument("--prop", required=True, choices=("epi", "cpi", "dpi", "upi"))


def _brute_options(p: _Parser) -> None:
    _add_format(p)
    _add_cap(p)
    p.add_argument("--group", required=True)
    p.add_argument("--pi", required=True)
    p.add_argument(
        "--prop", required=True, choices=("epi", "cpi", "dpi", "upi", "star")
    )


def _scan_options(p: _Parser) -> None:
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", default=None, help="dimension/rank, N or LO..HI")
    p.add_argument("--q", required=True, help="field size, N or LO..HI")
    p.add_argument("--pi-size", type=int, default=2)
    p.add_argument("--out", default=None)


def _verify_options(p: _Parser) -> None:
    _add_format(p)
    _add_cap(p)
    p.add_argument("suite", choices=(*_SUITES, "all"))
    p.add_argument("--grid", default=None)


# subcommand -> (help, function adding its options)
_COMMANDS = {
    "decide": ("arithmetic oracle on a Lie-type group", _decide_options),
    "brute": ("definitional check on a concrete group", _brute_options),
    "scan": ("batch oracle table over a parameter grid", _scan_options),
    "verify": ("oracle-vs-brute verification suites", _verify_options),
}


def _build_parser(command: str | None) -> _Parser:
    """The parser with one subcommand's options, or with all four's when
    ``command`` is None.  Its usage names all four either way."""
    parser = _Parser(prog="hallpi")
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser,
        # with one built, name all four as argparse does from the choices
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}",
    )
    for name in _COMMANDS if command is None else (command,):
        help_text, add_options = _COMMANDS[name]
        add_options(sub.add_parser(name, help=help_text))
    return parser


def _cmd_decide(args) -> int:
    g = parse_group_id(args.group)
    pi = _parse_pi(args.pi)
    verdict = _DECIDERS[_PROP_MAP[args.prop]](g, pi)
    if args.format == "json":
        print(json.dumps(verdict.to_json()))
    else:
        extra = f" condition={verdict.condition}" if verdict.condition else ""
        if verdict.hall_cyclic:
            extra += " hall_cyclic=true"
        print(f"{verdict.group} pi={{{','.join(map(str, verdict.pi))}}} "
              f"{verdict.property}: {verdict.holds}{extra}")
    return {"yes": 0, "no": 1, "out_of_scope": 2}[verdict.holds]


def _cmd_brute(args, max_order: int) -> int:
    refuse_over_cap(args.group, max_order)
    G = construct_named(args.group)
    pi = _parse_pi(args.pi)
    prop = _PROP_MAP[args.prop]
    holds, witness = brute_property(G, pi, prop, max_order)
    payload = {
        "group": args.group,
        "pi": list(pi),
        "property": prop,
        "holds": holds,
        "witness": witness,
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(f"{args.group} pi={{{','.join(map(str, pi))}}} {prop}: {holds}")
        if witness:
            print(f"  witness: {json.dumps(witness)}")
    return 0 if holds else 1


def _cmd_scan(args) -> int:
    fam = args.family
    if (args.n is None) == (fam in CLASSICAL_FAMILIES):
        need = "requires" if args.n is None else "takes no"
        raise GroupSpecError(f"family {fam} {need} --n")
    if args.pi_size < 1:
        raise ValueError(f"--pi-size must be a positive integer, got {args.pi_size}")
    if args.pi_size > len(_SCAN_PRIMES):
        raise ValueError(f"--pi-size must be at most {len(_SCAN_PRIMES)}, the number of "
                         f"odd scan primes, got {args.pi_size}")
    qs = _parse_range("--q", args.q)
    if args.n is None:
        specs = [f"{fam}:q={q}" for q in qs]
    else:
        ns = _parse_range("--n", args.n)
        specs = [f"{fam}:{n}:q={q}" for q in qs for n in ns]
    groups = simple_groups(specs)
    rows = []
    for g, pi in scan_points(groups, (args.pi_size,)):
        d = decide_dpi(g, pi)
        e = _epi_from_dpi(g, pi, d)
        # C and U carry E's and D's answers, as decide_cpi and decide_upi do
        condition = d.condition or e.condition or ""
        rows.append(
            [g.spec(), ",".join(map(str, pi)), e.holds, e.holds,
             d.holds, d.holds, condition]
        )
    if groups and not rows:
        counts = {g.spec(): len(pi_intersection(_SCAN_PRIMES, g)) for g in groups}
        best = max(counts, key=counts.get)
        raise ValueError(f"--pi-size {args.pi_size}: no group in range has that many odd "
                         f"scan primes dividing its order; the most is {counts[best]}, "
                         f"for {best}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "pi", "epi", "cpi", "dpi", "upi", "condition"])
    writer.writerows(rows)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(buf.getvalue())
        except OSError as exc:
            raise ValueError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def _cmd_verify(args, max_order: int) -> int:
    grid = load_grid(args.grid) if args.grid else None
    reports = run_suite(args.suite, grid, max_order)
    for report in reports:
        if args.format == "json":
            print(report.to_json())
        else:
            print(report.to_text())
    return 0 if all(r.ok for r in reports) else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        if args.command == "decide":
            return _cmd_decide(args)
        if args.command == "scan":
            return _cmd_scan(args)
        max_order = _order_cap(args)
        if args.command == "brute":
            return _cmd_brute(args, max_order)
        return _cmd_verify(args, max_order)
    except OrderLimitError as exc:
        print(f"hallpi: {exc}", file=sys.stderr)
        return 3
    except (GroupSpecError, ValueError) as exc:
        print(f"hallpi: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
