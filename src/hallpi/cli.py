"""Command-line front end: decide, brute, scan, verify.

Exit codes for decide/brute: 0 = yes/true, 1 = no/false, 2 = out of scope,
3 and up = input or usage error.  verify exits nonzero on any disagreement.

``_COMMANDS`` describes each subcommand once, in one row: its help, its
options and its handler.  As a query runs once per process, ``main`` reads a
plain line (each option named in full, once, with its value) off the row
with no parser built.  Every other line goes to the argparse parser with
all four subcommands, which writes every help, usage and error text.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import DigitsError, PrimeSet, _distinct_prime_set, read_decimal
from .hall_oracle import (_dpi_answers, _epi_answers, decide_cpi, decide_dpi, decide_epi,
                          decide_upi)
from .lie_catalog import (
    CLASSICAL_FAMILIES,
    FAMILIES,
    GroupSpecError,
    _order_bits,
    parse_group_id,
    pi_intersection,
)
from .perm_engine import (
    DEFAULT_MAX_ORDER,
    OrderLimitError,
    brute_property,
    construct_named,
)
from .verifier import _SCAN_PRIMES, _SUITES, load_grid, run_suite, scan_pis, simple_groups

# The most (n, q) pairs the ranges of one scan may hold.  In a fresh
# process, CI's C scan (n <= 8, q <= 2000, --pi-size 3: 13,993 pairs) took
# 0.24 s, A:2 to q = 10^5 (--pi-size 2: 99,999) 0.71 s, E8 to q = 10^5
# (--pi-size 3: 99,999) 2.2 s and A with n <= 100 to q = 1000 (--pi-size 1:
# 98,901) 8.1 s: 7-81 us a pair, so 1.4-16 s at the bound (Python 3.11.7,
# one process on a 2-core x86-64 machine).
MAX_SCAN_PAIRS = 200_000

# The most work the groups of one scan may hold, a group's work being its
# |G| bits as MAX_ORDER_BITS estimates them (``_order_bits``: dimension
# times q's bits), to the power 1.5: forming |G| and reducing it by the
# scan primes takes most of a large group's time, and grows about so.
# Measured in one process at --pi-size 1 unless given: A with n <= 100 to
# q = 1000 (19,105 groups, 1.24e11) took 8.1 s, and 10.9 s at --pi-size 2;
# A:400..401 to q = 100 (3.5e10) 3.8 s, C:200..201 to q = 100 (2.0e10)
# 2.1 s, A:50 to q = 2000 (--pi-size 3, 1.25e9) 0.29 s and A:581:q=7
# (--pi-size 2, 1.0e9) 0.20 s: 0.65-2.3e-10 s a unit, so 13-46 s at the
# bound (same machine as MAX_SCAN_PAIRS).  Scans whose time goes to their
# pairs are far below it: CI's C scan holds 4.1e7, and E8 to q = 20000
# (--pi-size 3) 4.3e8.
MAX_SCAN_WORK = 2 * 10**11

_PROP_MAP = {"epi": "E", "cpi": "C", "dpi": "D", "upi": "U", "star": "star"}
_DECIDERS = {"E": decide_epi, "C": decide_cpi, "D": decide_dpi, "U": decide_upi}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 by default; that slot means
    out-of-scope here, so usage errors are moved to 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _parse_pi(text: str) -> PrimeSet:
    """A comma-separated list of one or more distinct primes, with no
    empty entry; space around an entry is dropped."""
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise GroupSpecError(f"--pi: bad prime list {text!r}: an entry is empty; "
                             "give one or more primes, such as 3,5")
    try:
        return _distinct_prime_set([read_decimal(tok.strip()) for tok in tokens])
    except ValueError as exc:
        raise GroupSpecError(f"--pi: bad prime list {text!r}: {exc}") from None


def _parse_range(option: str, text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = read_decimal(lo), read_decimal(hi if sep else lo)
    except DigitsError as exc:
        raise GroupSpecError(f"{option}: {exc}") from None
    except ValueError:
        raise GroupSpecError(f"{option}: bad range {text!r}; use N or LO..HI") from None
    if lo > hi:
        raise GroupSpecError(f"{option}: empty range {text!r}; LO must not exceed HI")
    return range(lo, hi + 1)


def _read_count(option: str, text: str) -> int:
    """A positive integer typed as a plain decimal, or an input error."""
    try:
        n = read_decimal(text)
    except DigitsError as exc:
        raise ValueError(f"{option}: {exc}") from None
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{option} must be a positive integer, got {text}")
    return n


def _order_cap(args) -> int:
    """The order cap: --max-order, else the default.  Anything but a
    positive integer is an input error."""
    if args.max_order is None:
        return DEFAULT_MAX_ORDER
    return _read_count("--max-order", args.max_order)


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


def _cmd_brute(args) -> int:
    max_order = _order_cap(args)
    pi = _parse_pi(args.pi)
    G = construct_named(args.group, max_order)
    prop = _PROP_MAP[args.prop]
    holds, witness = brute_property(G, pi, prop)
    payload = {"group": args.group, "pi": list(pi), "property": prop, "holds": holds,
               "witness": witness}
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
    pi_size = _read_count("--pi-size", args.pi_size)
    if pi_size > len(_SCAN_PRIMES):
        raise ValueError(f"--pi-size must be at most {len(_SCAN_PRIMES)}, the number of "
                         f"odd scan primes, got {pi_size}")
    qs = _parse_range("--q", args.q)
    ns = (None,) if args.n is None else _parse_range("--n", args.n)
    # a range's length from its ends: len() refuses one past sys.maxsize
    pairs = (qs.stop - qs.start) * (1 if args.n is None else ns.stop - ns.start)
    if pairs > MAX_SCAN_PAIRS:
        raise ValueError(f"the ranges hold {pairs} (n, q) pairs, above MAX_SCAN_PAIRS = "
                         f"{MAX_SCAN_PAIRS}; split the scan")
    groups = simple_groups((fam, n, q) for q in qs for n in ns)
    work = sum(_order_bits(g) ** 1.5 for g in groups)
    if work > MAX_SCAN_WORK:
        raise ValueError(f"the ranges' groups hold an estimated work of {work:.3g}, above "
                         f"MAX_SCAN_WORK = {MAX_SCAN_WORK:.0e}; split the scan")
    # csv.writer quotes a field only if it holds a comma, a quote or a newline: specs,
    # answers and condition tags never do, so it quotes pi alone, where pi has >= 2 primes
    quote = '"' if pi_size > 1 else ""
    fields = {}  # pi -> its field: a lookup is cheaper than a join
    lines = ["group,pi,epi,cpi,dpi,upi,condition\n"]
    for g, pis in scan_pis(groups, (pi_size,)):
        ds, spec = _dpi_answers(g, pis), g.spec()
        # C and U carry E's and D's answers, as decide_cpi and decide_upi do;
        # E's condition is D's wherever D holds, and the classification's where it fails
        for pi, (d, _), (e, condition) in zip(pis, ds, _epi_answers(g, pis, ds)):
            field = fields.get(pi) or fields.setdefault(pi, f'{quote}{",".join(map(str, pi))}{quote}')
            lines.append(f"{spec},{field},{e},{e},{d},{d},{condition or ''}\n")
    if groups and len(lines) == 1:
        counts = {g.spec(): len(pi_intersection(_SCAN_PRIMES, g)) for g in groups}
        best = max(counts, key=counts.get)
        raise ValueError(f"--pi-size {pi_size}: no group in range has that many odd "
                         f"scan primes dividing its order; the most is {counts[best]}, "
                         f"for {best}")
    table = "".join(lines)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(table)
        except OSError as exc:
            raise ValueError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(table)
    return 0


def _cmd_verify(args) -> int:
    max_order = _order_cap(args)
    for option, value in (("--grid", args.grid), ("--max-order", args.max_order)):
        if args.suite == "exclusivity" and value is not None:
            raise ValueError(f"verify exclusivity reads no {option}: it scans its own "
                             "symbolic points and builds no group")
    grid = None if args.grid is None else load_grid(args.grid)
    reports = run_suite(args.suite, grid, max_order)
    for report in reports:
        if args.format == "json":
            print(report.to_json())
        else:
            print(report.to_text())
    return 0 if all(r.ok for r in reports) else 1


_FORMAT = ("--format", {"choices": ("json", "text"), "default": "text"})

# subcommand -> (help, its options as (name, add_argument keywords), handler);
# each option takes one value, and _read_plain reads required, choices and default
_COMMANDS = {
    "decide": ("arithmetic oracle on a Lie-type group", (
        _FORMAT, ("--group", {"required": True}), ("--pi", {"required": True}),
        ("--prop", {"required": True,
                    "choices": tuple(p for p, prop in _PROP_MAP.items() if prop in _DECIDERS)}),
    ), _cmd_decide),
    "brute": ("definitional check on a concrete group", (
        _FORMAT, ("--max-order", {}), ("--group", {"required": True}), ("--pi", {"required": True}),
        ("--prop", {"required": True, "choices": tuple(_PROP_MAP)}),
    ), _cmd_brute),
    "scan": ("batch oracle table over a parameter grid", (
        ("--family", {"required": True, "choices": FAMILIES}),
        ("--n", {"help": "dimension/rank, N or LO..HI"}),
        ("--q", {"required": True, "help": "field size, N or LO..HI"}),
        ("--pi-size", {"default": "2"}), ("--out", {}),
    ), _cmd_scan),
    "verify": ("oracle-vs-brute verification suites", (
        _FORMAT, ("--max-order", {}), ("suite", {"choices": (*_SUITES, "all")}), ("--grid", {}),
    ), _cmd_verify),
}


def _build_parser() -> _Parser:
    """The parser with all four subcommands."""
    parser = _Parser(prog="hallpi")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, options, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for option, keywords in options:
            command.add_argument(option, **keywords)
    return parser


def _read_plain(command: str, argv: list) -> argparse.Namespace | None:
    """The namespace argparse reads from the plain line ``hallpi <command>
    <argv>``: each word starting with "-" an exact option name, given once
    and followed by a value not starting with "-"; the positional at most
    once; every required option and the positional given; every value among
    its choices.  None for any other line, which argparse reads."""
    row = dict(_COMMANDS[command][1])
    given = {}
    words = iter(argv)
    for word in words:
        if word.startswith("-"):
            name, value = word, next(words, "-")
        else:  # the positional's value
            name, value = next((n for n in row if not n.startswith("-")), None), word
        if name not in row or name in given or value.startswith("-"):
            return None
        given[name] = value
    args = argparse.Namespace(command=command)
    for name, keywords in row.items():
        if name not in given and (keywords.get("required") or not name.startswith("-")):
            return None
        if name in given and given[name] not in keywords.get("choices", (given[name],)):
            return None
        setattr(args, name.lstrip("-").replace("-", "_"), given.get(name, keywords.get("default")))
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except (OrderLimitError, GroupSpecError, ValueError) as exc:
        print(f"hallpi: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
