#!/usr/bin/env python3
"""Write bench/pins.json: the answers the benchmark checks every run against.

    python3 bench/pin.py

Run it on the commit whose answers are taken as correct; it takes about a
minute.  It records:

- ``known_defect``: groups whose scan rows are not pinned as correct.
- ``exclusivity_points``: points the exclusivity scan checks, in total and
  on the known-defect groups.
- ``verify``: case counts per suite of ``hallpi verify all``.
- ``brute``: verdicts of every brute-cold (pi, property) pair on the
  un-relabelled named group.
- ``scan``: per ``hallpi scan`` invocation (family/pi-size), per group, the
  row count, a digest of the group's pi sets and every row whose verdict is
  not no/no/no/no with no condition.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import run

KNOWN_DEFECT = {
    "C:2:q=2": "Sp_4(2) is S_6, not simple, yet validate_simple accepts it",
}


def pin_scan(mods) -> dict:
    scan = {}
    for key, argv in run.scan_argvs():
        rc, out = run.call_cli(mods, argv)[2]
        if rc != 0:
            raise SystemExit(f"scan {key} exited {rc}")
        groups: dict[str, tuple[list, dict]] = {}
        for group, pi, *verdict in list(csv.reader(io.StringIO(out)))[1:]:
            if group in KNOWN_DEFECT:
                continue
            pis, odd = groups.setdefault(group, ([], {}))
            pis.append(pi)
            if tuple(verdict) != run.DEFAULT_ROW:
                odd[pi] = verdict
        scan[key] = {g: [len(pis), run.pi_digest(pis), odd] for g, (pis, odd) in groups.items()}
    return scan


def scanned_points(report) -> int:
    return int(run.POINTS_RE.match(report.cases[-1]["detail"]).group(1))


def pin_brute(mods) -> dict:
    brute = {}
    for name, pis in run.BRUTE_GROUPS.items():
        for pi in pis:
            for prop in run.PROPS:
                argv = ["brute", "--group", name, "--pi", pi, "--prop", prop]
                rc = run.call_cli(mods, argv)[2][0]
                if rc not in (0, 1):
                    raise SystemExit(f"brute {name} {pi} {prop} exited {rc}")
                brute.setdefault(name, {}).setdefault(pi, {})[prop] = rc == 0
    return brute


def pin_verify(mods) -> dict:
    rc, out = run.call_cli(mods, ["verify", "all", "--format", "json"])[2]
    if rc != 0:
        raise SystemExit(f"verify all exited {rc}")
    return {
        doc["summary"]["suite"]: {k: doc["summary"][k] for k in ("cases", "out_of_scope", "skipped")}
        for doc in run.json_documents(out)
    }


def write(pins: dict) -> None:
    """JSON with one scan group per line, so a change shows as a small diff."""
    lines = ["{"]
    for key, value in pins.items():
        if key != "scan":
            lines.append(f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)},")
    lines.append(' "scan": {')
    for i, (inv, groups) in enumerate(pins["scan"].items()):
        lines.append(f"  {json.dumps(inv)}: {{")
        lines.append(",\n".join(f"   {json.dumps(g)}: {json.dumps(v)}" for g, v in groups.items()))
        lines.append("  }" + ("," if i < len(pins["scan"]) - 1 else ""))
    lines += [" }", "}"]
    run.PINS.write_text("\n".join(line for line in lines if line) + "\n", encoding="utf-8")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    mods = run.fresh_hallpi()
    verifier = mods["verifier"]
    defect_groups = [g for g in verifier.scan_groups() if g.spec() in KNOWN_DEFECT]
    write({
        "known_defect": {"groups": KNOWN_DEFECT},
        "exclusivity_points": {
            "total": scanned_points(verifier.exclusivity_scan()),
            "known_defect": scanned_points(verifier.exclusivity_scan(defect_groups)),
        },
        "verify": pin_verify(run.fresh_hallpi()),
        "brute": pin_brute(run.fresh_hallpi()),
        "scan": pin_scan(run.fresh_hallpi()),
    })
    print(f"wrote {run.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
