"""End-to-end tests of the command-line interface."""

import csv
import io
import json

import pytest

from hallpi import cli, perm_engine
from hallpi.arith import PrimeSet
from hallpi.cli import main
from hallpi.hall_oracle import decide_cpi, decide_dpi, decide_epi, decide_upi
from hallpi.lie_catalog import parse_group_id
from hallpi.verifier import default_grid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# decide


def test_decide_yes_exit_zero(capsys):
    code, out, _ = run(capsys, "decide", "--group", "A:2:q=7", "--pi", "3,7",
                       "--prop", "dpi")
    assert code == 0
    assert "yes" in out and "condition=I" in out


def test_decide_no_exit_one(capsys):
    code, out, _ = run(capsys, "decide", "--group", "A:2:q=11", "--pi", "3,5",
                       "--prop", "dpi")
    assert code == 1


def test_decide_out_of_scope_exit_two(capsys):
    code, out, _ = run(capsys, "decide", "--group", "A:2:q=7", "--pi", "2,3",
                       "--prop", "dpi")
    assert code == 2


def test_decide_bad_group_exit_three(capsys):
    code, _, err = run(capsys, "decide", "--group", "A:2:q=6", "--pi", "3",
                       "--prop", "dpi")
    assert code == 3
    assert "prime power" in err


def test_decide_bad_pi_exit_three(capsys):
    """A non-prime, a repeated prime or an empty entry in --pi exits 3, for
    decide and brute."""
    bad = [("3,4", "4 is not prime"), (",", "an entry is empty"), ("", "an entry is empty"),
           ("3,3", "3 is repeated"), ("7,3,5,03", "3 is repeated"),
           ("3,,5", "an entry is empty"), ("3,", "an entry is empty"),
           ("3_1", "'3_1' is not a plain decimal integer"),
           ("3,+5", "'+5' is not a plain decimal integer"),
           ("\uff13", "'\uff13' is not a plain decimal integer")]
    for command, group in (("decide", "A:2:q=7"), ("brute", "alt:5")):
        for pi, message in bad:
            code, out, err = run(capsys, command, "--group", group, "--pi", pi,
                                 "--prop", "dpi")
            assert code == 3 and out == "", (command, pi)
            assert err.startswith(f"hallpi: --pi: bad prime list {pi!r}: {message}")
            assert err.count("\n") == 1


def test_decide_strong_pseudoprime_in_pi_exits_three(capsys):
    """318665857834031151167461 passes Miller-Rabin to every prime base up
    to 37; it is no prime, so --pi holding it is an input error."""
    code, out, err = run(capsys, "decide", "--group", "A:2:q=7", "--pi",
                         "3,318665857834031151167461", "--prop", "dpi")
    assert code == 3 and out == ""
    assert "318665857834031151167461 is not prime" in err


def test_decide_json_schema_and_roundtrip(capsys):
    code, out, _ = run(capsys, "decide", "--group", "A:3:q=11", "--pi", "3,5",
                       "--prop", "epi", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "group", "pi", "property", "holds", "condition", "hall_cyclic", "trace",
    }
    assert payload["condition"] == "epi_case_2B(a)"
    # round-trip: printed spec re-parses to an equal GroupId
    assert parse_group_id(payload["group"]) == parse_group_id("A:3:q=11")


def test_decide_reports_cyclic_hall(capsys):
    code, out, _ = run(capsys, "decide", "--group", "2D:6:q=4", "--pi", "7,13",
                       "--prop", "dpi")
    assert code == 0 and "hall_cyclic=true" in out


# ---------------------------------------------------------------------------
# brute


def test_brute_true_exit_zero(capsys):
    code, out, _ = run(capsys, "brute", "--group", "psl2:7", "--pi", "3,7",
                       "--prop", "dpi")
    assert code == 0 and "True" in out


def test_brute_false_with_witness(capsys):
    code, out, _ = run(capsys, "brute", "--group", "alt:5", "--pi", "2,3",
                       "--prop", "dpi", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["holds"] is False
    assert len(payload["witness"]["witness_pair"]) == 2


def test_brute_cap_refusal_names_cap(capsys, monkeypatch):
    """Named groups are refused from their spec before they are built:
    sym:60 or cyclic:200000 would take minutes or gigabytes.  No group is
    built here, not even psl2:16 or a product holding psl2:13."""
    def no_build(*args, **kwargs):
        raise AssertionError("a group was built before the cap refused it")

    monkeypatch.setattr(perm_engine.PermGroup, "__init__", no_build)
    at_default = ("sym:9", "sym:60", "alt:60", "cyclic:200000", "dihedral:100000",
                  "product:psl2:13xcyclic:30")  # order 32760
    cases = [(group, "25000", []) for group in at_default]
    cases.append(("psl2:16", "1000", ["--max-order", "1000"]))  # order 4080
    for group, cap, options in cases:
        code, _, err = run(capsys, "brute", "--group", group, "--pi", "3",
                           "--prop", "dpi", *options)
        assert code == 3 and cap in err, group


def test_brute_reads_pi_before_building_the_group(capsys, monkeypatch):
    """A bad --pi exits 3 before any group is built: cyclic:20000 is under
    the cap, yet building it takes minutes."""
    def no_build(spec):
        raise AssertionError("the group was built before --pi was read")

    monkeypatch.setattr(cli, "construct_named", no_build)
    for group in ("cyclic:3000", "cyclic:20000"):
        code, out, err = run(capsys, "brute", "--group", group, "--pi", "3,,5",
                             "--prop", "dpi")
        assert code == 3 and out == ""
        assert "--pi: bad prime list" in err


def test_brute_honors_max_order(capsys):
    code, _, err = run(capsys, "brute", "--group", "alt:5", "--pi", "3",
                       "--prop", "dpi", "--max-order", "50")
    assert code == 3 and "50" in err


def test_brute_raw_group(capsys):
    code, out, _ = run(capsys, "brute", "--group", "raw:5:(0 1 2);(0 1)(3 4)",
                       "--pi", "3", "--prop", "dpi")
    assert code == 0


def test_brute_raw_group_with_overlapping_cycles_exits_three(capsys):
    """(0 1 2)(2 1 0) names no permutation as disjoint cycles: an input
    error naming the point, not a brute run on some other group."""
    code, out, err = run(capsys, "brute", "--group", "raw:3:(0 1 2)(2 1 0)",
                         "--pi", "3", "--prop", "dpi")
    assert code == 3 and out == ""
    assert "point 0 is in two cycles" in err


@pytest.mark.parametrize("group", ["cyclic:1", "sym:1", "raw:3:()"])
@pytest.mark.parametrize("prop", ["epi", "cpi", "dpi", "upi", "star"])
def test_brute_on_trivial_group(capsys, group, prop):
    """The trivial group has every property; its pi-Hall subgroup is itself."""
    code, out, err = run(capsys, "brute", "--group", group, "--pi", "3",
                         "--prop", prop, "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["holds"] is True
    if prop in ("upi", "star"):
        assert payload["witness"] is None
    else:
        assert payload["witness"] == {"hall": {"order": 1, "class_size": 1, "gens": []}}


@pytest.mark.parametrize("cap", ["0", "-5", "2_5000"])
def test_brute_rejects_nonpositive_max_order(capsys, cap):
    code, out, err = run(capsys, "brute", "--group", "alt:5", "--pi", "3",
                         "--prop", "dpi", "--max-order", cap)
    assert code == 3 and out == ""
    assert "--max-order must be a positive integer" in err


# ---------------------------------------------------------------------------
# scan


def test_scan_csv_contract(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--family", "A", "--n", "2..4",
                     "--q", "4..13", "--pi-size", "2", "--out", str(out_path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert rows[0] == ["group", "pi", "epi", "cpi", "dpi", "upi", "condition"]
    by_key = {(r[0], r[1]): r for r in rows[1:]}
    row = by_key[("A:2:q=7", "3,7")]
    assert row[4] == "yes" and row[6] == "I"
    # generator emits odd-prime subsets only
    assert all("2" not in key[1].split(",") for key in by_key)
    # upi column always equals dpi
    assert all(r[4] == r[5] for r in rows[1:])
    # every group spec re-parses
    for key in by_key:
        parse_group_id(key[0])


def test_scan_unwritable_out_exits_three(capsys, tmp_path):
    code, out, err = run(capsys, "scan", "--family", "A", "--n", "2", "--q", "7",
                         "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 3 and out == ""
    assert err.startswith("hallpi: cannot write --out") and err.count("\n") == 1


def test_scan_stdout_when_no_out_path(capsys):
    code, out, _ = run(capsys, "scan", "--family", "G2", "--q", "3..5",
                       "--pi-size", "2")
    assert code == 0
    assert out.startswith("group,pi,epi,cpi,dpi,upi,condition")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--family", "X", "--q", "4..7"], "invalid choice: 'X'"),
        (["--family", "G2", "--n", "2", "--q", "3..5"], "family G2 takes no --n"),
        (["--family", "A", "--q", "4..7"], "family A requires --n"),
        (["--family", "A", "--n", "2", "--q", "13..4"], "--q: empty range '13..4'"),
        (["--family", "A", "--n", "4..2", "--q", "4..7"], "--n: empty range '4..2'"),
        (["--family", "A", "--n", "2", "--q", "4..7", "--pi-size", "0"],
         "--pi-size must be a positive integer, got 0"),
        (["--family", "A", "--n", "2", "--q", "4..7", "--pi-size", "-1"],
         "--pi-size must be a positive integer, got -1"),
        (["--family", "A", "--n", "2", "--q", "4..7", "--pi-size", "1_0"],
         "--pi-size must be a positive integer, got 1_0"),
        (["--family", "A", "--n", "2", "--q", "1_3"], "--q: bad range '1_3'"),
        (["--family", "A", "--n", "2", "--q", "7", "--pi-size", "11"],
         "--pi-size must be at most 10, the number of odd scan primes, got 11"),
        (["--family", "A", "--n", "2", "--q", "7", "--pi-size", "4"],
         "--pi-size 4: no group in range has that many odd scan primes dividing "
         "its order; the most is 2, for A:2:q=7"),
    ],
    ids=["unknown-family", "n-for-exceptional", "n-missing-for-classical",
         "reversed-q", "reversed-n", "pi-size-zero", "pi-size-negative",
         "pi-size-underscore", "q-underscore",
         "pi-size-above-scan-primes", "pi-size-above-range-primes"],
)
def test_scan_rejects_bad_family_or_n(capsys, argv, message):
    try:
        code = main(["scan", "--pi-size", "2", *argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert message in captured.err


def test_scan_range_without_simple_groups_prints_header_only(capsys):
    # no simple group has q = 3^(2m+1) in 2..16, so --pi-size is not checked
    code, out, _ = run(capsys, "scan", "--family", "2G2", "--q", "2..16",
                       "--pi-size", "2")
    assert code == 0
    assert out == "group,pi,epi,cpi,dpi,upi,condition\n"


def test_scan_skips_non_simple_groups_in_range(capsys):
    code, out, _ = run(capsys, "scan", "--family", "A", "--n", "2", "--q", "2..5",
                       "--pi-size", "2")
    assert code == 0
    groups = {line.split(",")[0] for line in out.splitlines()[1:]}
    assert groups == {"A:2:q=2^2", "A:2:q=5"}  # q = 2, 3 are solvable


_SCAN_FAMILY_N = {
    "A": "2..4", "2A": "3..4", "B": "2..4", "C": "2..4", "D": "4..5", "2D": "4..5",
    "3D4": None, "E6": None, "2E6": None, "E7": None, "E8": None, "F4": None,
    "G2": None, "2B2": None, "2F4": None, "2G2": None,
}


@pytest.mark.parametrize(
    "family_n",
    [["--family", fam] + (["--n", n] if n else []) for fam, n in _SCAN_FAMILY_N.items()],
    ids=list(_SCAN_FAMILY_N),
)
def test_scan_rows_equal_public_deciders(capsys, family_n):
    """The scan hands each point's pi to the D decision as its own pi inter
    pi(G), and E reads D's order facts; the rows must still be the public
    deciders' answers."""
    for size in ("2", "3"):
        code, out, _ = run(capsys, "scan", *family_n, "--q", "2..32", "--pi-size", size)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert rows
        for spec, pi_text, *columns in rows:
            gg, pi = parse_group_id(spec), PrimeSet(map(int, pi_text.split(",")))
            e, c, d, u = (decide(gg, pi) for decide in
                          (decide_epi, decide_cpi, decide_dpi, decide_upi))
            assert columns == [e.holds, c.holds, d.holds, u.holds,
                               d.condition or e.condition or ""], (spec, pi_text)


# ---------------------------------------------------------------------------
# options a subcommand does not read are usage errors


_DECIDE = ["decide", "--group", "A:2:q=7", "--pi", "3,7", "--prop", "dpi"]
_BRUTE = ["brute", "--group", "alt:5", "--pi", "3", "--prop", "dpi"]
_SCAN = ["scan", "--family", "G2", "--q", "3", "--pi-size", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        _DECIDE + ["--format", "csv"],
        _BRUTE + ["--format", "csv"],
        ["verify", "exclusivity", "--format", "csv"],
        _DECIDE + ["--max-order", "100"],
        _DECIDE + ["--config", "cfg.json"],
        _SCAN + ["--format", "json"],
        _SCAN + ["--max-order", "100"],
        _SCAN + ["--config", "cfg.json"],
        _BRUTE + ["--config", "cfg.json"],
        ["verify", "all", "--config", "cfg.json"],
    ],
    ids=["decide-csv", "brute-csv", "verify-csv", "decide-max-order",
         "decide-config", "scan-format", "scan-max-order", "scan-config",
         "brute-config", "verify-config"],
)
def test_unread_option_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 3 and captured.out == ""
    assert "usage:" in captured.err


# ---------------------------------------------------------------------------
# verify


def test_verify_exclusivity_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "exclusivity")
    assert code == 0 and "0 violations" in out


@pytest.mark.parametrize("option", ["--max-order", "--grid"])
def test_verify_exclusivity_refuses_options_it_does_not_read(capsys, tmp_path, option):
    """The exclusivity scan reads neither a grid nor an order cap, so either
    one, even a valid one, exits 3 with one line naming it."""
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"cases": [{"group": "A:2:q=7", "pi": [3, 7]}]}))
    value = {"--max-order": "100", "--grid": str(grid)}[option]
    code, out, err = run(capsys, "verify", "exclusivity", option, value)
    assert code == 3 and out == ""
    assert err.startswith(f"hallpi: verify exclusivity reads no {option}")
    assert err.count("\n") == 1


def test_verify_cross_custom_grid(capsys, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "cases": [
            {"group": "A:2:q=7", "pi": [3, 7]},
            {"group": "A:2:q=11", "pi": [3, 5]},
        ]
    }))
    code, out, _ = run(capsys, "verify", "cross", "--grid", str(grid),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["cases"] == 2
    assert payload["summary"]["disagreements"] == 0


def test_verify_cross_default_grid_round_trips_through_a_file(capsys, tmp_path):
    """The default grid written as a --grid file gives the same cross report
    as the default itself, runtimes aside."""
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"cases": [{"group": g.spec(), "pi": list(pi)}
                                          for g, pi in default_grid()]}))

    def report(*extra):
        code, out, err = run(capsys, "verify", "cross", "--format", "json", *extra)
        assert code == 0 and err == ""
        payload = json.loads(out)
        for case in payload["cases"]:
            case.pop("runtime")
        return payload

    from_file = report("--grid", str(grid))
    assert from_file["summary"]["cases"] == 29
    assert from_file == report()


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read grid"),
        ("not json", "a grid must be JSON"),
        ("[]", "a grid must be a JSON object with a 'cases' list"),
        ('{"grid": []}', "a grid must be a JSON object with a 'cases' list"),
        ('{"cases": {}}', "a grid must be a JSON object with a 'cases' list"),
        ('{"cases": [{"pi": [3]}]}', "grid case 0 must be an object"),
        ('{"cases": [{"group": "A:2:q=7", "pi": [3]}, {"group": "A:2:q=7"}]}',
         "grid case 1 must be an object"),
        ('{"cases": [[3]]}', "grid case 0 must be an object"),
        ('{"cases": [{"group": "A:2:q=7", "pi": [3.9, 7]}]}', "grid case 0 must be an object"),
        ('{"cases": [{"group": "A:2:q=7", "pi": [true, 7]}]}', "grid case 0 must be an object"),
        ('{"cases": [{"group": "A:2:q=7", "pi": [3]}, {"group": "A:2:q=7", "pi": []}]}',
         "grid case 1 must be an object"),
        ('{"cases": [{"group": "A:2:q=7", "pi": [3]}, {"group": "A:2:q=7", "pi": [7, 3, 7]}]}',
         "grid case 1: bad 'pi' list [7, 3, 7]: 7 is repeated"),
        ('{"cases": [{"group": "A:2:q=7", "pi": [3, 9]}]}',
         "grid case 0: bad 'pi' list [3, 9]: 9 is not prime"),
        ('{"cases": [{"group": "A:2:q=7", "pi": [3]}, {"group": "A:2:q=6", "pi": [3]}]}',
         "grid case 1: bad 'group' 'A:2:q=6': q=6 is not a prime power"),
    ],
    ids=["missing-file", "not-json", "list", "no-cases", "cases-not-list",
         "no-group", "no-pi", "case-not-object", "float-prime", "bool-prime", "empty-pi",
         "repeated-prime", "composite", "bad-group"],
)
def test_verify_bad_grid_exits_three(capsys, tmp_path, text, message):
    grid = tmp_path / "grid.json"
    if text is not None:
        grid.write_text(text)
    code, out, err = run(capsys, "verify", "cross", "--grid", str(grid))
    assert code == 3 and out == ""
    assert err.startswith(f"hallpi: {message}") and err.count("\n") == 1


def test_verify_unknown_suite_exits_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    capsys.readouterr()
    assert exc.value.code == 3


def test_usage_error_exits_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--group", "A:2:q=7"])  # missing --pi/--prop
    capsys.readouterr()
    assert exc.value.code == 3


# ---------------------------------------------------------------------------
# help, usage and error texts, byte for byte

# argparse wraps help at the terminal width, so the pins fix it at 80.
_TOP_USAGE = "usage: hallpi [-h] {decide,brute,scan,verify} ...\n"
_PARSER_PINS = {
    "top-help": (["-h"], 0, (
        _TOP_USAGE + "\n"
        "positional arguments:\n"
        "  {decide,brute,scan,verify}\n"
        "    decide              arithmetic oracle on a Lie-type group\n"
        "    brute               definitional check on a concrete group\n"
        "    scan                batch oracle table over a parameter grid\n"
        "    verify              oracle-vs-brute verification suites\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ), ""),
    "no-command": ([], 3, "", (
        _TOP_USAGE
        + "hallpi: error: the following arguments are required: command\n"
    )),
    "unknown-command": (["bogus"], 3, "", (
        _TOP_USAGE
        + "hallpi: error: argument command: invalid choice: 'bogus' "
        "(choose from 'decide', 'brute', 'scan', 'verify')\n"
    )),
    "decide-help": (["decide", "-h"], 0, (
        "usage: hallpi decide [-h] [--format {json,text}] --group GROUP --pi PI --prop\n"
        "                     {epi,cpi,dpi,upi}\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {json,text}\n"
        "  --group GROUP\n"
        "  --pi PI\n"
        "  --prop {epi,cpi,dpi,upi}\n"
    ), ""),
    "brute-help": (["brute", "-h"], 0, (
        "usage: hallpi brute [-h] [--format {json,text}] [--max-order MAX_ORDER]\n"
        "                    --group GROUP --pi PI --prop {epi,cpi,dpi,upi,star}\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {json,text}\n"
        "  --max-order MAX_ORDER\n"
        "  --group GROUP\n"
        "  --pi PI\n"
        "  --prop {epi,cpi,dpi,upi,star}\n"
    ), ""),
    "scan-help": (["scan", "-h"], 0, (
        "usage: hallpi scan [-h] --family\n"
        "                   {A,2A,B,C,D,2D,3D4,E6,2E6,E7,E8,F4,G2,2B2,2F4,2G2} [--n N]\n"
        "                   --q Q [--pi-size PI_SIZE] [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --family {A,2A,B,C,D,2D,3D4,E6,2E6,E7,E8,F4,G2,2B2,2F4,2G2}\n"
        "  --n N                 dimension/rank, N or LO..HI\n"
        "  --q Q                 field size, N or LO..HI\n"
        "  --pi-size PI_SIZE\n"
        "  --out OUT\n"
    ), ""),
    "verify-help": (["verify", "-h"], 0, (
        "usage: hallpi verify [-h] [--format {json,text}] [--max-order MAX_ORDER]\n"
        "                     [--grid GRID]\n"
        "                     {cross,main-theorem,star,exclusivity,all}\n"
        "\n"
        "positional arguments:\n"
        "  {cross,main-theorem,star,exclusivity,all}\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {json,text}\n"
        "  --max-order MAX_ORDER\n"
        "  --grid GRID\n"
    ), ""),
    # reported by the top-level parser, after the subcommand has parsed
    "unread-option": (_SCAN + ["--format", "json"], 3, "", (
        _TOP_USAGE + "hallpi: error: unrecognized arguments: --format json\n"
    )),
}


@pytest.mark.parametrize("case", list(_PARSER_PINS))
def test_parser_texts_are_pinned(capsys, monkeypatch, case):
    argv, want_code, want_out, want_err = _PARSER_PINS[case]
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == (want_code, want_out, want_err)


def test_usage_is_the_same_with_one_subcommand_built(capsys, monkeypatch):
    """An error reported after one subcommand has parsed prints the usage of
    the parser with all four built, wrapped the same at a narrow width."""
    monkeypatch.setenv("COLUMNS", "40")
    usages = []
    for argv in (["bogus"], _SCAN + ["--format", "json"]):
        with pytest.raises(SystemExit):
            main(argv)
        usages.append(capsys.readouterr().err.split("hallpi: error:")[0])
    assert usages[0] == usages[1] and usages[0].count("\n") == 3
