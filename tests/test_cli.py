"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallpi import cli, lie_catalog, perm_engine
from hallpi.cli import main
from hallpi.hall_oracle import decide_cpi, decide_dpi, decide_epi, decide_upi
from hallpi.lie_catalog import CLASSICAL_FAMILIES, FAMILIES, parse_group_id
from hallpi.verifier import default_grid, scan_points, simple_groups


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


_Q_BITS = "q has more than MAX_Q_BITS = 4096 bits"
_ORDER_BITS = ("|G| has more than MAX_ORDER_BITS = 248 * MAX_Q_BITS = 1015808 bits, "
               "estimated as its dimension times q's bits")


@pytest.mark.parametrize("spec, reason", [
    ("B:q=7", "family B requires a dimension/rank parameter"),
    ("G2:2:q=7", "family G2 takes no dimension/rank parameter"),
    ("A:2:q=4^2", "base 4 of q is not prime"),
    ("A:2:q=5^0", "field exponent must be positive"),
    ("A:1:q=7", "rank below family minimum"),
    # a digit string too long for int() is refused, not read: 5000 digits of
    # q, of its base or exponent, or of the rank
    pytest.param("A:2:q=" + "1" * 5000, _Q_BITS, id="q-digits"),
    pytest.param("A:2:q=" + "1" * 5000 + "^3", _Q_BITS, id="base-digits"),
    pytest.param("A:2:q=" + "1" * 5000 + "^0", "field exponent must be positive",
                 id="base-digits-exponent-0"),
    pytest.param("A:2:q=7^" + "1" * 5000, _Q_BITS, id="exponent-digits"),
    pytest.param("A:2:q=6^" + "1" * 5000, "base 6 of q is not prime", id="base-6-exponent-digits"),
    pytest.param("A:" + "1" * 5000 + ":q=7", _ORDER_BITS, id="rank-digits"),
    pytest.param("G2:" + "1" * 5000 + ":q=7", "family G2 takes no dimension/rank parameter",
                 id="G2-rank-digits"),
    pytest.param("A:3000:q=7", _ORDER_BITS, id="A:3000:q=7"),
])
def test_decide_invalid_group_names_the_reason(capsys, monkeypatch, spec, reason):
    """A spec that parses but names no simple group exits 3 with the one
    reason validate_simple gives, before any group order is formed: the
    order of A:3000:q=7 took a minute."""
    def no_order(g):
        raise AssertionError(f"the order of {g} was formed")

    monkeypatch.setattr(lie_catalog, "group_order", no_order)
    code, out, err = run(capsys, "decide", "--group", spec, "--pi", "3,5", "--prop", "dpi")
    assert code == 3 and out == ""
    assert err == f"hallpi: {spec!r} does not name a simple group: {reason}\n"


def test_decide_bad_pi_exit_three(capsys):
    """A non-prime, a repeated prime or an empty entry in --pi exits 3, for
    decide and brute."""
    bad = [("3,4", "4 is not prime"), (",", "an entry is empty"), ("", "an entry is empty"),
           ("3,3", "3 is repeated"), ("7,3,5,03", "3 is repeated"),
           ("3,,5", "an entry is empty"), ("3,", "an entry is empty"),
           ("3_1", "'3_1' is not a plain decimal integer"),
           ("3,+5", "'+5' is not a plain decimal integer"),
           ("\uff13", "'\uff13' is not a plain decimal integer"),
           ("3," + "1" * 5000, "a decimal integer of 5000 digits is longer than "
            "MAX_DIGITS = 1234")]
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


def test_traced_decisions_keep_every_record_in_order(capsys):
    """A traced D verdict records every predicate in order, where the
    untraced decision stops at the one that decides: on B:4:q=7 Condition
    II's family record comes before III's failing one, and on A:2:q=5 all
    three Condition I records are kept though the first fails."""
    code, out, _ = run(capsys, "decide", "--group", "B:4:q=7", "--pi", "3,5",
                       "--prop", "dpi", "--format", "json")
    assert code == 1
    assert [(r["pred"], r["value"]) for r in json.loads(out)["trace"]] == [
        ("a = ord(q mod r)", True), ("ord(q mod s)", True),
        ("exists t in tau with ord(q,t) != a", True),
        ("family has a Condition II subcase", False),
        ("c = ord(q mod r)", True), ("ord(q,t) == c", False),
    ]
    code, out, _ = run(capsys, "decide", "--group", "A:2:q=5", "--pi", "3,5",
                       "--prop", "dpi", "--format", "json")
    assert code == 1
    assert [(r["pred"], r["args"]["t"], r["value"]) for r in json.loads(out)["trace"]] == [
        ("t divides q-1", 3, False), ("t does not divide |W|", 3, True),
        ("t does not divide |W|", 5, True),
    ]


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


def test_raw_s40_is_refused_over_the_cap(capsys):
    """CI's raw S_40 refusal, in process: |S_40| is over the default cap of
    25000, so the raw group exits 3 naming the cap.  CI alone bounds its
    time."""
    cycle = " ".join(map(str, range(40)))
    code, out, err = run(capsys, "brute", "--group", f"raw:40:(0 1);({cycle})",
                         "--pi", "3", "--prop", "dpi")
    assert code == 3 and out == "" and "25000" in err


def test_brute_refuses_too_many_points_without_building(capsys, monkeypatch):
    """A named group under the order cap whose |G| times degree is above
    MAX_ENTRIES = 2^24 exits 3 naming that bound, before anything is built:
    cyclic:24000 would need about 14 GB.  A raw spec's order is unknown
    before it is built, so 1 bounds it: its degree alone may be refused.
    The order cap is checked first, and keeps its message."""
    def no_build(*args, **kwargs):
        raise AssertionError("a group was built before the bound refused it")

    monkeypatch.setattr(perm_engine.PermGroup, "__init__", no_build)
    for group in ("cyclic:24000", "cyclic:4097", "product:cyclic:4096xcyclic:1",
                  "dihedral:2897", "raw:16777217:()", "product:raw:2:()xcyclic:4096"):
        code, out, err = run(capsys, "brute", "--group", group, "--pi", "3", "--prop", "dpi")
        assert code == 3 and out == "", group
        assert "above MAX_ENTRIES = 16777216" in err, group
    code, out, err = run(capsys, "brute", "--group", "cyclic:30000", "--pi", "3",
                         "--prop", "dpi")
    assert code == 3 and "cap 25000" in err and "MAX_ENTRIES" not in err


def test_brute_refuses_a_raw_group_of_too_many_points_before_listing_it(capsys, monkeypatch):
    """A raw group's order is known once Schreier-Sims has run, and its
    |G| times degree is bounded by MAX_ENTRIES then, before any element is
    listed: one permutation with cycles of lengths 8, 3, 7, 11 and 13 on
    700 points has order 24,024, under the cap, and 16,816,800 points."""
    def no_index(*args, **kwargs):
        raise AssertionError("the elements were listed before the bound refused them")

    monkeypatch.setattr(perm_engine, "_Index", no_index)
    blocks, start = [], 0
    for length in (8, 3, 7, 11, 13):
        blocks.append("(" + " ".join(map(str, range(start, start + length))) + ")")
        start += length
    raw = f"raw:700:{''.join(blocks)}"
    for group, points in ((raw, 16816800), (f"product:{raw}xcyclic:1", 16840824)):
        code, out, err = run(capsys, "brute", "--group", group, "--pi", "3", "--prop", "dpi")
        assert code == 3 and out == "", group
        assert err.endswith(f"has |G| * degree of {points} points, above MAX_ENTRIES = "
                            "16777216\n"), group
    # on 698 points it has 16,768,752, under the bound
    assert perm_engine.construct_named(f"raw:698:{''.join(blocks)}").order == 24024


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


@pytest.mark.parametrize("group", [
    "product:cyclic:2",  # one side
    "product:cyclic:2xcyclic:3xcyclic:5",  # an extra side
    "cyclic:2xcyclic:3",  # x without product:
    "product:product:cyclic:2xcyclic:3",  # an inner product of one side
    "product:cyclic:2x",  # an empty side
    "product:xcyclic:2",
])
def test_brute_malformed_product_exits_three(capsys, group):
    code, out, err = run(capsys, "brute", "--group", group, "--pi", "2", "--prop", "dpi")
    assert code == 3 and out == "" and err.startswith("hallpi: ") and err.count("\n") == 1


def test_brute_thousand_deep_product_answers(capsys):
    """A spec is read with no recursion: 1,000 nested products of the
    trivial group build a trivial group of degree 1001, which is D_3."""
    group = "product:" * 1000 + "cyclic:1" + "xcyclic:1" * 1000
    code, out, err = run(capsys, "brute", "--group", group, "--pi", "3", "--prop", "dpi")
    assert code == 0 and err == ""


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


_POSITIVE = "--max-order must be a positive integer"


@pytest.mark.parametrize("cap, message", [
    pytest.param("0", _POSITIVE, id="0"),
    pytest.param("-5", _POSITIVE, id="-5"),
    pytest.param("2_5000", _POSITIVE, id="2_5000"),
    # a positive integer too long to read is refused on the digit bound
    pytest.param("1" * 5000, "--max-order: a decimal integer of 5000 digits is longer "
                 "than MAX_DIGITS = 1234", id="5000-digits"),
])
def test_brute_rejects_nonpositive_max_order(capsys, cap, message):
    code, out, err = run(capsys, "brute", "--group", "alt:5", "--pi", "3",
                         "--prop", "dpi", "--max-order", cap)
    assert code == 3 and out == ""
    assert message in err


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
    """A path in a missing directory, and the empty path, which is refused,
    not read as no --out."""
    for path in (str(tmp_path / "missing" / "x.csv"), ""):
        code, out, err = run(capsys, "scan", "--family", "A", "--n", "2", "--q", "7",
                             "--out", path)
        assert code == 3 and out == "", path
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
        (["--family", "A", "--n", "2", "--q", "2.." + "1" * 5000],
         "--q: a decimal integer of 5000 digits is longer than MAX_DIGITS = 1234"),
        (["--family", "A", "--n", "2", "--q", "7", "--pi-size", "11"],
         "--pi-size must be at most 10, the number of odd scan primes, got 11"),
        (["--family", "A", "--n", "2", "--q", "7", "--pi-size", "4"],
         "--pi-size 4: no group in range has that many odd scan primes dividing "
         "its order; the most is 2, for A:2:q=7"),
    ],
    ids=["unknown-family", "n-for-exceptional", "n-missing-for-classical",
         "reversed-q", "reversed-n", "pi-size-zero", "pi-size-negative",
         "pi-size-underscore", "q-underscore", "q-digits",
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


def test_scan_refuses_ranges_of_too_many_pairs(capsys, monkeypatch):
    """Ranges holding more than MAX_SCAN_PAIRS = 200,000 (n, q) pairs exit 3
    before any group is listed or decided, so q up to 10^30 exits at once."""
    def no_oracle(*args):
        raise AssertionError("the scan decided before refusing its ranges")

    for name in ("simple_groups", "_dpi_answers", "_epi_answers"):
        monkeypatch.setattr(cli, name, no_oracle)
    for n, q, pairs in (("2", f"2..{10**30}", 10**30 - 1), ("2..4", "2..100000", 299997),
                        (None, "2..200002", 200001)):
        argv = ["scan", "--family", "A" if n else "E8", "--q", q] + (["--n", n] if n else [])
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == (f"hallpi: the ranges hold {pairs} (n, q) pairs, above "
                       "MAX_SCAN_PAIRS = 200000; split the scan\n")


def test_scan_refuses_ranges_of_too_much_work(capsys, monkeypatch):
    """Ranges whose groups' summed work, each group's estimated |G| bits to
    the power 1.5, is above MAX_SCAN_WORK = 2e11 exit 3 before any decision:
    A with n 400..599 and q <= 1000 holds 199,800 pairs, under
    MAX_SCAN_PAIRS, and would run for hours."""
    def no_oracle(*args):
        raise AssertionError("the scan decided before refusing its ranges")

    for name in ("scan_pis", "_dpi_answers", "_epi_answers"):
        monkeypatch.setattr(cli, name, no_oracle)
    for n, q in (("400..599", "2..1000"), ("2..150", "2..1000")):
        code, out, err = run(capsys, "scan", "--family", "A", "--n", n, "--q", q)
        assert code == 3 and out == "", n
        assert err.startswith("hallpi: the ranges' groups hold an estimated work of ")
        assert err.endswith(", above MAX_SCAN_WORK = 2e+11; split the scan\n")
    monkeypatch.setattr(cli, "MAX_SCAN_WORK", 10**9)  # A:581:q=7 alone has 1.02e9
    code, out, err = run(capsys, "scan", "--family", "A", "--n", "581", "--q", "7")
    assert code == 3 and "estimated work of 1.02e+09, above MAX_SCAN_WORK = 1e+09" in err


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
    pi(G), E reads D's order facts, and each row is one f-string; stdout
    must still be csv.writer's rendering of the public deciders' rows, at
    the points scan_points gives."""
    fam, n_range = family_n[1], _SCAN_FAMILY_N[family_n[1]]
    ns = (None,) if n_range is None else cli._parse_range("--n", n_range)
    groups = simple_groups((fam, n, q) for q in range(2, 33) for n in ns)
    for size in ("2", "3"):
        code, out, _ = run(capsys, "scan", *family_n, "--q", "2..32", "--pi-size", size)
        assert code == 0
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["group", "pi", "epi", "cpi", "dpi", "upi", "condition"])
        for g, pi in scan_points(groups, (int(size),)):
            e, c, d, u = (decide(g, pi) for decide in
                          (decide_epi, decide_cpi, decide_dpi, decide_upi))
            writer.writerow([g.spec(), ",".join(map(str, pi)), e.holds, c.holds, d.holds,
                             u.holds, d.condition or e.condition or ""])
        assert out.count("\n") > 1
        assert out == expected.getvalue()


@pytest.mark.parametrize("argv", [
    ["--family", "A", "--n", "2..4", "--q", "2..32", "--pi-size", "1"],
    ["--family", "A", "--n", "2..4", "--q", "2..32", "--pi-size", "3"],
    ["--family", "2G2", "--q", "2..16", "--pi-size", "2"],
], ids=["pi-size-1", "pi-size-3", "header-only"])
def test_scan_out_file_equals_stdout(capsys, tmp_path, argv):
    """--out writes the bytes stdout gets: a pi of one prime is unquoted,
    one of three quoted, and a range naming no simple group is the header."""
    code, out, _ = run(capsys, "scan", *argv)
    assert code == 0
    out_path = tmp_path / "scan.csv"
    code, printed, _ = run(capsys, "scan", *argv, "--out", str(out_path))
    assert code == 0 and printed == ""
    assert out_path.read_bytes() == out.encode()
    assert ('"' in out) == (argv[-1] == "3")


def test_scan_output_is_pinned(capsys):
    """sha256 over the exit code and stdout of 48 scans: every family, n in
    2..8 for the classical ones, q in 2..64, pi of size 1, 2 and 3; 50,517
    lines in all.  A change to the oracle's untraced path must leave every
    byte as it is."""
    digest, lines = hashlib.sha256(), 0
    for fam in FAMILIES:
        n = ["--n", "2..8"] if fam in CLASSICAL_FAMILIES else []
        for size in ("1", "2", "3"):
            code, out, _ = run(capsys, "scan", "--family", fam, *n, "--q", "2..64",
                               "--pi-size", size)
            digest.update(f"{code}\n{out}".encode())
            lines += out.count("\n")
    assert lines == 50517
    assert digest.hexdigest() == (
        "238ae05d374e80df852060b616fc430d0ad5c9eccaaa13b947aa01301f130348"
    )


def test_c_family_scan_to_q_2000(capsys):
    """CI's scan of C, n in 2..8, q in 2..2000, pi of size 3, in process (CI
    alone bounds its time): the output is what csv.writer writes for the
    rows csv.reader reads off it, and on every row C = E, U = D and D
    implies E."""
    code, out, _ = run(capsys, "scan", "--family", "C", "--n", "2..8", "--q", "2..2000",
                       "--pi-size", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 57587
    rendered = io.StringIO()
    csv.writer(rendered, lineterminator="\n").writerows(rows)
    assert rendered.getvalue() == out
    for spec, pi, e, c, d, u, _ in rows[1:]:
        assert c == e and u == d and (d != "yes" or e == "yes"), (spec, pi)


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


_EMPTY_PATH = object()  # --grid "": refused, not read as no --grid


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read grid"),
        (_EMPTY_PATH, "cannot read grid"),
        ("not json", "a grid must be JSON"),
        ("[]", "a grid must be a JSON object with a 'cases' list"),
        ('{"grid": []}', "a grid must be a JSON object with a 'cases' list"),
        ('{"cases": {}}', "a grid must be a JSON object with a 'cases' list"),
        ('{"cases": []}', "a grid must list at least one case"),
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
        ('{"cases": [{"group": "A:2:q=%s", "pi": [3]}]}' % ("1" * 5000),
         "grid case 0: bad 'group' 'A:2:q=%s': 'A:2:q=%s' does not name a simple group: %s"
         % ("1" * 5000, "1" * 5000, _Q_BITS)),
        ('{"cases": [{"group": "A:2:q=7", "pi": [3, %s]}]}' % ("1" * 5000),
         "a grid must be JSON: a decimal integer of 5000 digits is longer than "
         "MAX_DIGITS = 1234"),
    ],
    ids=["missing-file", "empty-path", "not-json", "list", "no-cases", "cases-not-list",
         "empty-cases", "no-group", "no-pi", "case-not-object", "float-prime", "bool-prime",
         "empty-pi", "repeated-prime", "composite", "bad-group", "q-digits", "pi-digits"],
)
def test_verify_bad_grid_exits_three(capsys, tmp_path, text, message):
    grid = tmp_path / "grid.json"
    if isinstance(text, str):
        grid.write_text(text)
    code, out, err = run(capsys, "verify", "cross", "--grid",
                         "" if text is _EMPTY_PATH else str(grid))
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


# ---------------------------------------------------------------------------
# argv forms: each reads as its canonical line, or fails with the text given

_VERIFY = ["verify", "exclusivity", "--format", "json"]
_ARGV_FORMS = {
    "equals-signs": (["brute", "--group=alt:5", "--pi=3", "--prop=dpi"], _BRUTE),
    "prefix": (["brute", "--gro", "alt:5", "--pi", "3", "--prop", "dpi"], _BRUTE),
    "any-order": (["brute", "--prop", "dpi", "--pi", "3", "--group", "alt:5"], _BRUTE),
    "last-repeat-wins": (
        ["brute", "--group", "alt:5", "--pi", "5", "--pi", "3", "--prop", "dpi"], _BRUTE),
    "option-before-suite": (["verify", "--format", "json", "exclusivity"], _VERIFY),
    "prefix-after-suite": (["verify", "exclusivity", "--form", "json"], _VERIFY),
    "prefix-pi-size": (["scan", "--family", "G2", "--q", "3", "--pi-s", "2"], _SCAN),
    "ambiguous-prefix": (["brute", "--p", "3", "--group", "alt:5", "--prop", "dpi"], (
        3, "", _PARSER_PINS["brute-help"][2].split("\n\n")[0] + "\n"
        "hallpi brute: error: ambiguous option: --p could match --pi, --prop\n")),
    "help-after-options": (["brute", "--group", "alt:5", "--pi", "3", "-h"],
                           (0, _PARSER_PINS["brute-help"][2], "")),
    "double-dash-before-value": (["verify", "--format", "json", "--", "exclusivity"], _VERIFY),
    "value-starting-with-dash": (_BRUTE + ["--max-order", "-5"], (
        3, "", "hallpi: --max-order must be a positive integer, got -5\n")),
    "extra-positional": (["verify", "exclusivity", "all"], (
        3, "", _TOP_USAGE + "hallpi: error: unrecognized arguments: all\n")),
}


def outcome(capsys, argv):
    """Exit code, stdout and stderr of main(argv), an exit by SystemExit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", list(_ARGV_FORMS))
def test_argv_forms_are_pinned(capsys, monkeypatch, case):
    form, want = _ARGV_FORMS[case]
    monkeypatch.setenv("COLUMNS", "80")
    if isinstance(want, list):  # the canonical line
        want = outcome(capsys, want)
    assert outcome(capsys, form) == want


# ---------------------------------------------------------------------------
# the plain reader: it reads what argparse reads, or leaves the line to argparse

_PLAIN_FORMS = ("any-order", "option-before-suite")  # plain lines, in another order
_NOT_PLAIN = {
    **{case: form for case, (form, _) in _ARGV_FORMS.items() if case not in _PLAIN_FORMS},
    "pi-prefix-of-pi-size": _SCAN[:5] + ["--pi", "2"],
    "missing-prop": _BRUTE[:5],
    "prop-not-a-choice": _BRUTE[:6] + ["xpi"],
}


@pytest.mark.parametrize("case", list(_NOT_PLAIN))
def test_reader_leaves_other_lines_to_argparse(case):
    argv = _NOT_PLAIN[case]
    assert cli._read_plain(argv[0], argv[1:]) is None


@pytest.mark.parametrize("case", _PLAIN_FORMS)
def test_reader_reads_options_in_any_order(case):
    form, canonical = _ARGV_FORMS[case]
    args = cli._read_plain(form[0], form[1:])
    assert args is not None and args == cli._read_plain(canonical[0], canonical[1:])


_VALUES = ("alt:5", "3", "G2", "2..4", "", "-5", "-", "-h", "--", "--group", "xpi", "all")


@st.composite
def _lines(draw):
    """A subcommand and a line of its options, given 7 times in 8 each, in
    any order, with up to two more pieces: an option or a prefix of one,
    -h, --, an option with a value or joined to it by "="; the values
    valid, invalid, empty or starting with "-"."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    row = cli._COMMANDS[command][1]
    values = st.sampled_from(_VALUES + tuple(c for _, kw in row for c in kw.get("choices", ())))
    names = [name for name, _ in row]
    words = st.sampled_from(names + [n[:k] for n in names if n.startswith("--")
                                     for k in range(3, len(n))] + ["-h", "--", "--max-order"])
    pieces = []
    for name, keywords in row:
        if draw(st.integers(0, 7)):
            plain = st.sampled_from(keywords.get("choices", ("alt:5", "")))
            value = draw(plain if draw(st.integers(0, 3)) else values)
            pieces.append([name, value] if name.startswith("-") else [value])
    for _ in range(draw(st.integers(0, 2))):
        pair = st.tuples(words, values)
        pieces.insert(draw(st.integers(0, len(pieces))), draw(
            words.map(lambda w: [w]) | pair.map(list) | pair.map(lambda p: ["=".join(p)])))
    return command, [word for piece in draw(st.permutations(pieces)) for word in piece]


@given(_lines())
@settings(max_examples=400, deadline=None)
def test_reader_agrees_with_argparse(line):
    command, argv = line
    args = cli._read_plain(command, argv)
    if args is not None:
        try:
            want, extras = cli._build_parser().parse_known_args([command, *argv])
        except SystemExit:
            raise AssertionError(f"argparse refuses {argv}, which the reader read") from None
        assert (vars(args), extras) == (vars(want), [])


def test_plain_lines_build_no_parser(capsys, monkeypatch):
    """A plain line runs with no argparse parser built, with the same exit
    code and output."""
    lines = (["decide", "--group", "A:2:q=7", "--pi", "3,7", "--prop", "dpi"], _BRUTE, _SCAN,
             ["verify", "exclusivity"])
    want = [outcome(capsys, argv)[:2] for argv in lines]

    def refuse(*args, **kwargs):
        raise AssertionError("a plain line built an argparse parser")

    monkeypatch.setattr(cli, "_Parser", refuse)
    assert [outcome(capsys, argv)[:2] for argv in lines] == want


@pytest.mark.parametrize("case", ["equals-signs", "help-after-options", "extra-positional"])
def test_other_lines_build_the_full_parser_once(capsys, monkeypatch, case):
    """A line the reader declines builds the parser with all four
    subcommands exactly once, whatever argparse then does with it, and a
    plain line builds none."""
    built, real = [], cli._build_parser

    def build():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "_build_parser", build)
    outcome(capsys, _ARGV_FORMS[case][0])
    assert len(built) == 1
    outcome(capsys, _BRUTE)
    assert len(built) == 1


# ---------------------------------------------------------------------------
# a closed stdout


@pytest.mark.parametrize("unbuffered", [True, False], ids=["write-through", "buffered"])
@pytest.mark.parametrize("argv", [["decide", "--group", "A:2:q=7", "--pi", "3,7", "--prop", "dpi"],
                                  ["verify", "all"]], ids=["decide", "verify-all"])
def test_a_closed_stdout_exits_four_with_one_line(argv, unbuffered):
    """A reader that closed stdout before the command writes, as ``head``
    does, is no disagreement and no "no": the command exits 4 with one
    ``hallpi:`` line on stderr and no traceback, whether stdout writes
    through (PYTHONUNBUFFERED set) or is flushed at the end."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader is left when the child writes
    try:
        proc = subprocess.run([sys.executable, "-m", "hallpi.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.splitlines() == ["hallpi: stdout was closed before the output was written"]
