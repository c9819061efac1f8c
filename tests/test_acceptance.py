"""Acceptance gate: the eight build-level criteria, one test each.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failing run) in addition to its assertions.
"""

import time

import pytest

from hallpi.arith import PrimeSet, pi_part, r_part_pow_minus_one, r_part_pow_minus_sign
from hallpi.hall_oracle import decide_dpi, decide_epi
from hallpi.lie_catalog import group_order, parse_group_id
from hallpi.verifier import default_grid, exclusivity_scan, run_suite

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def _report(number: int, title: str, ok: bool) -> None:
    print(f"criterion {number} [{title}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({title}) failed"


@pytest.fixture(scope="module")
def cross_report():
    """Brute-force vs oracle comparison over the full pinned grid, shared
    by criteria 3-5."""
    return run_suite("cross", default_grid())[0]


def test_criterion_1_closed_forms():
    t0 = time.perf_counter()
    ok = True
    for k in range(2, 31):
        for r in ODD_PRIMES:
            if k % r == 0:
                continue
            for m in range(1, 31):
                ok &= r_part_pow_minus_one(k, m, r) == pi_part(k**m - 1, (r,))
                ok &= r_part_pow_minus_sign(k, m, r) == pi_part(
                    k**m - (-1) ** m, (r,)
                )
    elapsed = time.perf_counter() - t0
    _report(1, "closed forms vs direct exponentiation", ok and elapsed < 1.0)


def test_criterion_2_psl3_4_three_part():
    value = pi_part(group_order(parse_group_id("A:3:q=4")), (3,))
    _report(2, "|PSL3(4)|_3 = 9", value == 9)


def test_criterion_3_oracle_brute_agreement(cross_report):
    ok = (
        cross_report.disagreements == 0
        and len(cross_report.cases) == 29
        and not cross_report.skipped
    )
    _report(3, "oracle-brute agreement on 29 grid cases", ok)


def test_criterion_4_main_theorem(cross_report):
    report = run_suite("main-theorem", default_grid())[0]
    d_true = [c for c in cross_report.cases if c["brute"]["dpi"]]
    ok = report.ok and len(d_true) > 0
    _report(4, "D implies U on every desk case", ok)


def test_criterion_5_e_iff_c(cross_report):
    ok = all(c["brute"]["epi"] == c["brute"]["cpi"] for c in cross_report.cases)
    _report(5, "brute E iff brute C for odd pi", ok)


def test_criterion_6_d_implies_star():
    report = run_suite("star", default_grid())[0]
    nonvacuous = [c for c in report.cases if "star=True" in c["detail"]]
    ok = report.ok and len(nonvacuous) > 0
    _report(6, "D implies star when p outside pi", ok)


def test_criterion_7_condition_exclusivity():
    t0 = time.perf_counter()
    report = exclusivity_scan()
    elapsed = time.perf_counter() - t0
    ok = report.ok and elapsed < 300
    _report(7, "II/III exclusivity and unique condition tags", ok)


def test_criterion_8_e_minus_d_witness():
    g = parse_group_id("A:3:q=11")
    pi = PrimeSet([3, 5])
    e = decide_epi(g, pi)
    d = decide_dpi(g, pi)
    substantive = [rec for rec in e.trace if rec["pred"] != "|pi inter pi(S)| >= 2"]
    ok = (
        e.yes
        and e.condition == "epi_case_2B(a)"
        and d.holds == "no"
        and len(substantive) >= 5
        and all(rec["value"] for rec in e.trace)
    )
    _report(8, "2B(a) witness at (A:3:q=11, {3,5})", ok)
