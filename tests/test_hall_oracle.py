"""Tests for the arithmetic Hall-property oracle."""

import hashlib
import json

import pytest

from hallpi.arith import PrimeSet
from hallpi.hall_oracle import (
    ONAN,
    FactorDescriptor,
    check_condition_I,
    check_condition_II,
    check_condition_III,
    check_condition_IV,
    classify_epi_minus_dpi,
    decide_cpi,
    decide_dpi,
    decide_epi,
    decide_upi,
    reduce_composition,
)
from hallpi.lie_catalog import parse_group_id, pi_intersection, prime_divides_order
from hallpi.verifier import _SCAN_PRIMES, scan_groups, scan_points


def g(spec):
    return parse_group_id(spec)


# ---------------------------------------------------------------------------
# routing


def test_two_in_pi_is_out_of_scope():
    for decide in (decide_epi, decide_cpi, decide_dpi, decide_upi):
        v = decide(g("A:2:q=7"), PrimeSet([2, 3]))
        assert v.holds == "out_of_scope"


def test_small_intersection_is_trivially_yes():
    v = decide_dpi(g("A:2:q=7"), PrimeSet([3, 5]))  # 5 does not divide 168
    assert v.holds == "yes"
    assert v.condition == "trivial_small_pi"
    v = decide_dpi(g("A:2:q=7"), PrimeSet([11, 13]))
    assert v.yes


def test_verdict_json_shape():
    v = decide_dpi(g("A:2:q=7"), PrimeSet([3, 7]))
    payload = v.to_json()
    assert set(payload) == {
        "group", "pi", "property", "holds", "condition", "hall_cyclic", "trace",
    }
    assert payload["group"] == "A:2:q=7"
    assert all({"pred", "args", "value"} == set(rec) for rec in payload["trace"])


# ---------------------------------------------------------------------------
# Condition I


def test_condition_I_holds_for_psl2_7():
    v = decide_dpi(g("A:2:q=7"), PrimeSet([3, 7]))
    assert v.yes and v.condition == "I"


def test_condition_I_fails_when_tau_misses_q_minus_one():
    v = decide_dpi(g("A:2:q=13"), PrimeSet([7, 13]))  # 7 does not divide 12
    assert v.holds == "no"


def test_condition_I_weyl_gate():
    # tau = {3} divides q-1 = 12, but 3 divides |W(A_3)| = 6
    ok, _ = check_condition_I(g("A:3:q=13"), PrimeSet([3, 13]))
    assert not ok


def test_condition_I_precondition():
    with pytest.raises(ValueError):
        check_condition_I(g("A:2:q=7"), PrimeSet([3, 5]))


# ---------------------------------------------------------------------------
# Conditions II and III


def test_condition_II_preconditions():
    with pytest.raises(ValueError):
        check_condition_II(g("A:2:q=7"), PrimeSet([3, 7]))  # p in pi
    with pytest.raises(ValueError):
        check_condition_II(g("2B2:q=8"), PrimeSet([5, 7]))  # Suzuki family
    with pytest.raises(ValueError):
        check_condition_III(g("A:2:q=7"), PrimeSet([2, 3]))  # 2 in pi


def test_condition_II_a_instance():
    # A:3:q=5, pi={3,31}: e(5,3)=2=r-1, e(5,31)=3=b, n=3 < bs
    v = decide_dpi(g("A:3:q=5"), PrimeSet([3, 31]))
    assert v.yes and v.condition == "II(a)"
    assert v.hall_cyclic is None


def test_condition_II_g_gives_cyclic_hall():
    # 2D:6:q=4, pi={7,13}: a=e(4,7)=3 odd, n=6=2a=b, e(4,13)=6
    v = decide_dpi(g("2D:6:q=4"), PrimeSet([7, 13]))
    assert v.yes and v.condition == "II(g)"
    assert v.hall_cyclic is True


def test_condition_II_h_gives_cyclic_hall():
    # 2D:6:q=3, pi={7,13}: a=e(3,7)=6=n, b=e(3,13)=3 odd
    v = decide_dpi(g("2D:6:q=3"), PrimeSet([7, 13]))
    assert v.yes and v.condition == "II(h)"
    assert v.hall_cyclic is True


@pytest.mark.parametrize(
    "spec,pi,tag",
    [
        ("A:5:q=2^2", (11, 31), "III(a)"),
        ("2A:4:q=2^3", (5, 13), "III(b)"),
        ("2A:3:q=17", (7, 13), "III(c)"),
        ("2A:6:q=3^2", (7, 13), "III(d)"),
        ("B:2:q=2^3", (5, 13), "III(e)"),
        ("B:5:q=2^2", (11, 31), "III(f)"),
        ("D:4:q=2^3", (5, 13), "III(g)"),
        ("2D:6:q=2^2", (11, 31), "III(h)"),
        ("3D4:q=3^2", (7, 13), "III(i)"),
        ("E6:q=2^2", (11, 31), "III(j)"),
        ("2E6:q=2^3", (5, 13), "III(k)"),
        ("E7:q=2^2", (11, 31), "III(l)"),
        ("E8:q=2^2", (11, 31), "III(m)"),
        ("G2:q=3^2", (7, 13), "III(n)"),
        ("F4:q=2^3", (5, 13), "III(o)"),
    ],
)
def test_condition_III_subcases(spec, pi, tag):
    v = decide_dpi(g(spec), PrimeSet(pi))
    assert v.yes and v.condition == tag
    # III requires all orders equal, so II's premise must fail here
    sub2, _ = check_condition_II(g(spec), PrimeSet(pi))
    assert sub2 is None


def test_conditions_II_III_mutually_exclusive_on_samples():
    samples = [
        (g("A:3:q=5"), PrimeSet([3, 31])),
        (g("2D:6:q=4"), PrimeSet([7, 13])),
        (g("C:3:q=2"), PrimeSet([3, 5])),
        (g("B:2:q=5"), PrimeSet([3, 13])),
    ]
    for gg, pi in samples:
        sub2, _ = check_condition_II(gg, pi)
        sub3, _ = check_condition_III(gg, pi)
        assert sub2 is None or sub3 is None


def test_dpi_verdicts_on_exclusivity_points_are_pinned():
    """sha256 over every D verdict, trace included, on the exclusivity-scan
    points; generated before decide_dpi handed pi inter pi(G) to the
    condition bodies."""
    digest = hashlib.sha256()
    for gg, pi in scan_points(scan_groups(), (2, 3)):
        digest.update(json.dumps(decide_dpi(gg, pi).to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "b50b07d6fb91c7fc91921b56aab659d4505a5bbe44ce65ada85ce17b28ec6b00"
    )


def test_dpi_condition_is_first_public_II_then_III():
    """Wherever the II/III premises hold, decide_dpi's condition is the
    public check_condition_II answer, else check_condition_III's."""
    premise_points = ii_points = 0
    for gg, pi in scan_points(scan_groups(), (2, 3)):
        try:
            sub, _ = check_condition_II(gg, pi)
        except ValueError:
            continue
        premise_points += 1
        ii_points += sub is not None
        if sub is None:
            sub, _ = check_condition_III(gg, pi)
        assert decide_dpi(gg, pi).condition == sub, (gg, pi)
    assert (premise_points, ii_points) == (12013, 48)


# ---------------------------------------------------------------------------
# Condition IV


def test_condition_IV_tags_for_suzuki():
    # |2B2(8)| = 2^6 * 5 * 7 * 13; torus orders q-1=7, q+2m+1... the three
    # cyclic tori have orders 7, 5, 13.
    sub, _ = check_condition_IV(g("2B2:q=8"), PrimeSet([5]))
    assert sub == "IV(a)"
    v = decide_dpi(g("2B2:q=8"), PrimeSet([5, 13]))
    assert v.holds == "no"


def test_condition_IV_c_for_2F4():
    v = decide_dpi(g("2F4:q=8"), PrimeSet([5, 13]))
    assert v.yes and v.condition == "IV(c)"


def test_condition_IV_rejects_other_families():
    with pytest.raises(ValueError):
        check_condition_IV(g("A:2:q=7"), PrimeSet([3]))


# ---------------------------------------------------------------------------
# U = D, E/C and the E-minus-D classification


@pytest.fixture(scope="module")
def grid_verdicts():
    """(group, pi, E, C, D, U) on every exclusivity-scan point, every
    singleton pi, each singleton with 2 added, and the Sylow 2-subgroup
    points: pi = {2} and pi = {2, t} for each odd scan prime t not dividing
    |G|."""
    points = []
    for gg, pi in scan_points(scan_groups(), (1, 2, 3)):
        points.append((gg, pi))
        if len(pi) == 1:
            points.append((gg, pi.union([2])))
    for gg in scan_groups():
        points.append((gg, PrimeSet([2])))
        points.extend((gg, PrimeSet([2, t])) for t in _SCAN_PRIMES
                      if not prime_divides_order(t, gg))
    return [
        (gg, pi, decide_epi(gg, pi), decide_cpi(gg, pi), decide_dpi(gg, pi),
         decide_upi(gg, pi))
        for gg, pi in points
    ]


def test_upi_equals_dpi_pointwise(grid_verdicts):
    for gg, pi, _, _, d, u in grid_verdicts:
        assert (u.holds, u.condition) == (d.holds, d.condition), (gg, pi)


def test_cpi_equals_epi_for_odd_pi(grid_verdicts):
    for gg, pi, e, c, _, _ in grid_verdicts:
        if 2 not in pi:
            assert (c.holds, c.condition) == (e.holds, e.condition), (gg, pi)


def test_epi_cpi_verdicts_on_grid_are_pinned(grid_verdicts):
    """sha256 over every E and C verdict, trace included, on the grid
    above: every scan_points(scan_groups(), (1, 2, 3)) point and the points
    with 2 in pi; generated before E was derived from D's verdict."""
    digest = hashlib.sha256()
    for _, _, e, c, _, _ in grid_verdicts:
        for v in (e, c):
            digest.update(json.dumps(v.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "9ada8a555e82c3e7db0fabfcecfd165a9158ba696e9cc33a79ff39b4936669b7"
    )


def test_paper_invariants_on_scan_grid(grid_verdicts):
    """D implies E; the Sylow case |pi inter pi(G)| <= 1 is trivially yes
    for all four, with 2 in pi or not; E is out of scope only when 2 is in
    pi and |pi inter pi(G)| >= 2."""
    sylow_2 = 0
    for gg, pi, e, c, d, u in grid_verdicts:
        if d.yes:
            assert e.yes, (gg, pi)
        if len(pi_intersection(pi, gg)) <= 1:
            sylow_2 += 2 in pi
            for v in (e, c, d, u):
                assert (v.holds, v.condition) == ("yes", "trivial_small_pi"), (gg, pi)
        elif 2 in pi:
            assert e.holds == "out_of_scope", (gg, pi)
        if 2 in pi:
            assert all(r["pred"] != "C equals E for odd pi" for r in c.trace), (gg, pi)
    assert sylow_2 > len(scan_groups())


def test_classification_case_2B_a():
    v = decide_epi(g("A:3:q=11"), PrimeSet([3, 5]))
    assert v.yes and v.condition == "epi_case_2B(a)"
    assert decide_dpi(g("A:3:q=11"), PrimeSet([3, 5])).holds == "no"


def test_classification_none_when_dpi_holds():
    tag, _ = classify_epi_minus_dpi(g("A:2:q=7"), PrimeSet([3, 7]))
    assert tag is None


def test_classification_onan():
    tag, _ = classify_epi_minus_dpi(ONAN, PrimeSet([3, 5]))
    assert tag == "epi_case_1"
    tag, _ = classify_epi_minus_dpi(ONAN, PrimeSet([3, 7]))
    assert tag is None


def test_epi_no_when_unclassified():
    v = decide_epi(g("A:2:q=11"), PrimeSet([3, 5]))
    assert v.holds == "no"


# ---------------------------------------------------------------------------
# composition-factor reduction


def test_reduce_composition_conjunction():
    pi = PrimeSet([3, 7])
    factors = [FactorDescriptor.cyclic(2), FactorDescriptor.lie(g("A:2:q=7"))]
    assert reduce_composition(factors, pi, "D").yes
    factors.append(FactorDescriptor.lie(g("A:2:q=13")))
    v = reduce_composition(factors, pi, "D")
    assert v.holds == "no"


def test_reduce_composition_out_of_scope_propagates():
    factors = [FactorDescriptor.unsupported("M11")]
    assert reduce_composition(factors, PrimeSet([3, 5]), "D").holds == "out_of_scope"


def test_reduce_composition_empty_is_yes():
    assert reduce_composition([], PrimeSet([3]), "U").yes


def test_reduce_composition_e_needs_odd_pi():
    with pytest.raises(ValueError):
        reduce_composition([FactorDescriptor.pi_group()], PrimeSet([2, 3]), "E")
