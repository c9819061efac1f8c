"""Tests for the symbolic Lie-type group catalog."""

import os
import subprocess
import sys

import pytest

import hallpi
from hallpi.arith import PrimeSet
from hallpi.lie_catalog import (
    GroupSpecError,
    diag_quotient_order,
    group_order,
    parse_group_id,
    pi_intersection,
    prime_divides_order,
    validate_simple,
    weyl_order,
)
from hallpi.perm_engine import construct_named


def test_parse_and_roundtrip():
    g = parse_group_id("A:2:q=7")
    assert (g.family, g.n, g.p, g.f, g.q) == ("A", 2, 7, 1, 7)
    assert parse_group_id(g.spec()) == g
    g = parse_group_id("2B2:q=8")
    assert (g.family, g.p, g.f) == ("2B2", 2, 3)
    g = parse_group_id("3D4:q=4")  # q given as a plain prime power
    assert (g.p, g.f) == (2, 2)
    assert parse_group_id("A:2:q=2^3") == parse_group_id("A:2:q=8")


def test_large_prime_q_parses_without_trial_division():
    """q = 2^61 - 1 parses, in either spelling, to the same GroupId.  Run in
    a child process under a timeout, so a search for a factor of q up to
    its square root fails the test rather than hanging it."""
    code = ("from hallpi.lie_catalog import parse_group_id; q = 2**61 - 1; "
            "assert parse_group_id(f'A:2:q={q}') == parse_group_id(f'A:2:q={q}^1')")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hallpi.__file__))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=10)


@pytest.mark.parametrize(
    "spec",
    [
        "X:2:q=7",  # unknown family
        "A:q=7",  # missing dimension
        "G2:2:q=7",  # spurious parameter
        "A:2:q=6",  # not a prime power
        "A:1:q=7",  # below family minimum
        "D:3:q=5",  # below family minimum
        "A:2:q=2",  # solvable
        "A:2:q=3",  # solvable
        "2A:3:q=2",  # solvable
        "B:2:q=2",  # not simple
        "C:2:q=2",  # Sp_4(2) is S_6, not simple
        "G2:q=2",  # not simple
        "2F4:q=2",  # Tits group
        "2B2:q=2",  # needs odd exponent >= 3
        "2B2:q=27",  # wrong characteristic
        "2G2:q=3",  # needs exponent >= 3
    ],
)
def test_invalid_specs_rejected(spec):
    with pytest.raises(GroupSpecError):
        parse_group_id(spec)


def test_validate_simple_gives_reasons():
    ok, reason = validate_simple(parse_group_id("A:2:q=5"))
    assert ok
    bad = parse_group_id("A:2:q=5").__class__("2F4", None, 2, 1)
    ok, reason = validate_simple(bad)
    assert not ok and "Tits" in reason


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("A:2:q=7", 168),
        ("A:3:q=4", 20160),
        ("A:4:q=2", 20160),
        ("2A:3:q=3", 6048),
        ("B:2:q=3", 25920),
        ("C:2:q=4", 979200),  # Sp_4(4) is simple; Sp_4(2) is rejected above
        ("G2:q=3", 4245696),
        ("2B2:q=8", 29120),
        ("2G2:q=27", 10073444472),
        ("3D4:q=2", 211341312),
    ],
)
def test_group_orders(spec, expected):
    assert group_order(parse_group_id(spec)) == expected


def test_a2_orders_match_projective_line_bsgs():
    for q in (4, 5, 7, 8, 9, 11, 13):
        g = parse_group_id(f"A:2:q={q}")
        assert group_order(g) == construct_named(f"psl2:{q}").order


def test_weyl_orders_match_reflection_groups():
    # W(A_{n-1}) is the symmetric group on n letters
    for n in range(2, 9):
        g = parse_group_id(f"A:{n}:q=7")
        assert weyl_order(g) == construct_named(f"sym:{n}").order
    # W(G2) is the symmetry group of the hexagon
    assert weyl_order(parse_group_id("G2:q=5")) == construct_named("dihedral:6").order
    assert weyl_order(parse_group_id("B:3:q=3")) == 48
    assert weyl_order(parse_group_id("2D:4:q=3")) == 192
    assert weyl_order(parse_group_id("E8:q=2")) == 696729600


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("A:3:q=4", 3),
        ("A:2:q=7", 2),
        ("2A:3:q=3", 1),
        ("D:4:q=3", 4),
        ("E6:q=4", 3),
        ("E7:q=3", 2),
        ("2B2:q=8", 1),
    ],
)
def test_diag_quotient_orders(spec, expected):
    assert diag_quotient_order(parse_group_id(spec)) == expected


def test_prime_divides_and_intersection():
    g = parse_group_id("2B2:q=8")  # order 29120 = 2^6 * 5 * 7 * 13
    assert prime_divides_order(5, g)
    assert not prime_divides_order(3, g)
    assert pi_intersection(PrimeSet([3, 5, 13]), g) == {5, 13}
