"""Tests for the symbolic Lie-type group catalog."""

import hashlib
import os
import pickle
import subprocess
import sys

import pytest

import hallpi
from hallpi.arith import PrimeSet
from hallpi.lie_catalog import (
    CLASSICAL_FAMILIES,
    FAMILIES,
    MAX_ORDER_BITS,
    MAX_Q_BITS,
    GroupId,
    GroupSpecError,
    diag_quotient_order,
    group_order,
    parse_group_id,
    pi_intersection,
    validate_simple,
    weyl_order,
    _degrees,
    _dimension,
)
from hallpi.perm_engine import construct_named
from hallpi.verifier import exclusivity_scan


def test_parse_and_roundtrip():
    g = parse_group_id("A:2:q=7")
    assert (g.family, g.n, g.p, g.f, g.q) == ("A", 2, 7, 1, 7)
    assert parse_group_id(g.spec()) == g
    g = parse_group_id("2B2:q=8")
    assert (g.family, g.p, g.f) == ("2B2", 2, 3)
    g = parse_group_id("3D4:q=4")  # q given as a plain prime power
    assert (g.p, g.f) == (2, 2)
    assert parse_group_id("A:2:q=2^3") == parse_group_id("A:2:q=8")
    # leading zeros do not count towards the digits a field may have
    zeros = "0" * 5000
    assert parse_group_id(f"A:{zeros}2:q={zeros}7^{zeros}2") is parse_group_id("A:2:q=7^2")


def test_group_ids_hash_by_value_and_share_one_cache_entry():
    """A parsed and a constructed GroupId are equal with equal hashes, so
    group_order caches them once; a pickle carries the four fields and no
    hash, so a process with another hash seed unpickles a copy that equals
    the group it parses there and hashes as it does."""
    parsed, built = parse_group_id("E8:q=311"), GroupId("E8", None, 311, 1)
    assert parsed is not built and parsed == built and hash(parsed) == hash(built)
    assert parsed != GroupId("E8", None, 313, 1)
    group_order.cache_clear()
    assert group_order(parsed) == group_order(built)
    info = group_order.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert parsed.__reduce__() == (GroupId, ("E8", None, 311, 1))
    copy = pickle.loads(pickle.dumps(parsed))
    assert copy == parsed and hash(copy) == hash(parsed)
    code = ("import pickle, sys; from hallpi.lie_catalog import parse_group_id; "
            "copy = pickle.loads(sys.stdin.buffer.read()); g = parse_group_id('E8:q=311'); "
            "assert copy == g and hash(copy) == hash(g) and hash(g) != int(sys.argv[1])")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"  # not this process's
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.path.dirname(os.path.dirname(hallpi.__file__))}
    subprocess.run([sys.executable, "-c", code, str(hash(parsed))], input=pickle.dumps(parsed),
                   env=env, check=True, timeout=10)


def test_parsed_group_ids_are_interned(monkeypatch):
    """Specs naming one group parse to one object, so a second in-process
    exclusivity scan finds every GroupId-keyed cache entry by identity and
    never calls GroupId.__eq__; GroupIds built directly still compare and
    hash by value."""
    assert parse_group_id("A:2:q=8") is parse_group_id(" A:2:q=2^3")
    exclusivity_scan()
    calls = []
    eq = GroupId.__eq__

    def counted_eq(self, other):
        calls.append(other)
        return eq(self, other)

    monkeypatch.setattr(GroupId, "__eq__", counted_eq)
    exclusivity_scan()
    assert calls == []
    parsed, built = parse_group_id("A:2:q=8"), GroupId("A", 2, 2, 3)
    assert built is not parsed and built == parsed and hash(built) == hash(parsed)
    assert built != GroupId("A", 2, 2, 5) and GroupId("A", 2, 2, 3) == built
    assert len(calls) == 3


def test_large_prime_q_parses_without_trial_division():
    """q = 2^61 - 1 parses, in either spelling, to the same GroupId.  Run in
    a child process under a timeout, so a search for a factor of q up to
    its square root fails the test rather than hanging it."""
    code = ("from hallpi.lie_catalog import parse_group_id; q = 2**61 - 1; "
            "assert parse_group_id(f'A:2:q={q}') == parse_group_id(f'A:2:q={q}^1')")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hallpi.__file__))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=10)


def test_refusal_on_the_base_forms_no_q():
    """A spec refused for its base is refused at once: 6^(10^8) is never
    formed.  Run in a child process under a timeout, as forming it would
    take minutes."""
    code = ("from hallpi.lie_catalog import GroupSpecError, parse_group_id\n"
            "try:\n    parse_group_id('A:2:q=6^100000000')\n"
            "except GroupSpecError as exc:\n    assert 'base 6 of q is not prime' in str(exc)\n"
            "else:\n    raise AssertionError('accepted')")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hallpi.__file__))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=10)


def test_refusal_of_an_oversize_q_forms_no_q():
    """A q over MAX_Q_BITS bits is refused at once, naming the bound:
    7^(10^7), 28 million bits, is never formed.  Run in a child process
    under a timeout, as forming it takes seconds."""
    code = ("from hallpi.lie_catalog import GroupSpecError, parse_group_id\n"
            "try:\n    parse_group_id('A:2:q=7^10000000')\n"
            "except GroupSpecError as exc:\n"
            "    assert 'q has more than MAX_Q_BITS = 4096 bits' in str(exc)\n"
            "else:\n    raise AssertionError('accepted')")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hallpi.__file__))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=10)


def test_q_bound_is_on_the_bit_length():
    """q = 2^4095 has MAX_Q_BITS = 4096 bits and parses; 2^4096 does not,
    in either spelling, and neither does a plain q over the bound, which is
    not split."""
    assert parse_group_id("A:2:q=2^4095").q.bit_length() == MAX_Q_BITS
    assert parse_group_id("E8:q=7^1459").q.bit_length() == MAX_Q_BITS
    for spec in ("A:2:q=2^4096", f"A:2:q={2**4096}", f"A:2:q={2**4096 + 1}", "E8:q=7^1460"):
        with pytest.raises(GroupSpecError, match="q has more than MAX_Q_BITS = 4096 bits"):
            parse_group_id(spec)
    assert GroupId("A", 2, 2**4096 + 1, 1).q is None


def test_order_bound_is_e8_at_the_q_bound():
    """|G|'s bits are estimated as the dimension, 2 * sum(degrees) - rank,
    times q's bits, and refused above MAX_ORDER_BITS = 248 * MAX_Q_BITS:
    E8 at the q bound sits on it.  A classical group parses at its
    largest rank under the bound and is refused one rank above it."""
    assert MAX_ORDER_BITS == 248 * MAX_Q_BITS
    for fam in FAMILIES:
        for n in range(2, 9) if fam in CLASSICAL_FAMILIES else (None,):
            d = _degrees(fam, n)
            assert _dimension(fam, n) == 2 * sum(d) - len(d), (fam, n)
    assert _dimension("E8", None) == 248
    for accepted, refused in (("E8:q=7^1459", "E8:q=7^1460"), ("A:581:q=7", "A:582:q=7"),
                              ("2A:712:q=2", "2A:713:q=2"), ("C:503:q=2", "C:504:q=2"),
                              ("B:503:q=2", "B:504:q=2"), ("D:504:q=2", "D:505:q=2")):
        parse_group_id(accepted)
        with pytest.raises(GroupSpecError, match="more than MAX_"):
            parse_group_id(refused)


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
        "A:2:q=\uff17",  # a fullwidth digit is not an ASCII decimal
        "A:\uff12:q=7",
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
    ok, reason = validate_simple(bad.__class__("E8", 3, 2, 1))
    assert not ok and "takes no dimension/rank parameter" in reason
    for fields, expected in ((("A", 2, 6, 1), "base 6 of q is not prime"),
                             (("A", 2, 5, 0), "field exponent must be positive"),
                             (("B", None, 7, 1), "family B requires a dimension/rank parameter"),
                             (("D", 3, 5, 1), "rank below family minimum"),
                             (("2B2", None, 2, 2), "2B2 requires q = 2^(2m+1), m >= 1"),
                             (("2B2", None, 2, 1), "2B2 requires q = 2^(2m+1), m >= 1"),
                             (("2B2", None, 3, 3), "2B2 requires q = 2^(2m+1), m >= 1"),
                             (("2G2", None, 3, 2), "2G2 requires q = 3^(2m+1), m >= 1"),
                             (("2G2", None, 2, 3), "2G2 requires q = 3^(2m+1), m >= 1")):
        assert validate_simple(GroupId(*fields)) == (False, expected)


def test_two_and_p_divide_every_accepted_order():
    """2 and the characteristic p divide |G| for every descriptor
    validate_simple accepts, so a decision may test them against
    pi inter pi(G) in place of pi."""
    primes = [p for p in range(2, 60) if all(p % d for d in range(2, p))]
    accepted = 0
    for fam in FAMILIES:
        for n in (None, *range(13)):
            for p in primes:
                for f in range(1, 7):
                    gg = GroupId(fam, n, p, f)
                    if validate_simple(gg)[0]:
                        accepted += 1
                        order = group_order.__wrapped__(gg)  # leaves the cache as it was
                        assert order % 2 == 0 and order % p == 0, gg
    assert accepted == 6936


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
        # ATLAS orders, one or more for every family
        ("A:5:q=2", 9999360),
        ("2A:4:q=2", 25920),
        ("2A:3:q=5", 126000),
        ("B:3:q=3", 4585351680),
        ("C:3:q=2", 1451520),
        ("D:4:q=2", 174182400),
        ("2D:4:q=2", 197406720),
        ("G2:q=4", 251596800),
        ("F4:q=2", 3311126603366400),
        ("E6:q=2", 214841575522005575270400),
        ("2E6:q=2", 76532479683774853939200),
        ("E7:q=2", 7997476042075799759100487262680802918400),
        ("E8:q=2", 2**120 * 3**13 * 5**5 * 7**4 * 11**2 * 13**2 * 17**2 * 19 * 31**2
         * 41 * 43 * 73 * 127 * 151 * 241 * 331),
        ("2B2:q=32", 32537600),
        ("2F4:q=8", 264905352699586176614400),
        ("3D4:q=3", 20560831566912),
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
        assert weyl_order(g) == construct_named(f"sym:{n}", order_bound=40320).order
    # W(G2) is the symmetry group of the hexagon
    assert weyl_order(parse_group_id("G2:q=5")) == construct_named("dihedral:6").order
    assert weyl_order(parse_group_id("B:3:q=3")) == 48
    assert weyl_order(parse_group_id("2D:4:q=3")) == 192
    assert weyl_order(parse_group_id("E8:q=2")) == 696729600
    assert weyl_order(parse_group_id("F4:q=3")) == 1152
    assert weyl_order(parse_group_id("E6:q=3")) == 51840
    assert weyl_order(parse_group_id("E7:q=3")) == 2903040
    assert weyl_order(parse_group_id("D:5:q=3")) == 1920
    # a twisted group has the Weyl group of its untwisted root system
    assert weyl_order(parse_group_id("3D4:q=2")) == 192
    assert weyl_order(parse_group_id("2B2:q=8")) == 8
    assert weyl_order(parse_group_id("2G2:q=27")) == 12


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


def test_orders_are_pinned():
    """sha256 over (spec, |G|, |W|, diagonal quotient order) for every
    simple descriptor with n <= 10 and q a prime power below 300 or one of
    2^61 - 1, 3^41 and 5^27; generated while each family's orders were
    still written out as separate formulas."""
    digest, count = hashlib.sha256(), 0
    for q in (*range(2, 300), 2**61 - 1, 3**41, 5**27):
        for fam in FAMILIES:
            for n in range(2, 11) if fam in CLASSICAL_FAMILIES else (None,):
                try:
                    g = parse_group_id(f"{fam}:q={q}" if n is None else f"{fam}:{n}:q={q}")
                except GroupSpecError:
                    continue
                count += 1
                # in hex, as the largest orders pass str()'s digit limit
                digest.update(f"{g} {group_order(g):x} {weyl_order(g)} "
                              f"{diag_quotient_order(g)}\n".encode())
    assert count == 4595
    assert digest.hexdigest() == (
        "f712d9ce469a46433dffc3daf8b693dbfd285a8c82150887c8ef5fc98edaf53e"
    )


def test_prime_divides_and_intersection():
    g = parse_group_id("2B2:q=8")  # order 29120 = 2^6 * 5 * 7 * 13
    assert group_order(g) % 5 == 0
    assert group_order(g) % 3 != 0
    assert pi_intersection(PrimeSet([3, 5, 13]), g) == PrimeSet([5, 13])
