"""Unit tests for the exact-arithmetic kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallpi.arith import (
    PrimeSet,
    e_star,
    is_prime,
    multiplicative_order,
    pi_part,
    r_part_pow_minus_one,
    r_part_pow_minus_sign,
)
from hallpi.lie_catalog import parse_group_id, pi_intersection

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def test_is_prime_basics():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(8191)
    assert not is_prime(8191 * 127)
    # a strong-pseudoprime trap for naive single-base tests
    assert not is_prime(3215031751)
    # 399165290221 * 798330580441: a strong pseudoprime to every prime base
    # up to 37, the least one; base 41 finds it composite
    assert not is_prime(318665857834031151167461)
    # the least strong pseudoprime to every prime base up to 41: the bound
    # of the exact test, above which a passing number is not called prime
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        is_prime(3317044064679887385961981)


def test_prime_set_is_sorted_and_deduplicated():
    ps = PrimeSet([7, 3, 3, 5])
    assert ps.primes == (3, 5, 7)
    assert ps.smallest == 3
    assert ps.without(3).primes == (5, 7)
    assert ps.union([11]) == {3, 5, 7, 11}


def test_prime_set_rejects_composites():
    with pytest.raises(ValueError):
        PrimeSet([3, 9])


@pytest.mark.parametrize("spec", ["A:2:q=7", "E6:q=2", "2B2:q=8"])
def test_subsets_equal_validated_prime_sets(spec):
    pi = PrimeSet([3, 5, 7, 11, 13, 19, 31])
    inter = pi_intersection(pi, parse_group_id(spec))
    results = [inter, pi_intersection([31, 13, 3, 13], parse_group_id(spec))]
    results += [inter.without(p) for p in (*inter, 2)]
    for result in results:
        assert result == PrimeSet(result.primes)
        assert list(result.primes) == sorted(result.primes)


def test_prime_set_empty_has_no_smallest():
    with pytest.raises(ValueError):
        PrimeSet().smallest


@pytest.mark.parametrize(
    "q,r,expected",
    [(4, 3, 1), (2, 7, 3), (11, 5, 1), (2, 3, 2), (13, 7, 2), (3, 13, 3)],
)
def test_multiplicative_order(q, r, expected):
    assert multiplicative_order(q, r) == expected


def test_multiplicative_order_rejects_even_modulus():
    with pytest.raises(ValueError, match="odd"):
        multiplicative_order(5, 2)


def test_multiplicative_order_undefined_when_r_divides_q():
    with pytest.raises(ValueError, match="order undefined"):
        multiplicative_order(21, 7)


def test_e_star():
    assert e_star(3) == 6
    assert e_star(4) == 4
    assert e_star(6) == 3
    assert e_star(1) == 2


def test_e_star_idempotent_on_multiples_of_four():
    for e in (4, 8, 12, 16, 20):
        assert e_star(e_star(e)) == e_star(e)


@pytest.mark.parametrize(
    "n,pi,expected",
    [(720, (3, 5), 45), (1, (3,), 1), (20160, (3, 7), 63), (29120, (5, 7, 13), 455)],
)
def test_pi_part(n, pi, expected):
    assert pi_part(n, pi) == expected


def test_pi_part_rejects_zero():
    with pytest.raises(ValueError):
        pi_part(0, (3,))


@pytest.mark.parametrize(
    "k,m,r,expected", [(2, 6, 7, 7), (2, 4, 7, 1), (4, 3, 3, 9)]
)
def test_r_part_pow_minus_one(k, m, r, expected):
    assert r_part_pow_minus_one(k, m, r) == expected


@pytest.mark.parametrize(
    "k,m,r,expected", [(2, 3, 3, 9), (2, 2, 5, 1), (3, 4, 5, 5)]
)
def test_r_part_pow_minus_sign(k, m, r, expected):
    assert r_part_pow_minus_sign(k, m, r) == expected


def test_closed_forms_match_direct_exponentiation():
    """Full sweep of the closed forms against direct powering."""
    for k in range(2, 31):
        for r in ODD_PRIMES:
            if k % r == 0:
                continue
            for m in range(1, 31):
                assert r_part_pow_minus_one(k, m, r) == pi_part(k**m - 1, (r,))
                assert r_part_pow_minus_sign(k, m, r) == pi_part(
                    k**m - (-1) ** m, (r,)
                )


@given(st.integers(min_value=2, max_value=200), st.sampled_from(ODD_PRIMES))
def test_order_divides_r_minus_one(q, r):
    if q % r == 0:
        return
    assert (r - 1) % multiplicative_order(q, r) == 0


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=50)
def test_pi_part_is_multiplicative_over_disjoint_sets(n):
    assert pi_part(n, (3, 5)) * pi_part(n, (7, 11)) == pi_part(n, (3, 5, 7, 11))
    assert n % pi_part(n, (3, 5, 7, 11)) == 0
