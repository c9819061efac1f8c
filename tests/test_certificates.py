"""Engine certificates for the oracle's E-yes answers, past brute's reach.

An E-yes answer claims that a Hall pi-subgroup exists, and the engine can
check that claim with no element listing.  For each prime q from 37 to 199
it builds PSL_2(q) on q + 1 points by Schreier-Sims alone, checks its order
against ``lie_catalog.group_order``, and certifies each E-yes row of
``hallpi scan --family A --n 2 --q 37..199 --pi-size k`` (k = 1, 2, 3) by
an element x of G of order |G|_pi: <x> is then a pi-group of order |G|_pi,
a Hall pi-subgroup.  x is a power of an element sampled, with a fixed seed,
as a word in G's generators.  Every scan prime is at most 31, so p = q lies
outside pi at every row.

An element whose order |G|_pi divides would refute an E-no row, so none of
the sampled elements may have one there.  A row that no sampled element
certifies is reported with its point, never dropped.
"""

import contextlib
import csv
import io
import math
import random

import pytest

from hallpi.arith import pi_part
from hallpi.cli import main
from hallpi.lie_catalog import group_order, parse_group_id
from hallpi.perm_engine import DEFAULT_MAX_ORDER, PermGroup, _psl2, pmul

_Q_RANGE = "37..199"
_ORDER_BOUND = 10**7  # above |PSL_2(199)| = 3,940,200
_SAMPLES, _WORD_LENGTH, _SEED = 48, 24, 24


def _order(x: tuple) -> int:
    """The order of the permutation x: the lcm of its cycle lengths."""
    seen, order = bytearray(len(x)), 1
    for start in range(len(x)):
        length, i = 0, start
        while not seen[i]:
            seen[i], i, length = 1, x[i], length + 1
        if length:
            order = math.lcm(order, length)
    return order


def _power(x: tuple, e: int) -> tuple:
    result = tuple(range(len(x)))
    while e:
        if e & 1:
            result = pmul(result, x)
        x, e = pmul(x, x), e >> 1
    return result


def _scan_rows(k: int) -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["scan", "--family", "A", "--n", "2", "--q", _Q_RANGE,
                     "--pi-size", str(k)]) == 0
    return list(csv.DictReader(io.StringIO(out.getvalue())))


@pytest.fixture(scope="module")
def sweep():
    """(group spec, pi, E answer, |G|_pi, G, the sampled elements with their
    orders) for every scan row at prime q, and the groups built."""
    rng = random.Random(_SEED)
    groups = {}  # spec -> (G, [(x, order of x), ...])
    rows = []
    for k in (1, 2, 3):
        for row in _scan_rows(k):
            g = parse_group_id(row["group"])
            if g.f != 1:
                continue
            if row["group"] not in groups:
                G = PermGroup(g.q + 1, _psl2(g.q, 1), order_bound=_ORDER_BOUND)
                words = []
                for _ in range(_SAMPLES):
                    x = rng.choice(G.generators)
                    for _ in range(_WORD_LENGTH - 1):
                        x = pmul(x, rng.choice(G.generators))
                    words.append((x, _order(x)))
                groups[row["group"]] = G, words
            pi = tuple(map(int, row["pi"].split(",")))
            assert g.q not in pi
            rows.append((row["group"], pi, row["epi"], pi_part(group_order(g), pi),
                         *groups[row["group"]]))
    return rows, groups


def test_psl2_orders_are_the_catalog_orders(sweep):
    """The 35 primes q in 37..199 each give a PSL_2(q) whose Schreier-Sims
    order is the catalog's, every one above brute's order cap."""
    _, groups = sweep
    assert len(groups) == 35
    for spec, (G, _) in groups.items():
        assert G.order == group_order(parse_group_id(spec)) > DEFAULT_MAX_ORDER, spec


def test_e_yes_rows_are_certified(sweep):
    """Each of the 119 E-yes rows has a sampled element whose power h has
    order |G|_pi and lies in G; a row with none would be listed, not
    skipped.  The other 79 rows are E-no."""
    rows, _ = sweep
    certified, not_reached, e_no = [], [], 0
    for spec, pi, epi, hall, G, words in rows:
        if epi != "yes":
            e_no += 1
            continue
        x, order = next(((x, o) for x, o in words if o % hall == 0), (None, None))
        if x is None:
            not_reached.append((spec, pi))
            continue
        h = _power(x, order // hall)
        assert _order(h) == hall and G.contains(h), (spec, pi)
        certified.append((spec, pi))
    assert not_reached == []
    assert (len(certified), e_no) == (119, 79)


def test_no_sampled_element_refutes_an_e_no_row(sweep):
    """An element of order divisible by |G|_pi has a power generating a Hall
    pi-subgroup, so at an E-no row no sampled element may have one."""
    rows, _ = sweep
    for spec, pi, epi, hall, _, words in rows:
        if epi == "no":
            assert all(o % hall for _, o in words), (spec, pi)
