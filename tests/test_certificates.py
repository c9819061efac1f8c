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

The rows with p in pi come from ``--q 32..361``: q = p^f with p an odd
scan prime and f >= 2 (49, 81, 121, 125, 169, 243, 289, 343, 361).
Each E-yes row is certified by the subgroup of the Borel subgroup B (the
stabiliser of infinity) generated by the translations x -> x + e, e in a
GF(p)-basis, and x -> mu x, mu the pi-part of lambda^2: a pi-group of
order q |lambda^2|_pi, which must be |G|_pi.  At each E-no row,
|B|_pi != |G|_pi.  The range stops below 529 (0.1 s for G and as much for
its certificates), 625 and 729 (0.3 and 0.75 s for the GF(q) tables), and
841 and 961 (0.35-0.4 s per G), to keep the slice within 1 s.

Brute's D-no and C-no answers where E holds have a certificate too.  If H
is a Hall pi-subgroup and K a pi-subgroup lying in no conjugate of H, the
maximal pi-subgroup holding K is no conjugate of H, so D fails; C fails
where K is a second Hall pi-subgroup.  K lies in H^g exactly when H holds
g^-1 k g for each generator k of K, which ``PermGroup.contains`` on H
tests, for g over the listed elements of G.  On alt:5-7, sym:5-6 and
psl2:q for q = 7, 8, 11, 13, at every nonempty proper pi of pi(G) where
brute E holds, each D-no and C-no answer must be so certified.
"""

import contextlib
import csv
import io
import itertools
import math
import random

import pytest

from hallpi.arith import PrimeSet, is_prime, pi_part
from hallpi.cli import main
from hallpi.lie_catalog import group_order, parse_group_id
from hallpi.perm_engine import (_GF, DEFAULT_MAX_ORDER, PermGroup, _psl2, brute_property,
                                construct_named, perm_from_cycles, pinv, pmul)

_Q_RANGE = "37..199"
_ORDER_BOUND = 10**7  # above |PSL_2(199)| = 3,940,200
_BOREL_Q_RANGE = "32..361"
_BOREL_ORDER_BOUND = 10**8  # above |PSL_2(361)| = 23,522,760
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


def _scan_rows(k: int, q_range: str = _Q_RANGE) -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["scan", "--family", "A", "--n", "2", "--q", q_range,
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


@pytest.fixture(scope="module")
def borel_sweep():
    """(group spec, pi, E answer, |G|_pi, G, B, lambda^2 x, the translations by
    a GF(p)-basis) for every scan row with p in pi, and the groups built."""
    groups = {}
    rows = []
    for k in (1, 2, 3):
        for row in _scan_rows(k, _BOREL_Q_RANGE):
            g = parse_group_id(row["group"])
            pi = tuple(map(int, row["pi"].split(",")))
            if g.p not in pi:
                continue
            if row["group"] not in groups:
                gf, infinity = _GF(g.p, g.f), g.q
                translations = [tuple(gf.add(x, g.p**i) for x in range(g.q)) + (infinity,)
                                for i in range(g.f)]
                gens = _psl2(g.p, g.f)
                scale = gens[2]  # x -> lambda^2 x
                G = PermGroup(g.q + 1, gens, order_bound=_BOREL_ORDER_BOUND)
                B = PermGroup(g.q + 1, [*translations, scale], order_bound=_BOREL_ORDER_BOUND)
                groups[row["group"]] = G, B, scale, translations
            rows.append((row["group"], pi, row["epi"], pi_part(group_order(g), pi),
                         *groups[row["group"]]))
    return rows, groups


def test_borel_groups_are_the_catalog_orders(borel_sweep):
    """The nine q = p^f from 49 to 361 each give a PSL_2(q) of the catalog's
    order holding the Borel subgroup B of order q(q - 1)/2."""
    _, groups = borel_sweep
    assert len(groups) == 9
    for spec, (G, B, _, translations) in groups.items():
        q = parse_group_id(spec).q
        assert G.order == group_order(parse_group_id(spec)), spec
        assert B.order == q * (q - 1) // 2, spec
        assert all(G.contains(x) for x in B.generators), spec


def test_e_yes_rows_with_p_in_pi_are_certified_by_borel_subgroups(borel_sweep):
    """At each of the 26 E-yes rows with p in pi, the translations and
    x -> mu x, mu the pi-part of lambda^2, generate a subgroup of G of
    order |G|_pi: a Hall pi-subgroup.  The other 19 rows are E-no, and there
    B's pi-part is not |G|_pi, so B holds no Hall pi-subgroup."""
    rows, _ = borel_sweep
    orders = {}  # (spec, mu) -> |<translations, mu>|, shared by rows of one pi-part
    certified, e_no = [], 0
    for spec, pi, epi, hall, G, B, scale, translations in rows:
        q = parse_group_id(spec).q
        if epi != "yes":
            e_no += 1
            assert pi_part(B.order, pi) != hall, (spec, pi)
            continue
        half = (q - 1) // 2  # the order of lambda^2
        mu = _power(scale, half // pi_part(half, pi))
        if (spec, mu) not in orders:
            orders[spec, mu] = PermGroup(q + 1, [*translations, mu],
                                         order_bound=_BOREL_ORDER_BOUND).order
        assert orders[spec, mu] == hall and G.contains(mu), (spec, pi)
        certified.append((spec, pi))
    assert (len(certified), e_no) == (26, 19)


_NO_GROUPS = ("alt:5", "alt:6", "alt:7", "sym:5", "sym:6", "psl2:7", "psl2:8", "psl2:11",
              "psl2:13")


def _in_no_conjugate(G: PermGroup, K: list, H: PermGroup) -> bool:
    """True where no g in G has H hold g^-1 k g for every generator k of K."""
    return not any(all(H.contains(pmul(pmul(pinv(g), k), g)) for k in K)
                   for g in G.elements())


def _class(G: PermGroup, label: dict) -> list:
    """The generators of a brute witness's class label, as permutations."""
    return [perm_from_cycles(c, G.degree) for c in label["gens"]]


def test_d_no_and_c_no_answers_where_e_holds_are_certified():
    """At each of the 9 D-no points where E holds, the class K of D's witness
    pair whose order is not |G|_pi (the second, where both have it) lies in
    no conjugate of E's Hall witness H; at each of the 4 C-no points, the
    second Hall class of C's pair lies in no conjugate of the first.  A
    point left uncertified is listed, never dropped."""
    d_points, c_points, not_certified = [], [], []
    for spec in _NO_GROUPS:
        G = construct_named(spec)
        primes = [t for t in range(2, G.order + 1) if G.order % t == 0 and is_prime(t)]
        for k in range(1, len(primes)):
            for pi in map(PrimeSet, itertools.combinations(primes, k)):
                e, e_witness = brute_property(G, pi, "E")
                if not e:
                    continue
                d, d_witness = brute_property(G, pi, "D")
                if not d:
                    hall = pi_part(G.order, pi)
                    pair = d_witness["witness_pair"]
                    K = next((c for c in pair if c["order"] != hall), pair[1])
                    H = PermGroup(G.degree, _class(G, e_witness["hall"]))
                    d_points.append((spec, pi))
                    if not _in_no_conjugate(G, _class(G, K), H):
                        not_certified.append(("D", spec, pi))
                c, c_witness = brute_property(G, pi, "C")
                if not c:
                    first, second = c_witness["witness_pair"]
                    c_points.append((spec, pi))
                    if not _in_no_conjugate(G, _class(G, second),
                                            PermGroup(G.degree, _class(G, first))):
                        not_certified.append(("C", spec, pi))
    assert not_certified == []
    assert (len(d_points), len(c_points)) == (9, 4), (d_points, c_points)
