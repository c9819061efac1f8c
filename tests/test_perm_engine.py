"""Tests for the permutation engine: BSGS, lattice enumeration, brute force."""

import hashlib
import itertools
import json
import random
from math import prod

import pytest

from hallpi import perm_engine
from hallpi.arith import PrimeSet, pi_part
from hallpi.perm_engine import (
    DEFAULT_MAX_ORDER,
    OrderLimitError,
    PermGroup,
    _Index,
    brute_property,
    construct_named,
    enumerate_subgroups,
    hall_overgroups,
    identity,
    lattice_dump,
    maximal_pi_subgroups,
    perm_from_cycles,
    perm_to_cycles,
    pi_hall_subgroups,
    pi_subgroups,
    pinv,
    pmul,
)


# ---------------------------------------------------------------------------
# primitives


def test_cycle_notation_roundtrip():
    p = perm_from_cycles("(0 1 2)(3 4)", 6)
    assert p == (1, 2, 0, 4, 3, 5)
    assert perm_to_cycles(p) == "(0 1 2)(3 4)"
    assert perm_from_cycles("()", 4) == identity(4)
    assert perm_to_cycles(identity(4)) == "()"


def test_cycle_notation_rejects_garbage():
    with pytest.raises(ValueError):
        perm_from_cycles("(0 1", 4)
    with pytest.raises(ValueError):
        perm_from_cycles("(0 9)", 4)
    with pytest.raises(ValueError):
        perm_from_cycles("(0 1 0)", 4)


def test_product_and_inverse():
    a = perm_from_cycles("(0 1 2)", 3)
    assert pmul(a, pinv(a)) == identity(3)
    b = perm_from_cycles("(0 1)", 3)
    # left-to-right composition: apply a first
    assert pmul(a, b)[0] == b[a[0]]


# ---------------------------------------------------------------------------
# construction and BSGS order


@pytest.mark.parametrize(
    "spec,order",
    [
        ("alt:5", 60),
        ("alt:6", 360),
        ("alt:7", 2520),
        ("sym:4", 24),
        ("sym:6", 720),
        ("cyclic:12", 12),
        ("dihedral:7", 14),
        ("psl2:4", 60),
        ("psl2:5", 60),
        ("psl2:7", 168),
        ("psl2:8", 504),
        ("psl2:9", 360),
        ("psl2:11", 660),
        ("psl2:13", 1092),
        ("product:psl2:7xcyclic:2", 336),
        ("raw:5:(0 1 2);(0 1)(3 4)", 6),
    ],
)
def test_named_construction_orders(spec, order):
    assert construct_named(spec).order == order


def test_psl2_16_within_cap():
    G = construct_named("psl2:16")
    assert G.order == 4080
    ok, _ = brute_property(G, PrimeSet([3, 5]), "E")
    assert ok  # the cyclic torus of order q-1 = 15


def test_psl2_rejects_bad_q():
    with pytest.raises(ValueError):
        construct_named("psl2:6")
    with pytest.raises(ValueError):
        construct_named("psl2:32")


def test_build_of_the_wrong_order_is_an_error(monkeypatch):
    """Every build is checked against the order its spec gives: a product
    built as its left side alone has order 2, not 6."""
    monkeypatch.setattr(perm_engine, "_NAMED_CACHE", {})
    monkeypatch.setattr(perm_engine, "_direct_product", lambda A, B: A)
    with pytest.raises(AssertionError, match="order 2, expected 6"):
        construct_named("product:cyclic:2xcyclic:3")


def test_membership():
    G = construct_named("alt:5")
    assert perm_from_cycles("(0 1 2)", 5) in G
    assert perm_from_cycles("(0 1)", 5) not in G
    assert G.contains(identity(5))


def test_product_acts_on_disjoint_points():
    G = construct_named("product:psl2:7xcyclic:2")
    assert G.degree == 10


# ---------------------------------------------------------------------------
# lattice enumeration


def test_cyclic_6_lattice():
    classes = enumerate_subgroups(construct_named("cyclic:6"))
    assert [(c.order, c.class_size) for c in classes] == [
        (1, 1), (2, 1), (3, 1), (6, 1),
    ]


def test_alt5_lattice_classes():
    classes = enumerate_subgroups(construct_named("alt:5"))
    assert [(c.order, c.class_size) for c in classes] == [
        (1, 1), (2, 15), (3, 10), (4, 5), (5, 6), (6, 10), (10, 6), (12, 5), (60, 1),
    ]


def _coset_closure(H: frozenset, H_gens: list, x: tuple) -> frozenset:
    """Element set of the join of subgroup H (given with generators) and x,
    closed over tuple permutations, independently of the engine."""
    ident = identity(len(x))
    gens = list(H_gens) + [x]
    elems = set(H)
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = pmul(w, g)
                if wg not in elems:
                    elems.update(pmul(h, wg) for h in H)
                    nxt.append(wg)
        frontier = nxt
    return frozenset(elems)


def test_alt5_lattice_against_pair_closure_oracle():
    """Independent completeness check: every subgroup of A5 is generated by
    at most two elements, so closing all element pairs enumerates the full
    set of subgroups."""
    G = construct_named("alt:5")
    ident = identity(5)
    subgroups = set()
    for a in G.elements():
        single = _coset_closure(frozenset([ident]), [], a)
        subgroups.add(single)
        for b in G.elements():
            subgroups.add(_coset_closure(single, [a], b))
    assert len(subgroups) == sum(c.class_size for c in enumerate_subgroups(G))


def test_lagrange_and_representative_consistency():
    for spec in ("sym:4", "psl2:7", "dihedral:6"):
        G = construct_named(spec)
        for c in enumerate_subgroups(G):
            assert G.order % c.order == 0
            assert c.representative.order == c.order
            assert all(g in G for g in c.representative.generators)


def test_enumeration_refuses_above_cap():
    with pytest.raises(OrderLimitError, match="25000"):
        enumerate_subgroups(construct_named("sym:9"))
    with pytest.raises(OrderLimitError, match="50"):
        enumerate_subgroups(construct_named("alt:5"), order_bound=50)


def test_lattice_dump_format():
    dump = lattice_dump(construct_named("cyclic:6"))
    lines = dump.splitlines()
    assert lines[0] == "order=1 class_size=1 gens=()"
    assert all(line.startswith("order=") for line in lines)


SYM4_DUMP = """\
order=1 class_size=1 gens=()
order=2 class_size=6 gens=(2 3)
order=2 class_size=3 gens=(0 1)(2 3)
order=3 class_size=4 gens=(1 2 3)
order=4 class_size=3 gens=(2 3);(0 1)
order=4 class_size=1 gens=(0 1)(2 3);(0 2)(1 3)
order=4 class_size=3 gens=(0 1)(2 3);(0 2 1 3)
order=6 class_size=4 gens=(2 3);(1 2)
order=8 class_size=3 gens=(2 3);(0 1);(0 2)(1 3)
order=12 class_size=1 gens=(1 2 3);(0 1)(2 3)
order=24 class_size=1 gens=(2 3);(1 2);(0 1)"""


def test_lattice_dump_is_pinned():
    """The canonical output fixes element order and class representatives:
    sym:4 verbatim, psl2:7 (15 classes) by its sha256."""
    assert lattice_dump(construct_named("sym:4")) == SYM4_DUMP
    dump = lattice_dump(construct_named("psl2:7"))
    assert hashlib.sha256(dump.encode()).hexdigest() == (
        "28427bd2af239cfd6eea50c26d6a347185ca0a4272ccfe4955e98f21415abea3"
    )


ENGINE_PIN_GROUPS = [
    "sym:4", "dihedral:15", "alt:5", "sym:5", "alt:6", "product:cyclic:3xalt:5",
    "psl2:7", "psl2:8", "psl2:9", "psl2:11", "psl2:13",
]


def test_engine_output_is_pinned():
    """One sha256 over each group's ``lattice_dump`` and every
    ``brute_property`` verdict and witness, for every pi of at most three
    primes dividing |G|: any change to the classes, their members or the
    generators the search records shows here."""
    h = hashlib.sha256()
    for spec in ENGINE_PIN_GROUPS:
        G = construct_named(spec)
        h.update(lattice_dump(G).encode())
        primes = [p for p in (2, 3, 5, 7, 11, 13) if G.order % p == 0]
        for k in (1, 2, 3):
            for pi in itertools.combinations(primes, k):
                for prop in ("E", "C", "D", "U", "star"):
                    holds, witness = brute_property(G, PrimeSet(pi), prop)
                    h.update(json.dumps([spec, pi, prop, holds, witness],
                                        sort_keys=True).encode())
    assert h.hexdigest() == (
        "daecc0a204f593ebb1616e43f3d79850f7bdf745615795a85b8fb7a78a2f7029"
    )


def test_alt8_pi_subgroups_are_pinned():
    """alt:8 at pi = {3, 5}: every join is capped at |G|_pi = 45 of 20160
    elements, so the search composes products one at a time.  One sha256
    over each class's order, class size, canonical and extended members,
    generators, and the E, C, D and star verdicts with their witnesses."""
    G = construct_named("alt:8")
    pi = PrimeSet([3, 5])
    h = hashlib.sha256()
    for c in pi_subgroups(G, pi):
        h.update(json.dumps([c.order, c.class_size, sorted(c.rep_set), sorted(c.member),
                             c.member_gens, [perm_to_cycles(g) for g in c.generators]]).encode())
    for prop in ("E", "C", "D", "star"):
        holds, witness = brute_property(G, pi, prop)
        h.update(json.dumps([prop, holds, witness], sort_keys=True).encode())
    assert h.hexdigest() == (
        "e4e708c09f6a44bd2a16fe8a49173c1fe5794d29dca8b3bdff25c27faba57ed5"
    )


def test_search_is_pinned():
    """The search itself, not only its canonical output: one sha256 over
    each class's order, class size, canonical member, the member the search
    extended and that member's generators, for the full lattice, the
    pi-subgroups and the overgroups of a pi-Hall subgroup, for every pi of
    at most three primes dividing |G|."""
    h = hashlib.sha256()

    def pin(classes):
        for c in classes:
            h.update(json.dumps([c.order, c.class_size, sorted(c.rep_set),
                                 sorted(c.member), c.member_gens]).encode())

    for spec in ("sym:4", "alt:5", "sym:5", "alt:6", "psl2:7", "psl2:8"):
        G = construct_named(spec)
        pin(enumerate_subgroups(G))
        primes = [p for p in (2, 3, 5, 7) if G.order % p == 0]
        for k in (1, 2, 3):
            for pi in itertools.combinations(primes, k):
                pin(pi_subgroups(G, PrimeSet(pi)))
                pin(hall_overgroups(G, PrimeSet(pi)))
    assert h.hexdigest() == (
        "392d1e0d2f39202bcd1a25c3c72864cac3fd0841ed565e333a9f3cd6b8b2fafe"
    )


def test_uncapped_search_is_pinned():
    """psl2:16 (order 4080), above every group ``test_search_is_pinned``
    covers: the same fields of the full lattice and of the overgroups of a
    Sylow 3-subgroup, searches whose joins are capped only by |G|."""
    h = hashlib.sha256()
    G = construct_named("psl2:16")
    for c in enumerate_subgroups(G) + hall_overgroups(G, PrimeSet([3])):
        h.update(json.dumps([c.order, c.class_size, sorted(c.rep_set),
                             sorted(c.member), c.member_gens]).encode())
    assert h.hexdigest() == (
        "bccc52f100ef4899534d930cfaf97a55325e53ee93e543d9b11f0fe55b7ee4ef"
    )


@pytest.mark.parametrize("spec", ENGINE_PIN_GROUPS)
def test_products_match_permutation_products(spec):
    """Composed products and both conjugations agree with tuple-permutation
    arithmetic: for every x and e up to order 360, and for a fixed sample of
    x above it."""
    named = construct_named(spec)
    G = PermGroup(named.degree, named.generators)  # nothing cached yet
    perms = G.elements()
    ix = G._index
    where = {p: i for i, p in enumerate(perms)}
    assert len(where) == G.order and perms == sorted(perms)
    inv = [where[pinv(p)] for p in perms]
    xs = range(ix.size) if ix.size <= 360 else random.Random(spec).sample(range(ix.size), 8)
    left = {x: [where[pmul(perms[x], pe)] for pe in perms] for x in set(xs) | {inv[x] for x in xs}}
    es = range(ix.size)
    for x in xs:
        x_times, x_inv_times = left[x], left[inv[x]]
        products = ix.products(x)
        assert [products[e] for e in es] == x_times
        # x^-1 e x = (x^-1 (x^-1 e)^-1)^-1 and x z x^-1 = x (x z^-1)^-1
        assert list(ix.conj(x)) == [inv[x_inv_times[inv[x_inv_times[e]]]] for e in es]
        conjugate = ix.conjugator(x)
        assert [conjugate(z) for z in es] == [x_times[inv[x_times[inv[z]]]] for z in es]


def test_short_base_is_refused():
    """A base whose images do not separate the elements cannot index them."""
    named = construct_named("sym:4")
    G = PermGroup(named.degree, named.generators)
    G.base = G.base[:-1]
    with pytest.raises(AssertionError, match="do not separate"):
        G.elements()


def _closure(G: PermGroup) -> list:
    """Every element of G, sorted, by breadth-first closure under right
    multiplication by the generators: no stabiliser chain involved."""
    ident = identity(G.degree)
    perms, found = [ident], {ident}
    for w in perms:  # grows while it is read
        for g in G.generators:
            wg = pmul(w, g)
            if wg not in found:
                found.add(wg)
                perms.append(wg)
    return sorted(perms)


@pytest.mark.parametrize("spec", ENGINE_PIN_GROUPS + ["psl2:16", "raw:3:"])
def test_elements_equal_generator_closure(spec):
    """The elements read off the stabiliser chain are the group's."""
    named = construct_named(spec)
    G = PermGroup(named.degree, named.generators)
    assert G.elements() == _closure(G)
    assert len(G.elements()) == G.order


@pytest.mark.parametrize("spec", ["sym:5", "psl2:7", "product:cyclic:3xalt:5"])
def test_chain_missing_an_element_is_refused(spec):
    """A stabiliser chain that missed one coset representative, at any
    level, lists a set not closed under the generators."""
    named = construct_named(spec)
    for level in range(len(named.base)):
        G = PermGroup(named.degree, named.generators)
        del G._transversals[level][max(set(G._transversals[level]) - {G.base[level]})]
        G.order = prod(len(t) for t in G._transversals)  # as such a chain reports
        with pytest.raises(AssertionError, match="not closed"):
            G.elements()


def test_overgroups_join_once_per_conjugate_cyclics(monkeypatch):
    """A class member is joined with one cyclic per orbit of its own
    conjugation action: on psl2:13 at pi = {3}, 332 joins instead of the
    2125 that one join per cyclic makes.  A join stops at the first cyclic
    whose join with the same member already gave the whole group: 10 of
    them close to the whole group, where 286 did without the stop."""
    named = construct_named("psl2:13")
    expected = [c.order for c in hall_overgroups(named, PrimeSet([3]))]
    G = PermGroup(named.degree, named.generators)  # nothing cached yet
    pi_hall_subgroups(G, PrimeSet([3]))
    results = []
    join = _Index.join
    monkeypatch.setattr(_Index, "join",
                        lambda self, *a: results.append(join(self, *a)) or results[-1])
    classes = hall_overgroups(G, PrimeSet([3]))
    assert [c.order for c in classes] == expected
    assert len(results) <= 400
    assert sum(J is not None and len(J) == G.order for J in results) <= 20


# ---------------------------------------------------------------------------
# Sylow and Hall cross-checks


@pytest.mark.parametrize("spec", ["alt:5", "sym:4", "psl2:7", "psl2:11"])
def test_sylow_cross_check(spec):
    G = construct_named(spec)
    order = G.order
    for t in (2, 3, 5, 7, 11):
        if order % t:
            continue
        ok, _ = brute_property(G, PrimeSet([t]), "D")
        assert ok
        sylow_order = 1
        rest = order
        while rest % t == 0:
            rest //= t
            sylow_order *= t
        count = sum(
            c.class_size for c in enumerate_subgroups(G) if c.order == sylow_order
        )
        assert count % t == 1


def test_hall_subgroups_of_psl2_7():
    G = construct_named("psl2:7")
    halls = pi_hall_subgroups(G, PrimeSet([3, 7]))
    assert [c.order for c in halls] == [21]
    assert maximal_pi_subgroups(G, PrimeSet([3, 7]))[0].order == 21


# ---------------------------------------------------------------------------
# brute properties


def test_psl2_7_d_and_u_hold():
    G = construct_named("psl2:7")
    for prop in ("E", "C", "D", "U"):
        ok, _ = brute_property(G, PrimeSet([3, 7]), prop)
        assert ok


def test_alt5_23_fails_d_with_witness():
    G = construct_named("alt:5")
    ok, witness = brute_property(G, PrimeSet([2, 3]), "D")
    assert not ok
    orders = sorted(w["order"] for w in witness["witness_pair"])
    assert orders == [6, 12]  # S3 and A4 are non-conjugate maximal {2,3}-subgroups
    # yet a {2,3}-Hall subgroup (A4) exists and is unique up to conjugacy
    assert brute_property(G, PrimeSet([2, 3]), "E")[0]
    assert brute_property(G, PrimeSet([2, 3]), "C")[0]


def test_psl2_11_35_has_no_hall():
    G = construct_named("psl2:11")
    ok, witness = brute_property(G, PrimeSet([3, 5]), "E")
    assert not ok and witness["target"] == 15


def test_brute_rejects_unknown_property():
    with pytest.raises(ValueError):
        brute_property(construct_named("alt:5"), PrimeSet([3]), "Q")


def brute_d_via_hall_containment(G, pi) -> bool:
    """Alternative D definition: C holds and every pi-subgroup lies inside
    a pi-Hall subgroup.  Used as an independent cross-check."""
    ok, _ = brute_property(G, pi, "C")
    if not ok:
        return False
    hall_orbit = pi_hall_subgroups(G, pi)[0].orbit
    for cls in enumerate_subgroups(G):
        if pi_part(cls.order, pi) != cls.order:
            continue
        if not any(cls.rep_set <= h for h in hall_orbit):
            return False
    return True


def test_d_definition_equivalence():
    """Single-maximal-class D must agree with 'C plus every pi-subgroup
    inside a Hall subgroup' on every tested instance."""
    cases = [
        ("alt:5", (2, 3)),
        ("alt:5", (2, 5)),
        ("alt:5", (3, 5)),
        ("sym:4", (2, 3)),
        ("psl2:7", (3, 7)),
        ("psl2:7", (2, 3)),
        ("psl2:11", (3, 5)),
        ("psl2:11", (5, 11)),
        ("psl2:13", (3, 13)),
        ("dihedral:15", (3, 5)),
    ]
    for spec, pi in cases:
        G = construct_named(spec)
        direct, _ = brute_property(G, PrimeSet(pi), "D")
        assert direct == brute_d_via_hall_containment(G, PrimeSet(pi))


def test_lemma_2a_hall_intersects_normal_subgroups():
    """H a pi-Hall subgroup of G, A normal in G: H cap A is pi-Hall in A."""
    for spec, pi in [("sym:4", (2, 3)), ("sym:4", (3,)), ("alt:5", (2, 3))]:
        G = construct_named(spec)
        ps = PrimeSet(pi)
        classes = enumerate_subgroups(G)
        normals = [c for c in classes if c.class_size == 1]
        halls = pi_hall_subgroups(G, ps)
        for h in halls:
            for a in normals:
                inter = h.rep_set & a.rep_set
                assert len(inter) == pi_part(a.order, ps)


def test_lemma_2d_e_iff_c_for_odd_pi():
    for spec in ("alt:5", "sym:4", "psl2:7", "psl2:11", "dihedral:15"):
        G = construct_named(spec)
        odd = [t for t in (3, 5, 7, 11) if G.order % t == 0]
        for i, s in enumerate(odd):
            for t in odd[i + 1 :]:
                pi = PrimeSet([s, t])
                assert (
                    brute_property(G, pi, "E")[0] == brute_property(G, pi, "C")[0]
                )


def test_lemma_2e_nilpotent_hall_implies_d():
    """A cyclic (hence nilpotent) Hall subgroup forces D."""
    G = construct_named("dihedral:15")  # C15 is a cyclic {3,5}-Hall subgroup
    ok, _ = brute_property(G, PrimeSet([3, 5]), "D")
    assert ok


def test_star_property_on_psl2_13():
    G = construct_named("psl2:13")
    ok, _ = brute_property(G, PrimeSet([3, 7]), "star")
    assert ok


def test_u_follows_d_on_desk_cases():
    for spec, pi in [("psl2:7", (3, 7)), ("psl2:13", (3, 13)), ("alt:5", (2, 5))]:
        G = construct_named(spec)
        d, _ = brute_property(G, PrimeSet(pi), "D")
        if d:
            u, witness = brute_property(G, PrimeSet(pi), "U")
            assert u, witness
