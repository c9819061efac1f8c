"""Tests for the permutation engine: BSGS, lattice enumeration, brute force."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hallpi
from hallpi import perm_engine
from hallpi.arith import PrimeSet, pi_part
from hallpi.lie_catalog import _prime_power
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
    with pytest.raises(ValueError):
        perm_from_cycles("(\uff10 1)", 4)  # a fullwidth digit
    # as a product (0 1 2)(2 1 0) is the identity, as disjoint cycles it is
    # no permutation at all: a point in two cycles is refused, and named
    with pytest.raises(ValueError, match="point 0 is in two cycles"):
        perm_from_cycles("(0 1 2)(2 1 0)", 3)
    with pytest.raises(ValueError, match="point 3 is in two cycles"):
        perm_from_cycles("(0 1)(2 3)(3 4)", 5)


def test_product_and_inverse():
    a = perm_from_cycles("(0 1 2)", 3)
    assert pmul(a, pinv(a)) == identity(3)
    b = perm_from_cycles("(0 1)", 3)
    # left-to-right composition: apply a first
    assert pmul(a, b)[0] == b[a[0]]


_perm_pairs = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n))))


@given(_perm_pairs)
def test_product_and_inverse_on_random_permutations(pair):
    """Degree 1 to 30, degree 1 included, where the product composes
    through the tuple path."""
    a, b = map(tuple, pair)
    n = len(a)
    ab = pmul(a, b)
    assert type(ab) is tuple and len(ab) == n
    assert all(ab[i] == b[a[i]] for i in range(n))
    assert pmul(a, pinv(a)) == identity(n)


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
    # every kind reads its integer as a plain ASCII decimal, in its range
    for spec in ("psl2:0_7", "cyclic:5_0", "cyclic:\uff16", "raw:0_3:(0 1 2)", "alt:+5",
                 "dihedral:2", "alt:0"):
        with pytest.raises(ValueError):
            construct_named(spec)
    # and reads at most MAX_DIGITS digits, never handing int() more
    for spec in ("cyclic:" + "1" * 5000, "raw:3:(0 1 " + "1" * 5000 + ")"):
        with pytest.raises(ValueError, match="5000 digits is longer than MAX_DIGITS = 1234"):
            construct_named(spec)
    # a group needs a positive degree and generators that permute its points
    with pytest.raises(ValueError):
        PermGroup(0, [])
    with pytest.raises(ValueError):
        PermGroup(3, [(0, 0, 1)])


# every q that psl2:q accepts
PSL2_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31)


@pytest.mark.parametrize("q", PSL2_QS)
def test_field_laws(q):
    """``_GF(p, f)`` is a field whose ``primitive`` generates its units, for
    every q of psl2:q."""
    gf = perm_engine._GF(*_prime_power(q))
    assert gf.q == q
    for a in range(q):
        assert gf.add(a, gf.neg(a)) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
        for b in range(q):
            for c in range(q):
                assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
    powers, x = [1], gf.primitive
    while x != 1:
        powers.append(x)
        x = gf.mul(x, gf.primitive)
    assert len(powers) == q - 1


def _psl2_digest(qs) -> str:
    h = hashlib.sha256()
    for q in qs:
        h.update(json.dumps([q, construct_named(f"psl2:{q}").generators]).encode())
    return h.hexdigest()


def test_psl2_generators_are_pinned():
    """One sha256 over the generators of every psl2:q up to q = 16, which
    the relabelled groups of the benchmark are built from: the field each
    build reads its generators off must not change."""
    assert _psl2_digest(PSL2_QS[:10]) == (
        "13367a6de251adbcfebbe715768766770933a22efeec0299673ec56b51cc7435"
    )


def test_psl2_generators_above_16_are_pinned():
    """The same for q = 17 to 31, pinned from the field rule the builds up
    to 16 were pinned with."""
    assert PSL2_QS[10:] == (17, 19, 23, 25, 27, 29, 31)
    assert _psl2_digest(PSL2_QS[10:]) == (
        "644bb43612a8f3c971230ff4aa662b4dddf63f941828d421d1b46692662ef6e5"
    )


def test_build_of_the_wrong_order_is_an_error(monkeypatch):
    """Every build is checked against the order its spec gives: a product
    built from its first block alone has order 2, not 6."""
    direct_product = perm_engine._direct_product
    monkeypatch.setattr(perm_engine, "_direct_product", lambda blocks: direct_product(blocks[:1]))
    with pytest.raises(AssertionError, match="order 2, expected 6"):
        construct_named("product:cyclic:2xcyclic:3")


@pytest.mark.parametrize("spec", ["product:product:cyclic:2xcyclic:3xalt:5",
                                  "product:cyclic:2xproduct:cyclic:3xalt:5"])
def test_a_product_is_its_factors_on_consecutive_blocks_built_once(monkeypatch, spec):
    """Either nesting of C2 x C3 x A5 is one Schreier-Sims run on the
    factors' generators, laid out on points 0-1, 2-4 and 5-9."""
    runs = []
    schreier_sims = perm_engine._schreier_sims
    monkeypatch.setattr(perm_engine, "_schreier_sims",
                        lambda *args: runs.append(args) or schreier_sims(*args))
    G = construct_named(spec)
    assert len(runs) == 1
    assert (G.degree, G.order) == (10, 360)
    assert G.generators == [perm_from_cycles(c, 10)
                            for c in ("(0 1)", "(2 3 4)", "(5 6 7)", "(5 6 7 8 9)")]


def test_a_deep_product_is_read_in_one_pass():
    """A product 24 deep builds in well under a second: the spec is read
    once, left to right, in time linear in its length."""
    start = time.perf_counter()
    G = construct_named("product:" * 24 + "cyclic:2" + "xcyclic:1" * 24)
    assert time.perf_counter() - start < 1
    assert (G.degree, G.order) == (26, 2)


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
            rep = PermGroup(G.degree, c.generators)
            assert rep.order == c.order
            assert all(g in G for g in rep.generators)


def test_enumeration_refuses_above_cap():
    with pytest.raises(OrderLimitError, match="25000"):
        construct_named("sym:9")
    with pytest.raises(OrderLimitError, match="50"):
        construct_named("alt:5", order_bound=50)
    with pytest.raises(OrderLimitError, match="cap 25000"):
        construct_named("raw:8:(0 1);(0 1 2 3 4 5 6 7)")
    with pytest.raises(OrderLimitError, match="cap 1000"):
        construct_named("raw:7:(0 1);(0 1 2 3 4 5 6)", order_bound=1000)


def test_schreier_sims_stops_at_the_cap():
    """A group given by generators is refused while its chain is built, as
    soon as its order is proven above the cap: S_30 (order 30!) here."""
    def sym(n):
        return [perm_from_cycles("(0 1)", n), tuple(range(1, n)) + (0,)]

    with pytest.raises(OrderLimitError, match="group has order above the enumeration cap 25000"):
        PermGroup(30, sym(30))
    assert PermGroup(7, sym(7), order_bound=5040).order == 5040
    with pytest.raises(OrderLimitError, match="cap 5039"):
        PermGroup(7, sym(7), order_bound=5039)


def lattice_dump(G: PermGroup) -> str:
    """G's subgroup classes, one line each in ``enumerate_subgroups``'
    order: order, class size and the recorded generators in cycle form."""
    lines = []
    for cls in enumerate_subgroups(G):
        gens = ";".join(perm_to_cycles(g) for g in cls.generators) or "()"
        lines.append(f"order={cls.order} class_size={cls.class_size} gens={gens}")
    return "\n".join(lines)


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


def test_alt8_solvable_pi_search_is_pinned():
    """alt:8 at pi = {2, 3}: every {2, 3}-subgroup is solvable, so the search
    joins each member only with cyclics normalising it, one per orbit of its
    normaliser.  One sha256 over each class's order, class size, canonical
    and extended members and the extended member's generators."""
    named = construct_named("alt:8")
    G = PermGroup(named.degree, named.generators)  # nothing cached yet
    h = hashlib.sha256()
    for c in pi_subgroups(G, PrimeSet([2, 3])):
        h.update(json.dumps([c.order, c.class_size, sorted(c.rep_set), sorted(c.member),
                             c.member_gens]).encode())
    assert h.hexdigest() == (
        "72ae189835418072a254312ac55baf93cf55c9db55caa37924f2f3d888060df6"
    )


def test_alt8_solvable_pi_search_peaks_under_100_mb(tmp_path):
    """``hallpi brute --group alt:8 --pi 2,3 --prop dpi`` in a child
    process, as CI runs it: alt:8 is not D_{2,3} (exit 1), at a peak RSS of
    at most 100 MB.  The index keeps each walked member's record, its
    conjugates and N_G(K), for as long as G lives: 86.4 MB measured, where
    85.7 MB while each normaliser was dropped once its member was extended
    (Python 3.11.7 on a 2-core x86-64 machine).  The child's peak is its
    VmHWM, the peak since its exec: Linux carries the forking test
    process's peak into ru_maxrss."""
    code = (
        "from hallpi.cli import main\n"
        "code = main(['brute', '--group', 'alt:8', '--pi', '2,3', '--prop', 'dpi'])\n"
        "status = open('/proc/self/status').read()\n"
        "print(code, int(status.split('VmHWM:')[1].split()[0]) / 1024)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hallpi.__file__))}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, check=True,
                          capture_output=True, text=True)
    exit_code, rss_mb = done.stdout.splitlines()[-1].split()
    assert int(exit_code) == 1
    assert float(rss_mb) <= 100, rss_mb


def test_cyclic2000_index_peaks_under_70_mb(tmp_path):
    """``hallpi brute --group cyclic:2000 --pi 3 --prop dpi`` in a child
    process: 4,000,000 points, which the index holds once, as the
    stabiliser chain's own tuples, with only the columns its tables read.
    47.3 MB measured, where 108 MB while the index copied the chain's one
    level and built every column (Python 3.11.7 on a 2-core x86-64
    machine).  The peak is the child's VmHWM, as in the alt:8 test above."""
    code = (
        "from hallpi.cli import main\n"
        "code = main(['brute', '--group', 'cyclic:2000', '--pi', '3', '--prop', 'dpi'])\n"
        "status = open('/proc/self/status').read()\n"
        "print(code, int(status.split('VmHWM:')[1].split()[0]) / 1024)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hallpi.__file__))}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, check=True,
                          capture_output=True, text=True)
    exit_code, rss_mb = done.stdout.splitlines()[-1].split()
    assert int(exit_code) == 0
    assert float(rss_mb) <= 70, rss_mb


def test_search_is_pinned():
    """The search itself, not only its canonical output, for the full
    lattice, the pi-subgroups and the overgroups of a pi-Hall subgroup, for
    every pi of at most three primes dividing |G|.  Two sha256 digests: one
    over each class's order, class size and canonical member, which no
    choice of search path may change, and one over the member the search
    extended and that member's generators, which follow the path."""
    canonical, members = hashlib.sha256(), hashlib.sha256()

    def pin(classes):
        for c in classes:
            canonical.update(json.dumps([c.order, c.class_size, sorted(c.rep_set)]).encode())
            members.update(json.dumps([sorted(c.member), c.member_gens]).encode())

    for spec in ("sym:4", "alt:5", "sym:5", "alt:6", "psl2:7", "psl2:8"):
        G = construct_named(spec)
        pin(enumerate_subgroups(G))
        primes = [p for p in (2, 3, 5, 7) if G.order % p == 0]
        for k in (1, 2, 3):
            for pi in itertools.combinations(primes, k):
                pin(pi_subgroups(G, PrimeSet(pi)))
                pin(hall_overgroups(G, PrimeSet(pi)))
    assert canonical.hexdigest() == (
        "d26f22d6b574b892b5cae7463f6b219e1af870c46c543f613cb982a75c72bf71"
    )
    assert members.hexdigest() == (
        "c828345151e452d12798edf17648287a49fdbdd0d728284b93221b684444c643"
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


@pytest.mark.parametrize("spec, digest", [
    ("psl2:13", "9a89eb6fd091a4453f7593a89a2b15525a98148f3f3482b06b63fc024823a151"),
    ("product:cyclic:3xalt:5",
     "5e06cb575055fab5969475ea724c45363110ff1c23f884fdb8a25d422451d82b"),
])
def test_cyclics_and_canonical_are_pinned(spec, digest):
    """One sha256 over ``ix.cyclics`` and ``ix.canonical``, each entry of
    ``canonical`` that is not a generator listed in ``ix.cyclics`` masked to
    0.  Both groups have cyclic subgroups whose order is not a prime power
    (psl2:13 has 182 elements of order 6), which the walk must not list,
    though ``canonical`` maps each of their generators too: every element
    but the identity has a nonzero entry."""
    ix = perm_engine._index(construct_named(spec))
    listed = {x for _, x in ix.cyclics}
    assert ix.canonical[0] == 0 and all(ix.canonical[1:])
    h = hashlib.sha256()
    h.update(json.dumps(ix.cyclics).encode())
    h.update(json.dumps([c if c in listed else 0 for c in ix.canonical]).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("spec", ENGINE_PIN_GROUPS)
def test_products_match_permutation_products(spec):
    """Composed products and conjugates, by x and by x^-1, agree with
    tuple-permutation arithmetic: for every x and e up to order 360, and for
    a fixed sample of x above it."""
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
        assert [products(e) for e in es] == x_times
        # x^-1 e x = (x^-1 (x^-1 e)^-1)^-1 and x z x^-1 = x (x z^-1)^-1
        conjugate = ix.conj(x)
        assert [conjugate(e) for e in es] == [inv[x_inv_times[inv[x_inv_times[e]]]] for e in es]
        conjugate = ix.conj(inv[x])
        assert [conjugate(z) for z in es] == [x_times[inv[x_times[inv[z]]]] for z in es]


@pytest.mark.parametrize("spec", ENGINE_PIN_GROUPS)
def test_generator_tables_match_permutation_products(spec):
    """For every generator g of G and every element e, ``rmul[g]`` takes e
    to e * g and ``conj_table[g]`` to g^-1 * e * g, as tuple-permutation
    arithmetic has them, and ``conj(g)`` reads g's table."""
    named = construct_named(spec)
    G = PermGroup(named.degree, named.generators)  # nothing cached yet
    perms = G.elements()
    ix = G._index
    where = {p: i for i, p in enumerate(perms)}
    assert sorted(ix.rmul) == sorted(ix.conj_table) == sorted(ix.gens)
    for g, pg in zip(ix.gens, G.generators):
        assert ix.conj(g).__self__ is ix.conj_table[g]
        assert ix.rmul[g] == [where[pmul(pe, pg)] for pe in perms]
        assert ix.conj_table[g] == [where[pmul(pmul(pinv(pg), pe), pg)] for pe in perms]


@pytest.mark.parametrize("spec", ["sym:4", "alt:5", "psl2:7"])
def test_is_abelian_matches_permutation_products(spec):
    """``_is_abelian``, which composes products through base images, agrees
    with tuple-permutation arithmetic on whether every pair of a class's
    member generators commutes: for every pi-subgroup class at each pi of
    one or two primes dividing |G|."""
    G = construct_named(spec)
    primes = [p for p in (2, 3, 5, 7) if G.order % p == 0]
    abelian = set()
    for pi in itertools.chain(itertools.combinations(primes, 1), itertools.combinations(primes, 2)):
        for c in pi_subgroups(G, PrimeSet(pi)):
            gens = [c._ix.perms[i] for i in c.member_gens]
            commute = all(pmul(a, b) == pmul(b, a) for a, b in itertools.combinations(gens, 2))
            assert perm_engine._is_abelian(c) is commute, (pi, c.order)
            abelian.add(commute)
    assert abelian == {True, False}


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


@pytest.mark.parametrize("spec", ENGINE_PIN_GROUPS + ["psl2:16", "raw:3:", "cyclic:2", "raw:1:()"])
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
    """A class member is joined with one cyclic per orbit of its normaliser
    acting by conjugation: on psl2:13 at pi = {3}, 101 joins, those that
    build the normalisers included, where one per orbit of the member
    itself made 332 and one per cyclic 2125.  The search starts at the
    pi-Hall member H, whose record the pi-subgroup search made, so the two
    joins that built N_G(H) there are not made again (103 joins while each
    search walked its own start).  A join stops at the first cyclic whose
    join with the same member, or with the member whose join found its
    class, already gave the whole group, and such a cyclic is not joined
    again: 1 of them closes to the whole group, where 10 did while each
    class started its stop set empty (224 joins), and 286 without the
    stop."""
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
    assert len(results) == 101
    assert sum(J is not None and len(J) == G.order for J in results) == 1


def test_solvable_pi_search_joins_only_normalising_cyclics(monkeypatch):
    """Every {2, 3}-subgroup of sym:5 is solvable, so a class member is
    joined only with the cyclics normalising it, one per orbit of its
    normaliser: 44 joins, those that build the normalisers included, find
    the 14 classes, where one per orbit of the member made 84 and joining
    every cyclic orbit 241."""
    named = construct_named("sym:5")
    expected = [c.order for c in pi_subgroups(named, PrimeSet([2, 3]))]
    G = PermGroup(named.degree, named.generators)  # nothing cached yet
    results = []
    join = _Index.join
    monkeypatch.setattr(_Index, "join",
                        lambda self, *a: results.append(join(self, *a)) or results[-1])
    classes = pi_subgroups(G, PrimeSet([2, 3]))
    assert [c.order for c in classes] == expected and len(classes) == 14
    assert len(results) <= 50


@pytest.mark.parametrize("spec", ["sym:4", "alt:5", "psl2:7"])
def test_normaliser_is_the_stabiliser_by_conjugation(spec):
    """``_Index.conjugacy_class`` of every member K of every class of
    pi-subgroups and of overgroups of a pi-Hall subgroup, at every pi of at
    most two primes dividing |G|, against conjugating K by every element as
    tuple permutations: the conjugates are {y^-1 K y : y in G}, each once;
    N_G(K) is {y : y^-1 K y = K}, its generators generate it, and the
    class size times |N_G(K)| is |G|.  The extended member of each
    overgroup class contains the first pi-Hall subgroup's member H, as U's
    count of H's conjugates needs."""
    G = construct_named(spec)
    perms = G.elements()
    ix, where = G._index, {p: i for i, p in enumerate(perms)}
    primes = [p for p in (2, 3, 5, 7) if G.order % p == 0]
    members = set()
    for k in (1, 2):
        for pi in itertools.combinations(primes, k):
            overgroups = hall_overgroups(G, PrimeSet(pi))
            for M in overgroups:
                assert pi_hall_subgroups(G, PrimeSet(pi))[0].member <= M.member
            for c in pi_subgroups(G, PrimeSet(pi)) + overgroups:
                members.update(c.orbit)
    for K in members:
        conjugates, rep, N, N_gens = ix.conjugacy_class(K, ix.reduce(K))
        by_y = [frozenset(where[pmul(pmul(pinv(py), perms[k]), py)] for k in K)
                for py in perms]
        assert len(set(conjugates)) == len(conjugates) and set(conjugates) == set(by_y)
        assert rep == min(by_y, key=sorted)
        assert len(conjugates) * len(N) == G.order
        assert N == frozenset(y for y, C in enumerate(by_y) if C == K)
        assert ix.join(ix.trivial, N_gens, ix.size) == N


def test_a_class_record_is_filled_once_per_index(monkeypatch):
    """The pi-subgroup search fills the record of each member it extends,
    and its class holds the record's conjugates and canonical member.  A
    later ``conjugacy_class`` call for the same K, with other generators,
    returns the same orbit, canonical member, N_G(K) and generators of N,
    without a walk; an index of a new copy of the group walks K again."""
    named = construct_named("psl2:7")
    G = PermGroup(named.degree, named.generators)  # nothing cached yet
    walks = []
    walk = _Index._walk
    monkeypatch.setattr(_Index, "_walk",
                        lambda self, K, gens: walks.append((self, K)) or walk(self, K, gens))
    H = pi_hall_subgroups(G, PrimeSet([3, 7]))[0]
    ix = G._index
    assert walks.count((ix, H.member)) == 1
    first = ix.conjugacy_class(H.member, H.member_gens)
    second = ix.conjugacy_class(H.member, ix.reduce(H.member)[::-1])
    assert all(a is b for a, b in zip(first, second, strict=True))
    assert first[0] is H.orbit and first[1] is H.rep_set and type(first[3]) is tuple
    assert walks.count((ix, H.member)) == 1
    copy = PermGroup(named.degree, named.generators)
    copy.elements()
    assert copy._index.conjugacy_class(H.member, H.member_gens)[0] == H.orbit
    assert walks[-1] == (copy._index, H.member)


def test_generators_conjugate_through_their_tables_only():
    """G's generators conjugate through the tables the closure check
    builds: after the {13}-subgroup search on psl2:13 (order 1092),
    ``conj`` of each generator reads its table, and each generator's two
    tables hold an entry for each of the 1092 elements."""
    named = construct_named("psl2:13")
    G = PermGroup(named.degree, named.generators)  # nothing cached yet
    pi_subgroups(G, PrimeSet([13]))
    ix = G._index
    assert ix.gens and all(ix.conj(g).__self__ is ix.conj_table[g] for g in ix.gens)
    assert all(len(ix.conj_table[g]) == len(ix.rmul[g]) == G.order for g in ix.gens)


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


@pytest.mark.parametrize("spec, overgroup, pair", [
    # A5 x 1 holds the Hall A4 and a maximal S3
    ("product:alt:5xcyclic:5",
     (60, ["(2 3 4)", "(1 2)(3 4)", "(0 1)(3 4)"]),
     [(12, ["(2 3 4)", "(1 2)(3 4)"]), (6, ["(2 3 4)", "(0 1)(3 4)"])]),
    # PSL_2(7) x 1 holds two classes of S4, every maximal one of Hall order
    ("product:psl2:7xcyclic:7",
     (168, ["(2 6 7)(3 5 4)", "(1 2 4)(3 6 5)", "(0 1)(2 3)(4 6)(5 7)"]),
     [(24, ["(1 4 6)(2 7 3)", "(0 1)(2 3)(4 6)(5 7)", "(0 2 1 3)(4 5 6 7)"]),
      (24, ["(1 5 7)(2 4 3)", "(0 1)(2 3)(4 6)(5 7)", "(0 2 1 3)(4 5 6 7)"])]),
])
def test_u_overgroup_witness_is_pinned(monkeypatch, spec, overgroup, pair):
    """U's witness for an overgroup of the pi-Hall subgroup H that is not
    D_pi, at pi = {2, 3}: the overgroup, H and a maximal pi-subgroup of it
    that is no conjugate of H in it.  Neither group is D_pi, so the
    theorem never lets U reach this witness; U's D pre-check is made to
    pass by reporting one Hall class as the only maximal class."""
    monkeypatch.setattr(perm_engine, "maximal_pi_subgroups",
                        lambda G, pi: pi_hall_subgroups(G, pi)[:1])
    holds, witness = brute_property(construct_named(spec), PrimeSet([2, 3]), "U")
    assert not holds
    assert witness == {
        "overgroup": {"order": overgroup[0], "gens": overgroup[1]},
        "witness_pair": [{"order": order, "gens": gens} for order, gens in pair],
    }
