"""Concrete permutation-group computation.

Schreier-Sims base and strong generating sets, subgroup enumeration up to
conjugacy, and direct brute-force evaluation of the Hall properties E, C,
D, U and the normal-abelian-tail property ("star").

Permutations are tuples mapping point i to its image; products compose
left-to-right (apply a, then b).  Subgroup search indexes the elements as
positions in the sorted ``elements()``, read off the stabiliser chain on
the first ``elements()`` call, checked to be closed under the generators
and cached on the group; a subgroup is a frozenset of indices.  Elements
multiply through base images: an element is fixed by its images of the
BSGS base, and (x * e)[b] = e[x[b]], so a product is one lookup per base
point.  G's own generators act through flat tables that the closure
check builds, one entry per element: right multiplication and
conjugation, which ``_Index.conjugacy_class`` reads.  Every other
product and conjugate is composed on each call, with no memo
(``_Index.products`` and ``_Index.conj``).

One cyclic-extension routine, ``_extend``, joins class members with cyclic
subgroups of prime-power order, skipping the joins that could only return
a subgroup already found (its docstring says which).  A member K is
joined with one cyclic per orbit of its normaliser N_G(K), as conjugating
by N_G(K) maps <K, x> to a conjugate.  One walk over K's conjugates,
``_Index.conjugacy_class``, lists them and builds N_G(K): it records an
element conjugating K to each conjugate, each edge back to a conjugate
already found gives a Schreier generator, and those generate N_G(K),
which has |G| / |class| elements.  The index keeps what the walk found
as K's record, so each member is walked once per group, and every search
on the group, and U's count, reads the same conjugates and N_G(K).
Each query enumerates only what it needs:

- ``enumerate_subgroups``: the full lattice, from the trivial group.
- ``pi_subgroups`` (E, C, D and star): the pi-subgroups only, joining
  cyclic subgroups of pi-prime-power order and dropping a join once it
  passes |G|_pi or when its order is not a pi-number.  When every
  pi-subgroup is solvable, a member is joined only with the cyclics
  normalising it.
- ``hall_overgroups`` (U): the subgroups containing one pi-Hall subgroup
  H, extended from it; U counts the maximal pi-subgroups inside each
  against H's conjugates there.

Complete-or-refuse: ``PermGroup`` raises ``OrderLimitError`` once
Schreier-Sims proves |G| above its order cap (``DEFAULT_MAX_ORDER`` unless
raised explicitly), so no enumeration checks the cap again or truncates.
``construct_named`` reads a spec once, as its factors, and refuses it from
their orders and degrees (``MAX_ENTRIES`` bounds |G| times the degree)
before one Schreier-Sims run builds it.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from math import gcd, prod
from operator import itemgetter

from .arith import DigitsError, PrimeSet, pi_part, read_decimal
from .lie_catalog import GroupId, _prime_power, group_order

__all__ = [
    "Perm",
    "PermGroup",
    "SubgroupClass",
    "OrderLimitError",
    "DEFAULT_MAX_ORDER",
    "MAX_ENTRIES",
    "identity",
    "pmul",
    "pinv",
    "perm_from_cycles",
    "perm_to_cycles",
    "construct_named",
    "enumerate_subgroups",
    "pi_subgroups",
    "pi_hall_subgroups",
    "hall_overgroups",
    "maximal_pi_subgroups",
    "brute_property",
]

Perm = tuple[int, ...]

DEFAULT_MAX_ORDER = 25000


class OrderLimitError(RuntimeError):
    """Raised when a group would exceed the configured order cap."""


def _refuse(what: str, cap: int):
    raise OrderLimitError(f"{what} the enumeration cap {cap}; "
                          "raise the cap explicitly to proceed")


# ---------------------------------------------------------------------------
# permutation primitives


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def pmul(a: Perm, b: Perm) -> Perm:
    """Product 'apply a, then b': one ``itemgetter`` call, except at degree
    1, where ``itemgetter`` of one point would return a bare int."""
    return itemgetter(*a)(b) if len(a) > 1 else tuple(map(b.__getitem__, a))


def pinv(a: Perm) -> Perm:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def _check_perm(images, degree: int) -> Perm:
    p = tuple(images)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise ValueError(f"not a permutation of {degree} points: {images}")
    return p


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def perm_from_cycles(text: str, degree: int) -> Perm:
    """Parse 0-based cycle notation like ``(0 1 2)(3 4)``: disjoint cycles,
    so a point in two cycles is a ValueError, not a product."""
    body = text.strip()
    if body in ("", "()"):
        return identity(degree)
    if not re.fullmatch(r"(?:\([0-9\s,]*\)\s*)+", body):
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(degree))
    used: set[int] = set()
    for m in _CYCLE_RE.finditer(body):
        pts = [read_decimal(tok) for tok in re.split(r"[,\s]+", m.group(1).strip()) if tok]
        if any(pt >= degree or pt < 0 for pt in pts):
            raise ValueError(f"point out of range in {text!r}")
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle {m.group(0)!r}")
        if again := used.intersection(pts):
            raise ValueError(f"point {min(again)} is in two cycles of {text!r}; "
                             "the cycles must be disjoint")
        used.update(pts)
        for i, pt in enumerate(pts):
            images[pt] = pts[(i + 1) % len(pts)]
    return _check_perm(images, degree)


def perm_to_cycles(a: Perm) -> str:
    seen = set()
    out = []
    for i in range(len(a)):
        if i in seen or a[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        j = a[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = a[j]
        seen.add(i)
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) if out else "()"


# ---------------------------------------------------------------------------
# Schreier-Sims


def _sift(g: Perm, base: list[int], transversals: list[dict[int, Perm]],
          start: int = 0, inverse=pinv) -> tuple[Perm, int]:
    """Sift g down the stabiliser chain from level ``start``: the residue and
    the level it stopped at, ``len(base)`` when it passed every level.
    ``inverse`` inverts a transversal element; Schreier-Sims memoizes it."""
    for i in range(start, len(base)):
        img = g[base[i]]
        if img not in transversals[i]:
            return g, i
        g = pmul(g, inverse(transversals[i][img]))
    return g, len(base)


def _schreier_sims(degree: int, gens: list[Perm], order_bound: int):
    """Deterministic Schreier-Sims; returns (base, transversals).  Raises
    ``OrderLimitError`` once the transversals built so far multiply to more
    than ``order_bound``, a lower bound on |G|: each level's orbit is taken
    under a subgroup of the point stabiliser."""
    ident = identity(degree)
    gens = [g for g in gens if g != ident]

    base: list[int] = []
    for g in gens:
        if all(g[b] == b for b in base):
            base.append(min(p for p in range(degree) if g[p] != p))
    stab_gens: list[list[Perm]] = [
        [g for g in gens if all(g[b] == b for b in base[:i])] for i in range(len(base))
    ]
    transversals: list[dict[int, Perm]] = [dict() for _ in base]
    inverses: dict[Perm, Perm] = {}  # of the transversal elements used so far

    def inverse(t: Perm) -> Perm:
        t_inv = inverses.get(t)
        if t_inv is None:
            t_inv = inverses[t] = pinv(t)
        return t_inv

    def rebuild_transversal(i: int) -> None:
        beta = base[i]
        trans = {beta: ident}
        queue = [beta]
        for pt in queue:  # grows while it is read
            for g in stab_gens[i]:
                img = g[pt]
                if img not in trans:
                    trans[img] = pmul(trans[pt], g)
                    queue.append(img)
        transversals[i] = trans
        if prod(map(len, transversals)) > order_bound:  # 0 while a level is empty
            _refuse("group has order above", order_bound)

    for i in range(len(base)):
        rebuild_transversal(i)

    i = len(base) - 1
    while i >= 0:
        complete = True
        for pt in list(transversals[i]):
            t_pt = transversals[i][pt]
            for g in stab_gens[i]:
                sg = pmul(t_pt, g)
                rep = transversals[i][sg[base[i]]]
                if sg == rep:  # the Schreier generator sg * rep^-1 is trivial
                    continue
                h, j = _sift(pmul(sg, inverse(rep)), base, transversals, i + 1, inverse)
                if h != ident:
                    complete = False
                    if j == len(base):
                        base.append(min(p for p in range(degree) if h[p] != p))
                        stab_gens.append([])
                        transversals.append({})
                    for level in range(i + 1, j + 1):
                        stab_gens[level].append(h)
                        rebuild_transversal(level)
                    i = j
                    break
            if not complete:
                break
        if complete:
            i -= 1

    return base, transversals


class PermGroup:
    """Immutable permutation group with a BSGS, exact order and membership;
    a group of order above ``order_bound`` is an ``OrderLimitError``."""

    def __init__(self, degree: int, generators, order_bound: int = DEFAULT_MAX_ORDER):
        if degree < 1:
            raise ValueError("degree must be positive")
        self.degree = degree
        self.generators: list[Perm] = []
        seen = set()
        for g in generators:
            p = _check_perm(g, degree)
            if p not in seen:
                seen.add(p)
                self.generators.append(p)
        self.name: str | None = None  # set by construct_named
        self.base, self._transversals = _schreier_sims(degree, self.generators, order_bound)
        self.order: int = prod(len(t) for t in self._transversals) if self.base else 1
        self._index: _Index | None = None  # built by elements()
        self._subgroups: dict = {}  # cached lattice, pi-posets and overgroups

    def contains(self, p) -> bool:
        g = _check_perm(p, self.degree)
        return _sift(g, self.base, self._transversals)[0] == identity(self.degree)

    __contains__ = contains

    def elements(self) -> list[Perm]:
        """All elements, sorted, read off the stabiliser chain; cached with
        their integer index."""
        if self._index is None:
            self._index = _Index(self)
        return self._index.perms

    def __repr__(self) -> str:
        label = self.name or "PermGroup"
        return f"<{label} degree={self.degree} order={self.order}>"


# ---------------------------------------------------------------------------
# named constructions


class _GF:
    """GF(q), q = p^f, as GF(p)[x] modulo x^f + tail, its elements encoded as
    the ints whose base-p digits are their coefficients, lowest first.  The
    tail is the first, in increasing order, modulo which some element has
    multiplicative order q - 1 (only a field has one); ``primitive`` is the
    least such element, and ``mul`` and ``inv`` read its exp and log tables.
    """

    def __init__(self, p: int, f: int):
        self.p, self.f, self.q = p, f, p**f
        for tail in map(self._digits, range(self.q)):
            if f > 1 and any((c**f + sum(m * c**i for i, m in enumerate(tail))) % p == 0
                             for c in range(p)):
                continue  # a root: reducible, skip before listing any powers
            for a in range(1, self.q):
                powers = [1]  # a^0, a^1, ... before the first power that is 1
                while len(powers) < self.q and (x := self._times(powers[-1], a, tail)) != 1:
                    powers.append(x)
                if len(powers) == self.q - 1:
                    self.primitive = a
                    self._exp = powers + powers  # lambda^i for 0 <= i < 2(q - 1)
                    self._log = {e: i for i, e in enumerate(powers)}
                    return
        raise AssertionError("no irreducible polynomial found")

    def _digits(self, a: int) -> list[int]:
        return [a // self.p**i % self.p for i in range(self.f)]

    def _encode(self, digits: list[int]) -> int:
        return sum(d * self.p**i for i, d in enumerate(digits))

    def _times(self, a: int, b: int, tail: list[int]) -> int:
        """a * b modulo x^f + tail by shift and add: r -> r*x + d*b for each
        digit d of a from the top, where x^f = -tail."""
        r, db = [0] * self.f, self._digits(b)
        for d in reversed(self._digits(a)):
            r = [(s - r[-1] * m + d * c) % self.p for s, m, c in zip([0] + r[:-1], tail, db)]
        return self._encode(r)

    def add(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        return self._encode([(-x) % self.p for x in self._digits(a)])

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError
        return self._exp[self.q - 1 - self._log[a]]


def _psl2(p: int, f: int) -> list[Perm]:
    """Generators of the natural action of PSL_2(q), q = p^f, on the q+1
    projective points.

    Points 0..q-1 are the elements of ``_GF(p, f)`` (0 is zero), point q is
    infinity.  Generated by x -> x+1, x -> l^2 x (l = ``_GF.primitive``) and
    x -> -1/x; the squared multiplier keeps the scaling inside PSL rather
    than PGL.
    """
    gf = _GF(p, f)
    q = infinity = gf.q
    trans = [gf.add(e, 1) for e in range(q)] + [infinity]
    inv = [infinity] + [gf.neg(gf.inv(e)) for e in range(1, q)] + [0]
    gens = [tuple(trans), tuple(inv)]
    if q > 3:
        lam2 = gf.mul(gf.primitive, gf.primitive)
        gens.append(tuple(gf.mul(lam2, e) for e in range(q)) + (infinity,))
    return gens


def _cycle(n: int, first: int = 0) -> Perm:
    """The cycle (first first+1 ... n-1) on n points."""
    return tuple(range(first)) + tuple(range(first + 1, n)) + (first,)


_PSL2_MAX_Q = 31  # psl2:q takes every prime power 2 <= q <= this
_PREFIXES = re.compile("(?:product:)*")  # the product: prefixes opening a factor

# The bound on |G| times the degree of a named group: the points of its
# element list, which the stabiliser chain and the search hold about once
# each.  `hallpi brute --group cyclic:n --pi 3 --prop dpi` (n^2 points)
# took 0.30 s and 47 MB at n = 2000, 0.50 s and 86 MB at n = 3000, and
# 0.74 s and 145 MB at n = 4096, the bound: about 8 bytes a point, the
# chain's one level of tuples, held once (Python 3.11.7, one process on a
# 2-core x86-64 machine, interpreter start included).  psl2:31 has 476,160.
MAX_ENTRIES = 2**24


def construct_named(spec: str, order_bound: int = DEFAULT_MAX_ORDER) -> PermGroup:
    """Build a named group: alt:n, sym:n, cyclic:n, dihedral:n, psl2:q,
    raw:<degree>:<cycles;...> or product:<spec>x<spec>.  No kind, number or
    cycle holds an 'x', so the 'x's split a spec into its factors, each
    behind the 'product:' prefixes opening there, and at any nesting it is
    their direct product on consecutive point blocks, built once.  A group
    above ``order_bound`` is an ``OrderLimitError``: from the factors'
    orders before any work (a lower bound on |G| where a raw factor's is
    unknown) or during the build.  So is a group with |G| times its degree
    above ``MAX_ENTRIES``: from the same bound before any work, and from
    the built order, before any element is listed, where a raw factor's
    order was unknown.  A build whose order is not the order its spec gives
    is an ``AssertionError``."""
    spec = spec.strip()
    texts = spec.split("x")
    prefixes = [_PREFIXES.match(text).end() for text in texts]
    # each prefix opens two sides and each factor fills one: one stays open until the last
    open_sides = list(accumulate((k // len("product:") - 1 for k in prefixes), initial=1))
    if 0 in open_sides[1:-1] or open_sides[-1]:
        raise ValueError(f"malformed product spec {spec!r}: "
                         "each 'product:' joins two sides with one 'x'")
    factors = [_read_spec(text[k:], order_bound + 1) for text, k in zip(texts, prefixes)]
    known = prod(order or 1 for order, _, _ in factors)
    if known > order_bound:
        _refuse(f"group {spec} has order above", order_bound)
    degree = sum(d for _, d, _ in factors)
    if known * degree > MAX_ENTRIES:
        raise OrderLimitError(f"group {spec} has |G| * degree of at least {known * degree} "
                              f"points, above MAX_ENTRIES = {MAX_ENTRIES}")
    G = PermGroup(*_direct_product([(d, gens()) for _, d, gens in factors]), order_bound)
    if all(order for order, _, _ in factors):
        if G.order != known:
            raise AssertionError(f"{spec} construction has order {G.order}, expected {known}")
    elif G.order * degree > MAX_ENTRIES:  # a raw factor's order is known only now
        raise OrderLimitError(f"group {spec} has |G| * degree of {G.order * degree} "
                              f"points, above MAX_ENTRIES = {MAX_ENTRIES}")
    G.name = spec
    return G


def _read_spec(spec: str, cap: int) -> tuple:
    """Read one factor's spec: min(|G|, cap) as the spec gives it, or None
    for a raw spec, the degree and a function listing the generators.  An
    alt or sym order stops growing at the cap, so sym:60 is never
    multiplied out in full.  A spec naming no group is a ValueError."""
    kind, _, rest = spec.partition(":")
    if kind == "raw":
        deg_txt, _, cycles = rest.partition(":")
        degree = _positive_int(deg_txt, "raw")
        return None, degree, lambda: [
            perm_from_cycles(c, degree) for c in cycles.split(";") if c.strip()]
    if kind == "psl2":
        q = _positive_int(rest, kind)
        if q < 2 or q > _PSL2_MAX_Q:
            raise ValueError(f"psl2:q supports prime powers 2 <= q <= {_PSL2_MAX_Q}")
        p, f = _prime_power(q)
        return min(group_order(GroupId("A", 2, p, f)), cap), q + 1, lambda: _psl2(p, f)
    if kind not in ("alt", "sym", "cyclic", "dihedral"):
        raise ValueError(f"unknown group spec {spec!r}")
    n = _positive_int(rest, kind)
    if kind == "cyclic":
        return min(n, cap), n, lambda: [_cycle(n)] if n > 1 else []
    if kind == "dihedral":
        if n < 3:
            raise ValueError("dihedral:n requires n >= 3")
        # generated by x -> x + 1 and x -> -x mod n
        return min(2 * n, cap), n, lambda: [_cycle(n), _cycle(n)[::-1]]
    order = 1
    for k in range(3 if kind == "alt" else 2, n + 1):  # n!/2 = 3 * ... * n
        order *= k
        if order >= cap:
            break
    if kind == "sym":
        return min(order, cap), n, lambda: (
            [perm_from_cycles("(0 1)", n), _cycle(n)] if n > 1 else [])
    # (0 1 2) with (0 1 ... n-1) for odd n, (1 2 ... n-1) for even n
    return min(order, cap), n, lambda: (
        [perm_from_cycles("(0 1 2)", n), _cycle(n, 1 - n % 2)] if n > 2 else [])


def _positive_int(text: str, label: str) -> int:
    try:
        n = read_decimal(text)
    except DigitsError as exc:
        raise ValueError(f"bad {label} parameter: {exc}") from None
    except ValueError:
        raise ValueError(f"bad {label} parameter {text!r}") from None
    if n < 1:
        raise ValueError(f"bad {label} parameter {text!r}")
    return n


def _direct_product(blocks: list[tuple[int, list[Perm]]]) -> tuple[int, list[Perm]]:
    """The degree and generators of the direct product of the groups the
    blocks' generators generate, on consecutive blocks of points."""
    degree = sum(d for d, _ in blocks)
    gens, offset = [], 0
    for d, block_gens in blocks:
        before, after = tuple(range(offset)), tuple(range(offset + d, degree))
        gens += [before + tuple(x + offset for x in g) + after for g in block_gens]
        offset += d
    return degree, gens


# ---------------------------------------------------------------------------
# integer-indexed elements


class _Index:
    """The elements of a group as indices into its sorted ``elements()``,
    multiplied through base images.

    Every element is h * t for one t in the top transversal of the
    stabiliser chain and one h in the stabiliser below it, so the elements
    are the products of one transversal element per level: |G| products,
    with no search.  A set holding the identity and closed under the
    generators is all of <gens>, so every s * g, for s listed and g a
    generator, must have the base images of a listed element; a chain that
    missed a coset representative fails this with ``AssertionError``.  The
    check trusts the base to be a base of <gens>, as Schreier-Sims stops
    only when every Schreier generator sifts to the identity.

    A permutation is fixed by its images of a base (Seress, *Permutation
    Group Algorithms*, ch. 4), and ``by_base`` maps each element's base
    images to its index.  As (x * e)[b] = e[x[b]], the key of x * e is e's
    images of x's base images: one lookup per base point, with no walk.
    Conjugates compose the same way: (y^-1 * e * y)[b] = y[e[y^-1[b]]], so
    the key of y^-1 * e * y is y's images of e's images of y^-1's base
    images.
    ``operator.itemgetter`` returns a tuple only for two or more points, so
    a base shorter than that is repeated (the trivial group's empty base
    becomes point 0, twice).  Every element's base images, and the levels
    of the chain multiplied out, are read with one ``itemgetter`` call.

    The closure check composes s * g for every element s and generator g
    of G, and keeps the indices as the flat table ``rmul[g]``.  Once every
    generator has passed, ``conj_table[g]`` maps each e to g^-1 * e * g,
    read off the same columns: its image of b is column g^-1[b] mapped
    through g.  Each is one pass over the columns per generator, with no
    Python call per element, and ``conjugacy_class`` reads them.  No other
    column is built.

    ``products(x)`` multiplies by x on the left: it composes each product
    x * e on every call, with no memo, and a join asks only for the
    products it needs.  ``conj(y)`` is the one way to conjugate by y:
    it reads y's table when y generates G, and otherwise composes each
    conjugate on every call, with no memo."""

    def __init__(self, G: PermGroup):
        levels = G._transversals[::-1]  # multiplied out from the deepest's own tuples
        perms = list(levels[0].values()) if levels else [identity(G.degree)]
        for trans in levels[1:]:
            times = [itemgetter(*h) for h in perms]  # h * t is h's getter applied to t
            perms = [h_times(t) for t in trans.values() for h_times in times]
        perms.sort()
        n = len(perms)
        self.perms = perms
        self.size = n
        self.base = base = G.base if len(G.base) > 1 else (G.base or [0]) * 2
        self._base_images = itemgetter(*base)
        g_invs = [pinv(g) for g in G.generators]
        read = {*base, *(g_inv[b] for g_inv in g_invs for b in base)}
        cols = {p: list(map(itemgetter(p), perms)) for p in read}  # every element's image of p
        self.by_base = by_base = dict(zip(zip(*(cols[b] for b in base)), range(n)))
        if len(by_base) != n:
            raise AssertionError("the base images do not separate the elements")
        rmul = []
        for g in G.generators:  # (s * g)[b] = g[s[b]]
            keys = zip(*(map(g.__getitem__, cols[b]) for b in base))
            try:
                rmul.append(list(map(by_base.__getitem__, keys)))
            except KeyError:
                raise AssertionError("the elements are not closed under the generators") from None
        self.classes: dict[frozenset, tuple] = {}  # K -> K's conjugacy_class record
        self.trivial = frozenset([0])  # the identity sorts first
        self.whole = frozenset(range(n))
        self.gens = [self.index(g) for g in G.generators]
        self.rmul = dict(zip(self.gens, rmul))
        self.conj_table = {  # (g^-1 * e * g)[b] = g[e[g^-1[b]]]
            x: list(map(by_base.__getitem__,
                        zip(*(map(g.__getitem__, cols[g_inv[b]]) for b in base))))
            for x, g, g_inv in zip(self.gens, G.generators, g_invs)
        }

    def index(self, p: Perm) -> int:
        """The index of the element p."""
        return self.by_base[self._base_images(p)]

    def products(self, x: int):
        """Left multiplication by x as a function, e -> x * e, composed on
        each call: the base images of x * e are e's images of x's."""
        perms, by_base = self.perms, self.by_base
        key = itemgetter(*self._base_images(perms[x]))
        return lambda e: by_base[key(perms[e])]

    def conj(self, y: int):
        """Conjugation by y as a function, e -> y^-1 * e * y: a lookup in
        the table built up front when y generates G, and otherwise composed
        on each call, as the image of b is y[e[y^-1[b]]]."""
        table = self.conj_table.get(y)
        if table is not None:
            return table.__getitem__
        p, perms, by_base = self.perms[y], self.perms, self.by_base
        read = itemgetter(*self._base_images(pinv(p)))  # y^-1's base images
        return lambda e: by_base[itemgetter(*read(perms[e]))(p)]

    def join(self, R: frozenset, gens: list[int], limit: int,
             stop: set[int] | frozenset[int] = frozenset()) -> frozenset | None:
        """The subgroup generated by ``gens``, which contains the subgroup R;
        None once it has more than ``limit`` elements, or once a new coset
        holds a generator of a cyclic in ``stop`` (its ``canonical`` entry).
        A subgroup with more than half of the elements is the whole group."""
        maps = [self.products(g) for g in gens]
        K = set(R)
        cosets = [list(R)]  # left cosets w * R, which partition K
        for coset in cosets:
            for m in maps:
                if m(coset[0]) in K:
                    continue
                new = list(map(m, coset))
                if stop and not stop.isdisjoint(map(self.canonical.__getitem__, new)):
                    return None
                K.update(new)
                if len(K) > limit:
                    return None
                if 2 * len(K) > self.size:
                    return self.whole
                cosets.append(new)
        return frozenset(K)

    def conjugacy_class(self, K: frozenset, gens: list[int]
                        ) -> tuple[tuple[frozenset, ...], frozenset, frozenset, tuple[int, ...]]:
        """The record of the subgroup K generated by ``gens``: its conjugates
        in the order found, its canonical member (the least as a sorted index
        list), N_G(K) and a tuple of elements generating N_G(K).  The first
        call for K fills the record from one ``_walk``, and it is kept in
        ``classes`` for as long as the index lives: every later call for K
        returns the same objects, whatever ``gens`` it passes, so N's
        generators need not start with the caller's."""
        record = self.classes.get(K)
        if record is None:
            record = self.classes[K] = self._walk(K, gens)
        return record

    def _walk(self, K: frozenset, gens: list[int]):
        """K's record, from one walk over its conjugates.

        The walk maps each conjugate A to an element t_A with
        t_A^-1 * K * t_A = A: t_P * g for the conjugate P it was reached
        from as A = P^g, g a generator of G, and both steps read g's tables
        (``conj_table`` and ``rmul``).  An edge A -> B = A^g reaching a
        conjugate already found gives the Schreier generator
        t_A * g * t_B^-1, which normalises K (Seress, *Permutation Group
        Algorithms*, 4.1).  N_G(K) is generated by ``gens`` and those not
        yet generated, joined in the order found, and has |G| / |class|
        elements (orbit-stabiliser); the joins stop when it has them, at
        once when K is self-normalising.  Where K is its only conjugate it
        is normal, and N_G(K) is G with G's generators, with no join; the
        N-orbits that ``_extend`` walks are the same sets whichever
        generators of N it conjugates by."""
        tables = [(self.conj_table[g].__getitem__, self.rmul[g]) for g in self.gens]
        t = {K: 0}  # the identity sorts first
        stack = [K]
        edges = []  # (t_A * g, t_B) for each edge to a conjugate already found
        while stack:
            A = stack.pop()
            t_A = t[A]
            for conj, rmul in tables:
                B = frozenset(map(conj, A))
                t_Ag, t_B = rmul[t_A], t.get(B)
                if t_B is None:
                    t[B] = t_Ag
                    stack.append(B)
                elif t_Ag != t_B:  # else the Schreier generator is the identity
                    edges.append((t_Ag, t_B))
        orbit = tuple(t)
        if len(orbit) == 1:
            N, N_gens = self.whole, self.gens
        else:
            N, N_gens = K, list(gens)
            target = self.size // len(orbit)
            perms = self.perms
            for t_Ag, t_B in edges:
                if len(N) == target:
                    break
                s = self.index(pmul(perms[t_Ag], pinv(perms[t_B])))
                if s not in N:
                    N_gens.append(s)
                    N = self.join(N, N_gens, target)
        return orbit, min(orbit, key=sorted), N, tuple(N_gens)

    def reduce(self, K: frozenset) -> list[int]:
        """Deterministic small generating set of the subgroup K: each
        element of K, in index order, not yet generated.  Every join stays
        inside K, so |K| caps it."""
        gens: list[int] = []
        cur = self.trivial
        for x in sorted(K):
            if len(cur) == len(K):
                break
            if x not in cur:
                gens.append(x)
                cur = self.join(cur, gens, len(K))
        return gens

    @cached_property
    def cyclics(self) -> list[tuple[int, int]]:
        """(prime, generator) for every cyclic subgroup of prime-power order,
        ordered by the subgroup's size and then its sorted elements.  The
        generator is the cyclic's least generating element; ``canonical``
        maps each generating element of every cyclic subgroup, whatever its
        order, to the cyclic's least one, so each cyclic is walked once."""
        perms, by_base = self.perms, self.by_base
        canonical = [0] * self.size
        prime_of: dict[int, int | None] = {}
        found = []
        for i in range(1, self.size):
            if canonical[i]:
                continue
            key = itemgetter(*self._base_images(perms[i]))  # x * e has base images key(e)
            powers = [0]  # x^0, x^1, ..., x^(o-1), where x^o is the identity
            j = i
            while j:
                powers.append(j)
                j = by_base[key(perms[j])]
            o = len(powers)
            for k in range(1, o):
                if gcd(k, o) == 1:
                    canonical[powers[k]] = i
            if o not in prime_of:
                try:
                    prime_of[o] = _prime_power(o)[0]
                except ValueError:
                    prime_of[o] = None
            if prime_of[o] is not None:
                found.append((o, sorted(powers), prime_of[o], i))
        found.sort()
        from array import array  # loaded only by commands that search subgroups
        self.canonical = array("I", canonical)
        return [(p, i) for _, _, p, i in found]


def _index(G: PermGroup) -> _Index:
    G.elements()
    return G._index


# ---------------------------------------------------------------------------
# cyclic extension


@dataclass(eq=False)
class SubgroupClass:
    """A conjugacy class of subgroups: exact order, class size and members.

    Members are frozensets of element indices (positions in
    ``G.elements()``).  ``rep_set`` is the canonical member, the least as a
    sorted index list.  ``member`` and ``member_gens`` are the member the
    search extends and the element indices that generate it."""

    order: int
    class_size: int
    rep_set: frozenset = field(repr=False)
    orbit: tuple = field(repr=False)  # all members
    member: frozenset = field(repr=False)
    member_gens: list = field(repr=False)
    _ix: _Index = field(repr=False)

    @cached_property
    def generators(self) -> list[Perm]:
        """Deterministic small generating set of ``rep_set``."""
        return [self._ix.perms[i] for i in self._ix.reduce(self.rep_set)]


def _extend(ix: _Index, start: frozenset, gens: list[int], cyclics: list[int],
            limit: int, normal_steps: bool = False) -> list[SubgroupClass]:
    """Cyclic extension (Neubueser): the classes of subgroups reached from
    the subgroup ``start``, generated by ``gens``, by joining a member of a
    class found so far with one of the cyclic subgroups generated by
    ``cyclics``.  A join is kept when its order divides ``limit``, a
    divisor of |G|, and dropped otherwise; the join stops once it has more
    than ``limit`` elements.  With limit |G|_pi the kept joins are the
    pi-subgroups, and with limit |G| every join is kept.

    The search is complete for the subgroups K >= start with every step of
    some chain start < <start, x_1> < ... < K kept: one member per class is
    extended by every cyclic subgroup, so K's class is reached through the
    class of the previous step of the chain.

    A member K is joined with one cyclic per orbit of its normaliser
    N = N_G(K) acting on the cyclics by conjugation: for n in N,
    <K, n^-1 x n> = n^-1 <K, x> n, a conjugate of <K, x> with its order.
    ``add`` builds each class when it is found, and N with it, from K's
    record, ``ix.conjugacy_class``: one walk over K's conjugates the first
    time any search on G finds K; for a normal K, N and its generators are
    G and G's generators.  The cyclics' orbit is walked by conjugating with
    each of N's generators through ``ix.conj``, and an N-orbit is the same
    set whichever generators of N are used.
    Conjugating by y or by y^-1 closes to the same orbit, and the walk uses
    it only as a set.  The orbit's first cyclic in ``cyclics`` is the one
    joined.  It is also the first of its own
    K-orbit, so one join per K-orbit would make that join first as well;
    each of its later joins in the N-orbit returns a conjugate of the
    first one's result, already seen with its class when that was kept,
    and dropped, or G, when that was.  So the classes, members and
    generators found are those of one join per cyclic.

    With ``normal_steps``, a member K is joined only with the cyclics <x>
    whose x normalises K, that is x in N; every other cyclic is skipped by
    set membership, before any walk.  N's conjugation keeps N, so the
    N-orbit of a cyclic in N holds only cyclics in N.  The search stays
    complete for the solvable subgroups J with every step kept and every
    prime-power cyclic of J in ``cyclics``.  J > 1 has a normal subgroup M
    of prime index p.  Any y in J \\ M is its p-part x times its p'-part,
    and the p'-part lies in M, as J/M has order p; so x lies in J \\ M, has
    p-power order, normalises M and gives J = M<x>.  By induction on the
    order the search reaches M's class, and for the member K = M^g it
    extends, x^g normalises K and <K, x^g> = J^g.

    While K is extended, ``overshoot`` holds the cyclics c, by canonical
    generator, for which <K, c> has more than ``limit`` elements or is the
    whole group G.  It starts as the set of the member L whose join found
    K's class, complete once L is extended, as K contains L and so <K, c>
    contains <L, c>.  Each c whose join with K comes back None or as G is
    added with its N-orbit, whose joins are conjugates of the same order.
    Such a c is not joined with K, and a later join of K stops, returning
    None, at the first new coset holding a generator of one: it contains
    <K, c>, so it could only have returned None or G, which is in ``seen``
    since the first join that gave it, and both are skipped.  Neither
    changes anything found, and a join pays nothing for the stop while the
    set is empty."""
    classes: list[SubgroupClass] = []
    queue: deque = deque()  # (class, N, N_gens, L's overshoot) per class not yet extended
    seen: set[frozenset] = set()
    canonical = ix.canonical

    def add(K: frozenset, K_gens: list[int], inherited: set[int]) -> None:
        orbit, rep, N, N_gens = ix.conjugacy_class(K, K_gens)
        seen.update(orbit)
        cls = SubgroupClass(len(K), len(orbit), rep, orbit, K, K_gens, ix)
        classes.append(cls)
        queue.append((cls, N, N_gens, inherited))

    add(start, gens, set())
    while queue:
        cls, N, N_gens, inherited = queue.popleft()
        K, K_gens = cls.member, cls.member_gens
        conjugators = [ix.conj(y) for y in N_gens]
        tried: set[int] = set()
        overshoot = set(inherited)  # cyclics c with <K, c> dropped or G
        for x in cyclics:
            if x in K or x in tried or x in overshoot or normal_steps and x not in N:
                continue
            tried.add(x)
            orbit = [x]
            for z in orbit:  # grows while it is read: y^-1 z y for y in N_gens
                for conjugate in conjugators:
                    c = canonical[conjugate(z)]
                    if c not in tried:
                        tried.add(c)
                        orbit.append(c)
            J = ix.join(K, K_gens + [x], limit, overshoot)
            if J is None or len(J) == ix.size:
                overshoot.update(orbit)
            if J is None or J in seen:
                continue
            if limit % len(J) == 0:
                add(J, K_gens + [x], overshoot)
            else:
                seen.add(J)

    classes.sort(key=lambda c: (c.order, sorted(c.rep_set)))
    return classes


def _cached(G: PermGroup, key, build) -> list[SubgroupClass]:
    """The subgroup classes ``build`` finds, cached on G under ``key``.  G
    is under the order cap it was built with, so nothing is checked here."""
    if key not in G._subgroups:
        G._subgroups[key] = build(_index(G))
    return G._subgroups[key]


def _primes(G: PermGroup, pi) -> tuple[int, ...]:
    return tuple(p for p in pi if G.order % p == 0)


def enumerate_subgroups(G: PermGroup) -> list[SubgroupClass]:
    """All conjugacy classes of subgroups, canonically ordered."""
    return _cached(G, "lattice", lambda ix: _extend(
        ix, ix.trivial, [], [x for _, x in ix.cyclics], ix.size
    ))


def pi_subgroups(G: PermGroup, pi: PrimeSet) -> list[SubgroupClass]:
    """Conjugacy classes of pi-subgroups, canonically ordered.

    Only cyclic subgroups of pi-prime-power order are joined, and a join is
    dropped once it passes |G|_pi or when its order is not a pi-number.
    Every pi-subgroup is solvable when 2 is not in pi (Feit-Thompson) or
    when pi holds at most two primes of |G| (Burnside's p^a q^b theorem),
    and then each member is joined only with the cyclics normalising it.
    """
    primes = _primes(G, pi)
    return _cached(G, ("pi", primes), lambda ix: _extend(
        ix, ix.trivial, [], [x for p, x in ix.cyclics if p in primes],
        pi_part(G.order, primes), normal_steps=2 not in primes or len(primes) <= 2,
    ))


def pi_hall_subgroups(G: PermGroup, pi: PrimeSet) -> list[SubgroupClass]:
    """Classes whose order is the full pi-part of |G|."""
    target = pi_part(G.order, pi)
    return [c for c in pi_subgroups(G, pi) if c.order == target]


def hall_overgroups(G: PermGroup, pi: PrimeSet) -> list[SubgroupClass]:
    """Classes of subgroups containing a conjugate of a pi-Hall subgroup H,
    canonically ordered; empty when G has none.  Every ``member`` contains
    H itself."""
    halls = pi_hall_subgroups(G, pi)
    if not halls:
        return []
    H = halls[0]
    return _cached(G, ("over", _primes(G, pi)), lambda ix: _extend(
        ix, H.member, H.member_gens, [x for _, x in ix.cyclics], ix.size
    ))


def maximal_pi_subgroups(G: PermGroup, pi: PrimeSet) -> list[SubgroupClass]:
    """Classes of pi-subgroups maximal under inclusion up to conjugacy.  A
    larger class whose order |c| does not divide cannot contain c
    (Lagrange), and is skipped before any subset test."""
    pi_classes = pi_subgroups(G, pi)
    maximal = []
    for c in pi_classes:
        dominated = any(
            d.order > c.order and d.order % c.order == 0
            and any(c.rep_set <= s for s in d.orbit)
            for d in pi_classes
        )
        if not dominated:
            maximal.append(c)
    return maximal


# ---------------------------------------------------------------------------
# brute-force Hall properties


def _class_label(c: SubgroupClass) -> dict:
    return {
        "order": c.order,
        "class_size": c.class_size,
        "gens": [perm_to_cycles(g) for g in c.generators],
    }


def _set_label(ix: _Index, s: frozenset) -> dict:
    return {"order": len(s), "gens": [perm_to_cycles(ix.perms[i]) for i in ix.reduce(s)]}


def _is_abelian(c: SubgroupClass) -> bool:
    gens, products = c.member_gens, c._ix.products
    return all(products(a)(b) == products(b)(a)
               for i, a in enumerate(gens) for b in gens[i + 1 :])


def brute_property(G: PermGroup, pi: PrimeSet, property: str) -> tuple[bool, dict | None]:
    """Definitional evaluation of E, C, D, U or star on G, which is under
    the order cap it was built with.

    E, C, D and star are read off the pi-subgroup poset.  U fails with D's
    witness where D fails, and otherwise also needs the overgroups of the
    pi-Hall subgroup H.  Each conjugate of H in an overgroup M is a maximal
    pi-subgroup of M, so M is D_pi exactly when it has |M : N_M(H)| =
    |M| / |N_G(H) cap M| maximal pi-subgroups; N_G(H) is read off H's
    record, which the pi-subgroup search made.  Returns (holds, witness);
    the witness names the violating classes, the violating overgroup with
    H and a maximal pi-subgroup of it that is no conjugate of H there, or
    the violating pi-subgroup.
    """
    if property not in ("E", "C", "D", "U", "star"):
        raise ValueError(f"unknown property {property!r}")

    if property in ("E", "C"):
        halls = pi_hall_subgroups(G, pi)
        if not halls:
            return False, {"reason": "no pi-Hall subgroup", "target": pi_part(G.order, pi)}
        if property == "C" and len(halls) > 1:
            return False, {"witness_pair": [_class_label(halls[0]), _class_label(halls[1])]}
        return True, {"hall": _class_label(halls[0])}

    if property in ("D", "U"):
        maximal = maximal_pi_subgroups(G, pi)
        if len(maximal) > 1:
            return False, {"witness_pair": [_class_label(maximal[0]), _class_label(maximal[1])]}
        if property == "D":
            return True, {"hall": _class_label(maximal[0])}

    pi_classes = pi_subgroups(G, pi)
    ix = _index(G)

    if property == "U":
        # G is D_pi, so its one maximal class is its pi-Hall class.  D inside
        # each proper overgroup M of H: its maximal pi-subgroups, found among
        # all of G's, are H's |M : N_M(H)| conjugates in M.  By the theorem
        # the witness is never reached.
        hall = maximal[0]
        H = hall.member
        N = ix.conjugacy_class(H, hall.member_gens)[2]  # read off the pi-search's walk
        pi_sets = sorted((s for c in pi_classes for s in c.orbit), key=len, reverse=True)
        for M in hall_overgroups(G, pi):
            if M.order == G.order:
                continue
            maximal_M: list[frozenset] = []
            for s in pi_sets:
                if s <= M.member and not any(s <= t for t in maximal_M):
                    maximal_M.append(s)
            if len(maximal_M) == M.order // len(N & M.member):
                continue
            conjugates = {frozenset(map(ix.conj(m), H)) for m in M.member}
            s = next(s for s in maximal_M if s not in conjugates)
            return False, {
                "overgroup": _set_label(ix, M.member),
                "witness_pair": [_set_label(ix, H), _set_label(ix, s)],
            }
        return True, None

    # star: every pi-subgroup P has a normal abelian tau-Hall subgroup.  A
    # normal tau-Hall subgroup contains every tau-subgroup of P, so P has one
    # exactly when it has a single subgroup of order |P|_tau.
    tau = _primes(G, pi)[1:]  # drop the smallest
    class_of = {s: c for c in pi_classes for s in c.orbit}
    for cls in pi_classes:
        target = pi_part(cls.order, tau)
        inside = [s for s in class_of if len(s) == target and s <= cls.member]
        if len(inside) != 1 or not _is_abelian(class_of[inside[0]]):
            return False, {"violating_pi_subgroup": _class_label(cls), "tau_target": target}
    return True, None
