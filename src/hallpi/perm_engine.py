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
point.  Every join composes only the products it asks for, memoized per
multiplier.

One cyclic-extension routine, ``_extend``, joins class members with cyclic
subgroups of prime-power order, skipping the joins that could only return
a subgroup already found (its docstring says which), and forgets the
products composed for a member when it moves on to the next.
Each query enumerates only what it needs:

- ``enumerate_subgroups``: the full lattice, from the trivial group.
- ``pi_subgroups`` (E, C, D and star): the pi-subgroups only, joining
  cyclic subgroups of pi-prime-power order and dropping a join once it
  passes |G|_pi or when its order is not a pi-number.
- ``hall_overgroups`` (U): the subgroups containing one pi-Hall subgroup,
  extended from it; U tests D inside each against the pi-subgroups.

Every entry point is complete-or-refuse: it raises ``OrderLimitError``
before any work when |G| exceeds the order cap (``DEFAULT_MAX_ORDER``
unless raised explicitly), and never truncates.  ``_read_spec`` reads a
named spec once for its order and its build: ``refuse_over_cap`` refuses
every kind but ``raw:`` (read only up to its degree) from the spec before
building it, and ``construct_named`` checks each build against that order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, inf, prod
from operator import itemgetter

from .arith import PrimeSet, pi_part
from .lie_catalog import _prime_power

__all__ = [
    "Perm",
    "PermGroup",
    "SubgroupClass",
    "OrderLimitError",
    "DEFAULT_MAX_ORDER",
    "identity",
    "pmul",
    "pinv",
    "perm_from_cycles",
    "perm_to_cycles",
    "construct_named",
    "refuse_over_cap",
    "enumerate_subgroups",
    "pi_subgroups",
    "pi_hall_subgroups",
    "hall_overgroups",
    "maximal_pi_subgroups",
    "brute_property",
    "lattice_dump",
]

Perm = tuple[int, ...]

DEFAULT_MAX_ORDER = 25000


class OrderLimitError(RuntimeError):
    """Raised when a computation would exceed the configured order cap."""


# ---------------------------------------------------------------------------
# permutation primitives


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def pmul(a: Perm, b: Perm) -> Perm:
    """Product 'apply a, then b'."""
    return tuple(map(b.__getitem__, a))


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
    """Parse 0-based cycle notation like ``(0 1 2)(3 4)``."""
    body = text.strip()
    if body in ("", "()"):
        return identity(degree)
    if not re.fullmatch(r"(?:\([\d\s,]*\)\s*)+", body):
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(degree))
    for m in _CYCLE_RE.finditer(body):
        pts = [int(tok) for tok in re.split(r"[,\s]+", m.group(1).strip()) if tok]
        if any(pt >= degree or pt < 0 for pt in pts):
            raise ValueError(f"point out of range in {text!r}")
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle {m.group(0)!r}")
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


def _schreier_sims(degree: int, gens: list[Perm]):
    """Deterministic Schreier-Sims; returns (base, transversals)."""
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
    """Immutable permutation group with a BSGS, exact order and membership."""

    def __init__(self, degree: int, generators, name: str | None = None):
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
        self.name = name
        self.base, self._transversals = _schreier_sims(degree, self.generators)
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
    """Tiny finite field GF(p^f), elements encoded as ints in base p."""

    def __init__(self, p: int, f: int):
        self.p, self.f, self.q = p, f, p**f
        # Reduce modulo the first monic x^f + tail, in lex order of the
        # tail, modulo which some element has multiplicative order q - 1.
        # Only a field has one, so that is the first irreducible polynomial.
        for tail in range(self.q if f > 1 else 1):
            self.modpoly = tuple(self._digits(tail)) if f > 1 else ()
            if any((c**f + sum(m * c**i for i, m in enumerate(self.modpoly))) % p == 0
                   for c in range(p if f > 1 else 0)):
                continue  # a root: reducible, skip before building the table
            self._mul = {}
            for a in range(self.q):
                for b in range(a, self.q):
                    self._mul[(a, b)] = self._mul[(b, a)] = self._polymul(a, b)
            self.primitive = self._primitive()
            if self.primitive is not None:
                return
        raise AssertionError("no irreducible polynomial found")

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.f):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits: list[int]) -> int:
        v = 0
        for d in reversed(digits):
            v = v * self.p + d
        return v

    def _polymul(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        res = [0] * (2 * self.f - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    res[i + j] = (res[i + j] + x * y) % self.p
        # reduce modulo x^f + modpoly
        for k in range(len(res) - 1, self.f - 1, -1):
            c = res[k]
            if c:
                res[k] = 0
                for i, m in enumerate(self.modpoly):
                    res[k - self.f + i] = (res[k - self.f + i] - c * m) % self.p
        return self._encode(res[: self.f])

    def add(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        return self._encode([(-x) % self.p for x in self._digits(a)])

    def mul(self, a: int, b: int) -> int:
        return self._mul[(a, b)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError
        for b in range(1, self.q):
            if self.mul(a, b) == 1:
                return b
        raise AssertionError

    def _primitive(self) -> int | None:
        for a in range(1, self.q):
            x, n = a, 1
            while x != 1 and n < self.q:
                x, n = self.mul(x, a), n + 1
            if x == 1 and n == self.q - 1:
                return a
        return None


def _psl2(p: int, f: int) -> PermGroup:
    """Natural action of PSL_2(q), q = p^f, on the q+1 projective points.

    Points 0..q-1 are the field elements (0 is zero), point q is infinity.
    Generated by x -> x+1, x -> l^2 x (l primitive) and x -> -1/x; the
    squared multiplier keeps the scaling inside PSL rather than PGL.
    """
    gf = _GF(p, f)
    q = infinity = gf.q
    points = list(range(q))

    trans = [0] * (q + 1)
    for e in points:
        trans[e] = gf.add(e, 1)
    trans[infinity] = infinity

    inv = [0] * (q + 1)
    inv[0] = infinity
    inv[infinity] = 0
    for e in points[1:]:
        inv[e] = gf.neg(gf.inv(e))

    gens = [tuple(trans), tuple(inv)]
    if q > 3:
        lam2 = gf.mul(gf.primitive, gf.primitive)
        scale = [gf.mul(lam2, e) for e in points] + [infinity]
        gens.append(tuple(scale))
    return PermGroup(q + 1, gens)


def _cycle(n: int, first: int = 0) -> Perm:
    """The cycle (first first+1 ... n-1) on n points."""
    return tuple(range(first)) + tuple(range(first + 1, n)) + (first,)


_NAMED_CACHE: dict[str, PermGroup] = {}


def construct_named(spec: str) -> PermGroup:
    """Build a named group: alt:n, sym:n, cyclic:n, dihedral:n, psl2:q,
    product:<spec>x<spec>, raw:<degree>:<cycles;...>.  A build whose order
    is not the order its spec gives is an ``AssertionError``."""
    spec = spec.strip()
    G = _NAMED_CACHE.get(spec)
    if G is None:
        order, build = _read_spec(spec)
        G = build()
        if order is not None and G.order != order:
            raise AssertionError(f"{spec} construction has order {G.order}, expected {order}")
        G.name = spec
        _NAMED_CACHE[spec] = G
    return G


def refuse_over_cap(spec: str, order_bound: int) -> None:
    """Raise ``OrderLimitError`` before any work when ``spec`` names a group
    above the bound: the order of any spec but a raw one is read off the
    spec, and a raw spec is read only up to its degree."""
    order, _ = _read_spec(spec.strip(), order_bound + 1)
    if order is not None and order > order_bound:
        _refuse(f"group {spec.strip()} has order above", order_bound)


def _read_spec(spec: str, cap: float = inf):
    """Read a spec once: min(|G|, cap) as the spec gives it, or None for a
    raw spec or a product with a raw side, and a function building the
    group.  An alt or sym order stops growing at the cap, so sym:60 is never
    multiplied out in full.  A spec naming no group is a ValueError."""
    kind, _, rest = spec.partition(":")
    if kind == "raw":
        deg_txt, _, cycles = rest.partition(":")
        degree = _positive_int(deg_txt, "raw")
        return None, lambda: PermGroup(
            degree, [perm_from_cycles(c, degree) for c in cycles.split(";") if c.strip()]
        )
    if kind == "product":
        for i in (m.start() for m in re.finditer("x", rest)):
            left, right = rest[:i], rest[i + 1 :]
            try:
                sides = [_read_spec(left, cap)[0], _read_spec(right, cap)[0]]
            except ValueError:
                continue
            order = None if None in sides else min(prod(sides), cap)
            return order, lambda: _direct_product(construct_named(left), construct_named(right))
        raise ValueError(f"cannot split product spec {spec!r}")
    if kind == "psl2":
        q = _positive_int(rest, kind)
        if q < 2 or q > 16:
            raise ValueError("psl2:q supports prime powers 2 <= q <= 16")
        p, f = _prime_power(q)
        return min(q * (q * q - 1) // gcd(2, q - 1), cap), lambda: _psl2(p, f)
    if kind not in ("alt", "sym", "cyclic", "dihedral"):
        raise ValueError(f"unknown group spec {spec!r}")
    n = _positive_int(rest, kind)
    if kind == "cyclic":
        return min(n, cap), lambda: PermGroup(n, [_cycle(n)] if n > 1 else [])
    if kind == "dihedral":
        if n < 3:
            raise ValueError("dihedral:n requires n >= 3")
        # generated by x -> x + 1 and x -> -x mod n
        return min(2 * n, cap), lambda: PermGroup(n, [_cycle(n), _cycle(n)[::-1]])
    order = 1
    for k in range(3 if kind == "alt" else 2, n + 1):  # n!/2 = 3 * ... * n
        order *= k
        if order >= cap:
            break
    if kind == "sym":
        return min(order, cap), lambda: PermGroup(
            n, [perm_from_cycles("(0 1)", n), _cycle(n)] if n > 1 else []
        )
    # (0 1 2) with (0 1 ... n-1) for odd n, (1 2 ... n-1) for even n
    return min(order, cap), lambda: PermGroup(
        n, [perm_from_cycles("(0 1 2)", n), _cycle(n, 1 - n % 2)] if n > 2 else []
    )


def _positive_int(text: str, label: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"bad {label} parameter {text!r}") from None
    if n < 1:
        raise ValueError(f"bad {label} parameter {text!r}")
    return n


def _direct_product(A: PermGroup, B: PermGroup) -> PermGroup:
    d = A.degree + B.degree
    gens = []
    for g in A.generators:
        gens.append(tuple(g) + tuple(range(A.degree, d)))
    for g in B.generators:
        gens.append(tuple(range(A.degree)) + tuple(x + A.degree for x in g))
    return PermGroup(d, gens)


# ---------------------------------------------------------------------------
# integer-indexed elements


def _compact(values):
    """An index map as ``array('I')``.  The array module is imported here,
    on the first map built, so commands that never search a group's
    subgroups do not load it."""
    from array import array

    return array("I", values)


class _Products(dict):
    """x * e for the e asked so far, each composed on its first lookup:
    ``key`` reads x's base images off e, the base images of x * e."""

    __slots__ = ("by_base", "perms", "key")

    def __init__(self, by_base: dict, perms: list[Perm], key):
        super().__init__()
        self.by_base, self.perms, self.key = by_base, perms, key

    def __missing__(self, e: int) -> int:
        x_e = self[e] = self.by_base[self.key(self.perms[e])]
        return x_e


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
    ``cols[p]`` lists every element's image of the point p; ``conj`` reads
    its full maps off these columns.
    ``operator.itemgetter`` returns a tuple only for two or more points, so
    a base shorter than that is repeated (the trivial group's empty base
    becomes point 0, twice).

    A join composes only the products it asks for, memoized per x
    (``products``); ``_extend`` clears the memos whenever it moves on to the
    next class member, as its joins of one member reuse them and those of
    the next rarely do.  An orbit walk conjugates by a few elements, each
    through one full map kept on the index (``conj``)."""

    def __init__(self, G: PermGroup):
        perms = [identity(G.degree)]  # the levels multiplied out, deepest first
        for trans in reversed(G._transversals):
            perms = [pmul(h, t) for t in trans.values() for h in perms]
        perms.sort()
        n = len(perms)
        self.perms = perms
        self.size = n
        self.degree = G.degree
        self.base = base = G.base if len(G.base) > 1 else (G.base or [0]) * 2
        self.cols = cols = list(zip(*perms))
        self.by_base = dict(zip(zip(*(cols[b] for b in base)), range(n)))
        if len(self.by_base) != n:
            raise AssertionError("the base images do not separate the elements")
        for g in G.generators:  # (s * g)[b] = g[s[b]]
            keys = zip(*(map(g.__getitem__, cols[b]) for b in base))
            if not all(map(self.by_base.__contains__, keys)):
                raise AssertionError("the elements are not closed under the generators")
        self.trivial = frozenset([0])  # the identity sorts first
        self.whole = frozenset(range(n))
        self.gens = [self.index(g) for g in G.generators]
        self._products: dict = {}
        self._conj: dict = {}

    def index(self, p: Perm) -> int:
        """The index of the element p."""
        return self.by_base[tuple(map(p.__getitem__, self.base))]

    def _images(self, x: int) -> list[int]:
        """x's base images, the points whose images under e key x * e."""
        return list(map(self.perms[x].__getitem__, self.base))

    def products(self, x: int) -> _Products:
        """Left multiplication by x, composed one product at a time."""
        m = self._products.get(x)
        if m is None:
            key = itemgetter(*self._images(x))
            m = self._products[x] = _Products(self.by_base, self.perms, key)
        return m

    def conj(self, y: int):
        """Conjugation by y: i -> index of y^-1 * elements[i] * y, whose image
        of b is y[e[y^-1[b]]]."""
        m = self._conj.get(y)
        if m is None:
            p, cols = self.perms[y], self.cols
            y_inv = pinv(p)
            keys = zip(*(map(p.__getitem__, cols[y_inv[b]]) for b in self.base))
            m = self._conj[y] = _compact(map(self.by_base.__getitem__, keys))
        return m

    def conjugator(self, y: int):
        """z -> index of y * z * y^-1, composed from base images, keeping
        nothing."""
        by_base, perms = self.by_base, self.perms
        y_inv, key = pinv(perms[y]), itemgetter(*self._images(y))
        return lambda z: by_base[tuple(map(y_inv.__getitem__, key(perms[z])))]

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
                if m[coset[0]] in K:
                    continue
                new = list(map(m.__getitem__, coset))
                if stop and not stop.isdisjoint(map(self.canonical.__getitem__, new)):
                    return None
                K.update(new)
                if len(K) > limit:
                    return None
                if 2 * len(K) > self.size:
                    return self.whole
                cosets.append(new)
        return frozenset(K)

    def orbit(self, K: frozenset, gens: list[int]) -> dict[frozenset, None]:
        """Conjugates of K under the group generated by ``gens``, in the
        order found."""
        maps = [self.conj(g) for g in gens]
        orb = {K: None}
        stack = [K]
        while stack:
            A = stack.pop()
            for m in maps:
                B = frozenset(map(m.__getitem__, A))
                if B not in orb:
                    orb[B] = None
                    stack.append(B)
        return orb

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
        maps each generating element of each such cyclic to it, and every
        other element to 0."""
        perms, by_base = self.perms, self.by_base
        canonical = [0] * self.size
        prime_of: dict[int, int | None] = {}
        found = []
        for i in range(1, self.size):
            if canonical[i]:
                continue
            key = itemgetter(*self._images(i))  # x * e has base images key(e)
            powers = [0]  # x^0, x^1, ..., x^(o-1), where x^o is the identity
            j = i
            while j:
                powers.append(j)
                j = by_base[key(perms[j])]
            o = len(powers)
            if o not in prime_of:
                try:
                    prime_of[o] = _prime_power(o)[0]
                except ValueError:
                    prime_of[o] = None
            p = prime_of[o]
            if p is None:
                continue
            for k in range(1, o):
                if k % p:
                    canonical[powers[k]] = i
            found.append((o, sorted(powers), p, i))
        found.sort()
        self.canonical = _compact(canonical)
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
    sorted index list; ``representative`` is it as a PermGroup.  ``member``
    and ``member_gens`` are the member the search extends and the element
    indices that generate it."""

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

    @cached_property
    def representative(self) -> PermGroup:
        return PermGroup(self._ix.degree, self.generators)


def _extend(ix: _Index, start: frozenset, gens: list[int], cyclics: list[int],
            limit: int, keep) -> list[SubgroupClass]:
    """Cyclic extension (Neubueser): the classes of subgroups reached from
    the subgroup ``start``, generated by ``gens``, by joining a member of a
    class found so far with one of the cyclic subgroups generated by
    ``cyclics``.  A join with more than ``limit`` elements, or whose order
    fails ``keep``, is dropped.

    The search is complete for the subgroups K >= start with every step of
    some chain start < <start, x_1> < ... < K kept: one member per class is
    extended by every cyclic subgroup, so K's class is reached through the
    class of the previous step of the chain.

    A member K is joined with one cyclic per orbit of K acting on the
    cyclics by conjugation: <K, k x k^-1> = <K, x> for k in K, the same
    subgroup.  The orbit's first cyclic in ``cyclics`` is the one joined,
    and each skipped join would have returned that subgroup again, already
    seen or dropped, so the classes, members and generators found are
    those of one join per cyclic.

    While K is extended, ``overshoot`` holds the cyclics c, by canonical
    generator, whose join <K, c> came back None or as the whole group G,
    each with its K-orbit, whose joins are the same subgroup.  A later join
    of K stops, returning None, at the first new coset holding a generator
    of such a c: it contains <K, c>, so it could only have returned None or
    G, which is in ``seen`` since that first join, and both are skipped.
    The stop changes nothing found, and a join pays nothing for it until K
    has a first overshoot."""
    found: list[tuple[frozenset, list[int], dict]] = []
    seen: set[frozenset] = set()
    canonical = ix.canonical

    def add(K: frozenset, K_gens: list[int]) -> None:
        orbit = ix.orbit(K, ix.gens)
        seen.update(orbit)
        found.append((K, K_gens, orbit))

    add(start, gens)
    for K, K_gens, _ in found:  # grows while it is read
        ix._products.clear()
        conjugators = [ix.conjugator(y) for y in K_gens]
        tried: set[int] = set()
        overshoot: set[int] = set()  # cyclics c with <K, c> dropped or G
        for x in cyclics:
            if x in K or x in tried:
                continue
            tried.add(x)
            orbit = [x]
            for z in orbit:  # grows while it is read: y z y^-1 for y in K_gens
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
            if keep(len(J)):
                add(J, K_gens + [x])
            else:
                seen.add(J)

    classes = []
    for K, K_gens, orbit in found:
        rep = min(orbit, key=sorted)
        classes.append(SubgroupClass(len(K), len(orbit), rep, tuple(orbit), K, K_gens, ix))
    classes.sort(key=lambda c: (c.order, sorted(c.rep_set)))
    return classes


def _cached(G: PermGroup, order_bound: int, key, build) -> list[SubgroupClass]:
    """The subgroup classes ``build`` finds, cached on G under ``key``.
    Complete-or-refuse: raises before any work when |G| exceeds the bound."""
    if G.order > order_bound:
        _refuse(f"group order {G.order} exceeds", order_bound)
    if key not in G._subgroups:
        G._subgroups[key] = build(_index(G))
    return G._subgroups[key]


def _refuse(what: str, order_bound: int):
    raise OrderLimitError(f"{what} the enumeration cap {order_bound}; "
                          "raise the cap explicitly to proceed")


def _primes(G: PermGroup, pi) -> tuple[int, ...]:
    return tuple(p for p in pi if G.order % p == 0)


def enumerate_subgroups(G: PermGroup, order_bound: int = DEFAULT_MAX_ORDER) -> list[SubgroupClass]:
    """All conjugacy classes of subgroups, canonically ordered.

    Refuses (never truncates) when |G| exceeds the bound.
    """
    return _cached(G, order_bound, "lattice", lambda ix: _extend(
        ix, ix.trivial, [], [x for _, x in ix.cyclics], ix.size, lambda n: True
    ))


def pi_subgroups(G: PermGroup, pi: PrimeSet, order_bound: int = DEFAULT_MAX_ORDER) -> list[SubgroupClass]:
    """Conjugacy classes of pi-subgroups, canonically ordered.

    Only cyclic subgroups of pi-prime-power order are joined, and a join is
    dropped once it passes |G|_pi or when its order is not a pi-number.
    """
    primes = _primes(G, pi)
    return _cached(G, order_bound, ("pi", primes), lambda ix: _extend(
        ix, ix.trivial, [], [x for p, x in ix.cyclics if p in primes],
        pi_part(G.order, primes), lambda n: pi_part(n, primes) == n,
    ))


def pi_hall_subgroups(
    G: PermGroup, pi: PrimeSet, order_bound: int = DEFAULT_MAX_ORDER
) -> list[SubgroupClass]:
    """Classes whose order is the full pi-part of |G|."""
    target = pi_part(G.order, pi)
    return [c for c in pi_subgroups(G, pi, order_bound) if c.order == target]


def hall_overgroups(
    G: PermGroup, pi: PrimeSet, order_bound: int = DEFAULT_MAX_ORDER
) -> list[SubgroupClass]:
    """Classes of subgroups containing a conjugate of a pi-Hall subgroup H,
    canonically ordered; empty when G has none.  Every ``member`` contains
    H itself."""
    halls = pi_hall_subgroups(G, pi, order_bound)
    if not halls:
        return []
    H = halls[0]
    return _cached(G, order_bound, ("over", _primes(G, pi)), lambda ix: _extend(
        ix, H.member, H.member_gens, [x for _, x in ix.cyclics], ix.size, lambda n: True
    ))


def maximal_pi_subgroups(
    G: PermGroup, pi: PrimeSet, order_bound: int = DEFAULT_MAX_ORDER
) -> list[SubgroupClass]:
    """Classes of pi-subgroups maximal under inclusion up to conjugacy."""
    pi_classes = pi_subgroups(G, pi, order_bound)
    maximal = []
    for c in pi_classes:
        dominated = any(
            d.order > c.order and any(c.rep_set <= s for s in d.orbit)
            for d in pi_classes
        )
        if not dominated:
            maximal.append(c)
    return maximal


def lattice_dump(G: PermGroup, order_bound: int = DEFAULT_MAX_ORDER) -> str:
    lines = []
    for cls in enumerate_subgroups(G, order_bound):
        gens = ";".join(perm_to_cycles(g) for g in cls.generators) or "()"
        lines.append(f"order={cls.order} class_size={cls.class_size} gens={gens}")
    return "\n".join(lines)


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
    return all(products(a)[b] == products(b)[a]
               for i, a in enumerate(gens) for b in gens[i + 1 :])


def brute_property(
    G: PermGroup, pi: PrimeSet, property: str, order_bound: int = DEFAULT_MAX_ORDER
) -> tuple[bool, dict | None]:
    """Definitional evaluation of E, C, D, U or star.

    E, C, D and star are read off the pi-subgroup poset; U also needs the
    overgroups of one pi-Hall subgroup.  Returns (holds, witness); the
    witness names the violating classes, the violating overgroup, or the
    violating pi-subgroup.
    """
    if property not in ("E", "C", "D", "U", "star"):
        raise ValueError(f"unknown property {property!r}")

    if property in ("E", "C"):
        halls = pi_hall_subgroups(G, pi, order_bound)
        if not halls:
            return False, {"reason": "no pi-Hall subgroup", "target": pi_part(G.order, pi)}
        if property == "E":
            return True, {"hall": _class_label(halls[0])}
        if len(halls) == 1:
            return True, {"hall": _class_label(halls[0])}
        return False, {"witness_pair": [_class_label(halls[0]), _class_label(halls[1])]}

    if property == "D":
        maximal = maximal_pi_subgroups(G, pi, order_bound)
        if len(maximal) == 1:
            return True, {"hall": _class_label(maximal[0])}
        return False, {"witness_pair": [_class_label(maximal[0]), _class_label(maximal[1])]}

    pi_classes = pi_subgroups(G, pi, order_bound)
    ix = _index(G)

    if property == "U":
        ok, witness = brute_property(G, pi, "D", order_bound)
        if not ok:
            return False, witness
        # D inside each proper overgroup M of the Hall subgroup: its maximal
        # pi-subgroups, found among all of G's, are conjugate in M.
        pi_sets = sorted((s for c in pi_classes for s in c.orbit), key=len, reverse=True)
        for M in hall_overgroups(G, pi, order_bound):
            if M.order == G.order:
                continue
            maximal: list[frozenset] = []
            for s in pi_sets:
                if s <= M.member and not any(s <= t for t in maximal):
                    maximal.append(s)
            if len(maximal) == 1:
                continue
            orbit = ix.orbit(maximal[0], M.member_gens)
            for s in maximal[1:]:
                if s not in orbit:
                    return False, {
                        "overgroup": _set_label(ix, M.member),
                        "witness_pair": [_set_label(ix, maximal[0]), _set_label(ix, s)],
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
