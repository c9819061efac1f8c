"""The restricted searches against the full subgroup lattice.

E, C, D and star are evaluated on the pi-subgroup poset and U on the
overgroups of one pi-Hall subgroup.  Here both are compared with the full
lattice, and the properties with their definitions read directly off it,
for every named group up to psl2:16 and every pi with |pi| <= 3.  The
pi-subgroup search joins a member only with the cyclics normalising it
when every pi-subgroup is solvable; psl2:16 at pi = {2, 3, 5}, holding A5,
checks the search that joins every cyclic inside a larger group.
"""

import itertools

import pytest

from hallpi.arith import PrimeSet, pi_part
from hallpi.perm_engine import (
    brute_property,
    construct_named,
    enumerate_subgroups,
    hall_overgroups,
    pi_subgroups,
    pinv,
    pmul,
)

GROUPS = [
    "dihedral:15", "sym:4", "alt:5", "sym:5", "alt:6", "product:cyclic:3xalt:5",
    "psl2:4", "psl2:5", "psl2:7", "psl2:8", "psl2:9", "psl2:11", "psl2:13",
    "psl2:16",
]


def _pis(G):
    primes = [p for p in range(2, G.order + 1) if G.order % p == 0
              and all(p % d for d in range(2, p))]
    for k in range(4):
        for pi in itertools.combinations(primes, k):
            yield PrimeSet(pi)


class _Full:
    """E, C, D, U and star by their definitions on the full lattice, with
    conjugation and products on tuple permutations."""

    def __init__(self, G):
        self.lattice = enumerate_subgroups(G)
        self.perms = G.elements()
        self.where = {p: i for i, p in enumerate(self.perms)}
        self.G = G

    def conj(self, S, y):
        yi = pinv(y)
        return frozenset(self.where[pmul(pmul(yi, self.perms[i]), y)] for i in S)

    def orbit(self, S, gens):
        orb, stack = {S}, [S]
        while stack:
            A = stack.pop()
            for y in gens:
                B = self.conj(A, y)
                if B not in orb:
                    orb.add(B)
                    stack.append(B)
        return orb

    def maximal_conjugate(self, sets, gens):
        """The maximal members of ``sets`` form one class under ``gens``."""
        maximal = [s for s in sets if not any(s < t for t in sets)]
        return not maximal or set(maximal) <= self.orbit(maximal[0], gens)

    def properties(self, pi):
        pi_classes = [c for c in self.lattice if pi_part(c.order, pi) == c.order]
        pi_sets = [s for c in pi_classes for s in c.orbit]
        halls = [c for c in pi_classes if c.order == pi_part(self.G.order, pi)]
        E, C = bool(halls), len(halls) == 1
        D = self.maximal_conjugate(pi_sets, self.G.generators)
        U = D and all(
            self.maximal_conjugate([s for s in pi_sets if s <= M.rep_set], M.generators)
            for M in self.overgroups(pi_classes, pi)
        )
        inter = [t for t in pi if self.G.order % t == 0]
        star = all(self.has_normal_abelian(c, pi_sets, inter[1:]) for c in pi_classes)
        return {"E": E, "C": C, "D": D, "U": U, "star": star}

    def overgroups(self, pi_classes, pi):
        halls = [c for c in pi_classes if c.order == pi_part(self.G.order, pi)]
        if not halls:
            return []
        return [M for M in self.lattice
                if any(h <= M.rep_set for h in halls[0].orbit)]

    def has_normal_abelian(self, P, pi_sets, tau):
        target = pi_part(P.order, tau)
        for Q in pi_sets:
            if len(Q) != target or not Q <= P.rep_set:
                continue
            if any(self.conj(Q, y) != Q for y in P.generators):
                continue
            qs = [self.perms[i] for i in Q]
            if all(pmul(a, b) == pmul(b, a) for a in qs for b in qs):
                return True
        return False


@pytest.mark.parametrize("spec", GROUPS)
def test_restricted_matches_full_lattice(spec):
    G = construct_named(spec)
    full = _Full(G)
    for pi in _pis(G):
        # the pi-poset is the lattice's classes of pi-number order
        poset = [(c.order, c.class_size, c.rep_set) for c in pi_subgroups(G, pi)]
        assert poset == [
            (c.order, c.class_size, c.rep_set)
            for c in full.lattice if pi_part(c.order, pi) == c.order
        ], pi
        # the overgroups found for U are the lattice's classes containing a
        # conjugate of the Hall subgroup
        pi_classes = [c for c in full.lattice if pi_part(c.order, pi) == c.order]
        assert [c.rep_set for c in hall_overgroups(G, pi)] == [
            c.rep_set for c in full.overgroups(pi_classes, pi)
        ], pi
        want = full.properties(pi)
        got = {prop: brute_property(G, pi, prop)[0] for prop in want}
        assert got == want, pi
