"""Checks of unsolvability certificates, independent of the search.

A search that proves a model unsolvable without exhausting its state
space (search.py) does so with an inductive invariant: a set of states
that holds the initial state, is closed under every action and holds
no goal state (Eriksson, Röger & Helmert, "Unsolvability Certificates
for Classical Planning", ICAPS 2017). Its "unsolvable" result carries
the invariant as its proof, in one of three forms:

- a set of fluent ids R, the atoms reachable when deletes are ignored
  (decide_solvable's relaxed exit): the states within R;
- (order, bits), bits an int: the same set over bits (decide_masks'
  relaxed exit);
- (order, (reached, partners)): the atoms that may hold, and for each
  bit b of reached, partners[b], the bits that may hold together with
  it (the h^2 pass at a search's gate): the states whose atoms and
  pairs of atoms all lie inside.

order gives the fluent id of bit i as its i-th item (the key order of
compile_masks' bits). check encodes the model itself from order and
tests in one pass over its actions that the invariant is one. It reads
none of the search's masks or tables, and this module imports nothing
from search. A breadth-first proof carries no certificate: its only
one is its closed set, whose check costs a search.
"""

from __future__ import annotations

from .model import PlanningModel


def check(m: PlanningModel, proof) -> bool:
    """Whether proof, in one of the forms above, shows m unsolvable."""
    if isinstance(proof, (set, frozenset)):
        return _relaxed_closed(m, proof)
    order, cert = proof
    if isinstance(cert, int):
        # a bit beyond order names no fluent
        if cert >> len(order):
            return False
        return _relaxed_closed(m, {f for i, f in enumerate(order) if cert >> i & 1})
    reached, partners = cert
    return _pairs_closed(m, order, reached, partners)


def _relaxed_closed(m: PlanningModel, reached) -> bool:
    """Whether reached lies within m's fluents, holds init but not the
    whole goal, and every action whose precondition lies within it adds
    only atoms of it, in each effect whose condition lies within it."""
    if not m.init <= reached <= m.fluents or m.goal <= reached:
        return False
    for a in m.actions:
        if a.prec <= reached:
            for e in a.effects:
                if e.condition <= reached and not e.adds <= reached:
                    return False
    return True


def _pairs_closed(m: PlanningModel, order, reached: int, partners: dict[int, int]) -> bool:
    """Whether the pair set holds init's pairs but not the goal's and is
    closed under m's actions.

    The set must lie within m's fluents, be symmetric, and hold each of
    its atoms paired with itself. An action counts when its precondition
    is pairwise inside, and a conditional effect of it when its condition
    is pairwise inside together with the precondition. Only the effects
    whose condition lies within the precondition surely fire, so only
    their deletes delete; adds win. Each atom the action adds must then
    be paired with every atom that may hold with the precondition and is
    not deleted, and with every atom it adds.
    """
    bit_of = {f: 1 << i for i, f in enumerate(order)}
    if not bit_of.keys() >= m.fluents:
        return False

    def mask(fluents) -> int:
        out = 0
        for f in fluents:
            out |= bit_of[f]
        return out

    if reached & ~mask(m.fluents):
        return False
    # the partners of each atom of reached; an atom outside it has none,
    # whatever partners says
    mates: dict[int, int] = {}
    rows = []
    for i in range(len(order)):
        bit = 1 << i
        row = partners.get(bit, 0) if bit & reached else 0
        if bit & reached and not row & bit or row & ~reached:
            return False
        mates[bit] = row
        # row i as a string whose j-th character is bit j
        rows.append(format(row, f"0{len(order)}b")[::-1])
    # symmetric: the matrix of rows equals its transpose
    if ["".join(column) for column in zip(*rows)] != rows:
        return False

    def together(bits: int) -> int:
        # the atoms paired with every atom of bits
        out = reached
        while bits:
            bit = bits & -bits
            bits ^= bit
            out &= mates[bit]
        return out

    init = mask(m.init)
    goal = mask(m.goal)
    if together(init) & init != init or together(goal) & goal == goal:
        return False
    for a in m.actions:
        pre = mask(a.prec)
        allowed = together(pre)
        if allowed & pre != pre:
            continue
        dels = adds = 0
        for e in a.effects:
            if e.condition <= a.prec:
                dels |= mask(e.dels)
                adds |= mask(e.adds)
            else:
                both = pre | mask(e.condition)
                if together(both) & both == both:
                    adds |= mask(e.adds)
        after = (allowed & ~dels) | adds
        while adds:
            bit = adds & -adds
            adds ^= bit
            if after & ~mates[bit]:
                return False
    return True
