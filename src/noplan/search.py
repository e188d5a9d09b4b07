"""Solvability decisions by breadth-first search over bitmask states.

decide_solvable first needs the atoms reachable under the delete
relaxation (Bonet & Geffner, "Planning as heuristic search", AIJ 2001),
counting an effect's condition as a precondition of its adds. A goal
outside that set is unreachable in the task too, so the answer is
"unsolvable" without expanding a state. Otherwise a breadth-first search
with duplicate detection runs over the (finite) state space, using only
the actions whose preconditions lie inside the set: no other action is
ever applicable. "Unsolvable" is exact, reported once the queue is
exhausted, and a solvable result carries the first shortest plan in
model action order. Budgets turn an undecided search into a
resource-exhausted result, never a wrong answer.

Inside the search a state is a Python int: bit i is set when the i-th
fluent of the model, in id order, holds. Each action of the
relaxed-reachable set becomes a precondition mask, one keep/add mask
pair that folds every effect certain to fire (an empty condition, or
one implied by the precondition), and a (condition, keep, add) triple
per other conditional effect whose condition is relaxed-reachable; a
condition outside that set never holds. A successor is
``(state & keep) | add`` once the keep and add masks of the conditional
effects that hold in the pre-state are folded in: triggered deletes are
removed, then adds applied, so adds win, as in ``model.apply_action``.

The relaxed-reachable set is computed on a model's first search and
the masks on its first search that expands a state; both are kept in
the model's ``_search`` dict. Neither depends on the goal, so a
``with_goal`` copy shares that dict with its source and only the goal
mask is built per call; a projection made by ``without`` gets an empty
one. Plans, results
and every signature keep fluent ids and action names.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

# apply_action is not called here; the benchmark's tracer counts
# generated states by patching noplan.search.apply_action
from .model import Plan, PlanningModel, apply_action  # noqa: F401

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable"
EXHAUSTED = "resource-exhausted"


@dataclass(frozen=True)
class SearchLimits:
    max_nodes: int = 10_000_000
    max_seconds: float = 300.0


@dataclass(frozen=True)
class SearchResult:
    """A solvability decision; a solvable one carries a valid plan.

    From decide_solvable the plan is the first shortest one. A lattice
    node decided by replaying another node's plan (see
    ``AbstractionLattice.solvability``) carries that plan, which is
    valid on the node but need not be its first shortest.
    """

    status: str  # SOLVABLE | UNSOLVABLE | EXHAUSTED
    plan: Plan | None = None
    detail: str | None = None

    @property
    def solvable(self) -> bool:
        return self.status == SOLVABLE

    @property
    def exhausted(self) -> bool:
        return self.status == EXHAUSTED


def relaxed_reachable(m: PlanningModel, banned=frozenset()) -> set[int]:
    """Atoms reachable from init when deletes are ignored.

    Actions named in banned are left out.
    """
    actions = [a for a in m.actions if a.name not in banned] if banned else m.actions
    reached = set(m.init)
    changed = True
    while changed:
        changed = False
        for a in actions:
            if a.prec <= reached:
                for e in a.effects:
                    if e.condition <= reached and not e.adds <= reached:
                        reached |= e.adds
                        changed = True
    return reached


def _compile(m: PlanningModel, reached: set[int]):
    """The search masks of m: (bits, init, ops).

    bits maps each fluent id to its bit and init is the initial state.
    ops holds (precondition, keep, add, conditional triples, name) for
    each action whose precondition is relaxed-reachable, in model action
    order.
    """
    bits = {f: 1 << i for i, f in enumerate(sorted(m.fluents))}
    # keep masks are complements within the model's bits, not a bare ~,
    # so every state stays a non-negative int, on which & and | are faster
    full = (1 << len(bits)) - 1
    ops = []
    for a in m.actions:
        if not a.prec <= reached:
            continue
        dels = adds = 0
        conds = []
        for e in a.effects:
            if e.condition <= a.prec:
                dels |= _mask(bits, e.dels)
                adds |= _mask(bits, e.adds)
            elif e.condition <= reached:
                conds.append((_mask(bits, e.condition), full & ~_mask(bits, e.dels),
                              _mask(bits, e.adds)))
        ops.append((_mask(bits, a.prec), full & ~dels, adds, tuple(conds), a.name))
    return bits, _mask(bits, m.init), tuple(ops)


def _mask(bits: dict[int, int], fluents) -> int:
    out = 0
    for f in fluents:
        out |= bits[f]
    return out


def decide_solvable(m: PlanningModel, limits: SearchLimits | None = None) -> SearchResult:
    """Decide whether m has a valid plan; exact unless a budget trips.

    A solvable result holds the first shortest plan, with successors
    generated in model action order, so it is deterministic for a fixed
    model.
    """
    limits = limits or SearchLimits()
    if m.goal <= m.init:
        return SearchResult(SOLVABLE, ())
    tables = m._search
    reached = tables.get("reached")
    if reached is None:
        reached = tables["reached"] = relaxed_reachable(m)
    if not m.goal <= reached:
        return SearchResult(UNSOLVABLE)
    masks = tables.get("masks")
    if masks is None:
        masks = tables["masks"] = _compile(m, reached)
    bits, init, ops = masks
    goal = _mask(bits, m.goal)
    deadline = time.monotonic() + limits.max_seconds
    queue: deque[int] = deque([init])
    parent: dict[int, tuple[int, str] | None] = {init: None}
    expanded = 0
    while queue:
        if expanded >= limits.max_nodes:
            return SearchResult(EXHAUSTED, None, f"node budget {limits.max_nodes} reached")
        if time.monotonic() > deadline:
            return SearchResult(EXHAUSTED, None, f"time budget {limits.max_seconds}s reached")
        state = queue.popleft()
        expanded += 1
        for pre, keep, add, conds, name in ops:
            if state & pre != pre:
                continue
            for cond, cond_keep, cond_add in conds:
                if state & cond == cond:
                    keep &= cond_keep
                    add |= cond_add
            succ = (state & keep) | add
            if succ in parent:
                continue
            parent[succ] = (state, name)
            if succ & goal == goal:
                return SearchResult(SOLVABLE, _reconstruct(parent, succ))
            queue.append(succ)
    return SearchResult(UNSOLVABLE)


def _reconstruct(parent, state) -> Plan:
    steps: list[str] = []
    cur = state
    while True:
        entry = parent[cur]
        if entry is None:
            break
        cur, name = entry
        steps.append(name)
    return tuple(reversed(steps))
