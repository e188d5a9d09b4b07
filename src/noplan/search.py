"""Solvability decisions and exhaustive plan enumeration.

decide_solvable first computes, once per call, the atoms reachable under
the delete relaxation (Bonet & Geffner, "Planning as heuristic search",
AIJ 2001), counting an effect's condition as a precondition of its adds.
A goal outside that set is unreachable in the task too, so the answer is
"unsolvable" without expanding a state. Otherwise a breadth-first search
with duplicate detection runs over the (finite) state space, using only
the actions whose preconditions lie inside the set: no other action is
ever applicable. "Unsolvable" is exact, reported once the queue is
exhausted, and a solvable result carries the first shortest plan in
model action order. Budgets turn an undecided search into a
resource-exhausted result, never a wrong answer.

enumerate_plans is the brute-force oracle used by the property suite:
it walks every applicable action sequence up to a length bound and
collects exactly the valid plans.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from .errors import EnumerationBudgetError
from .model import Plan, PlanningModel, State, apply_action

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


def decide_solvable(m: PlanningModel, limits: SearchLimits | None = None) -> SearchResult:
    """Decide whether m has a valid plan; exact unless a budget trips.

    A solvable result holds the first shortest plan, with successors
    generated in model action order, so it is deterministic for a fixed
    model.
    """
    limits = limits or SearchLimits()
    if m.goal <= m.init:
        return SearchResult(SOLVABLE, ())
    reached = relaxed_reachable(m)
    if not m.goal <= reached:
        return SearchResult(UNSOLVABLE)
    actions = [a for a in m.actions if a.prec <= reached]
    deadline = time.monotonic() + limits.max_seconds
    queue: deque[State] = deque([m.init])
    parent: dict[State, tuple[State, str] | None] = {m.init: None}
    expanded = 0
    while queue:
        if expanded >= limits.max_nodes:
            return SearchResult(EXHAUSTED, None, f"node budget {limits.max_nodes} reached")
        if time.monotonic() > deadline:
            return SearchResult(EXHAUSTED, None, f"time budget {limits.max_seconds}s reached")
        state = queue.popleft()
        expanded += 1
        for a in actions:
            if not a.prec <= state:
                continue
            succ = apply_action(state, a)
            if succ in parent:
                continue
            parent[succ] = (state, a.name)
            if m.goal <= succ:
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


def enumerate_plans(m: PlanningModel, max_len: int, max_nodes: int = 2_000_000) -> set[Plan]:
    """All valid plans of length <= max_len, by exhaustive tree walk.

    Distinct action sequences only; loops through repeated states are
    allowed. Raises EnumerationBudgetError past max_nodes tree nodes.
    """
    plans: set[Plan] = set()
    nodes = 0

    def walk(state: State, prefix: list[str]) -> None:
        nonlocal nodes
        if m.goal <= state:
            plans.add(tuple(prefix))
        if len(prefix) == max_len:
            return
        for a in m.actions:
            nodes += 1
            if nodes > max_nodes:
                raise EnumerationBudgetError(f"enumeration exceeded {max_nodes} nodes")
            if a.prec <= state:
                prefix.append(a.name)
                walk(apply_action(state, a), prefix)
                prefix.pop()

    walk(m.init, [])
    return plans


def reachable_states(m: PlanningModel, max_states: int = 1_000_000) -> set[State]:
    """Exhaustive forward reachability; utility for oracles and checks."""
    seen = {m.init}
    frontier = [m.init]
    while frontier:
        state = frontier.pop()
        for a in m.actions:
            if a.prec <= state:
                succ = apply_action(state, a)
                if succ not in seen:
                    if len(seen) >= max_states:
                        raise EnumerationBudgetError(f"more than {max_states} reachable states")
                    seen.add(succ)
                    frontier.append(succ)
    return seen
