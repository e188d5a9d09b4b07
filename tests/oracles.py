"""Independent brute-force oracles used by the property and acceptance suites.

Everything here recomputes ground truth by explicit enumeration or
exhaustive reachability, without touching the compilation or search
code paths it is meant to check.
"""

from __future__ import annotations

import itertools
import time
from collections import deque

from noplan import pddl
from noplan.abstraction import concretize, diff_models
from noplan.errors import EnumerationBudgetError
from noplan.landmarks import GREEDY_NECESSARY, NATURAL, NECESSARY, LandmarkGraph
from noplan.model import Action, DnfFormula, Effect, Plan, PlanningModel, State, apply_action, holds
from noplan.search import (
    EXHAUSTED,
    SOLVABLE,
    UNSOLVABLE,
    SearchLimits,
    SearchResult,
    decide_solvable,
    relaxed_reachable,
)


def decide_solvable_by_sets(m: PlanningModel, limits: SearchLimits | None = None) -> SearchResult:
    """decide_solvable as a breadth-first search over frozenset states.

    The same relaxed early exit, action filter, successor order, goal
    test at generation and per-expansion budgets, but every state is a
    frozenset of fluent ids and every successor comes from apply_action.
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
    """Exhaustive forward reachability."""
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


def verify_landmark_oracle(m: PlanningModel, formula: DnfFormula, max_len: int,
                           max_nodes: int = 2_000_000) -> bool:
    """Ground truth by enumeration: every bounded plan passes through formula.

    The initial state and every intermediate state count; vacuously true
    when no plan exists within the bound.
    """
    for plan in enumerate_plans(m, max_len, max_nodes):
        state = m.init
        if holds(state, formula):
            continue
        hit = False
        for name in plan:
            state = apply_action(state, m.action(name))
            if holds(state, formula):
                hit = True
                break
        if not hit:
            return False
    return True


def replay(m: PlanningModel, plan):
    states = [m.init]
    for name in plan:
        states.append(apply_action(states[-1], m.action(name)))
    return states


def achievability_oracle(m: PlanningModel, lg: LandmarkGraph, phi) -> bool:
    """Ordering-honoring achievability, simulated directly on traces.

    Explores every reachable (state, achieved, unset, first-time)
    configuration, applying the ordering semantics to each transition:
    a landmark counts as achieved by a step when the step completes one
    of its disjuncts while its necessary predecessors hold in the
    pre-state and its natural predecessors were achieved earlier; the
    first such achievement additionally needs the greedy-necessary
    predecessors in the pre-state and the landmark still pending.
    """
    nec = {lm.id: [p.formula for p in lg.predecessors(lm.id, NECESSARY)]
           for lm in lg.landmarks}
    gnec = {lm.id: [p.formula for p in lg.predecessors(lm.id, GREEDY_NECESSARY)]
            for lm in lg.landmarks}
    nat = {lm.id: [p.id for p in lg.predecessors(lm.id, NATURAL)]
           for lm in lg.landmarks}

    ach0 = frozenset(lm.id for lm in lg.landmarks if holds(m.init, lm.formula))
    start = (m.init, ach0, frozenset(lm.id for lm in lg.landmarks) - ach0, ach0)
    if phi.id in start[3]:
        return True
    seen = {start}
    frontier = [start]
    while frontier:
        state, ach, unset, _ = frontier.pop()
        for a in m.actions:
            if not a.prec <= state:
                continue
            succ = apply_action(state, a)
            fired1, fired2 = set(), set()
            for lm in lg.landmarks:
                completes = False
                for e in a.effects:
                    if not e.condition <= state:
                        continue
                    certain_dels = frozenset().union(
                        *(o.dels for o in a.effects if o.condition <= e.condition)
                    )
                    certain_adds = frozenset().union(
                        *(o.adds for o in a.effects if o.condition <= e.condition)
                    )
                    for c in lm.formula.disjuncts:
                        partial = e.adds & c
                        rest = c - e.adds
                        if (partial and rest <= state
                                and not rest & (certain_dels - certain_adds)):
                            completes = True
                            break
                    if completes:
                        break
                if not completes:
                    continue
                if not all(holds(state, f) for f in nec[lm.id]):
                    continue
                if not all(p in ach for p in nat[lm.id]):
                    continue
                fired1.add(lm.id)
                if lm.id in unset and all(holds(state, f) for f in gnec[lm.id]):
                    fired2.add(lm.id)
            nxt = (succ, ach | fired1, unset - fired2, frozenset(fired2))
            if phi.id in nxt[3]:
                return True
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def stripped_bounded_plans(cm, base_len: int, total_len: int) -> set[tuple[str, ...]]:
    """{strip(pi) : pi valid in cm.compiled, |pi| <= total_len}, cut to base_len."""
    compiled = cm.compiled
    memo: dict = {}

    def suffixes(state, depth) -> frozenset:
        key = (state, depth)
        cached = memo.get(key)
        if cached is not None:
            return cached
        out = set()
        if compiled.goal <= state:
            out.add(())
        if depth > 0:
            for a in compiled.actions:
                if a.prec <= state:
                    succ = apply_action(state, a)
                    base_name, _ = cm.meta_action_map[a.name]
                    for suffix in suffixes(succ, depth - 1):
                        out.add(((base_name,) + suffix) if base_name else suffix)
        result = frozenset(p for p in out if len(p) <= base_len)
        memo[key] = result
        return result

    return set(suffixes(compiled.init, total_len))


def accepted_bounded_plans(m, fsa, base_len: int) -> set[tuple[str, ...]]:
    from noplan.advice import accepts

    return {p for p in enumerate_plans(m, base_len) if accepts(fsa, p, m)}


def check_orderings_on_plans(m: PlanningModel, g: LandmarkGraph, max_len: int) -> list[str]:
    """Violations of the ordering semantics over every bounded plan."""
    problems = []
    plans = sorted(enumerate_plans(m, max_len))
    for plan in plans:
        states = replay(m, plan)
        for o in g.orderings:
            src = g.by_id(o.source).formula
            tgt = g.by_id(o.target).formula
            first = next((i for i, s in enumerate(states) if holds(s, tgt)), None)
            if o.kind == GREEDY_NECESSARY:
                if first is not None and first > 0 and not holds(states[first - 1], src):
                    problems.append(f"gnec {o.source}->{o.target} broken by {plan}")
            elif o.kind == NECESSARY:
                for i in range(1, len(states)):
                    if holds(states[i], tgt) and not holds(states[i - 1], tgt):
                        if not holds(states[i - 1], src):
                            problems.append(f"nec {o.source}->{o.target} broken by {plan}")
            elif o.kind == NATURAL:
                if first is not None and first > 0:
                    if not any(holds(states[i], src) for i in range(first)):
                        problems.append(f"nat {o.source}->{o.target} broken by {plan}")
    return problems


def landmark_holds_on_all_plans(m: PlanningModel, formula, max_len: int) -> bool:
    for plan in enumerate_plans(m, max_len):
        if not any(holds(s, formula) for s in replay(m, plan)):
            return False
    return True


def brute_force_explanations(lat, members):
    """Every valid explanatory set with its diff-based cost, exhaustively."""
    universe = sorted(set().union(*(n.projected for n in members)))
    found = []
    for r in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            candidate = frozenset(combo)
            ok = True
            updates = set()
            for node in members:
                conc = concretize(lat, node, candidate & node.projected)
                if decide_solvable(conc.model).solvable:
                    ok = False
                    break
                updates |= set(diff_models(node.model, conc.model))
            if ok:
                found.append((len(updates), candidate))
    return found


def ground_by_product(lifted: pddl.LiftedModel) -> PlanningModel:
    """pddl.ground by instantiating every type-consistent binding, then filtering.

    An instantiation with parameters is dropped when one of its positive
    preconditions is on a static predicate and false in the initial
    state; the survivors go through the same model assembly as ground.
    """
    static_preds = pddl._static_predicates(lifted)
    init_atoms = {(a.pred, a.args) for a in lifted.init}
    grounded = []
    for schema in lifted.schemas:
        domains = [lifted.objects_of(t) for _, t in schema.params]
        for combo in itertools.product(*domains):
            binding = {var: obj for (var, _), obj in zip(schema.params, combo)}
            ga = pddl._instantiate(schema, binding, combo)
            if schema.params and any(key[0] in static_preds and key not in init_atoms
                                     for key in ga.pos_pre):
                continue
            grounded.append(ga)
    return pddl._assemble(lifted, grounded, init_atoms)


def project_by_rebuild(m: PlanningModel, fluents) -> PlanningModel:
    """project_model by rebuilding every action and validating the result."""
    gone = frozenset(fluents)
    actions = tuple(
        Action(
            a.name,
            a.prec - gone,
            tuple(Effect(e.condition - gone, e.adds - gone, e.dels - gone) for e in a.effects),
        )
        for a in m.actions
    )
    return PlanningModel(m.table, m.fluents - gone, actions, m.init - gone, m.goal - gone)
