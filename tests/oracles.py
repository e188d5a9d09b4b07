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
from noplan.abstraction import (
    ADD_EFFECT_LITERAL,
    DEL_EFFECT_LITERAL,
    EFFECT_CONDITION_LITERAL,
    GOAL_LITERAL,
    INIT_LITERAL,
    PRECONDITION_LITERAL,
    ModelUpdate,
    concretize,
    project_model,
)
from noplan.advice import ActionLabel, ConstraintFsa
from noplan.errors import InvalidPlanError, NoplanError, PddlError
from noplan.landmarks import GREEDY_NECESSARY, NATURAL, NECESSARY, LandmarkGraph
from noplan.model import (
    Action,
    DnfFormula,
    Effect,
    FluentTable,
    Plan,
    PlanningModel,
    State,
    apply_action,
    holds,
    validate_plan,
)
from noplan.search import (
    EXHAUSTED,
    GATE,
    SOLVABLE,
    UNSOLVABLE,
    SearchLimits,
    SearchResult,
    decide_solvable,
    relaxed_reachable,
)


class EnumerationBudgetError(NoplanError):
    """Exhaustive plan enumeration exceeded its node budget."""


class ProjectionRelationError(NoplanError):
    """Two models handed to diff_models are not in a projection relation."""


def decide_solvable_by_sets(m: PlanningModel, limits: SearchLimits | None = None) -> SearchResult:
    """decide_solvable as a breadth-first search over frozenset states.

    The same relaxed early exit, action filter, successor order, goal
    test at generation and per-expansion budgets, but every state is a
    frozenset of fluent ids and every successor comes from apply_action.
    A budget that trips after the search has passed the gate (GATE
    states per action that can fire) first gets the pair check, from
    reachable_pairs: where it rules the goal out the answer is
    "unsolvable", as the search finds at the gate.
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

    def exhausted(detail: str) -> SearchResult:
        if expanded > GATE * len(actions) and not pairwise(reachable_pairs(m), m.goal):
            return SearchResult(UNSOLVABLE)
        return SearchResult(EXHAUSTED, None, detail)

    while queue:
        if expanded >= limits.max_nodes:
            return exhausted(f"node budget {limits.max_nodes} reached")
        if time.monotonic() > deadline:
            return exhausted(f"time budget {limits.max_seconds}s reached")
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


def reachable_pairs(m: PlanningModel) -> set[frozenset[int]]:
    """The fluent pairs (and, as one-element sets, fluents) that h^2
    finds may hold together in a state reachable from init, with
    conditional effects treated as search._pairs treats them.

    An effect whose condition lies within the precondition counts as
    unconditional. Any other adds once precondition and condition are
    pairwise reachable, and never deletes. An action's adds then hold
    with each other and with every fluent that may hold with its whole
    precondition and is not deleted, unless it is added too.
    """
    pairs = {frozenset((p, q)) for p in m.init for q in m.init}
    changed = True
    while changed:
        changed = False
        for a in m.actions:
            if not pairwise(pairs, a.prec):
                continue
            adds: set[int] = set()
            dels: set[int] = set()
            for e in a.effects:
                if e.condition <= a.prec:
                    adds |= e.adds
                    dels |= e.dels
                elif pairwise(pairs, a.prec | e.condition):
                    adds |= e.adds
            atoms = {p for pair in pairs for p in pair}
            after = adds | {q for q in atoms - dels if pairwise(pairs, a.prec | {q})}
            for p in adds:
                for q in after:
                    if frozenset((p, q)) not in pairs:
                        pairs.add(frozenset((p, q)))
                        changed = True
    return pairs


def pairwise(pairs: set[frozenset[int]], fluents) -> bool:
    return all(frozenset((p, q)) in pairs for p in fluents for q in fluents)


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


def holds_closed_world(table: FluentTable, state: State, formula: DnfFormula) -> bool:
    """Like holds(), but evaluates compiled complement fluents as 'positive absent'.

    Needed when a formula mentions not-p while the state being inspected
    does not materialize the complement pair.
    """
    for d in formula.disjuncts:
        ok = True
        for f in d:
            pos = table.positive_of(f)
            if pos is not None:
                if pos in state:
                    ok = False
                    break
            elif f not in state:
                ok = False
                break
        if ok:
            return True
    return False


def action_moves(fsa: ConstraintFsa, states: set[str], name: str) -> set[str]:
    """The automaton states one step on action name leads to from states."""
    return {
        t.target
        for t in fsa.transitions
        if t.source in states and isinstance(t.label, ActionLabel) and t.label.name == name
    }


def _guard_closure(fsa: ConstraintFsa, states: set[str], trace_state, table) -> set[str]:
    out = set(states)
    changed = True
    while changed:
        changed = False
        for t in fsa.guard_transitions():
            if t.source in out and t.target not in out:
                if holds_closed_world(table, trace_state, t.label.formula):
                    out.add(t.target)
                    changed = True
    return out


def accepts(fsa: ConstraintFsa, plan, m: PlanningModel) -> bool:
    """True when some run of fsa over the plan's actions ends accepting.

    The advice semantics read directly, without compiling: guard
    transitions are optional epsilon moves whenever their formula holds
    in the current trace state, and the subset construction below covers
    every firing schedule at once.
    """
    plan = tuple(plan)
    if not validate_plan(m, plan).valid:
        raise InvalidPlanError("accepts() needs a plan that is valid in the model")
    states = replay(m, plan)
    current = _guard_closure(fsa, {fsa.initial}, states[0], m.table)
    for i, name in enumerate(plan):
        current = action_moves(fsa, current, name)
        if not current:
            return False
        current = _guard_closure(fsa, current, states[i + 1], m.table)
    return bool(current & fsa.accepting)


def accepted_bounded_plans(m, fsa, base_len: int) -> set[tuple[str, ...]]:
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


_KIND_ORDER = {
    INIT_LITERAL: 0,
    GOAL_LITERAL: 1,
    PRECONDITION_LITERAL: 2,
    EFFECT_CONDITION_LITERAL: 3,
    ADD_EFFECT_LITERAL: 4,
    DEL_EFFECT_LITERAL: 5,
}


def update_sort_key(u: ModelUpdate):
    """The reported order of model updates: by kind, action name, fluent id."""
    return (_KIND_ORDER[u.kind], u.action or "", u.fluent)


def diff_models(abs_m: PlanningModel, conc_m: PlanningModel) -> list[ModelUpdate]:
    """One update per occurrence of a projected fluent in the concrete model.

    The occurrences are read off conc_m's init, goal, preconditions,
    effect conditions, adds and deletes one component at a time.
    """
    restored = conc_m.fluents - abs_m.fluents
    if abs_m.fluents - conc_m.fluents or project_model(conc_m, restored) != abs_m:
        raise ProjectionRelationError("models are not in a projection relation")
    components = [(INIT_LITERAL, None, conc_m.init), (GOAL_LITERAL, None, conc_m.goal)]
    for a in conc_m.actions:
        components.append((PRECONDITION_LITERAL, a.name, a.prec))
        for e in a.effects:
            components.append((EFFECT_CONDITION_LITERAL, a.name, e.condition))
            components.append((ADD_EFFECT_LITERAL, a.name, e.adds))
            components.append((DEL_EFFECT_LITERAL, a.name, e.dels))
    updates = {ModelUpdate(kind, action, f)
               for kind, action, fluents in components for f in fluents if f in restored}
    return sorted(updates, key=update_sort_key)


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


def tokenize_two_pass(text: str) -> list[pddl.Tok]:
    """Every token of text, parentheses included, with its line and column.

    Lines are split at \\n only; a trailing \\r is whitespace.
    """
    toks: list[pddl.Tok] = []
    for ln, line in enumerate(text.split("\n"), start=1):
        body = line.split(";", 1)[0]
        for match in pddl._TOKEN_RE.finditer(body):
            toks.append(pddl.Tok(match.group(0), ln, match.start() + 1))
    return toks


def read_sexprs_two_pass(text: str):
    """The reader in two passes, a Tok per token and then a stack over them.

    For text whose lines end in \\n or \\r\\n it gives the forms and the
    PddlError of pddl._read_sexprs.
    """
    forms: list = []
    # each open parenthesis with the items read inside it so far
    stack: list[tuple[pddl.Tok, list]] = []
    for tok in tokenize_two_pass(text):
        if tok.text == "(":
            if len(stack) == pddl.MAX_DEPTH:
                raise PddlError(f"parentheses nested deeper than {pddl.MAX_DEPTH}",
                                tok.line, tok.col)
            stack.append((tok, []))
            continue
        item = tok
        if tok.text == ")":
            if not stack:
                raise PddlError("unexpected ')'", tok.line, tok.col)
            item = stack.pop()[1]
        (stack[-1][1] if stack else forms).append(item)
    if stack:
        opening = stack[-1][0]
        raise PddlError("unbalanced parenthesis", opening.line, opening.col)
    return forms


def ground_by_product(lifted: pddl.LiftedModel) -> PlanningModel:
    """pddl.ground by instantiating every type-consistent binding, then filtering.

    An instantiation with parameters is dropped when one of its positive
    preconditions is on a static predicate and false in the initial
    state. The survivors are assembled here, without pddl's grounding
    code: every occurring atom is interned in sorted order, each negated
    one then gets its complement not-p in sorted order, adds win inside
    a clause, and each clause that adds p deletes not-p while each that
    deletes p adds not-p, unless an effect adding p fires whenever it
    does. An adding effect that can fire alongside without always doing
    so (judged by relaxed reachability with every complement added where
    its atom is deleted) raises PddlError, as ground does.
    """
    static_preds = pddl._static_predicates(lifted)
    init_atoms = {(a.pred, a.args) for a in lifted.init}
    grounded = []
    for schema in lifted.schemas:
        domains = [lifted.objects_of(t) for _, t in schema.params]
        for combo in itertools.product(*domains):
            binding = {var: obj for (var, _), obj in zip(schema.params, combo)}

            def atoms(seq):
                return {(a.pred, tuple(binding.get(arg, arg) for arg in a.args)) for a in seq}

            pos = atoms(schema.pos_pre)
            if combo and any(p in static_preds and (p, args) not in init_atoms
                             for p, args in pos):
                continue
            clauses = [(atoms(e.condition), atoms(e.adds), atoms(e.dels)) for e in schema.effects]
            grounded.append(("_".join((schema.name,) + combo), pos, atoms(schema.neg_pre),
                             clauses))

    goal_pos = {(a.pred, a.args) for a in lifted.goal_pos}
    goal_neg = {(a.pred, a.args) for a in lifted.goal_neg}
    negated = set(goal_neg)
    occurring = init_atoms | goal_pos | goal_neg
    for _, pos, neg, clauses in grounded:
        negated |= neg
        occurring |= pos | neg
        for cond, adds, dels in clauses:
            occurring |= cond | adds | dels
    table = FluentTable()
    for key in sorted(occurring):
        table.intern(*key)
    complement = {}
    for pred, args in sorted(negated):
        if table.get("not-" + pred, args) is not None:
            raise PddlError(f"the complement of {pred} would be named not-{pred}")
        p, n = table.id_of(pred, args), table.intern("not-" + pred, args)
        table.register_complement(p, n)
        complement[p] = n

    def ids(keys):
        return frozenset(table.id_of(*key) for key in keys)

    actions = []
    for name, pos, neg, clauses in grounded:
        prec = ids(pos) | {complement[f] for f in ids(neg)}
        effects = []
        for cond, adds, dels in clauses:
            if cond or adds or dels - adds or len(clauses) == 1:
                effects.append(Effect(ids(cond), ids(adds), ids(dels - adds)))
        actions.append(Action(name, prec, tuple(effects)))
    init = ids(init_atoms)
    init |= {n for p, n in complement.items() if p not in init}
    goal = ids(goal_pos) | {complement[f] for f in ids(goal_neg)}
    fluents = frozenset(range(len(table)))
    naive = tuple(Action(a.name, a.prec, tuple(
        Effect(e.condition, e.adds | {complement[p] for p in e.dels if p in complement}, e.dels)
        for e in a.effects)) for a in actions)
    reachable = relaxed_reachable(PlanningModel(table, fluents, naive, init, goal))

    def maintained(a: Action) -> Action:
        effects = []
        for e in a.effects:
            adds = set(e.adds)
            dels = set(e.dels) | {complement[p] for p in e.adds if p in complement}
            for p in e.dels & complement.keys():
                adders = [o for o in a.effects if p in o.adds]
                if any(o.condition <= e.condition | a.prec for o in adders):
                    continue
                if any(e.condition | o.condition | a.prec <= reachable for o in adders):
                    raise PddlError(f"action {a.name} deletes and may add {p}")
                adds.add(complement[p])
            effects.append(Effect(e.condition, frozenset(adds), frozenset(dels)))
        return Action(a.name, a.prec, tuple(effects))

    return PlanningModel(table, fluents, tuple(maintained(a) for a in actions), init, goal)


def same_content(a: PlanningModel, b: PlanningModel) -> bool:
    """Structural equality by fluent names, usable across fluent tables."""

    def side(m: PlanningModel):
        def names(ids):
            return frozenset(m.table.canonical(f) for f in ids)

        actions = tuple(
            (a.name, names(a.prec),
             tuple(sorted((tuple(sorted(names(e.condition))), tuple(sorted(names(e.adds))),
                           tuple(sorted(names(e.dels)))) for e in a.effects)))
            for a in sorted(m.actions, key=lambda a: a.name)
        )
        return names(m.fluents), names(m.init), names(m.goal), actions

    return side(a) == side(b)


def with_conditional_resets(compiled: PlanningModel) -> PlanningModel:
    """An achievability compile with its reset rewritten as one
    self-conditioned delete per first-time flag, ``when first-time-lmN:
    delete first-time-lmN``, the form compile_achievability once used.
    """
    flags = frozenset(f for f in compiled.fluents
                      if compiled.table.fluent(f).name.startswith("first-time-lm"))
    resets = tuple(Effect(frozenset({f}), frozenset(), frozenset({f})) for f in sorted(flags))
    # the reset is the only effect that deletes first-time flags
    actions = tuple(
        Action(a.name, a.prec, tuple(e for e in a.effects if not e.dels & flags) + resets)
        for a in compiled.actions
    )
    return PlanningModel(compiled.table, compiled.fluents, actions, compiled.init, compiled.goal)


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
