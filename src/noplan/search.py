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
fluent of the model, in id order, holds. compile_masks turns each
action into a precondition mask, one keep/add mask pair that folds
every effect certain to fire (an empty condition, or one implied by the
precondition), and a (condition, keep, add) triple per other
conditional effect. A successor is ``(state & keep) | add`` once the
keep and add masks of the conditional effects that hold in the
pre-state are folded in: triggered deletes are removed, then adds
applied, so adds win, as in ``model.apply_action``.

decide_masks is the one search routine: the relaxed check over the
masks, then the breadth-first search over the ops whose preconditions
(and conditions) are relaxed-reachable. decide_solvable runs it on a
model's masks. It first checks the relaxed-reachable fluent set itself,
so a goal outside it is answered before any mask is compiled, and then
compiles only the actions and effects inside the set. The set, the
masks, the set as a mask (decide_masks' relaxed bits: the mask
fixpoint of the filtered ops is the set itself) and decide_masks'
successor index go into a tables dict. None depends on the goal, so a
caller that searches one model for several goals may pass the same
dict to each call, and only the goal mask is built per call: the
achievability scan does, so one successor index serves every landmark
goal of a scan. Every other search builds its tables afresh, so no
search answers from tables another one built: a self-verification
search is independent of the search whose claim it checks.

The successor index follows the precondition-indexed successor
generator of Helmert ("The Fast Downward Planning System", JAIR 2006).
Each op is filed under one key bit of its precondition: the lowest bit
not set in init, since a bit set in init may hold in most states, or
the lowest bit when the whole precondition holds in init. An op with an
empty precondition goes on a list of its own. An expanded state
collects its applicable ops from that list and from the buckets of the
key bits it holds, which cover every op applicable in it, and sorts
them back into model action order by the position each op carries, so
successors are still generated in that order and the plan found is
still the first shortest. No per-state list outlives the expansion.

A search that runs long gets one polynomial unsolvability check: the
pairs of atoms that can hold together in some reachable state (h^2,
Haslum & Geffner, "Admissible Heuristics for Optimal Planning", AIPS
2000). A goal with a pair outside that set, or an atom outside it, is
unreachable, which is the local-consistency test of Bäckström, Jonsson
& Ståhlberg ("Fast Detection of Unsolvable Planning Instances Using
Local Consistency", SoCS 2013). _bfs runs the pass (_pairs) over the
ops of the successor index once it is about to expand state number
GATE times the index's op count without having reached the goal; on
every benchmark workload a solvable search ends well before that, so
only exhaustive proofs pay for the pass. Conditional effects are
handled conservatively: a conditional add counts once its condition is
pairwise reachable together with the precondition, conditional deletes
are ignored, and adds win over deletes. So the pair set can only hold
more pairs than the exact one, and an "unsolvable" from it is still
exact. The pair set is built at the gate and then dropped: a scan
stops at its first unsolvable step, and no solvable search reaches the
gate, so no later search over the same tables would read it. The check
answers only a search whose budget lets it reach the gate: a search with
``max_nodes <= gate`` returns what plain breadth-first search returns,
and above that, a search that plain breadth-first search would end
"resource-exhausted" can end "unsolvable" instead.

A lattice decides its nodes on its root's masks (see abstraction.py):
compiled without the relaxed filter, since a projection can make more
reachable, and projected by clearing bits (project_ops), with stored
plans replayed on them (replays). Plans, results and every signature
keep fluent ids and action names.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from .errors import ResourceExhaustedError
# apply_action is not called here; it is imported only so that the
# tracer of perfbench/tracing.py can patch it, so its counter reads 0
from .model import Plan, PlanningModel, apply_action  # noqa: F401

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable"
EXHAUSTED = "resource-exhausted"


# the pair check runs once a search is about to expand state number
# GATE times its op count; no solvable search of a benchmark workload
# gets that far
GATE = 4


@dataclass(frozen=True)
class SearchLimits:
    """Budgets of one search: states expanded and seconds spent.

    max_nodes is exact; the clock is read at the first expansion and
    then every 256 expansions. Budgets turn an undecided search into a
    "resource-exhausted" result, never a wrong answer. A search whose
    max_nodes is above its gate (GATE times the number of ops that can
    fire) runs the pair check at the gate, so it can end "unsolvable"
    where plain breadth-first search with the same budget ends
    exhausted; with max_nodes at or below the gate it ends as plain
    breadth-first search does.
    """

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


def decided(result: SearchResult, stage: str) -> SearchResult:
    """result, when it is a decision; an exhausted one raises
    ResourceExhaustedError naming stage and the budget that tripped."""
    if result.exhausted:
        raise ResourceExhaustedError(f"{stage}: {result.detail}")
    return result


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


def compile_masks(m: PlanningModel, reached: set[int] | None = None):
    """The search masks of m: (bits, init, ops).

    bits maps each fluent id to its bit and init is the initial state.
    ops holds (precondition, keep, add, conditional triples, name) for
    each action of m, in model action order. Given the relaxed-reachable
    set reached, only the actions whose precondition lies inside it are
    compiled, each with only the conditional effects whose condition
    does: no other action or effect can ever fire.
    """
    bits = {f: 1 << i for i, f in enumerate(sorted(m.fluents))}
    # keep masks are complements within the model's bits, not a bare ~,
    # so every state stays a non-negative int, on which & and | are faster
    full = (1 << len(bits)) - 1
    ops = []
    for a in m.actions:
        if reached is not None and not a.prec <= reached:
            continue
        dels = adds = 0
        conds = []
        for e in a.effects:
            if e.condition <= a.prec:
                dels |= fluent_mask(bits, e.dels)
                adds |= fluent_mask(bits, e.adds)
            elif reached is None or e.condition <= reached:
                conds.append((fluent_mask(bits, e.condition), full & ~fluent_mask(bits, e.dels),
                              fluent_mask(bits, e.adds)))
        ops.append((fluent_mask(bits, a.prec), full & ~dels, adds, tuple(conds), a.name))
    return bits, fluent_mask(bits, m.init), tuple(ops)


def fluent_mask(bits: dict[int, int], fluents) -> int:
    out = 0
    for f in fluents:
        out |= bits[f]
    return out


def project_ops(ops, keep: int):
    """ops with every bit outside keep cleared from preconditions,
    conditions and adds, as ``PlanningModel.without`` clears fluents.

    Deletes need no clearing: a state never holds a cleared bit.
    """
    return tuple(
        (pre & keep, op_keep, add & keep,
         tuple((cond & keep, cond_keep, cond_add & keep) for cond, cond_keep, cond_add in conds),
         name)
        for pre, op_keep, add, conds, name in ops
    )


def replays(plan: Plan, init: int, goal: int, ops_by_name, keep: int) -> bool:
    """Whether plan leads from init to a goal state over the named ops
    once the bits outside keep are cleared from them (see project_ops).

    init and goal must already lie within keep.
    """
    state = init
    for name in plan:
        pre, op_keep, add, conds, _ = ops_by_name[name]
        pre &= keep
        if state & pre != pre:
            return False
        for cond, cond_keep, cond_add in conds:
            cond &= keep
            if state & cond == cond:
                op_keep &= cond_keep
                add |= cond_add
        state = (state & op_keep) | (add & keep)
    return state & goal == goal


def decide_solvable(m: PlanningModel, limits: SearchLimits | None = None,
                    tables: dict | None = None) -> SearchResult:
    """Decide whether m has a valid plan; exact unless a budget trips.

    A solvable result holds the first shortest plan, with successors
    generated in model action order, so it is deterministic for a fixed
    model. The search tables, none of which depend on the goal, are
    built in tables when given, or found there from an earlier call on
    a model that differs from m at most in its goal.
    """
    if m.goal <= m.init:
        return SearchResult(SOLVABLE, ())
    tables = {} if tables is None else tables
    reached = tables.get("reached")
    if reached is None:
        reached = tables["reached"] = relaxed_reachable(m)
    # the same exit as decide_masks', taken before any mask is compiled
    if not m.goal <= reached:
        return SearchResult(UNSOLVABLE)
    masks = tables.get("masks")
    if masks is None:
        masks = tables["masks"] = compile_masks(m, reached)
        # the relaxed fixpoint of ops filtered on reached is reached itself
        tables["relaxed"] = fluent_mask(masks[0], reached)
    bits, init, ops = masks
    return decide_masks(init, fluent_mask(bits, m.goal), ops, limits, tables)


def decide_masks(init: int, goal: int, ops, limits: SearchLimits | None = None,
                 tables: dict | None = None) -> SearchResult:
    """Decide whether a goal state is reachable from init over ops.

    The masks are those of compile_masks, or a projection of them. The
    relaxed-reachable bits and the successor index of the ops that can
    fire within them do not depend on the goal; given tables, they are
    kept there (or found there) for the next call with the same init
    and ops.
    """
    limits = limits or SearchLimits()
    if goal & init == goal:
        return SearchResult(SOLVABLE, ())
    tables = {} if tables is None else tables
    relaxed = tables.get("relaxed")
    if relaxed is None:
        relaxed = tables["relaxed"] = _relaxed(init, ops)
    if goal & relaxed != goal:
        return SearchResult(UNSOLVABLE)
    index = tables.get("live")
    if index is None:
        index = tables["live"] = _live(ops, relaxed, init)
    return _bfs(init, goal, index, limits)


def _relaxed(init: int, ops) -> int:
    """The bits reachable from init when deletes are ignored."""
    reached = init
    waiting = ops
    while True:
        before = reached
        left = []
        for op in waiting:
            pre, _, add, conds, _ = op
            if pre & reached != pre:
                left.append(op)
                continue
            reached |= add
            if conds:
                for cond, _, cond_add in conds:
                    if cond & reached == cond:
                        reached |= cond_add
                # a condition may be reached later
                left.append(op)
        if reached == before:
            return reached
        waiting = left


def _live(ops, reached: int, init: int):
    """The successor index of the ops whose precondition lies within
    reached: (always, keys, buckets).

    Each op keeps only the conditional effects whose condition lies
    within reached; a condition implied by the precondition is folded
    into the op's keep and add masks. An op is filed as (position, pre,
    keep, add, conds, name) under one key bit of its precondition, the
    lowest bit outside init (or the lowest bit, when all hold in init):
    an op with an empty precondition goes on the always list, the others
    in buckets[key]. keys is the union of the key bits. Only an op on
    the always list or in the bucket of a key bit that a state holds can
    be applicable in it.
    """
    always = []
    buckets: dict[int, list] = {}
    for position, (pre, keep, add, conds, name) in enumerate(ops):
        if pre & reached != pre:
            continue
        if conds:
            rest = []
            for cond, cond_keep, cond_add in conds:
                if cond & pre == cond:
                    keep &= cond_keep
                    add |= cond_add
                elif cond & reached == cond:
                    rest.append((cond, cond_keep, cond_add))
            conds = tuple(rest)
        entry = (position, pre, keep, add, conds, name)
        if not pre:
            always.append(entry)
            continue
        key = pre & ~init or pre
        buckets.setdefault(key & -key, []).append(entry)
    keys = 0
    for key in buckets:
        keys |= key
    return always, keys, buckets


def _bfs(init: int, goal: int, index, limits: SearchLimits) -> SearchResult:
    """Breadth-first search over _live's successor index; a search keeps
    only its closed set (parent) and its queue."""
    always, keys, buckets = index
    gate = GATE * (len(always) + sum(map(len, buckets.values())))
    deadline = time.monotonic() + limits.max_seconds
    queue: deque[int] = deque([init])
    parent: dict[int, tuple[int, str] | None] = {init: None}
    expanded = 0
    while queue:
        if expanded >= limits.max_nodes:
            return SearchResult(EXHAUSTED, None, f"node budget {limits.max_nodes} reached")
        if not expanded & 255 and time.monotonic() >= deadline:
            return SearchResult(EXHAUSTED, None, f"time budget {limits.max_seconds}s reached")
        if expanded == gate and not _pairwise(goal, _pairs(init, index)):
            return SearchResult(UNSOLVABLE)
        state = queue.popleft()
        expanded += 1
        ops = always[:]
        keyed = state & keys
        while keyed:
            key = keyed & -keyed
            keyed ^= key
            for op in buckets[key]:
                pre = op[1]
                if state & pre == pre:
                    ops.append(op)
        ops.sort()
        for _, pre, keep, add, conds, name in ops:
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


def _pairs(init: int, index) -> tuple[int, dict[int, int]]:
    """The atom pairs that may hold together in a state reachable from
    init over the ops of a successor index: (reached, partners).

    reached holds every bit that may hold, and partners[b], for each b
    in reached, every bit that may hold together with b, b included;
    the pair set over-approximates the exact one, so a goal it rules
    out is unreachable. An op counts once its precondition is pairwise
    reachable, and so does a conditional effect whose condition is
    pairwise reachable together with the precondition. An op's adds
    then hold together with each other and with every bit that may
    hold together with its precondition and is not deleted: a
    conditional delete may not fire, so only the op's keep mask
    deletes, and an add wins over a delete of the same bit.
    """
    always, _, buckets = index
    ops = always + [op for bucket in buckets.values() for op in bucket]
    reached = init
    partners = {bit: init for bit in _bits(init)}
    changed = True
    while changed:
        changed = False
        for _, pre, keep, add, conds, _ in ops:
            allowed = _together(pre, reached, partners)
            if allowed & pre != pre:
                continue
            for cond, _, cond_add in conds:
                both = pre | cond
                if _together(both, reached, partners) & both == both:
                    add |= cond_add
            after = (allowed & keep) | add
            reached |= add
            for bit in _bits(add):
                known = partners.get(bit, 0)
                new = after & ~known
                if not new:
                    continue
                changed = True
                partners[bit] = known | new
                for other in _bits(new & ~bit):
                    partners[other] = partners.get(other, 0) | bit
    return reached, partners


def _together(mask: int, reached: int, partners: dict[int, int]) -> int:
    """The bits of reached that may hold together with every bit of mask."""
    out = reached
    for bit in _bits(mask):
        out &= partners.get(bit, 0)
    return out


def _pairwise(goal: int, pairs) -> bool:
    """Whether every atom and pair of atoms of goal may hold together."""
    reached, partners = pairs
    return _together(goal, reached, partners) & goal == goal


def _bits(mask: int):
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit


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
