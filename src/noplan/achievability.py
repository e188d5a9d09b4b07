"""Compile landmark achievability into planning, and find the first failure.

For a landmark graph and a target landmark, the compiled model extends
the base model with three bookkeeping fluents per landmark: achieved
(set once a landmark has been reached in order, never removed), unset
(still pending) and first-time (just reached). An action receives
tracking effects only for the landmarks it can complete, those with an
atom among its adds; they fire when one of its add effects completes a
disjunct of the landmark while the landmark's ordering predecessors
hold: necessary predecessors must hold in the pre-state for any
achievement, greedy-necessary ones for the first achievement, natural
ones must have been achieved earlier. Every action also carries one
unconditional reset that deletes all first-time flags, so a flag set by
one action is cleared by the next, and a plan for the compiled goal must
stop once the target landmark has just been achieved. The reset is the
same as a per-landmark delete conditioned on the flag: deleting an
absent flag changes nothing, and a tracking effect that sets a flag in
the same step still wins, since deletes apply before adds. Solvability
of the compiled model is exactly achievability of the landmark under
all orderings.

The target landmark only sets the goal (its first-time flag), so the
failure scan compiles once per scan and swaps the goal for each
landmark it tests.

Predecessor formulas enter the conditions by DNF expansion (one clause
per combination of predecessor disjuncts), capped at 64 clauses per
action/landmark pair; past the cap the orderings of that landmark are
not enforced for that action. A warning is logged, and the scan's
failure lists the pair, so that an explanation can report it.

Each landmark the scan finds achievable is achieved by the plan its
search found; the scan replays that plan on the step's model with
validate_plan, so the achieved prefix rests on a replay, not on the
search alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .errors import ModelError, PipelineError, ReservedNameError, UnknownActionError
from .landmarks import (
    GREEDY_NECESSARY,
    Landmark,
    LandmarkGraph,
    NATURAL,
    NECESSARY,
    Ordering,
    linearize,
)
from .model import Action, DnfFormula, Effect, PlanningModel, holds, validate_plan
from .search import UNSOLVABLE, SearchLimits, SearchResult, decide_solvable, decided

logger = logging.getLogger(__name__)

CLAUSE_CAP = 64


@dataclass(frozen=True)
class FailedSubgoal:
    """The first unachievable landmark of a linearization, or the goal.

    compiled is the scan's compilation for the failure's goal, which the
    pipeline verifies unsolvable unless it is the final goal, and proof
    is the certificate of the search that found it so
    (``SearchResult.proof``): None for the final goal, which rests on the
    level's own proof, and after a breadth-first proof. The pipeline
    drops both once the failure is verified. unordered lists the
    (landmark, action name) pairs of the compilation whose ordering
    enforcement the clause cap dropped.
    """

    landmark: Landmark
    achieved_prefix: tuple[Landmark, ...]
    is_final_goal: bool = False
    level: object | None = None  # lattice node, attached by the pipeline
    compiled: PlanningModel | None = field(default=None, compare=False, repr=False)
    proof: object = field(default=None, compare=False, repr=False)
    unordered: tuple[tuple[Landmark, str], ...] = ()


def _meta_ids(m: PlanningModel, lg: LandmarkGraph):
    table = m.table.clone()

    def intern(kind: str) -> dict[int, int]:
        return {lm.id: table.intern_bookkeeping(f"{kind}-lm{lm.id}", m.fluents,
                                                ReservedNameError, "achievability")
                for lm in lg.landmarks}

    ach = intern("achieved")
    unset = intern("unset")
    fta = intern("first-time")
    return table, ach, unset, fta


def compile_achievability(m: PlanningModel, lg: LandmarkGraph, phi: Landmark,
                          unordered: list | None = None) -> PlanningModel:
    """Model whose plans are exactly the ordered first achievements of phi.

    Each (landmark, action name) pair whose ordering enforcement the
    clause cap drops is appended to unordered when given.
    """
    if not lg.contains(phi):
        raise ModelError(f"landmark {phi.id} is not part of the graph")
    for lm in lg.landmarks:
        if not lm.formula.fluents <= m.fluents:
            raise ModelError(
                f"landmark {lm.id} mentions fluents outside the target model"
            )

    table, ach, unset, fta = _meta_ids(m, lg)
    meta = set(ach.values()) | set(unset.values()) | set(fta.values())
    fluents = m.fluents | frozenset(meta)

    init = set(m.init)
    for lm in lg.landmarks:
        if holds(m.init, lm.formula):
            init.add(ach[lm.id])
            init.add(fta[lm.id])
        else:
            init.add(unset[lm.id])

    nec_preds = {lm.id: [p.formula for p in lg.predecessors(lm.id, NECESSARY)]
                 for lm in lg.landmarks}
    gnec_preds = {lm.id: [p.formula for p in lg.predecessors(lm.id, GREEDY_NECESSARY)]
                  for lm in lg.landmarks}
    nat_preds = {lm.id: [ach[p.id] for p in lg.predecessors(lm.id, NATURAL)]
                 for lm in lg.landmarks}
    lm_fluents = [(lm, lm.formula.fluents) for lm in lg.landmarks]
    # phi is in lg, so fta is never empty
    reset = Effect(frozenset(), frozenset(), frozenset(fta.values()))

    actions = []
    for a in m.actions:
        adds = a.adds
        extra: dict[Effect, None] = {}
        for lm, lm_atoms in lm_fluents:
            if not adds & lm_atoms:
                continue  # completion_pairs would find nothing
            clauses = _tracking_clauses(
                a, lm, ach, unset, fta,
                nec_preds[lm.id], gnec_preds[lm.id], nat_preds[lm.id], unordered,
            )
            for eff in clauses:
                extra.setdefault(eff, None)
        actions.append(Action(a.name, a.prec, a.effects + tuple(extra) + (reset,)))

    goal = frozenset({fta[phi.id]})
    return PlanningModel(table, fluents, tuple(actions), frozenset(init), goal)


def completion_pairs(a: Action, formula) -> list[frozenset[int]]:
    """Pre-state conditions under which a completes a disjunct of formula.

    One condition per (effect, disjunct) pair where the effect adds part
    of the disjunct: the effect's own condition plus the rest of the
    disjunct. Pairs are dropped when a rest fluent is certainly deleted
    by the action (by an effect firing whenever this one does) without
    being re-added, since the disjunct cannot hold afterwards.
    """
    pairs = []
    for e in a.effects:
        certain_dels: frozenset[int] = frozenset()
        certain_adds: frozenset[int] = frozenset()
        for other in a.effects:
            if other.condition <= e.condition:
                certain_dels |= other.dels
                certain_adds |= other.adds
        for disjunct in formula.sorted_disjuncts():
            c = frozenset(disjunct)
            partial = e.adds & c
            if not partial:
                continue
            rest = c - e.adds
            if rest & (certain_dels - certain_adds):
                continue
            pairs.append(frozenset(e.condition | rest))
    return pairs


def _tracking_clauses(a: Action, lm: Landmark, ach, unset, fta,
                      nec_formulas, gnec_formulas, nat_flags,
                      unordered: list | None) -> list[Effect]:
    pairs = completion_pairs(a, lm.formula)
    if not pairs:
        return []

    def expand(base_sets, formulas):
        out = list(base_sets)
        for f in formulas:
            out = [
                prev | set(d)
                for prev in out
                for d in f.sorted_disjuncts()
            ]
            if len(out) > CLAUSE_CAP:
                return None
        return out

    nat = frozenset(nat_flags)
    cond1 = expand([frozenset(p) | nat for p in pairs], nec_formulas)
    cond2 = expand(cond1, gnec_formulas) if cond1 is not None else None
    if cond1 is None or cond2 is None or len(cond1) + len(cond2) > CLAUSE_CAP:
        logger.warning(
            "ordering enforcement for landmark %d dropped on action %s "
            "(conditional-effect expansion exceeds %d clauses)",
            lm.id, a.name, CLAUSE_CAP,
        )
        if unordered is not None:
            unordered.append((lm, a.name))
        cond1 = [frozenset(p) for p in pairs]
        cond2 = [frozenset(p) for p in pairs]

    out = []
    for cond in cond1:
        out.append(Effect(frozenset(cond), frozenset({ach[lm.id]}), frozenset()))
    for cond in cond2:
        out.append(Effect(frozenset(cond) | {unset[lm.id]},
                          frozenset({ach[lm.id], fta[lm.id]}),
                          frozenset({unset[lm.id]})))
    return out


def final_goal_landmark(m: PlanningModel, lg: LandmarkGraph) -> tuple[LandmarkGraph, Landmark]:
    """Extend lg with a pseudo-landmark for the whole goal conjunction.

    The pseudo-landmark is naturally ordered after every existing
    landmark; the failure scan reports it when all others stay achievable.
    """
    next_id = max((lm.id for lm in lg.landmarks), default=-1) + 1
    pseudo = Landmark(
        next_id,
        DnfFormula.build([m.goal]),
        is_goal_conjunct=True,
        holds_in_init=m.goal <= m.init,
    )
    orderings = list(lg.orderings)
    orderings.extend(Ordering(lm.id, next_id, NATURAL) for lm in lg.landmarks)
    return LandmarkGraph(lg.landmarks + (pseudo,), tuple(orderings)), pseudo


def first_unachievable(m: PlanningModel, lg: LandmarkGraph, proof: SearchResult,
                       limits: SearchLimits | None = None) -> FailedSubgoal:
    """Scan lg's landmarks in its linear order for the first unachievable one.

    proof must decide m unsolvable (else ModelError). When every landmark
    stays achievable, proof alone makes the goal conjunction the failure;
    its compilation is not searched, and may be solvable under conditional
    deletes. The graph is compiled once; each step swaps the goal and
    searches on one set of search tables, which do not depend on it. The
    failure's ``compiled`` equals compile_achievability of its landmark on
    the graph extended by final_goal_landmark. The plan of each achieved
    step is replayed on the step's model; one that does not reach the
    step's goal raises PipelineError.
    """
    if proof is None or proof.status != UNSOLVABLE:
        raise ModelError("the failure scan needs a proof that the model is unsolvable")
    seq = linearize(lg)
    extended, pseudo = final_goal_landmark(m, lg)
    dropped: list = []
    shared = compile_achievability(m, extended, pseudo, dropped)
    tables: dict = {}
    for i, lm in enumerate(seq):
        goal = frozenset({shared.table.id_of(f"first-time-lm{lm.id}")})
        step = shared.with_goal(goal)
        stage = f"achievability of landmark {lm.id}"
        result = decided(decide_solvable(step, limits, tables), stage)
        if not result.solvable:
            return FailedSubgoal(landmark=lm, achieved_prefix=tuple(seq[:i]), compiled=step,
                                 proof=result.proof, unordered=tuple(dropped))
        try:
            replayed = validate_plan(step, result.plan).valid
        except UnknownActionError:
            replayed = False
        if not replayed:
            raise PipelineError(f"{stage}: the plan found does not replay")
    return FailedSubgoal(landmark=pseudo, achieved_prefix=tuple(seq), is_final_goal=True,
                         compiled=shared, unordered=tuple(dropped))
