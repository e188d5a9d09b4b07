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
ones must have been achieved earlier. A self-conditioned delete clears
the first-time flag on the next action, so a plan for the compiled goal
must stop once the target landmark has just been achieved. Solvability
of the compiled model is exactly achievability of the landmark under
all orderings.

The target landmark only sets the goal (its first-time flag), so the
failure scan compiles once per scan and swaps the goal for each
landmark it tests.

Predecessor formulas enter the conditions by DNF expansion (one clause
per combination of predecessor disjuncts), capped at 64 clauses per
action/landmark pair; past the cap the orderings of that landmark are
not enforced for that action and a warning is logged.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import ModelError, ReservedNameError, ResourceExhaustedError
from .landmarks import (
    GREEDY_NECESSARY,
    Landmark,
    LandmarkGraph,
    NATURAL,
    NECESSARY,
    Ordering,
)
from .model import Action, DnfFormula, Effect, PlanningModel, holds
from .search import SearchLimits, decide_solvable

logger = logging.getLogger(__name__)

_CLAUSE_CAP = 64


@dataclass(frozen=True)
class FailedSubgoal:
    """The first landmark in a linearization whose compilation is unsolvable."""

    landmark: Landmark
    achieved_prefix: tuple[Landmark, ...]
    is_final_goal: bool = False
    level: object | None = None  # lattice node, attached by the pipeline


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


def compile_achievability(m: PlanningModel, lg: LandmarkGraph,
                          phi: Landmark) -> PlanningModel:
    """Model whose plans are exactly the ordered first achievements of phi."""
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
    self_dels = tuple(
        Effect(frozenset({fta[lm.id]}), frozenset(), frozenset({fta[lm.id]}))
        for lm in lg.landmarks
    )

    actions = []
    for a in m.actions:
        adds = a.adds
        extra: dict[Effect, None] = {}
        for lm, lm_atoms in lm_fluents:
            if not adds & lm_atoms:
                continue  # completion_pairs would find nothing
            clauses = _tracking_clauses(
                a, lm, ach, unset, fta,
                nec_preds[lm.id], gnec_preds[lm.id], nat_preds[lm.id],
            )
            for eff in clauses:
                extra.setdefault(eff, None)
        actions.append(Action(a.name, a.prec, a.effects + tuple(extra) + self_dels))

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
                      nec_formulas, gnec_formulas, nat_flags) -> list[Effect]:
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
            if len(out) > _CLAUSE_CAP:
                return None
        return out

    nat = frozenset(nat_flags)
    cond1 = expand([frozenset(p) | nat for p in pairs], nec_formulas)
    cond2 = expand(cond1, gnec_formulas) if cond1 is not None else None
    if cond1 is None or cond2 is None or len(cond1) + len(cond2) > _CLAUSE_CAP:
        logger.warning(
            "ordering enforcement for landmark %d dropped on action %s "
            "(conditional-effect expansion exceeds %d clauses)",
            lm.id, a.name, _CLAUSE_CAP,
        )
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
    landmark; it backs the completeness fallback of the failure scan.
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


def first_unachievable(m: PlanningModel, lg: LandmarkGraph, seq,
                       limits: SearchLimits | None = None) -> FailedSubgoal:
    """Scan a linearized landmark sequence for the first unachievable one.

    The model must be unsolvable. When every extracted landmark is still
    achievable, the goal conjunction itself is tested and returned as a
    final-goal failure, which is guaranteed to trigger on an unsolvable
    model. The graph is compiled once; each step only swaps the goal.
    """
    seq = list(seq)
    extended, pseudo = final_goal_landmark(m, lg)
    shared = compile_achievability(m, extended, pseudo)
    for i, lm in enumerate(seq + [pseudo]):
        if not extended.contains(lm):
            raise ModelError(f"landmark {lm.id} is not part of the graph")
        goal = frozenset({shared.table.id_of(f"first-time-lm{lm.id}")})
        result = decide_solvable(shared.with_goal(goal), limits)
        if result.exhausted:
            raise ResourceExhaustedError(
                f"achievability of landmark {lm.id}: {result.detail}"
            )
        if not result.solvable:
            return FailedSubgoal(
                landmark=lm,
                achieved_prefix=tuple(seq[:i]),
                is_final_goal=lm.id == pseudo.id,
            )
    # only reachable when conditional-effect interference makes the
    # tracking of the goal conjunction over-approximate; the model is
    # still unsolvable, so the goal itself is the unachievable subgoal
    logger.warning("achievability tracking over-approximated the goal conjunction")
    return FailedSubgoal(landmark=pseudo, achieved_prefix=tuple(seq), is_final_goal=True)
