"""End-to-end unsolvability explanations.

The pipeline: compile advice into the model when given, confirm the
effective problem is unsolvable, build the abstraction lattice, take the
solvable maximal elements, search for the cheapest group set whose
restoration breaks all of them, then extract landmarks one level up and
scan for the first subgoal that the explanatory level can no longer
achieve; when every landmark stays achievable, the goal conjunction
fails on the lattice's proof that the level is unsolvable.

One loop runs over the levels of the report: each member with its
explanatory level, or, when no maximal element is solvable, the top
node alone. Each level is scanned, dumped and self-verified in the same
pass, before the next is scanned. The scan replays the plan of each
achieved subgoal on its compilation (see first_unachievable). For the
first level, the compilation the scan proved unsolvable for an
extracted landmark is verified; each level's scan compilation is then
dropped before the level itself is verified unsolvable. Both checks
run through _unsolvable: a proof from a relaxed exit or from the pair
check carries its certificate, an inductive invariant that
certificate.check tests against the model in one pass over its
actions, with none of the search's code; a breadth-first proof has
none, so a fresh search decides again, building its own search
tables, so that it answers from no table of the search whose claim it
checks. The lattice decides its nodes on projections of the root's
search masks, while verification reads each level's model, projected
from the root on its own, so the two share no projection code.

Degenerate cases: a solvable effective model yields a "solvable" report
with a plan and no lattice. When every maximal element is unsolvable,
the report is "unsolvable-at-top": it has no explanatory set and no
exemplar, and its one level is the top node (the first maximal
element), scanned with the unconstrained model's landmarks when advice
caused the collapse and the base model is solvable, else with the goal
conjuncts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii

from .abstraction import (
    ADD_EFFECT_LITERAL,
    DEL_EFFECT_LITERAL,
    EFFECT_CONDITION_LITERAL,
    GOAL_LITERAL,
    INIT_LITERAL,
    PRECONDITION_LITERAL,
    ExplanatorySet,
    LatticeNode,
    LatticeSpec,
    build_lattice,
    concretize,
    find_explanatory_fluents,
    minimum_abstraction_set,
    resolve_groups,
)
from .achievability import CLAUSE_CAP, FailedSubgoal, first_unachievable
from .advice import ConstrainedModel, compose, parse_advice, strip_meta
from .certificate import check
from .errors import InputError, ModelUnsolvableError, PipelineError
from .landmarks import Landmark, LandmarkGraph, extract_landmarks
from .model import (
    DnfFormula,
    FluentTable,
    Plan,
    PlanningModel,
    ValidationTrace,
    format_formula,
    formula_names,
    validate_plan,
)
from .nogc import nogc
from .pddl import write_domain, write_problem
from .search import SearchLimits, decide_solvable, decided

STATUS_EXPLAINED = "explained"
STATUS_SOLVABLE = "solvable"
STATUS_TOP_UNSOLVABLE = "unsolvable-at-top"

EXEMPLAR_AUTO = "auto"
EXEMPLAR_ALWAYS = "always"
EXEMPLAR_NEVER = "never"


@dataclass(frozen=True)
class Explanation:
    status: str
    table: FluentTable = field(repr=False, compare=False)
    advice_applied: bool = False
    explanatory: ExplanatorySet | None = None
    failed: FailedSubgoal | None = None
    secondary: tuple[FailedSubgoal, ...] = ()
    exemplar: ValidationTrace | None = None
    plan: Plan | None = None

    def __post_init__(self) -> None:
        if self.status == STATUS_EXPLAINED:
            if self.explanatory is None or self.failed is None:
                raise PipelineError(
                    "a non-degenerate explanation needs both the explanatory "
                    "set and the failed subgoal"
                )


@nogc
def explain(m: PlanningModel, lattice_spec: LatticeSpec, advice_text: str | None = None,
            *, limits: SearchLimits | None = None, exemplar: str = EXEMPLAR_AUTO,
            dump_dir: str | None = None) -> Explanation:
    limits = limits or SearchLimits()

    cm: ConstrainedModel | None = None
    effective = m
    if advice_text is not None:
        fsa = parse_advice(advice_text, m)
        cm = compose(m, fsa)
        effective = cm.compiled
        if dump_dir:
            _dump(dump_dir, "constrained", effective)

    root_result = decided(decide_solvable(effective, limits),
                          "solvability of the concrete model")
    if root_result.solvable:
        plan = strip_meta(cm, root_result.plan) if cm else root_result.plan
        return Explanation(STATUS_SOLVABLE, effective.table,
                           advice_applied=cm is not None, plan=plan)

    groups = resolve_groups(effective, lattice_spec)
    lat = build_lattice(effective, groups, lattice_spec.forbidden, limits)
    lat.root_node.solvable = root_result

    members = minimum_abstraction_set(lat)
    explanatory = find_explanatory_fluents(lat, members) if members else None
    # with no solvable maximal element the top node is the only level
    levels = members or [lat.node(lat.maximal_projected_sets()[0])]

    failures: list[FailedSubgoal] = []
    for position, node in enumerate(levels):
        if explanatory is None:
            target = node
            graph = _top_landmarks(m, cm, node, limits)
        else:
            target = concretize(lat, node, explanatory.groups & node.projected)
            graph = extract_landmarks(node.model)
        # _explains or minimum_abstraction_set proved target unsolvable
        failed = first_unachievable(target.model, graph, target.solvable, limits)
        if dump_dir:
            _dump(dump_dir, f"subgoal-{position}-{failed.landmark.id}", failed.compiled)
        if position == 0 and not failed.is_final_goal and not _unsolvable(
                failed.compiled, failed.proof, "self-verification of the failed subgoal", limits):
            raise PipelineError("the reported failed subgoal is achievable after all")
        # no compilation, nor its proof, is held while the level is
        # checked or searched again
        failed = replace(failed, level=target, compiled=None, proof=None)
        _self_verify(node, target, explanatory, limits)
        failures.append(failed)

    headline = failures[0]
    return Explanation(
        STATUS_TOP_UNSOLVABLE if explanatory is None else STATUS_EXPLAINED,
        effective.table,
        advice_applied=cm is not None,
        explanatory=explanatory,
        failed=headline,
        secondary=tuple(failures[1:]),
        exemplar=_exemplar(lat, levels[0], headline, explanatory, exemplar, limits),
    )


def _top_landmarks(base: PlanningModel, cm: ConstrainedModel | None,
                   top: LatticeNode, limits: SearchLimits) -> LandmarkGraph:
    """Landmark source when even the top abstraction is unsolvable.

    When advice collapsed a solvable base problem, the base model's own
    landmarks (restricted to fluents the top node still has) pinpoint
    which subgoal the advice forbids. Otherwise the goal conjuncts are
    scanned directly.
    """
    if cm is not None:
        result = decided(decide_solvable(base, limits),
                         "solvability of the model without advice")
        if result.solvable:
            graph = extract_landmarks(base)
            keep = [lm for lm in graph.landmarks
                    if lm.formula.fluents <= top.model.fluents]
            ids = {lm.id for lm in keep}
            orderings = tuple(o for o in graph.orderings
                              if o.source in ids and o.target in ids)
            if keep:
                return LandmarkGraph(tuple(keep), orderings)
    landmarks = tuple(
        Landmark(i, DnfFormula.atom(g), is_goal_conjunct=True,
                 holds_in_init=g in top.model.init)
        for i, g in enumerate(sorted(top.model.goal))
    )
    return LandmarkGraph(landmarks, ())


def exemplar_failure(abs_node: LatticeNode, conc: PlanningModel,
                     limits: SearchLimits | None = None,
                     restrict_to: frozenset[int] | None = None) -> ValidationTrace:
    """Replay a plan of the abstraction in the concrete model.

    The returned trace carries the first failing step and its missing
    preconditions, narrowed to restrict_to when that keeps any.
    """
    result = decided(abs_node.solvable or decide_solvable(abs_node.model, limits),
                     "exemplar plan search")
    if not result.solvable:
        raise ModelUnsolvableError("exemplar needs a solvable abstraction")
    trace = validate_plan(conc, result.plan)
    if restrict_to and trace.unsatisfied_precondition:
        narrowed = trace.unsatisfied_precondition & restrict_to
        if narrowed:
            trace = replace(trace, unsatisfied_precondition=narrowed)
    return trace


def _exemplar(lat, member, headline: FailedSubgoal,
              explanatory: ExplanatorySet | None, mode: str,
              limits: SearchLimits) -> ValidationTrace | None:
    # an unsolvable-at-top report has no abstraction plan to replay
    if explanatory is None or mode == EXEMPLAR_NEVER:
        return None
    if mode == EXEMPLAR_AUTO and not _complex_formula(headline.landmark.formula):
        return None
    restrict = frozenset().union(
        *(lat.groups[g].members for g in explanatory.groups)
    ) if explanatory.groups else None
    trace = exemplar_failure(member, headline.level.model, limits, restrict)
    if trace.valid:
        return None
    return trace


def _complex_formula(formula: DnfFormula) -> bool:
    return len(formula.disjuncts) > 1 or any(len(d) > 3 for d in formula.disjuncts)


def _unsolvable(model: PlanningModel, proof, stage: str, limits: SearchLimits) -> bool:
    """Whether model is unsolvable, by checking proof, the certificate of
    the search that decided it, or by a fresh search when it has none.

    A certificate that the check rejects raises PipelineError naming
    stage.
    """
    if proof is None:
        return not decided(decide_solvable(model, limits), stage).solvable
    if not check(model, proof):
        raise PipelineError(f"{stage}: the certificate of unsolvability does not hold")
    return True


def _self_verify(node: LatticeNode, target: LatticeNode,
                 explanatory: ExplanatorySet | None, limits: SearchLimits) -> None:
    """Re-check that target, the level the scan used for node, is
    unsolvable."""
    if not _unsolvable(target.model, target.solvable.proof,
                       "self-verification of the explanatory level", limits):
        if explanatory is None:
            raise PipelineError(f"the top node {sorted(node.projected)} is solvable")
        raise PipelineError(
            f"restoring {sorted(explanatory.groups)} left node "
            f"{sorted(node.projected)} solvable"
        )


def _dump(directory: str, stem: str, model: PlanningModel) -> None:
    # a failed subgoal's stem is subgoal-<member position>-<landmark id>,
    # since landmark ids are per graph
    try:
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, f"{stem}-domain.pddl"), "w") as fh:
            fh.write(write_domain(model, stem))
            fh.write("\n")
        with open(os.path.join(directory, f"{stem}-problem.pddl"), "w") as fh:
            fh.write(write_problem(model, stem, stem))
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write the compiled models to {directory}: {exc}") from exc


# ---------------------------------------------------------------------------
# Rendering


def _failed_dict(table: FluentTable, failed: FailedSubgoal) -> dict:
    level = failed.level
    return {
        "formula": formula_names(table, failed.landmark.formula),
        "final_goal": failed.is_final_goal,
        "prefix": [formula_names(table, lm.formula) for lm in failed.achieved_prefix],
        "level": {"projected": sorted(level.projected) if level is not None else []},
    }


def render(e: Explanation, fmt: str):
    """Machine (dict) or human (text) rendering of an explanation."""
    if fmt == "machine":
        return _render_machine(e)
    if fmt == "human":
        return _render_human(e)
    raise ValueError(f"unknown format {fmt!r}")


def _render_machine(e: Explanation) -> dict:
    table = e.table
    out: dict = {
        "status": e.status,
        "advice_applied": e.advice_applied,
        "explanatory": None,
        "failed": None,
        "secondary": [],
        "exemplar": None,
        "plan": list(e.plan) if e.plan is not None else None,
    }
    if e.explanatory is not None:
        out["explanatory"] = {
            "groups": sorted(e.explanatory.groups),
            "cost": e.explanatory.cost,
            "updates": [
                {"kind": u.kind, "action": u.action, "fluent": table.canonical(u.fluent)}
                for u in e.explanatory.updates
            ],
        }
    if e.failed is not None:
        out["failed"] = _failed_dict(table, e.failed)
    out["secondary"] = [_failed_dict(table, f) for f in e.secondary]
    warnings = _warnings(e)
    if warnings:
        out["warnings"] = warnings
    if e.exemplar is not None:
        out["exemplar"] = {
            "plan": list(e.exemplar.plan),
            "failing_index": e.exemplar.failing_index,
            "missing": sorted(table.canonical(f)
                              for f in (e.exemplar.unsatisfied_precondition or ())),
        }
    return out


def _render_human(e: Explanation) -> str:
    table = e.table
    lines: list[str] = []
    if e.status == STATUS_SOLVABLE:
        lines.append("The problem is solvable; there is nothing to explain.")
        if e.plan is not None:
            steps = ", ".join(e.plan) if e.plan else "(empty plan)"
            lines.append(f"Found plan: {steps}")
        if e.advice_applied:
            lines.append("(the given advice was applied)")
        return "\n".join(lines)

    if e.status == STATUS_TOP_UNSOLVABLE:
        lines.append("The problem is unsolvable at every abstraction level of the lattice.")
    else:
        lines.append("The problem is unsolvable.")
    if e.advice_applied:
        lines.append("(the given advice was applied)")

    if e.explanatory is not None:
        groups = ", ".join(sorted(e.explanatory.groups))
        lines.append("")
        lines.append(
            f"Missing detail that makes it unsolvable: group(s) {groups} "
            f"({e.explanatory.cost} model updates)"
        )
        for text in _update_lines(table, e.explanatory.updates):
            lines.append("  " + text)

    if e.failed is not None:
        lines.append("")
        subject = "the goal conjunction" if e.failed.is_final_goal else "this subgoal"
        lines.append(
            f"The following subgoal, required by every solution, cannot be achieved: "
            f"{format_formula(table, e.failed.landmark.formula)}"
        )
        if e.failed.achieved_prefix:
            prefix = "; ".join(
                format_formula(table, lm.formula) for lm in e.failed.achieved_prefix
            )
            lines.append(f"  (after achieving: {prefix})")
        if e.failed.is_final_goal:
            lines.append(f"  (every intermediate subgoal stays achievable; {subject} does not)")
        level = e.failed.level
        if level is not None and level.projected:
            lines.append(f"  (at abstraction level: {', '.join(sorted(level.projected))} projected)")

    for extra in e.secondary:
        lines.append(
            f"Also unachievable ({', '.join(sorted(extra.level.projected))} projected): "
            f"{format_formula(table, extra.landmark.formula)}"
        )

    if e.exemplar is not None:
        lines.append("")
        steps = ", ".join(e.exemplar.plan) if e.exemplar.plan else "(empty plan)"
        missing = ", ".join(sorted(table.canonical(f)
                                   for f in (e.exemplar.unsatisfied_precondition or ())))
        if e.exemplar.failing_index == len(e.exemplar.plan):
            lines.append(
                f"Exemplar failure: the abstract plan [{steps}] executes, "
                f"but the goal still misses: {missing}"
            )
        else:
            step = e.exemplar.plan[e.exemplar.failing_index]
            lines.append(
                f"Exemplar failure: the abstract plan [{steps}] fails at step "
                f"{e.exemplar.failing_index + 1} ({step}); unsatisfied: {missing}"
            )

    warnings = _warnings(e)
    if warnings:
        lines.append("")
        lines.extend(f"warning: {text}" for text in warnings)
    return "\n".join(lines)


def _warnings(e: Explanation) -> list[str]:
    """A line for each subgoal and action of the report's scans whose
    ordering enforcement the clause cap dropped, each line once."""
    lines: dict[str, None] = {}
    failures = (e.failed, *e.secondary) if e.failed is not None else ()
    for failed in failures:
        for lm, action in failed.unordered:
            lines.setdefault(
                f"ordering enforcement for subgoal {format_formula(e.table, lm.formula)} "
                f"dropped on action {action} (conditional-effect expansion exceeds "
                f"{CLAUSE_CAP} clauses)")
    return list(lines)


def _update_lines(table: FluentTable, updates) -> list[str]:
    verbs = {
        PRECONDITION_LITERAL: "requires",
        EFFECT_CONDITION_LITERAL: "has effect condition",
        ADD_EFFECT_LITERAL: "adds",
        DEL_EFFECT_LITERAL: "deletes",
    }
    init = [table.canonical(u.fluent) for u in updates if u.kind == INIT_LITERAL]
    goal = [table.canonical(u.fluent) for u in updates if u.kind == GOAL_LITERAL]
    lines = []
    if init:
        lines.append(f"initially: {', '.join(init)}")
    if goal:
        lines.append(f"in the goal: {', '.join(goal)}")
    by_action: dict[str, list[str]] = {}
    for u in updates:
        if u.action is None:
            continue
        by_action.setdefault(u.action, []).append(
            f"{verbs[u.kind]} {table.canonical(u.fluent)}"
        )
    for action in sorted(by_action):
        lines.append(f"action {action}: {'; '.join(by_action[action])}")
    return lines


def machine_json(e: Explanation) -> str:
    """The machine rendering, byte for byte as
    ``json.dumps(render(e, "machine"), indent=2, sort_keys=True)`` writes it."""
    out: list[str] = []
    _write_json(_render_machine(e), "\n", out)
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append value as indented JSON with sorted keys to out; newline is
    the line break and indentation of value's own line. Only the types a
    rendering holds are written (dicts with string keys, lists, strings,
    ints, bools and None); any other raises TypeError."""
    if type(value) is str:
        out.append(encode_basestring_ascii(value))
    elif value is None or type(value) is bool:
        out.append("null" if value is None else "true" if value else "false")
    elif type(value) is int:
        out.append(int.__repr__(value))
    elif (type(value) is list or type(value) is dict) and not value:
        out.append("[]" if type(value) is list else "{}")
    elif type(value) is list:
        inner = newline + "  "
        out.append("[")
        for item in value:
            out.append(inner)
            _write_json(item, inner, out)
            out.append(",")
        out[-1] = newline + "]"
    elif type(value) is dict:
        inner = newline + "  "
        out.append("{")
        for key in sorted(value):
            # the encoder raises TypeError on a key that is not a string
            out += (inner, encode_basestring_ascii(key), ": ")
            _write_json(value[key], inner, out)
            out.append(",")
        out[-1] = newline + "}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
