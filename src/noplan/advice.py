"""Plan advice as finite automata, and the constrained-model compilation.

Advice items (templates or explicit automata) become nondeterministic
finite automata over action labels and state-formula guards. Guards are
optional epsilon moves: a run may fire one whenever its formula holds in
the current trace state. Safety templates (never-holds, before) force
the check by alternation: action moves are only available from a state
that a fresh guard certification just reached, so a run that cannot
certify dies. Negated conditions inside templates are expressed through
complement fluents, which the compilation materializes and maintains.
An action that deletes an atom in one effect and may add it back in
another, depending on the state, leaves its complement undetermined;
advice that needs that complement is rejected with an AdviceError.

Composing an automaton with a model yields a model whose plans are, up
to bookkeeping steps, exactly the base plans the automaton accepts: one
copy of each base action per automaton transition carrying its label,
pure guard-step actions per guard disjunct, and an accept step that sets
a fresh goal fluent from any accepting state. Every move clears the
accept fluent again, so the accept step is only useful last. The
compilation is the only reading of advice in this package; the tests
check it against a direct run of the automaton over a plan's trace
(``accepts`` in ``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
from dataclasses import dataclass

from .errors import AdviceError, InvalidPlanError
from .model import (
    Action,
    DnfFormula,
    Effect,
    PlanningModel,
    maintain_complements,
    normalize_dnf,
    validate_plan,
)
from .pddl import parse_ground_formula
from .search import relaxed_reachable

logger = logging.getLogger(__name__)

GOAL_ACCEPT = "goal-accept"

@dataclass(frozen=True)
class ActionLabel:
    name: str


@dataclass(frozen=True)
class GuardLabel:
    formula: DnfFormula


@dataclass(frozen=True)
class Transition:
    source: str
    label: ActionLabel | GuardLabel
    target: str


@dataclass(frozen=True)
class ConstraintFsa:
    states: frozenset[str]
    initial: str
    accepting: frozenset[str]
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        if self.initial not in self.states:
            raise AdviceError("initial state is not a state")
        if not self.accepting <= self.states:
            raise AdviceError("accepting set contains unknown states")
        for t in self.transitions:
            if t.source not in self.states or t.target not in self.states:
                raise AdviceError("transition endpoint is not a state")

    def _label_reachable(self) -> frozenset[str]:
        targets: dict[str, set[str]] = {}
        for t in self.transitions:
            targets.setdefault(t.source, set()).add(t.target)
        seen = {self.initial}
        frontier = [self.initial]
        while frontier:
            for target in targets.get(frontier.pop(), ()):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return frozenset(seen)

    def warn_unreachable_accepting(self) -> None:
        reach = self._label_reachable()
        dead = self.accepting - reach
        if dead:
            logger.warning("accepting states %s are unreachable", sorted(dead))

    def guard_transitions(self):
        return [t for t in self.transitions if isinstance(t.label, GuardLabel)]


def universal_fsa(m: PlanningModel) -> ConstraintFsa:
    """Single accepting state with self-loops on every action: no constraint."""
    loops = tuple(Transition("s0", ActionLabel(a.name), "s0") for a in m.actions)
    return ConstraintFsa(frozenset({"s0"}), "s0", frozenset({"s0"}), loops)


def _negate_to_complements(m: PlanningModel, formula: DnfFormula) -> DnfFormula:
    """not-formula as positive DNF over complement fluents.

    The negation of a DNF is the cross product of per-disjunct negated
    literals; each negated literal is the complement fluent of its atom.
    """
    disjunct_lists = [sorted(d) for d in formula.sorted_disjuncts()]
    out = []
    for picks in itertools.product(*disjunct_lists):
        out.append({m.table.ensure_complement(p, AdviceError) for p in picks})
    return DnfFormula.build(out)


def _and_formulas(a: DnfFormula, b: DnfFormula) -> DnfFormula:
    return DnfFormula.build(
        [set(x) | set(y) for x in a.disjuncts for y in b.disjuncts]
    )


def _check_action(m: PlanningModel, name: str) -> str:
    if not m.has_action(name):
        raise AdviceError(f"advice references unknown action {name}")
    return name


def _loops(state: str, names) -> list[Transition]:
    return [Transition(state, ActionLabel(n), state) for n in names]


def never_use_action(m: PlanningModel, action: str) -> ConstraintFsa:
    _check_action(m, action)
    others = [a.name for a in m.actions if a.name != action]
    return ConstraintFsa(
        frozenset({"s0"}), "s0", frozenset({"s0"}), tuple(_loops("s0", others))
    )


def use_action_eventually(m: PlanningModel, action: str) -> ConstraintFsa:
    _check_action(m, action)
    names = [a.name for a in m.actions]
    trans = _loops("s0", (n for n in names if n != action))
    trans.append(Transition("s0", ActionLabel(action), "s1"))
    trans += _loops("s1", names)
    return ConstraintFsa(frozenset({"s0", "s1"}), "s0", frozenset({"s1"}), tuple(trans))


def eventually_holds(m: PlanningModel, formula: DnfFormula) -> ConstraintFsa:
    names = [a.name for a in m.actions]
    trans = _loops("s0", names) + _loops("s1", names)
    trans.append(Transition("s0", GuardLabel(formula), "s1"))
    return ConstraintFsa(frozenset({"s0", "s1"}), "s0", frozenset({"s1"}), tuple(trans))


def never_holds(m: PlanningModel, formula: DnfFormula) -> ConstraintFsa:
    """Alternation forces certifying not-formula at every trace state."""
    neg = _negate_to_complements(m, formula)
    names = [a.name for a in m.actions]
    trans = [Transition("chk", GuardLabel(neg), "go")]
    trans += [Transition("go", ActionLabel(n), "chk") for n in names]
    return ConstraintFsa(frozenset({"chk", "go"}), "chk", frozenset({"go"}), tuple(trans))


def before(m: PlanningModel, first: DnfFormula, second: DnfFormula) -> ConstraintFsa:
    """first must hold at some state strictly before second first holds."""
    not_second = _negate_to_complements(m, second)
    witness = _and_formulas(first, not_second)
    names = [a.name for a in m.actions]
    trans = [
        Transition("chk", GuardLabel(not_second), "go"),
        Transition("chk", GuardLabel(witness), "free"),
    ]
    trans += [Transition("go", ActionLabel(n), "chk") for n in names]
    trans += _loops("free", names)
    return ConstraintFsa(
        frozenset({"chk", "go", "free"}), "chk", frozenset({"go", "free"}), tuple(trans)
    )


def action_count_at_most(m: PlanningModel, action: str, count: int) -> ConstraintFsa:
    _check_action(m, action)
    if count < 0:
        raise AdviceError("action-count-at-most needs a count >= 0")
    names = [a.name for a in m.actions]
    states = [f"c{i}" for i in range(count + 1)]
    trans: list[Transition] = []
    for i, s in enumerate(states):
        trans += _loops(s, (n for n in names if n != action))
        if i < count:
            trans.append(Transition(s, ActionLabel(action), states[i + 1]))
    return ConstraintFsa(frozenset(states), "c0", frozenset(states), tuple(trans))


def _parse_formula(m: PlanningModel, text: str) -> DnfFormula:
    return normalize_dnf(parse_ground_formula(text, m))


def parse_advice(text: str, m: PlanningModel) -> ConstraintFsa:
    """Load an advice file and fold its items into one automaton."""
    try:
        # the decoder recurses once per nested array or object, so deep
        # nesting raises RecursionError
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise AdviceError(f"advice file is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise AdviceError("advice must be a list of items")
    fsa = universal_fsa(m)
    for item in data:
        piece = _parse_item(item, m)
        piece.warn_unreachable_accepting()
        fsa = fsa_product(fsa, piece)
    return fsa


def _parse_item(item, m: PlanningModel) -> ConstraintFsa:
    if not isinstance(item, dict):
        raise AdviceError("each advice item must be an object")
    if "fsa" in item:
        return _parse_explicit_fsa(item["fsa"], m)
    template = item.get("template", item.get("type"))
    if template is None:
        raise AdviceError("advice item needs a 'template' (or explicit 'fsa')")
    if template == "never-use-action":
        return never_use_action(m, _str_arg(item, "action"))
    if template == "use-action-eventually":
        return use_action_eventually(m, _str_arg(item, "action"))
    if template == "eventually-holds":
        return eventually_holds(m, _parse_formula(m, _str_arg(item, "formula")))
    if template == "never-holds":
        return never_holds(m, _parse_formula(m, _str_arg(item, "formula")))
    if template == "before":
        return before(
            m,
            _parse_formula(m, _str_arg(item, "first")),
            _parse_formula(m, _str_arg(item, "second")),
        )
    if template == "action-count-at-most":
        count = item.get("count")
        if not isinstance(count, int):
            raise AdviceError("action-count-at-most needs an integer 'count'")
        return action_count_at_most(m, _str_arg(item, "action"), count)
    raise AdviceError(f"unknown advice template {template!r}")


def _str_arg(item: dict, key: str) -> str:
    value = item.get(key)
    if not isinstance(value, str):
        raise AdviceError(f"advice item is missing string argument {key!r}")
    return value


def _parse_explicit_fsa(data, m: PlanningModel) -> ConstraintFsa:
    if not isinstance(data, dict):
        raise AdviceError("'fsa' must be an object")
    states = frozenset(str(s) for s in _fsa_list(data, "states"))
    if "initial" not in data:
        raise AdviceError("fsa is missing field 'initial'")
    initial = str(data["initial"])
    accepting = frozenset(str(s) for s in _fsa_list(data, "accepting"))
    raw_transitions = _fsa_list(data, "transitions")
    for s in states:
        if not all(c.isalnum() or c in "-_" for c in s) or not s:
            raise AdviceError(f"state name {s!r} must be alphanumeric with - or _")
    transitions = []
    for t in raw_transitions:
        if not isinstance(t, dict) or "from" not in t or "to" not in t:
            raise AdviceError("each fsa transition must be an object with 'from' and 'to'")
        label = t.get("label", {})
        if not isinstance(label, dict):
            raise AdviceError("transition label must be an object")
        if "action" in label:
            kind = "action"
        elif "formula" in label:
            kind = "formula"
        else:
            raise AdviceError("transition label needs 'action' or 'formula'")
        text = label[kind]
        if not isinstance(text, str):
            raise AdviceError(f"transition label {kind!r} must be a string")
        parsed = (ActionLabel(_check_action(m, text)) if kind == "action"
                  else GuardLabel(_parse_formula(m, text)))
        transitions.append(Transition(str(t["from"]), parsed, str(t["to"])))
    return ConstraintFsa(states, initial, accepting, tuple(transitions))


def _fsa_list(data: dict, key: str) -> list:
    if key not in data:
        raise AdviceError(f"fsa is missing field {key!r}")
    if not isinstance(data[key], list):
        raise AdviceError(f"fsa field {key!r} must be a list")
    return data[key]


def fsa_product(a: ConstraintFsa, b: ConstraintFsa) -> ConstraintFsa:
    """Synchronous product: action labels pair up, guards interleave."""

    def name(p: str, q: str) -> str:
        return f"{p}__{q}"

    transitions: list[Transition] = []
    for ta in a.transitions:
        if isinstance(ta.label, ActionLabel):
            for tb in b.transitions:
                if isinstance(tb.label, ActionLabel) and tb.label.name == ta.label.name:
                    transitions.append(
                        Transition(name(ta.source, tb.source), ta.label,
                                   name(ta.target, tb.target))
                    )
        else:
            for q in sorted(b.states):
                transitions.append(
                    Transition(name(ta.source, q), ta.label, name(ta.target, q))
                )
    for tb in b.transitions:
        if isinstance(tb.label, GuardLabel):
            for p in sorted(a.states):
                transitions.append(
                    Transition(name(p, tb.source), tb.label, name(p, tb.target))
                )

    product = ConstraintFsa(
        frozenset(name(p, q) for p in a.states for q in b.states),
        name(a.initial, b.initial),
        frozenset(name(p, q) for p in a.accepting for q in b.accepting),
        tuple(transitions),
    )
    # trim to label-level reachable states to keep products small
    seen = product._label_reachable()
    return ConstraintFsa(
        seen, product.initial, product.accepting & seen,
        tuple(t for t in transitions if t.source in seen and t.target in seen),
    )


@dataclass(frozen=True)
class ConstrainedModel:
    compiled: PlanningModel
    meta_action_map: dict  # compiled name -> (base name | None, Transition | None)


def compose(m: PlanningModel, fsa: ConstraintFsa) -> ConstrainedModel:
    """Compile automaton x model so that plans = accepted base plans."""
    for t in fsa.transitions:
        if isinstance(t.label, ActionLabel):
            _check_action(m, t.label.name)

    table = m.table.clone()

    # materialize complement fluents used by guards but absent from the model
    needed: set[int] = set()
    for t in fsa.guard_transitions():
        for f in t.label.formula.fluents:
            pos = table.positive_of(f)
            if pos is not None and f not in m.fluents:
                if pos not in m.fluents:
                    raise AdviceError(
                        f"guard references {table.canonical(f)} but the model "
                        f"does not contain {table.canonical(pos)}"
                    )
                needed.add(pos)
    fluents = set(m.fluents)
    init = set(m.init)
    base_actions = list(m.actions)
    if needed:
        complements = {p: table.ensure_complement(p, AdviceError) for p in sorted(needed)}
        fluents.update(complements.values())
        for p, n in complements.items():
            if p not in m.init:
                init.add(n)
        reachable = functools.cache(lambda: relaxed_reachable(m))
        base_actions = [maintain_complements(a, complements, table, reachable,
                                             AdviceError, "advice")
                        for a in base_actions]

    in_state = {s: table.intern_bookkeeping(f"in-state-{s}", m.fluents, AdviceError, "advice")
                for s in sorted(fsa.states)}
    accept_fluent = table.intern_bookkeeping(GOAL_ACCEPT, m.fluents, AdviceError, "advice")
    fluents.update(in_state.values())
    fluents.add(accept_fluent)
    init.add(in_state[fsa.initial])

    actions: list[Action] = []
    meta_map: dict = {}

    by_label: dict[str, list[Transition]] = {}
    for t in fsa.transitions:
        if isinstance(t.label, ActionLabel):
            by_label.setdefault(t.label.name, []).append(t)

    def move(t: Transition) -> Effect:
        """The automaton-state change of taking t; every move clears the accept fluent."""
        if t.source == t.target:
            return Effect(frozenset(), frozenset(), frozenset({accept_fluent}))
        return Effect(frozenset(), frozenset({in_state[t.target]}),
                      frozenset({in_state[t.source], accept_fluent}))

    for a in base_actions:
        for t in sorted(by_label.get(a.name, ()), key=lambda t: (t.source, t.target)):
            name = f"{a.name}--{t.source}--{t.target}"
            actions.append(Action(name, a.prec | {in_state[t.source]}, a.effects + (move(t),)))
            meta_map[name] = (a.name, t)

    # k counts disjuncts over every guard transition between the same two
    # states, so two formula transitions a->b get distinct action names
    guard_count: dict[tuple[str, str], int] = {}
    for t in sorted(fsa.guard_transitions(), key=lambda t: (t.source, t.target)):
        for disjunct in t.label.formula.sorted_disjuncts():
            k = guard_count.get((t.source, t.target), 0)
            guard_count[(t.source, t.target)] = k + 1
            name = f"guard--{t.source}--{t.target}--{k}"
            actions.append(Action(name, frozenset(disjunct) | {in_state[t.source]}, (move(t),)))
            meta_map[name] = (None, t)

    for s in sorted(fsa.accepting):
        name = f"accept--{s}"
        actions.append(
            Action(name, frozenset({in_state[s]}),
                   (Effect(frozenset(), frozenset({accept_fluent}), frozenset()),))
        )
        meta_map[name] = (None, None)

    goal = frozenset(m.goal | {accept_fluent})
    compiled = PlanningModel(
        table, frozenset(fluents), tuple(actions), frozenset(init), goal
    )
    return ConstrainedModel(compiled, meta_map)


def strip_meta(cm: ConstrainedModel, plan) -> tuple[str, ...]:
    """Map a compiled plan back to base action names, dropping pure meta steps."""
    trace = validate_plan(cm.compiled, plan)
    if not trace.valid:
        raise InvalidPlanError("strip_meta() needs a plan valid in the compiled model")
    out = []
    for name in trace.plan:
        base_name, _ = cm.meta_action_map[name]
        if base_name is not None:
            out.append(base_name)
    return tuple(out)
