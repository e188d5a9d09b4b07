"""Grounded STRIPS-style planning models.

A state is a frozenset of interned fluent ids. A model owns a fluent
table that is shared by every model derived from it (projections and
compilations), so fluent ids stay comparable across a whole model
family. Actions carry a list of conditional effects; a plain action is
a single effect with an empty condition. Effect conditions are always
evaluated on the pre-state, deletes are applied before adds, and adds
win when different effects of the same action conflict.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .errors import (
    FormulaError,
    ModelError,
    PreconditionViolation,
    UnknownActionError,
)

State = frozenset[int]
Plan = tuple[str, ...]


@dataclass(frozen=True)
class Fluent:
    """A ground atom: predicate name plus object arguments."""

    id: int
    name: str
    args: tuple[str, ...] = ()

    @property
    def canonical(self) -> str:
        if not self.args:
            return self.name
        return self.name + "_" + "_".join(self.args)

    @property
    def sexpr(self) -> str:
        if not self.args:
            return f"({self.name})"
        return f"({self.name} {' '.join(self.args)})"


class FluentTable:
    """Interning table for fluents, shared across one model family.

    Ids are dense, assigned in interning order. The table also records
    complement pairs (p, not-p) produced when negative conditions are
    compiled away; complements of a fluent must follow it through
    projections and groups, so the pairing is kept here, next to the ids.
    """

    def __init__(self) -> None:
        self._fluents: list[Fluent] = []
        self._index: dict[tuple[str, tuple[str, ...]], int] = {}
        self._complement: dict[int, int] = {}
        self._negatives: set[int] = set()

    def __len__(self) -> int:
        return len(self._fluents)

    def intern(self, name: str, args: tuple[str, ...] = ()) -> int:
        key = (name, tuple(args))
        fid = self._index.get(key)
        if fid is None:
            fid = len(self._fluents)
            self._fluents.append(Fluent(fid, name, tuple(args)))
            self._index[key] = fid
        return fid

    def get(self, name: str, args: tuple[str, ...] = ()) -> int | None:
        return self._index.get((name, tuple(args)))

    def id_of(self, name: str, args: tuple[str, ...] = ()) -> int:
        fid = self.get(name, args)
        if fid is None:
            raise KeyError(f"unknown fluent ({name} {' '.join(args)})")
        return fid

    def fluent(self, fid: int) -> Fluent:
        return self._fluents[fid]

    def canonical(self, fid: int) -> str:
        return self._fluents[fid].canonical

    def sexpr(self, fid: int) -> str:
        return self._fluents[fid].sexpr

    def fluents(self) -> tuple[Fluent, ...]:
        return tuple(self._fluents)

    def register_complement(self, pos: int, neg: int) -> None:
        self._complement[pos] = neg
        self._complement[neg] = pos
        self._negatives.add(neg)

    def complement(self, fid: int) -> int | None:
        return self._complement.get(fid)

    def positive_of(self, fid: int) -> int | None:
        """The positive partner when fid is a compiled complement, else None."""
        if fid in self._negatives:
            return self._complement[fid]
        return None

    def ensure_complement(self, pos: int, error: type[Exception] = ModelError) -> int:
        """Return the complement fluent of pos, creating it if needed.

        The complement of p is named not-p. When the table already holds
        a fluent of that name (the input declares a predicate not-p), the
        two atoms would merge into one, so ``error`` is raised instead.
        """
        existing = self._complement.get(pos)
        if existing is not None:
            return existing
        f = self._fluents[pos]
        if self.get("not-" + f.name, f.args) is not None:
            raise error(
                f"the complement of {f.canonical} would be named not-{f.canonical}, "
                f"which the input already uses; rename the predicate not-{f.name}"
            )
        neg = self.intern("not-" + f.name, f.args)
        self.register_complement(pos, neg)
        return neg

    def intern_bookkeeping(self, name: str, model_fluents, error: type[Exception],
                           compilation: str) -> int:
        """Intern a nullary bookkeeping fluent that compilation adds to a model.

        When model_fluents (the input model's) already hold a fluent of
        that name, the two atoms would merge into one, so ``error`` is
        raised instead. A fluent of that name outside model_fluents is
        reused.
        """
        fid = self.intern(name)
        if fid in model_fluents:
            raise error(
                f"the input declares {name}, which names a bookkeeping fluent of "
                f"the {compilation} compilation; rename the predicate {name}"
            )
        return fid

    def clone(self) -> "FluentTable":
        """Independent copy; existing ids are preserved."""
        other = FluentTable()
        other._fluents = list(self._fluents)
        other._index = dict(self._index)
        other._complement = dict(self._complement)
        other._negatives = set(self._negatives)
        return other


@dataclass(frozen=True)
class Effect:
    """One conditional effect: condition -> adds, deletes."""

    condition: frozenset[int] = frozenset()
    adds: frozenset[int] = frozenset()
    dels: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.adds & self.dels:
            raise ModelError("effect adds and deletes overlap")


@dataclass(frozen=True)
class Action:
    name: str
    prec: frozenset[int]
    effects: tuple[Effect, ...]

    @classmethod
    def simple(cls, name, prec=(), adds=(), dels=()) -> "Action":
        return cls(name, frozenset(prec), (Effect(frozenset(), frozenset(adds), frozenset(dels)),))

    @property
    def adds(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for e in self.effects:
            out |= e.adds
        return out

    @property
    def dels(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for e in self.effects:
            out |= e.dels
        return out


@dataclass(frozen=True)
class PlanningModel:
    """A grounded model: fluents, actions, initial state and goal."""

    table: FluentTable = field(compare=False, repr=False)
    fluents: frozenset[int]
    actions: tuple[Action, ...]
    init: frozenset[int]
    goal: frozenset[int]
    _by_name: dict = field(init=False, repr=False, compare=False, default=None)
    # search tables, filled in by decide_solvable (see search.py); a
    # with_goal copy shares this dict with the model it was made from
    _search: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not self.init <= self.fluents:
            raise ModelError("initial state mentions fluents outside the model")
        if not self.goal <= self.fluents:
            raise ModelError("goal mentions fluents outside the model")
        by_name: dict[str, Action] = {}
        for a in self.actions:
            if a.name in by_name:
                raise ModelError(f"duplicate action name {a.name}")
            scope = a.prec
            for e in a.effects:
                scope = scope | e.condition | e.adds | e.dels
            if not scope <= self.fluents:
                raise ModelError(f"action {a.name} mentions fluents outside the model")
            by_name[a.name] = a
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_search", {})

    def with_goal(self, goal) -> "PlanningModel":
        """This model with only the goal replaced.

        The copy shares table, fluents, actions, init and the action
        index, which were validated when this model was built, so only
        the new goal needs checking. It also shares the search tables,
        which do not depend on the goal.
        """
        goal = frozenset(goal)
        if not goal <= self.fluents:
            raise ModelError("goal mentions fluents outside the model")
        other = copy.copy(self)
        object.__setattr__(other, "goal", goal)
        return other

    def without(self, gone: frozenset[int]) -> "PlanningModel":
        """This model with the fluents in gone removed from every component.

        Actions and effects that mention none of them are shared, not
        rebuilt. Removing fluents from a validated model cannot create an
        out-of-scope fluent, a duplicate action name or an add/delete
        overlap, so the copy skips validation; the action index is
        rebuilt over the new action objects, and the search tables are
        left to be compiled for the new model.
        """
        actions = tuple(_action_without(a, gone) for a in self.actions)
        other = copy.copy(self)
        object.__setattr__(other, "fluents", self.fluents - gone)
        object.__setattr__(other, "actions", actions)
        object.__setattr__(other, "init", self.init - gone)
        object.__setattr__(other, "goal", self.goal - gone)
        object.__setattr__(other, "_by_name", {a.name: a for a in actions})
        object.__setattr__(other, "_search", {})
        return other

    def action(self, name: str) -> Action:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownActionError(f"unknown action {name}") from None

    def has_action(self, name: str) -> bool:
        return name in self._by_name

    def canonical(self, fid: int) -> str:
        return self.table.canonical(fid)

    def same_content(self, other: "PlanningModel") -> bool:
        """Structural equality by fluent names, usable across tables."""

        def side(tab: FluentTable, m: "PlanningModel"):
            def names(ids):
                return frozenset(tab.canonical(f) for f in ids)

            return (
                names(m.fluents),
                names(m.init),
                names(m.goal),
                tuple(
                    (
                        a.name,
                        names(a.prec),
                        tuple(
                            sorted(
                                (
                                    tuple(sorted(names(e.condition))),
                                    tuple(sorted(names(e.adds))),
                                    tuple(sorted(names(e.dels))),
                                )
                                for e in a.effects
                            )
                        ),
                    )
                    for a in sorted(m.actions, key=lambda a: a.name)
                ),
            )

        return side(self.table, self) == side(other.table, other)


def _action_without(a: Action, gone: frozenset[int]) -> Action:
    """a with the fluents in gone removed; a itself when it mentions none."""
    changed = False
    effects = []
    for e in a.effects:
        if gone.isdisjoint(e.condition) and gone.isdisjoint(e.adds) and gone.isdisjoint(e.dels):
            effects.append(e)
        else:
            effects.append(Effect(e.condition - gone, e.adds - gone, e.dels - gone))
            changed = True
    if gone.isdisjoint(a.prec) and not changed:
        return a
    return Action(a.name, a.prec - gone, tuple(effects))


def apply_action(state: State, action: Action) -> State:
    """Successor state of applying action; raises if preconditions fail.

    All effect conditions are tested against the pre-state, then all
    triggered deletes are removed before all triggered adds are applied.
    """
    if not action.prec <= state:
        raise PreconditionViolation(action.name, frozenset(action.prec - state))
    dels: set[int] = set()
    adds: set[int] = set()
    for e in action.effects:
        if e.condition <= state:
            dels |= e.dels
            adds |= e.adds
    if not dels and not adds:
        return state
    return (state - frozenset(dels)) | frozenset(adds)


def maintain_complements(a: Action, complements: dict[int, int], table: FluentTable,
                         reachable, error: type[Exception], needed_by: str) -> Action:
    """a with each complement n of p deleted where p is added and added where p is deleted.

    Adds win, so an effect deleting p must not add n when another effect
    adds p in the same step. When some adding effect fires whenever the
    deleting one does (its condition lies within the deleting effect's
    condition plus a's precondition), p certainly ends true and the n add
    is dropped, which is exact. An adding effect that can fire alongside
    the delete without always doing so cannot be told apart by positive
    conditions, so the action is rejected with ``error``; one whose
    conditions are not jointly reachable under the delete relaxation
    (``reachable()``, an over-approximation suffices) never fires
    alongside and changes nothing.
    """
    effects = []
    for e in a.effects:
        gone = [complements[p] for p in e.adds if p in complements]
        deleted = [p for p in e.dels if p in complements]
        if not gone and not deleted:
            effects.append(e)
            continue
        adds = set(e.adds)
        dels = set(e.dels).union(gone)
        for p in deleted:
            n = complements[p]
            adders = [o for o in a.effects if p in o.adds]
            if any(o.condition <= e.condition | a.prec for o in adders):
                continue
            if any(e.condition | o.condition | a.prec <= reachable() for o in adders):
                raise error(
                    f"{needed_by} needs the complement of {table.canonical(p)}, but "
                    f"action {a.name} deletes {table.canonical(p)} in one effect "
                    f"and may add it in another"
                )
            adds.add(n)
        effects.append(Effect(e.condition, frozenset(adds), frozenset(dels)))
    return Action(a.name, a.prec, tuple(effects))


@dataclass(frozen=True)
class ValidationTrace:
    """Outcome of replaying a plan: either valid, or the first failure.

    failing_index == len(plan) means the plan executed but the final
    state missed the goal; unsatisfied_precondition then holds the
    missing goal fluents.
    """

    status: str  # "valid" | "failed"
    failing_index: int | None
    unsatisfied_precondition: frozenset[int] | None
    states: tuple[State, ...] | None
    plan: Plan

    @property
    def valid(self) -> bool:
        return self.status == "valid"


def validate_plan(m: PlanningModel, plan) -> ValidationTrace:
    """Replay plan from the initial state and report the first failure."""
    plan = tuple(plan)
    states = [m.init]
    state = m.init
    for i, name in enumerate(plan):
        a = m.action(name)
        try:
            state = apply_action(state, a)
        except PreconditionViolation as exc:
            return ValidationTrace("failed", i, exc.missing, tuple(states), plan)
        states.append(state)
    if m.goal <= state:
        return ValidationTrace("valid", None, None, tuple(states), plan)
    return ValidationTrace("failed", len(plan), frozenset(m.goal - state), tuple(states), plan)


@dataclass(frozen=True)
class DnfFormula:
    """Disjunction of conjunctions over fluent ids.

    The empty disjunction is falsum and never holds. Construction via
    build() minimizes by subsumption: a disjunct implied by a smaller
    one is dropped.
    """

    disjuncts: frozenset[frozenset[int]]

    @classmethod
    def build(cls, disjuncts) -> "DnfFormula":
        sets = {frozenset(d) for d in disjuncts}
        minimal = {
            d for d in sets if not any(o < d for o in sets)
        }
        return cls(frozenset(minimal))

    @classmethod
    def atom(cls, fid: int) -> "DnfFormula":
        return cls(frozenset({frozenset({fid})}))

    @property
    def is_false(self) -> bool:
        return not self.disjuncts

    @property
    def fluents(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for d in self.disjuncts:
            out |= d
        return out

    def sorted_disjuncts(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(d)) for d in self.disjuncts)


FALSE = DnfFormula(frozenset())


def normalize_dnf(tree) -> DnfFormula:
    """Convert an and/or tree over fluent ids into minimized DNF.

    Trees are ints (atoms) or tuples ("and", *children) / ("or", *children).
    Negation is rejected: formulas in this package are positive.
    """
    return DnfFormula.build(_dnf_sets(tree))


def _dnf_sets(tree) -> set[frozenset[int]]:
    if isinstance(tree, int):
        return {frozenset({tree})}
    if not isinstance(tree, tuple) or not tree:
        raise FormulaError(f"malformed formula node: {tree!r}")
    op = tree[0]
    kids = tree[1:]
    if op == "not":
        raise FormulaError("negation is not supported in these formulas")
    if op == "or":
        out: set[frozenset[int]] = set()
        for k in kids:
            out |= _dnf_sets(k)
        return out
    if op == "and":
        acc: set[frozenset[int]] = {frozenset()}
        for k in kids:
            nxt: set[frozenset[int]] = set()
            for d in _dnf_sets(k):
                for prev in acc:
                    nxt.add(prev | d)
            acc = nxt
        return acc
    raise FormulaError(f"unknown operator {op!r}")


def holds(state: State, formula: DnfFormula) -> bool:
    """True when some disjunct of formula is contained in state."""
    return any(d <= state for d in formula.disjuncts)


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


def format_formula(table: FluentTable, formula: DnfFormula) -> str:
    """Readable rendering: 'a & b | c' with canonical fluent names."""
    if formula.is_false:
        return "FALSE"
    parts = []
    for d in formula.sorted_disjuncts():
        if not d:
            return "TRUE"
        parts.append(" & ".join(table.canonical(f) for f in d))
    if len(parts) == 1:
        return parts[0]
    return " | ".join(f"({p})" if " & " in p else p for p in parts)
