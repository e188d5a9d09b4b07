"""Landmark extraction with sound orderings.

Extraction back-chains over the delete relaxation: goal conjuncts are
landmarks; for a landmark that is false initially, the preconditions
shared by all of its possible first achievers become predecessor
landmarks with greedy-necessary orderings (necessary as well when the
landmark has a single achiever in the whole model). Candidates that are
false initially are kept only if removing all their achievers makes the
relaxed problem unsolvable, which guarantees every emitted formula is a
real landmark. Static fluents are skipped as predecessors; they never
name a useful subgoal. Disjunctive candidates group same-predicate
preconditions across achievers and are dropped above four disjuncts to
keep formulas readable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from .errors import CycleError
from .model import DnfFormula, PlanningModel, format_formula, formula_names, holds
from .search import relaxed_reachable

NATURAL = "nat"
NECESSARY = "nec"
GREEDY_NECESSARY = "gnec"

_DISJUNCT_CAP = 4


@dataclass(frozen=True)
class Landmark:
    id: int
    formula: DnfFormula
    is_goal_conjunct: bool = False
    holds_in_init: bool = False


@dataclass(frozen=True)
class Ordering:
    source: int  # landmark id that must come first
    target: int
    kind: str  # NATURAL | NECESSARY | GREEDY_NECESSARY


@dataclass(frozen=True)
class LandmarkGraph:
    """Landmarks and their orderings, checked acyclic and linearized once.

    The order is deterministic: among unordered peers, landmarks already
    true initially come first, and remaining ties break on ascending
    landmark id. ``linearize`` returns it.
    """

    landmarks: tuple[Landmark, ...]
    orderings: tuple[Ordering, ...]
    _by_id: dict = field(init=False, repr=False, compare=False, default=None)
    _preds: dict = field(init=False, repr=False, compare=False, default=None)
    _order: tuple = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        by_id = {lm.id: lm for lm in self.landmarks}
        preds: dict[tuple[int, str], list[Landmark]] = {}
        indeg = {lm.id: 0 for lm in self.landmarks}
        succs: dict[int, set[int]] = {lm.id: set() for lm in self.landmarks}
        for o in self.orderings:
            if o.source == o.target:
                raise CycleError("self-loop ordering")
            if o.source not in by_id or o.target not in by_id:
                raise CycleError("ordering endpoint is not a landmark")
            preds.setdefault((o.target, o.kind), []).append(by_id[o.source])
            if o.target not in succs[o.source]:
                succs[o.source].add(o.target)
                indeg[o.target] += 1

        def key(lm_id: int):
            return (0 if by_id[lm_id].holds_in_init else 1, lm_id)

        ready = sorted((i for i, d in indeg.items() if d == 0), key=key)
        order: list[Landmark] = []
        while ready:
            n = ready.pop(0)
            order.append(by_id[n])
            for s in sorted(succs[n]):
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
            ready.sort(key=key)
        if len(order) != len(self.landmarks):
            raise CycleError("landmark orderings contain a cycle")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_preds", preds)
        object.__setattr__(self, "_order", tuple(order))

    def by_id(self, lm_id: int) -> Landmark:
        return self._by_id[lm_id]

    def predecessors(self, lm_id: int, kind: str) -> list[Landmark]:
        return list(self._preds.get((lm_id, kind), ()))

    def contains(self, lm: Landmark) -> bool:
        return any(x.id == lm.id and x.formula == lm.formula for x in self.landmarks)


def extract_landmarks(m: PlanningModel) -> LandmarkGraph:
    """Extract a sound landmark graph from a solvable model.

    Solvability is the caller's to establish: m is not searched here.
    Each relaxed fixpoint is computed once per distinct set of banned
    achievers and kept for the rest of the call: a candidate confirmed
    by banning its achievers bans the same set again when it is
    processed as a landmark.
    """
    static = _static_fluents(m)
    achievers_of: dict[int, set[int]] = {}  # fluent -> positions in m.actions
    for i, a in enumerate(m.actions):
        for f in a.adds:
            achievers_of.setdefault(f, set()).add(i)
    landmarks: list[Landmark] = []
    by_formula: dict[frozenset, Landmark] = {}
    orderings: set[Ordering] = set()
    succ: dict[int, set[int]] = {}
    # banned achiever names -> relaxed-reachable fluents without them
    relaxed: dict[frozenset[str], set[int]] = {}

    def register(formula: DnfFormula, goal_conjunct: bool = False) -> Landmark:
        lm = by_formula.get(formula.disjuncts)
        if lm is None:
            lm = Landmark(len(landmarks), formula, goal_conjunct, holds(m.init, formula))
            landmarks.append(lm)
            by_formula[formula.disjuncts] = lm
            succ[lm.id] = set()
        elif goal_conjunct and not lm.is_goal_conjunct:
            lm = replace(lm, is_goal_conjunct=True)
            landmarks[lm.id] = lm
            by_formula[formula.disjuncts] = lm
        return lm

    def reaches(a: int, b: int) -> bool:
        stack, seen = [a], set()
        while stack:
            n = stack.pop()
            if n == b:
                return True
            for s in succ[n]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        return False

    queue: deque[Landmark] = deque()
    for g in sorted(m.goal):
        queue.append(register(DnfFormula.atom(g), goal_conjunct=True))
    processed: set[int] = set()

    while queue:
        lm = queue.popleft()
        if lm.id in processed:
            continue
        processed.add(lm.id)
        if lm.holds_in_init:
            continue
        targets = lm.formula.fluents
        positions = {i for f in targets for i in achievers_of.get(f, ())}
        achievers = [m.actions[i] for i in sorted(positions)]
        reachable = _reachable_without(m, frozenset([a.name for a in achievers]), relaxed)
        feasible = []
        for a in achievers:
            conds = [e.condition for e in a.effects if e.adds & targets]
            if a.prec <= reachable and any(c <= reachable for c in conds):
                feasible.append(a)
        if not feasible:
            continue
        single = len(achievers) == 1
        for cand in _candidates(m, feasible, targets, static):
            if not holds(m.init, cand) and not _confirmed(m, cand, achievers_of, relaxed):
                continue
            pred = register(cand)
            if pred.id == lm.id or reaches(lm.id, pred.id):
                continue
            orderings.add(Ordering(pred.id, lm.id, GREEDY_NECESSARY))
            if single:
                orderings.add(Ordering(pred.id, lm.id, NECESSARY))
            succ[pred.id].add(lm.id)
            queue.append(pred)

    _add_natural_closure(orderings, succ)
    graph = LandmarkGraph(tuple(landmarks), tuple(sorted(
        orderings, key=lambda o: (o.source, o.target, o.kind))))
    return graph


def _candidates(m, feasible, targets, static):
    """Shared atomic preconditions first, then same-predicate disjunctions."""
    required = []
    for a in feasible:
        conds = [e.condition for e in a.effects if e.adds & targets]
        shared_cond = frozenset.intersection(*conds) if conds else frozenset()
        required.append(a.prec | shared_cond)
    common = frozenset.intersection(*required) - targets
    common = {f for f in common if f not in static}
    out = [DnfFormula.atom(f) for f in sorted(common)]
    covered_preds = {m.table.key(f)[0] for f in common}

    by_pred: dict[str, list[set[int]]] = {}
    for req in required:
        per_action: dict[str, set[int]] = {}
        for f in req - targets:
            if f in static:
                continue
            per_action.setdefault(m.table.key(f)[0], set()).add(f)
        for pred, fs in per_action.items():
            by_pred.setdefault(pred, []).append(fs)
    for pred in sorted(by_pred):
        if pred in covered_preds:
            continue
        contributions = by_pred[pred]
        if len(contributions) < len(feasible):
            continue  # some achiever needs no fluent of this predicate
        union = set().union(*contributions)
        if len(union) <= 1 or len(union) > _DISJUNCT_CAP:
            continue
        out.append(DnfFormula.build([{f} for f in sorted(union)]))
    return out


def _confirmed(m: PlanningModel, formula: DnfFormula, achievers_of, relaxed) -> bool:
    """Sound landmark test: no relaxed plan survives removing all achievers
    (achievers_of: each fluent's achiever positions in m.actions)."""
    banned = frozenset([m.actions[i].name for f in formula.fluents
                        for i in achievers_of.get(f, ())])
    return not m.goal <= _reachable_without(m, banned, relaxed)


def _reachable_without(m: PlanningModel, banned: frozenset[str], relaxed: dict) -> set[int]:
    """relaxed_reachable(m, banned), computed once per banned set in relaxed."""
    reached = relaxed.get(banned)
    if reached is None:
        reached = relaxed[banned] = relaxed_reachable(m, banned=banned)
    return reached


def _static_fluents(m: PlanningModel) -> frozenset[int]:
    touched: set[int] = set()
    for a in m.actions:
        for e in a.effects:
            touched |= e.adds | e.dels
    return m.fluents - touched


def _add_natural_closure(orderings: set[Ordering], succ: dict[int, set[int]]) -> None:
    """nat edges for transitively ordered pairs that lack a direct edge."""
    direct = {(o.source, o.target) for o in orderings}
    for start in succ:
        seen: set[int] = set()
        frontier = list(succ[start])
        while frontier:
            n = frontier.pop()
            if n in seen:
                continue
            seen.add(n)
            frontier.extend(succ[n])
        for n in seen:
            if (start, n) not in direct:
                orderings.add(Ordering(start, n, NATURAL))


def linearize(g: LandmarkGraph) -> list[Landmark]:
    """The graph's topological order, computed once when it was built."""
    return list(g._order)


def graph_to_json(m: PlanningModel, g: LandmarkGraph) -> dict:
    """Serializable rendering: ids, DNF strings over fluent names, typed edges."""
    return {
        "landmarks": [
            {
                "id": lm.id,
                "formula": formula_names(m.table, lm.formula),
                "text": format_formula(m.table, lm.formula),
                "goal_conjunct": lm.is_goal_conjunct,
                "holds_in_init": lm.holds_in_init,
            }
            for lm in g.landmarks
        ],
        "orderings": [
            {"from": o.source, "to": o.target, "kind": o.kind} for o in g.orderings
        ],
    }
