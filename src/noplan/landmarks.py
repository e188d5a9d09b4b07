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

from .errors import CycleError, ModelUnsolvableError
from .model import DnfFormula, PlanningModel, holds
from .search import SearchLimits, decide_solvable, relaxed_reachable

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
    landmarks: tuple[Landmark, ...]
    orderings: tuple[Ordering, ...]
    _by_id: dict = field(init=False, repr=False, compare=False, default=None)
    _preds: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        by_id = {lm.id: lm for lm in self.landmarks}
        preds: dict[tuple[int, str], list[Landmark]] = {}
        for o in self.orderings:
            if o.source == o.target:
                raise CycleError("self-loop ordering")
            if o.source not in by_id or o.target not in by_id:
                raise CycleError("ordering endpoint is not a landmark")
            preds.setdefault((o.target, o.kind), []).append(by_id[o.source])
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_preds", preds)
        linearize(self)  # raises on cycles

    def by_id(self, lm_id: int) -> Landmark:
        return self._by_id[lm_id]

    def predecessors(self, lm_id: int, kind: str) -> list[Landmark]:
        return list(self._preds.get((lm_id, kind), ()))

    def contains(self, lm: Landmark) -> bool:
        return any(x.id == lm.id and x.formula == lm.formula for x in self.landmarks)


def extract_landmarks(m: PlanningModel, *, check_solvable: bool = True,
                      limits: SearchLimits | None = None) -> LandmarkGraph:
    """Extract a sound landmark graph from a solvable model."""
    if check_solvable and not decide_solvable(m, limits).solvable:
        raise ModelUnsolvableError("landmark extraction needs a solvable model")

    static = _static_fluents(m)
    landmarks: list[Landmark] = []
    by_formula: dict[frozenset, Landmark] = {}
    orderings: set[Ordering] = set()
    succ: dict[int, set[int]] = {}

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
        achievers = _achievers(m, targets)
        reachable = relaxed_reachable(m, banned={a.name for a in achievers})
        feasible = []
        for a in achievers:
            conds = [e.condition for e in a.effects if e.adds & targets]
            if a.prec <= reachable and any(c <= reachable for c in conds):
                feasible.append(a)
        if not feasible:
            continue
        single = len(achievers) == 1
        for cand in _candidates(m, feasible, targets, static):
            if not holds(m.init, cand) and not _confirmed(m, cand):
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
    covered_preds = {m.table.fluent(f).name for f in common}

    by_pred: dict[str, list[set[int]]] = {}
    for req in required:
        per_action: dict[str, set[int]] = {}
        for f in req - targets:
            if f in static:
                continue
            per_action.setdefault(m.table.fluent(f).name, set()).add(f)
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


def _confirmed(m: PlanningModel, formula: DnfFormula) -> bool:
    """Sound landmark test: no relaxed plan survives removing all achievers."""
    banned = {a.name for a in _achievers(m, formula.fluents)}
    return not m.goal <= relaxed_reachable(m, banned=banned)


def _achievers(m: PlanningModel, targets: frozenset[int]):
    return [a for a in m.actions if any(e.adds & targets for e in a.effects)]


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
    """Deterministic topological order of the landmark graph.

    Among unordered peers, landmarks already true initially come first;
    remaining ties break on ascending landmark id.
    """
    indeg = {lm.id: 0 for lm in g.landmarks}
    succs: dict[int, set[int]] = {lm.id: set() for lm in g.landmarks}
    for o in g.orderings:
        if o.target not in succs[o.source]:
            succs[o.source].add(o.target)
            indeg[o.target] += 1
    by_id = g._by_id

    def key(lm_id: int):
        return (0 if by_id[lm_id].holds_in_init else 1, lm_id)

    ready = sorted((i for i, d in indeg.items() if d == 0), key=key)
    out: list[Landmark] = []
    while ready:
        n = ready.pop(0)
        out.append(by_id[n])
        for s in sorted(succs[n]):
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
        ready.sort(key=key)
    if len(out) != len(g.landmarks):
        raise CycleError("landmark orderings contain a cycle")
    return out


def graph_to_json(m: PlanningModel, g: LandmarkGraph) -> dict:
    """Serializable rendering: ids, DNF strings over fluent names, typed edges."""
    from .model import format_formula

    return {
        "landmarks": [
            {
                "id": lm.id,
                "formula": [[m.table.canonical(f) for f in d]
                            for d in lm.formula.sorted_disjuncts()],
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
