"""Fluent-group projection, abstraction lattices and explanatory fluents.

A lattice is addressed by subsets of named fluent groups; projecting a
group removes all of its member fluents from every component of the
model, which keeps every concrete plan valid in the abstraction. Nodes
are made lazily and memoized. Each is decided once, in the bit space of
the root's search masks, compiled once per lattice: a node's masks are
the root's with the bits of its projected fluents cleared. A node is
decided by replaying a plan the lattice already found, when one is
valid on its masks, and otherwise by a search over them. So a node's
plan is a valid plan, and it is the first shortest one only when the
node was searched; every "unsolvable" comes from a search. A node's
model, the root projected with ``project_model`` (sharing every action
and effect the projected fluents do not touch), is built only when
something reads it: the pipeline reads those of the explanation's
members and their concretizations. The explanatory-fluent search walks
candidate group subsets in nondecreasing update-cost order, so the
first subset whose restoration makes every minimum-abstraction-set
member unsolvable is also the cheapest. Costs and updates come from one
listing of the candidate groups' occurrences in the root, taken before
the walk; no model is built to count them.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
from dataclasses import dataclass, field

from .errors import (
    LatticeError,
    LatticeSpecError,
    ModelError,
    RootSolvableError,
    UnsolvableEverywhereError,
)
from .model import Plan, PlanningModel
from .search import (
    SOLVABLE,
    SearchLimits,
    SearchResult,
    compile_masks,
    decide_masks,
    decided,
    fluent_mask,
    project_ops,
    replays,
)

INIT_LITERAL = "init-literal"
GOAL_LITERAL = "goal-literal"
PRECONDITION_LITERAL = "precondition-literal"
EFFECT_CONDITION_LITERAL = "effect-condition-literal"
ADD_EFFECT_LITERAL = "add-effect-literal"
DEL_EFFECT_LITERAL = "del-effect-literal"

# update kinds in the order they are reported
_KINDS = (INIT_LITERAL, GOAL_LITERAL, PRECONDITION_LITERAL, EFFECT_CONDITION_LITERAL,
          ADD_EFFECT_LITERAL, DEL_EFFECT_LITERAL)


@dataclass(frozen=True)
class FluentGroup:
    """A named, disjoint bundle of fluents (all groundings of a predicate)."""

    name: str
    members: frozenset[int]


@dataclass(frozen=True)
class ModelUpdate:
    """One syntactic occurrence of a restored fluent in the concrete model."""

    kind: str
    action: str | None
    fluent: int


@dataclass(frozen=True)
class ExplanatorySet:
    groups: frozenset[str]
    cost: int
    updates: tuple[ModelUpdate, ...]


@dataclass
class LatticeNode:
    """One lattice element: its projected groups, decision and model.

    ``members`` holds the member sets of the projected groups, and
    ``gone``, their union, is built the first time it is read. ``model``,
    the root without them, is built the first time it is read too;
    deciding a node reads neither. ``solvable`` is None until decided. A
    solvable decision's plan is valid on ``model``; it is the first
    shortest plan only when this node was searched rather than decided
    by replay.
    """

    projected: frozenset[str]
    root: PlanningModel = field(repr=False, compare=False)
    members: tuple[frozenset[int], ...] = field(default=(), repr=False, compare=False)
    solvable: SearchResult | None = None

    @functools.cached_property
    def gone(self) -> frozenset[int]:
        return frozenset().union(*self.members)

    @functools.cached_property
    def model(self) -> PlanningModel:
        return project_model(self.root, self.gone) if self.members else self.root


def project_model(m: PlanningModel, fluents) -> PlanningModel:
    """Remove a fluent set from every component of m.

    Actions and effects that mention none of the fluents are shared with
    m (see ``PlanningModel.without``).
    """
    gone = frozenset(fluents)
    if not gone <= m.fluents:
        raise ModelError("projection set mentions fluents outside the model")
    if not gone:
        return m
    return m.without(gone)


class AbstractionLattice:
    """Lazily built powerset lattice of group projections of a root model."""

    def __init__(self, root: PlanningModel, groups, forbidden=(), limits: SearchLimits | None = None):
        self.root = root
        self.groups: dict[str, FluentGroup] = {}
        self.limits = limits or SearchLimits()
        seen: set[int] = set()
        for g in groups:
            if g.name in self.groups:
                raise LatticeError(f"duplicate group name {g.name}")
            if not g.members:
                raise LatticeError(f"group {g.name} is empty")
            if not g.members <= root.fluents:
                raise LatticeError(f"group {g.name} mentions fluents outside the model")
            if g.members & seen:
                raise LatticeError(f"group {g.name} overlaps another group")
            for f in g.members:
                partner = root.table.complement(f)
                if partner is not None and partner in root.fluents and partner not in g.members:
                    raise LatticeError(
                        f"group {g.name}: fluent {root.table.canonical(f)} is separated "
                        f"from its complement; complement pairs must share a group"
                    )
            seen |= g.members
            self.groups[g.name] = g
        self.forbidden = tuple(frozenset(f) for f in forbidden)
        for combo in self.forbidden:
            if not combo:
                raise LatticeError("a forbidden combination is empty; it would forbid every node")
            if not combo <= set(self.groups):
                raise LatticeError("forbidden combination names an unknown group")
        self._nodes: dict[frozenset[str], LatticeNode] = {
            frozenset(): LatticeNode(frozenset(), root)
        }
        # plans of the nodes this lattice searched and found solvable,
        # in the order found
        self._plans: list[Plan] = []
        # the root's search masks (the fluent ids in bit order, all bits,
        # init, goal, ops, ops by name, group masks), compiled on the
        # first decision; not the bits dict, whose big ints cost more
        self._masks = None

    @property
    def root_node(self) -> LatticeNode:
        return self._nodes[frozenset()]

    def allowed(self, projected: frozenset[str]) -> bool:
        return not any(f <= projected for f in self.forbidden)

    def node(self, projected) -> LatticeNode:
        projected = frozenset(projected)
        if not projected <= set(self.groups):
            unknown = sorted(projected - set(self.groups))
            raise LatticeError(f"unknown groups {unknown}")
        if not self.allowed(projected):
            raise LatticeError(f"projected set {sorted(projected)} is forbidden")
        node = self._nodes.get(projected)
        if node is None:
            node = LatticeNode(projected, self.root,
                               tuple(self.groups[g].members for g in projected))
            self._nodes[projected] = node
        return node

    def all_projected_sets(self) -> list[frozenset[str]]:
        names = sorted(self.groups)
        out = []
        for r in range(len(names) + 1):
            for combo in itertools.combinations(names, r):
                p = frozenset(combo)
                if self.allowed(p):
                    out.append(p)
        return out

    def maximal_projected_sets(self) -> list[frozenset[str]]:
        """The maximal allowed sets, sorted by their sorted names.

        A set is allowed when it holds no forbidden combination, that
        is, when the groups it leaves out hit every combination. So the
        maximal allowed sets are the complements of the minimal hitting
        sets of the forbidden combinations (Reiter, "A Theory of
        Diagnosis from First Principles", AIJ 1987), computed here one
        combination at a time (Berge's algorithm) without enumerating
        the subsets of the groups.
        """
        hitting = [frozenset()]
        for combo in self.forbidden:
            grown = {h for h in hitting if h & combo}
            grown.update(h | {g} for h in hitting if not h & combo for g in combo)
            hitting = [h for h in grown if not any(o < h for o in grown)]
        names = frozenset(self.groups)
        return sorted((names - h for h in hitting), key=lambda p: tuple(sorted(p)))

    def solvability(self, node: LatticeNode) -> SearchResult:
        """The node's decision, made once, on the root's search masks.

        A node's masks are the root's with the bits of its projected
        fluents cleared (``search.project_ops``), so no node model is
        built. Every node has the root's action names, so a plan found
        at one node can be replayed at another: the first stored plan
        valid on the node's masks proves it solvable. Only when none is
        valid does a search (``search.decide_masks``) decide, so every
        "unsolvable" comes from a search; its certificate, if any, is over
        the root's bits, in the order of their compile_masks. Under tight
        ``limits`` replay can decide a node whose own search would be
        exhausted, so which nodes end up exhausted can depend on the order
        in which nodes are decided.
        """
        if node.solvable is None:
            if self._masks is None:
                bits, init, ops = compile_masks(self.root)
                groups = {name: fluent_mask(bits, g.members) for name, g in self.groups.items()}
                self._masks = (tuple(bits), (1 << len(bits)) - 1, init,
                               fluent_mask(bits, self.root.goal), ops,
                               {op[4]: op for op in ops}, groups)
            order, full, init, goal, ops, by_name, groups = self._masks
            keep = full  # non-negative, as the keep masks of compile_masks
            for name in node.projected:
                keep &= ~groups[name]
            init &= keep
            goal &= keep
            for plan in self._plans:
                if replays(plan, init, goal, by_name, keep):
                    node.solvable = SearchResult(SOLVABLE, plan)
                    break
            else:
                node.solvable = decide_masks(order, init, goal, project_ops(ops, keep),
                                             self.limits)
                if node.solvable.solvable:
                    self._plans.append(node.solvable.plan)
        return node.solvable

    def decided_solvable(self, node: LatticeNode, stage: str) -> bool:
        stage = f"{stage} at node {sorted(node.projected)}"
        return decided(self.solvability(node), stage).solvable


def build_lattice(m: PlanningModel, groups, forbidden=(),
                  limits: SearchLimits | None = None) -> AbstractionLattice:
    return AbstractionLattice(m, groups, forbidden, limits)


def concretize(lat: AbstractionLattice, node: LatticeNode, restored) -> LatticeNode:
    """The node obtained by restoring the given groups to node."""
    restored = frozenset(restored)
    if not restored <= node.projected:
        missing = sorted(restored - node.projected)
        raise LatticeError(f"groups {missing} are not projected at this node")
    return lat.node(node.projected - restored)


def minimum_abstraction_set(lat: AbstractionLattice) -> list[LatticeNode]:
    """The solvable maximal elements, in deterministic order."""
    out = []
    for projected in lat.maximal_projected_sets():
        node = lat.node(projected)
        if lat.decided_solvable(node, "solvability of maximal element"):
            out.append(node)
    return out


def _updates_for_fluents(m: PlanningModel, fluents: frozenset[int]) -> set[tuple]:
    """Each occurrence of fluents in m as a (kind position in _KINDS,
    action, fluent) tuple. The action is None for the init and goal
    kinds, which no named action shares, so the tuples sort without a key."""
    ups = {(0, None, f) for f in m.init & fluents}
    ups.update((1, None, f) for f in m.goal & fluents)
    for a in m.actions:
        name = a.name
        ups.update((2, name, f) for f in a.prec & fluents)
        for e in a.effects:
            ups.update((3, name, f) for f in e.condition & fluents)
            ups.update((4, name, f) for f in e.adds & fluents)
            ups.update((5, name, f) for f in e.dels & fluents)
    return ups


def find_explanatory_fluents(lat: AbstractionLattice,
                             minimum: list[LatticeNode] | None = None) -> ExplanatorySet:
    """Cheapest group set whose restoration breaks every minimum-set member.

    Cost is the number of unique model updates, which is additive across
    disjoint groups, so candidates are popped from a heap ordered by
    (cost, group count, names) and the first hit is optimal. Ties go to
    fewer groups, then lexicographic names.

    Projection removes fluents but keeps every action, effect and action
    name, so a restored fluent occurs in a concretization exactly where
    it occurs in the root. A set's updates are therefore the union of
    its groups' lists from one pass over the root, the same updates as
    one listing per member of the fluents its concretization restores.
    """
    members = minimum_abstraction_set(lat) if minimum is None else minimum
    if not members:
        raise UnsolvableEverywhereError("every maximal abstraction is unsolvable")

    universe = sorted(set().union(*(n.projected for n in members)))
    if not universe:
        raise RootSolvableError("the concrete model is solvable; nothing to explain")
    # update sets of disjoint groups are disjoint, so one pass over the
    # root yields every group's updates
    owner = {f: g for g in universe for f in lat.groups[g].members}
    listed: dict[str, list[tuple]] = {g: [] for g in universe}
    for u in _updates_for_fluents(lat.root, frozenset(owner)):
        listed[owner[u[2]]].append(u)

    heap: list[tuple[int, int, tuple[str, ...], int]] = []
    for i, g in enumerate(universe):
        heapq.heappush(heap, (len(listed[g]), 1, (g,), i))
    while heap:
        cost, size, names, frontier = heapq.heappop(heap)
        candidate = frozenset(names)
        if _explains(lat, members, candidate):
            updates = sorted(itertools.chain.from_iterable(listed[g] for g in names))
            return ExplanatorySet(candidate, cost, tuple(
                ModelUpdate(_KINDS[kind], action, f) for kind, action, f in updates))
        for j in range(frontier + 1, len(universe)):
            g = universe[j]
            heapq.heappush(heap, (cost + len(listed[g]), size + 1, names + (g,), j))
    raise RootSolvableError("the concrete model is solvable; nothing to explain")


def _explains(lat: AbstractionLattice, members, candidate: frozenset[str]) -> bool:
    for node in members:
        conc = concretize(lat, node, candidate & node.projected)
        if lat.decided_solvable(conc, "explanatory-fluent check"):
            return False
    return True


# ---------------------------------------------------------------------------
# Lattice spec files


@dataclass(frozen=True)
class LatticeSpec:
    groups: tuple[tuple[str, tuple[str, ...]], ...]  # (name, predicate names)
    forbidden: tuple[frozenset[str], ...] = ()


def load_lattice_spec(text: str) -> LatticeSpec:
    try:
        # the decoder recurses once per nested array or object, so deep
        # nesting raises RecursionError
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise LatticeSpecError(f"lattice spec is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("groups"), list):
        raise LatticeSpecError("lattice spec must be an object with a 'groups' list")
    groups = []
    owner: dict[str, str] = {}
    for item in data["groups"]:
        if not isinstance(item, dict) or "name" not in item or "predicates" not in item:
            raise LatticeSpecError("each group needs 'name' and 'predicates'")
        name = str(item["name"])
        if not isinstance(item["predicates"], list):
            raise LatticeSpecError(f"group {name}: 'predicates' must be a list")
        preds = tuple(str(p) for p in item["predicates"])
        if not preds:
            raise LatticeSpecError(f"group {name} lists no predicates")
        for p in preds:
            if owner.setdefault(p, name) != name:
                raise LatticeSpecError(
                    f"predicate {p} is listed by groups {owner[p]} and {name}"
                )
        groups.append((name, preds))
    combos = data.get("forbidden", [])
    if not isinstance(combos, list) or not all(isinstance(c, list) for c in combos):
        raise LatticeSpecError("'forbidden' must be a list of lists of group names")
    forbidden = tuple(frozenset(str(n) for n in combo) for combo in combos)
    names = {name for name, _ in groups}
    if len(names) != len(groups):
        raise LatticeSpecError("duplicate group names in lattice spec")
    for combo in forbidden:
        if not combo:
            raise LatticeSpecError("a forbidden combination is empty; it would forbid every node")
        if not combo <= names:
            raise LatticeSpecError("forbidden combination names an unknown group")
    return LatticeSpec(tuple(groups), forbidden)


def resolve_groups(m: PlanningModel, spec: LatticeSpec) -> list[FluentGroup]:
    """Instantiate spec groups against a model's fluents.

    Members are every model fluent of the listed predicates, plus the
    complement partners of those fluents, so complement pairs always
    project together. A spec that lists p and its complement not-p in
    different groups would split such a pair, and is rejected.
    """
    # one pass over the fluents matches each to the groups listing its predicate
    listing: dict[str, list[int]] = {}
    for position, (_, preds) in enumerate(spec.groups):
        for pred in set(preds):
            listing.setdefault(pred, []).append(position)
    matched: list[set[int]] = [set() for _ in spec.groups]
    for fid in m.fluents:
        for position in listing.get(m.table.key(fid)[0], ()):
            matched[position].add(fid)
    out = []
    owner: dict[int, str] = {}
    for (name, _), members in zip(spec.groups, matched):
        for fid in list(members):
            partner = m.table.complement(fid)
            if partner is not None and partner in m.fluents:
                members.add(partner)
        if not members:
            raise LatticeSpecError(f"group {name} matches no fluents of the model")
        for fid in sorted(members):
            if owner.setdefault(fid, name) != name:
                raise LatticeSpecError(
                    f"groups {owner[fid]} and {name} both contain "
                    f"{m.table.canonical(fid)}; a predicate and its complement "
                    f"must be listed in the same group"
                )
        out.append(FluentGroup(name, frozenset(members)))
    return out
