import importlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noplan.abstraction import (
    AbstractionLattice,
    FluentGroup,
    LatticeSpec,
    ModelUpdate,
    build_lattice,
    concretize,
    find_explanatory_fluents,
    load_lattice_spec,
    minimum_abstraction_set,
    project_model,
    resolve_groups,
)
from noplan.advice import compose, parse_advice
from noplan.errors import (
    LatticeError,
    LatticeSpecError,
    RootSolvableError,
    UnsolvableEverywhereError,
)
from noplan.explain import explain
from noplan.model import PlanningModel, validate_plan
from noplan.pddl import ground, parse_model
from noplan.search import SearchLimits, decide_solvable

from .conftest import INSTANCES, build_model, bundled_models, minirover_groups
from .oracles import (
    ProjectionRelationError,
    diff_models,
    enumerate_plans,
    project_by_rebuild,
    same_content,
    update_sort_key,
)
from .random_models import unsolvable_corpus
from .test_search import micro_models


def test_project_clear_gives_norocks(minirover, minirover_hand, norocks):
    rocks = minirover_groups(minirover)[0]
    projected = project_model(minirover, rocks.members)
    assert same_content(projected, norocks)
    for a in projected.actions:
        names = {projected.table.canonical(f) for f in a.prec}
        assert not any(n.startswith("clear") for n in names)


def test_project_empty_is_identity(minirover):
    assert project_model(minirover, frozenset()) is minirover


def test_project_everything_trivially_solvable(minirover):
    total = project_model(minirover, minirover.fluents)
    assert total.goal == frozenset()
    assert decide_solvable(total).plan == ()


def test_project_rejects_foreign_fluents(minirover):
    with pytest.raises(Exception):
        project_model(minirover, frozenset({10_000}))


def test_build_lattice_four_nodes(minirover):
    lat = build_lattice(minirover, minirover_groups(minirover))
    assert len(lat.all_projected_sets()) == 4
    assert lat.maximal_projected_sets() == [frozenset({"conn", "rocks"})]


def test_build_lattice_zero_groups(minirover):
    lat = build_lattice(minirover, [])
    assert lat.all_projected_sets() == [frozenset()]
    assert lat.node(frozenset()).model is minirover


def test_build_lattice_rejects_overlap(minirover):
    rocks, conn = minirover_groups(minirover)
    overlap = FluentGroup("both", rocks.members | conn.members)
    with pytest.raises(LatticeError, match="overlap"):
        build_lattice(minirover, [rocks, overlap])
    with pytest.raises(LatticeError, match="empty"):
        build_lattice(minirover, [rocks, conn], forbidden=[[]])


def test_concretize_top_minus_rocks(minirover):
    lat = build_lattice(minirover, minirover_groups(minirover))
    top = lat.node({"rocks", "conn"})
    node = concretize(lat, top, {"rocks"})
    assert node.projected == frozenset({"conn"})


def test_concretize_nothing_is_same_node(minirover):
    lat = build_lattice(minirover, minirover_groups(minirover))
    top = lat.node({"rocks", "conn"})
    assert concretize(lat, top, set()) is top


def test_concretize_error_when_not_projected(minirover):
    lat = build_lattice(minirover, minirover_groups(minirover))
    with pytest.raises(LatticeError):
        concretize(lat, lat.root_node, {"rocks"})


def test_minimum_abstraction_set_is_top(minirover):
    lat = build_lattice(minirover, minirover_groups(minirover))
    members = minimum_abstraction_set(lat)
    assert [n.projected for n in members] == [frozenset({"conn", "rocks"})]


def test_minimum_abstraction_set_empty_when_goal_unreachable():
    # no action ever adds g, and g is in no group
    m, _ = build_model(
        ["p_x", "g"],
        [("a", [], ["p_x"], [])],
        [],
        ["g"],
    )
    lat = build_lattice(m, [FluentGroup("ps", frozenset({0}))])
    assert minimum_abstraction_set(lat) == []


def test_minimum_abstraction_set_zero_groups_solvable(norocks):
    lat = build_lattice(norocks, [])
    members = minimum_abstraction_set(lat)
    assert len(members) == 1 and members[0] is lat.root_node


def test_diff_norocks_vs_minirover(minirover):
    rocks = minirover_groups(minirover)[0]
    abs_m = project_model(minirover, rocks.members)
    ups = diff_models(abs_m, minirover)
    canon = [(u.kind, u.action, minirover.table.canonical(u.fluent)) for u in ups]
    assert canon == [
        ("init-literal", None, "clear_l3"),
        ("precondition-literal", "move_l1_l2", "clear_l2"),
        ("precondition-literal", "move_l2_l3", "clear_l3"),
    ]


def test_diff_identity_is_empty(minirover):
    assert diff_models(minirover, minirover) == []


def test_diff_goal_literal():
    m, ids = build_model(
        ["p", "g"],
        [("a", [], ["g"], [])],
        ["p"],
        ["g"],
    )
    abs_m = project_model(m, frozenset({ids["g"]}))
    ups = diff_models(abs_m, m)
    kinds = [(u.kind, u.action) for u in ups]
    assert ("goal-literal", None) in kinds
    assert ("add-effect-literal", "a") in kinds


def test_diff_rejects_unrelated_models(minirover, twopath):
    with pytest.raises(ProjectionRelationError):
        diff_models(twopath, minirover)


def test_find_explanatory_minirover(minirover):
    lat = build_lattice(minirover, minirover_groups(minirover))
    expl = find_explanatory_fluents(lat)
    assert expl.groups == frozenset({"rocks"})
    assert expl.cost == 3
    assert len(expl.updates) == 3


def test_find_explanatory_solvable_root_error(norocks):
    groups = [FluentGroup("conn", frozenset(
        f for f in norocks.fluents if norocks.table.fluent(f).name == "conn"))]
    lat = build_lattice(norocks, groups)
    with pytest.raises(RootSolvableError):
        find_explanatory_fluents(lat)


def test_find_explanatory_empty_minimum_signals():
    m, _ = build_model(["p_x", "g"], [("a", [], ["p_x"], [])], [], ["g"])
    lat = build_lattice(m, [FluentGroup("ps", frozenset({0}))])
    with pytest.raises(UnsolvableEverywhereError):
        find_explanatory_fluents(lat)


def test_find_explanatory_prefers_cheaper_group():
    # two independent blockers; breaking either explains, the cheaper
    # one (fewer occurrences) must win
    m, ids = build_model(
        ["key_a", "door_b", "g"],
        [
            ("open", ["key_a", "door_b"], ["g"], []),
            ("jiggle", ["door_b"], ["door_b"], []),
        ],
        [],
        ["g"],
    )
    lat = build_lattice(m, [
        FluentGroup("key", frozenset({ids["key_a"]})),
        FluentGroup("door", frozenset({ids["door_b"]})),
    ])
    expl = find_explanatory_fluents(lat)
    # key occurs once (precondition); door occurs three times
    assert expl.groups == frozenset({"key"})
    assert expl.cost == 1


def test_forbidden_combinations_create_multiple_maxima(minirover):
    groups = minirover_groups(minirover)
    lat = build_lattice(minirover, groups, forbidden=[{"rocks", "conn"}])
    maxima = lat.maximal_projected_sets()
    assert maxima == [frozenset({"conn"}), frozenset({"rocks"})]
    members = minimum_abstraction_set(lat)
    # only the rocks projection is solvable
    assert [n.projected for n in members] == [frozenset({"rocks"})]
    expl = find_explanatory_fluents(lat, members)
    assert expl.groups == frozenset({"rocks"})


@st.composite
def forbidding_lattices(draw):
    """Lattices of up to 10 one-fluent groups and a few forbidden combinations."""
    names = [f"g{i}" for i in range(draw(st.integers(0, 10)))]
    m, ids = build_model(names, [], [], [])
    forbidden = []
    if names:
        forbidden = draw(st.lists(st.sets(st.sampled_from(names), min_size=1), max_size=4))
    return AbstractionLattice(m, [FluentGroup(n, frozenset({ids[n]})) for n in names], forbidden)


@given(forbidding_lattices())
@settings(max_examples=60, deadline=None)
def test_maximal_projected_sets_match_pairwise_definition(lat):
    sets = lat.all_projected_sets()
    pairwise = sorted((p for p in sets if not any(p < q for q in sets)),
                      key=lambda p: tuple(sorted(p)))
    assert lat.maximal_projected_sets() == pairwise


def test_lattice_spec_loading(minirover):
    spec = load_lattice_spec(
        '{"groups": [{"name": "rocks", "predicates": ["clear"]},'
        '{"name": "conn", "predicates": ["conn"]}],'
        '"forbidden": [["rocks", "conn"]]}'
    )
    groups = resolve_groups(minirover, spec)
    assert {g.name for g in groups} == {"rocks", "conn"}
    assert spec.forbidden == (frozenset({"rocks", "conn"}),)


def test_lattice_spec_errors(minirover):
    with pytest.raises(LatticeSpecError):
        load_lattice_spec("not json")
    with pytest.raises(LatticeSpecError):
        load_lattice_spec('{"groups": [{"name": "x", "predicates": []}]}')
    spec = load_lattice_spec('{"groups": [{"name": "x", "predicates": ["missing"]}]}')
    with pytest.raises(LatticeSpecError, match="matches no fluents"):
        resolve_groups(minirover, spec)


def test_complement_pairs_must_share_group():
    from noplan.pddl import ground, parse_model

    domain = """(define (domain d)
  (:requirements :strips :negative-preconditions)
  (:predicates (p) (q))
  (:action a :parameters () :precondition (not (p)) :effect (q)))"""
    problem = "(define (problem x) (:domain d) (:init) (:goal (q)))"
    m = ground(parse_model(domain, problem))
    p = m.table.id_of("p")
    with pytest.raises(LatticeError, match="complement"):
        build_lattice(m, [FluentGroup("half", frozenset({p}))])
    # resolve_groups pulls the complement in automatically
    groups = resolve_groups(m, LatticeSpec((("ps", ("p",)),)))
    canon = {m.table.canonical(f) for f in groups[0].members}
    assert canon == {"p", "not-p"}


@pytest.mark.parametrize("groups,message", [
    ((("ps", ("p",)), ("nots", ("not-p",)), ("x", ("missing",))),
     "groups ps and nots both contain p;"),
    ((("x", ("missing",)), ("ps", ("p",)), ("nots", ("not-p",))), "group x matches no fluents"),
    # a spec built in code may list a predicate twice, which loading rejects
    ((("qs", ("q",)), ("more", ("q", "p"))), "groups qs and more both contain q"),
])
def test_resolve_groups_rejects_the_first_bad_group(groups, message):
    from noplan.pddl import ground, parse_model

    domain = """(define (domain d)
  (:requirements :strips :negative-preconditions)
  (:predicates (p) (q))
  (:action a :parameters () :precondition (not (p)) :effect (q)))"""
    m = ground(parse_model(domain, "(define (problem x) (:domain d) (:init) (:goal (q)))"))
    with pytest.raises(LatticeSpecError, match=message):
        resolve_groups(m, LatticeSpec(groups))


# --- order preservation and inheritance ------------------------------------


def _all_lattice_nodes(lat: AbstractionLattice):
    return [lat.node(p) for p in lat.all_projected_sets()]


def test_projection_order_preserved_by_concretization(minirover):
    """Removing the same groups from two ordered nodes keeps them ordered."""
    lat = build_lattice(minirover, minirover_groups(minirover))
    nodes = _all_lattice_nodes(lat)
    for n1, n2 in itertools.product(nodes, nodes):
        if not n1.projected <= n2.projected:
            continue
        for restored in map(frozenset, _powerset(sorted(n1.projected))):
            c1 = concretize(lat, n1, restored)
            c2 = concretize(lat, n2, restored)
            assert c1.projected <= c2.projected


def _powerset(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def test_logical_completeness_all_nodes(minirover):
    """Every plan of a concrete node stays valid in every abstraction of it."""
    lat = build_lattice(minirover, minirover_groups(minirover))
    nodes = _all_lattice_nodes(lat)
    for n1, n2 in itertools.product(nodes, nodes):
        if not n1.projected <= n2.projected:
            continue
        for plan in enumerate_plans(n1.model, 6):
            assert validate_plan(n2.model, plan).valid


def test_plan_set_monotone_up_the_lattice(minirover):
    lat = build_lattice(minirover, minirover_groups(minirover))
    nodes = _all_lattice_nodes(lat)
    for n1, n2 in itertools.product(nodes, nodes):
        if n1.projected <= n2.projected:
            assert enumerate_plans(n1.model, 6) <= enumerate_plans(n2.model, 6)


def test_explanation_inheritance_down_the_lattice(minirover):
    """A group set that breaks a node breaks every more concrete node."""
    lat = build_lattice(minirover, minirover_groups(minirover))
    nodes = _all_lattice_nodes(lat)
    for n2 in nodes:
        for restored in map(frozenset, _powerset(sorted(n2.projected))):
            if not restored:
                continue
            broken = not decide_solvable(concretize(lat, n2, restored).model).solvable
            if not broken:
                continue
            for n1 in nodes:
                if n1.projected <= n2.projected and restored <= n1.projected:
                    c1 = concretize(lat, n1, restored)
                    assert not decide_solvable(c1.model).solvable


def test_explanatory_minimality_exhaustive(minirover):
    from .oracles import brute_force_explanations

    lat = build_lattice(minirover, minirover_groups(minirover))
    members = minimum_abstraction_set(lat)
    expl = find_explanatory_fluents(lat, members)
    valid = brute_force_explanations(lat, members)
    assert valid, "oracle found no explanation but search returned one"
    assert expl.cost == min(cost for cost, _ in valid)


# --- plan replay and shared projections ------------------------------------


@st.composite
def lattices(draw):
    """A micro-model with random groups, complement pairs and forbidden sets."""
    m = draw(micro_models())
    fids = sorted(m.fluents)
    for p, n in draw(st.lists(st.tuples(st.sampled_from(fids), st.sampled_from(fids)),
                              max_size=2)):
        if p != n and m.table.complement(p) is None and m.table.complement(n) is None:
            m.table.register_complement(p, n)
    labels = {}
    for f in fids:
        if f not in labels:
            labels[f] = draw(st.integers(-1, 3))  # -1: in no group
            partner = m.table.complement(f)
            if partner is not None:
                labels[partner] = labels[f]
    groups = [
        FluentGroup(f"g{k}", frozenset(f for f in fids if labels[f] == k))
        for k in range(4) if k in labels.values()
    ]
    names = [g.name for g in groups]
    forbidden = draw(st.lists(st.sets(st.sampled_from(names), min_size=1), max_size=3)
                     ) if names else []
    lat = build_lattice(m, groups, forbidden)
    order = draw(st.permutations(lat.all_projected_sets()))
    return lat, order


@given(lattices())
@settings(max_examples=150, deadline=None)
def test_replayed_decisions_match_fresh_search_on_rebuilt_projections(case):
    lat, order = case
    root = lat.root
    plans = []  # the plans searched nodes found, in the order found
    for projected in order:
        node = lat.node(projected)
        result = lat.solvability(node)
        gone = frozenset().union(*(lat.groups[g].members for g in projected))
        rebuilt = project_by_rebuild(root, gone)
        # the first stored plan valid on the projection decides the node
        valid = [p for p in plans if validate_plan(rebuilt, p).valid]
        if valid:
            assert result.plan == valid[0]
        else:
            assert result == decide_solvable(rebuilt)
            if result.solvable:
                plans.append(result.plan)
        assert node.model == rebuilt
        for a in root.actions:
            assert node.model.action(a.name) == rebuilt.action(a.name)
            if gone.isdisjoint(a.prec) and all(
                    gone.isdisjoint(e.condition | e.adds | e.dels) for e in a.effects):
                assert node.model.action(a.name) is a
        assert diff_models(node.model, root) == diff_models(rebuilt, root)
        assert result.status == decide_solvable(rebuilt).status
        if result.solvable:
            assert validate_plan(node.model, result.plan).valid


@given(lattices())
@settings(max_examples=100, deadline=None)
def test_node_decisions_match_search_on_rebuilt_projections(case):
    lat, _ = case
    root = lat.root
    for limits in [SearchLimits()] + [SearchLimits(max_nodes=k) for k in range(7)]:
        for projected in lat.all_projected_sets():
            # a fresh lattice holds no plans to replay, so the node is searched
            fresh = build_lattice(root, lat.groups.values(), lat.forbidden, limits)
            node = fresh.node(projected)
            result = fresh.solvability(node)
            assert "model" not in vars(node)
            assert result == decide_solvable(project_by_rebuild(root, node.gone), limits)


def test_replay_decides_a_node_without_searching(minirover, monkeypatch):
    import noplan.abstraction as abstraction

    lat = build_lattice(minirover, minirover_groups(minirover))
    top = lat.node({"rocks", "conn"})
    assert lat.solvability(top).solvable
    calls = []
    search = abstraction.decide_masks
    monkeypatch.setattr(abstraction, "decide_masks",
                        lambda *args: calls.append(args) or search(*args))
    # the plan found at the top is valid once only rocks are projected
    rocks = lat.node({"rocks"})
    assert lat.solvability(rocks).plan == lat.solvability(top).plan
    assert calls == []
    # unsolvable decisions still come from a search
    assert not lat.solvability(lat.node({"conn"})).solvable
    assert len(calls) == 1


def test_replay_clears_projected_bits_from_effect_conditions(monkeypatch):
    import noplan.abstraction as abstraction

    # a adds g when p and q hold; q holds initially, p never does
    m, ids = build_model(["p", "q", "g"], [("a", [], [(["p", "q"], ["g"], [])])], ["q"], ["g"])
    lat = build_lattice(m, [FluentGroup("P", frozenset({ids["p"]})),
                            FluentGroup("Q", frozenset({ids["q"]}))])
    assert lat.solvability(lat.node({"P", "Q"})).plan == ("a",)
    calls = []
    search = abstraction.decide_masks
    monkeypatch.setattr(abstraction, "decide_masks",
                        lambda *args: calls.append(args) or search(*args))
    # with p projected the condition is q alone, so the stored plan replays
    assert lat.solvability(lat.node({"P"})).plan == ("a",)
    assert calls == []
    assert not lat.solvability(lat.node({"Q"})).solvable
    assert len(calls) == 1


def test_replay_decides_a_node_whose_search_exhausts_the_budget():
    # four steps reach the goal; three flags that any action may set
    # multiply the root's state space by eight, and projecting them
    # leaves a five-state search
    steps = [(f"step_{i}", [f"c_{i - 1}"], [f"c_{i}"], []) for i in range(1, 5)]
    flips = [(f"flip_{j}", [], [f"y_{j}"], []) for j in range(1, 4)]
    fluents = [f"c_{i}" for i in range(5)] + [f"y_{j}" for j in range(1, 4)]
    m, ids = build_model(fluents, steps + flips, ["c_0"], ["c_4"])
    flags = FluentGroup("flags", frozenset(ids[f] for f in fluents if f.startswith("y")))
    lat = build_lattice(m, [flags], limits=SearchLimits(max_nodes=10))
    assert decide_solvable(m, lat.limits).exhausted
    plan = lat.solvability(lat.node({"flags"})).plan
    assert plan == ("step_1", "step_2", "step_3", "step_4")
    # the root, searched first, is exhausted; decided after the top, it
    # is solvable by replay
    assert lat.solvability(lat.root_node).plan == plan


# --- the exemplar's source plan is searched, not replayed ------------------


def _lattice_as_explain_builds_it(m, spec, advice_text=None):
    """The lattice of explain, decided as far as the explanatory-set search goes."""
    effective = compose(m, parse_advice(advice_text, m)).compiled if advice_text else m
    lat = build_lattice(effective, resolve_groups(effective, spec), spec.forbidden)
    lat.root_node.solvable = decide_solvable(effective)
    assert not lat.root_node.solvable.solvable
    members = minimum_abstraction_set(lat)
    find_explanatory_fluents(lat, members)
    return members


def _assert_exemplar_plan_is_first_shortest(members):
    assert members
    assert members[0].solvable.plan == decide_solvable(members[0].model).plan
    for node in members:
        assert validate_plan(node.model, node.solvable.plan).valid


@pytest.mark.parametrize("name,advice", [
    ("minirover", None),
    ("rover_grid", None),
    ("blocksworld", "advice.json"),
    ("logistics", "advice.json"),
])
def test_exemplar_plan_is_first_shortest_on_bundled_instances(name, advice):
    base = INSTANCES / name
    m = ground(parse_model((base / "domain.pddl").read_text(),
                           (base / "problem.pddl").read_text()))
    spec = load_lattice_spec((base / "lattice.json").read_text())
    advice_text = (base / advice).read_text() if advice else None
    _assert_exemplar_plan_is_first_shortest(_lattice_as_explain_builds_it(m, spec, advice_text))


OBSTACLES = ("ice", "lava", "mud", "rocks", "sand", "snow", "trees", "water")


def _obstacle_grid(size: int) -> tuple[str, str]:
    """A rover grid with one lattice group per obstacle kind.

    Rocks and water cover the two approaches of the goal corner. The
    other kinds cover the edge cells next to the start, one each, which
    never walls anything off but puts them on the first shortest path,
    so nodes that keep different kinds have different first plans.
    """
    preds = " ".join(f"(has-{o} ?c - cell)" for o in OBSTACLES)
    blocked = " ".join(f"(not (has-{o} ?to))" for o in OBSTACLES)
    domain = f"""(define (domain grid)
  (:requirements :strips :typing :negative-preconditions)
  (:types cell)
  (:predicates (at ?c - cell) (conn ?a - cell ?b - cell) {preds})
  (:action move :parameters (?from - cell ?to - cell)
    :precondition (and (at ?from) (conn ?from ?to) {blocked})
    :effect (and (at ?to) (not (at ?from)))))"""
    cells = [(x, y) for x in range(1, size + 1) for y in range(1, size + 1)]
    facts = ["(at c1-1)"]
    for x, y in cells:
        for nx, ny in ((x + 1, y), (x, y + 1)):
            if nx <= size and ny <= size:
                facts += [f"(conn c{x}-{y} c{nx}-{ny})", f"(conn c{nx}-{ny} c{x}-{y})"]
    facts += [f"(has-rocks c{size - 1}-{size})", f"(has-water c{size}-{size - 1})"]
    decoys = [o for o in OBSTACLES if o not in ("rocks", "water")]
    facts += [f"(has-{o} c1-{y})" for y, o in enumerate(decoys, start=2)]
    objects = " ".join(f"c{x}-{y}" for x, y in cells)
    problem = (f"(define (problem grid) (:domain grid) (:objects {objects} - cell) "
               f"(:init {' '.join(facts)}) (:goal (at c{size}-{size})))")
    return domain, problem


@pytest.mark.parametrize("forbidden", [[], [["ice", "lava"], ["mud", "sand"]]])
def test_exemplar_plan_is_first_shortest_on_eight_groups(forbidden):
    m = ground(parse_model(*_obstacle_grid(8)))
    spec = load_lattice_spec(json.dumps({
        "groups": [{"name": o, "predicates": [f"has-{o}"]} for o in OBSTACLES],
        "forbidden": forbidden,
    }))
    members = _lattice_as_explain_builds_it(m, spec)
    assert len(members) == (1 if not forbidden else 4)
    if forbidden:
        # a plan replayed into members[0] would not be its first shortest
        assert len({decide_solvable(n.model).plan for n in members}) > 1
    _assert_exemplar_plan_is_first_shortest(members)


@pytest.mark.parametrize("forbidden", [[], [["ice", "lava"], ["mud", "sand"]]])
def test_explaining_builds_models_only_for_members_and_concretizations(forbidden, monkeypatch):
    # the package's explain function hides its module of the same name
    explain_module = importlib.import_module("noplan.explain")
    m = ground(parse_model(*_obstacle_grid(8)))
    spec = load_lattice_spec(json.dumps({
        "groups": [{"name": o, "predicates": [f"has-{o}"]} for o in OBSTACLES],
        "forbidden": forbidden,
    }))
    lattices, calls = [], []
    build, without = explain_module.build_lattice, PlanningModel.without
    monkeypatch.setattr(explain_module, "build_lattice",
                        lambda *args: lattices.append(build(*args)) or lattices[-1])
    monkeypatch.setattr(PlanningModel, "without",
                        lambda self, gone: calls.append((self, gone)) or without(self, gone))
    e = explain(m, spec)
    recorded = list(calls)
    monkeypatch.undo()
    [lat] = lattices
    members = minimum_abstraction_set(lat)
    assert len(members) == (1 if not forbidden else 4)
    targets = [concretize(lat, n, e.explanatory.groups & n.projected) for n in members]
    built = [n for n in members + targets if n.gone]
    # each member and concretization is projected from the root once
    from_root = [gone for model, gone in recorded if model is m]
    assert sorted(map(sorted, from_root)) == sorted(map(sorted, {n.gone for n in built}))
    # the rest check that a concretization projects onto its member
    models = [n.model for n in members + targets]
    assert all(any(model is other for other in models)
               for model, _ in recorded if model is not m)


def _explanatory_inputs():
    """(label, effective model, groups): the bundled instances with and
    without each advice file, and a seeded corpus with its advice."""
    yield from bundled_models()
    for i, (m, groups, advice) in enumerate(unsolvable_corpus(20240, 50)):
        if advice is not None:
            spec = LatticeSpec(tuple(
                (g.name, tuple(sorted({m.table.fluent(f).name for f in g.members})))
                for g in groups))
            m = compose(m, parse_advice(advice, m)).compiled
            groups = resolve_groups(m, spec)
        yield f"corpus-{i}", m, groups


def test_explanatory_updates_equal_member_diffs():
    """The updates listed once over the root are the union of diff_models
    over the members and their concretizations."""
    checked = 0
    for label, m, groups in _explanatory_inputs():
        if decide_solvable(m).solvable:
            continue
        lat = build_lattice(m, groups)
        members = minimum_abstraction_set(lat)
        if not members:
            continue
        found = find_explanatory_fluents(lat, members)
        diffs: set[ModelUpdate] = set()
        for node in members:
            conc = concretize(lat, node, found.groups & node.projected)
            diffs |= set(diff_models(node.model, conc.model))
        assert found.updates == tuple(sorted(diffs, key=update_sort_key)), label
        assert found.cost == len(found.updates), label
        checked += 1
    assert checked >= 40
