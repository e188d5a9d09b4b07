import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noplan.abstraction import build_lattice
from noplan.achievability import compile_achievability, final_goal_landmark
from noplan.landmarks import extract_landmarks
from noplan.model import Action, Effect, PlanningModel, validate_plan
from noplan.search import SearchLimits, _live, compile_masks, decide_solvable

from .conftest import build_model, bundled_models, top_projection
from .oracles import (
    EnumerationBudgetError,
    decide_solvable_by_sets,
    enumerate_plans,
    project_by_rebuild,
    reachable_states,
)
from .random_models import MicroConfig, random_model


def test_minirover_unsolvable(minirover):
    assert decide_solvable(minirover).status == "unsolvable"
    # nothing is applicable at the initial state: only one reachable state
    assert len(reachable_states(minirover)) == 1


def test_norocks_solvable_with_deterministic_plan(norocks):
    result = decide_solvable(norocks)
    assert result.solvable
    assert result.plan == ("move_l1_l2", "move_l2_l3")
    assert validate_plan(norocks, result.plan).valid


def test_goal_in_init_gives_empty_plan():
    m, _ = build_model(["g"], [], ["g"], ["g"])
    result = decide_solvable(m)
    assert result.solvable and result.plan == ()


def test_node_budget_reports_exhausted(norocks):
    result = decide_solvable(norocks, SearchLimits(max_nodes=0, max_seconds=60))
    assert result.exhausted
    assert "budget" in result.detail


def test_enumerate_norocks(norocks):
    assert enumerate_plans(norocks, 2) == {("move_l1_l2", "move_l2_l3")}


def test_enumerate_minirover_empty(minirover):
    assert enumerate_plans(minirover, 6) == set()


def test_enumerate_len_zero_goal_in_init():
    m, _ = build_model(["g"], [], ["g"], ["g"])
    assert enumerate_plans(m, 0) == {()}


def test_enumerate_budget():
    m, _ = build_model(
        ["p", "q"],
        [("flip", [], ["p"], []), ("flop", [], ["q"], [])],
        [],
        ["p", "q"],
    )
    with pytest.raises(EnumerationBudgetError):
        enumerate_plans(m, 10, max_nodes=5)


@st.composite
def micro_models(draw):
    n = draw(st.integers(3, 6))
    names = [f"f{i}" for i in range(n)]
    subset = st.lists(st.sampled_from(names), max_size=2, unique=True)
    nonempty = st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True)
    actions = []
    for i in range(draw(st.integers(1, 4))):
        prec = draw(subset)
        adds = draw(nonempty)
        dels = [f for f in draw(subset) if f not in adds]
        effects = [([], adds, dels)]
        if draw(st.booleans()):
            cond_adds = draw(subset)
            cond_dels = [f for f in draw(subset) if f not in cond_adds]
            effects.append((draw(nonempty), cond_adds, cond_dels))
        actions.append((f"a{i}", prec, effects))
    init = draw(subset)
    goal = draw(nonempty)
    return build_model(names, actions, init, goal)[0]


@given(micro_models())
@settings(max_examples=60, deadline=None)
def test_oracle_agreement(m):
    states = reachable_states(m)
    result = decide_solvable(m)
    if result.solvable:
        assert validate_plan(m, result.plan).valid
        # no plan is shorter than the one found
        plans = enumerate_plans(m, len(result.plan), max_nodes=4_000_000)
        assert min(len(p) for p in plans) == len(result.plan)
    else:
        # covers the relaxed early exit as well as a search that empties its queue
        assert result.status == "unsolvable"
        assert not any(m.goal <= s for s in states)
        assert enumerate_plans(m, len(states), max_nodes=4_000_000) == set()


@given(micro_models())
@settings(max_examples=40, deadline=None)
def test_decide_solvable_deterministic(m):
    a = decide_solvable(m)
    b = decide_solvable(m)
    assert a == b


@given(micro_models(), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_bitmask_search_matches_set_search(m, k):
    assert decide_solvable(m) == decide_solvable_by_sets(m)
    budget = SearchLimits(max_nodes=k)
    assert decide_solvable(m, budget) == decide_solvable_by_sets(m, budget)


@pytest.mark.parametrize("effects", [
    # unconditional add, conditional delete of the same atom
    [([], ["g"], []), (["c"], [], ["g"])],
    # conditional add, unconditional delete of the same atom
    [([], [], ["g"]), (["c"], ["g"], [])],
])
def test_adds_win_over_deletes_of_other_effects(effects):
    m, _ = build_model(["c", "g"], [("a", [], effects)], ["c"], ["g"])
    result = decide_solvable(m)
    assert result.plan == ("a",)
    assert result == decide_solvable_by_sets(m)


def test_projection_is_decided_on_its_own_tables(minirover):
    # searched first, so the parent's tables exist when the projection is made
    assert decide_solvable(minirover).status == "unsolvable"
    rubble = frozenset(f for f in minirover.fluents if minirover.table.fluent(f).name == "clear")
    projected = minirover.without(rubble)
    result = decide_solvable(projected)
    assert result.plan == ("move_l1_l2", "move_l2_l3")
    assert decide_solvable(minirover).status == "unsolvable"


@given(micro_models(), st.data())
@settings(max_examples=60, deadline=None)
def test_derived_models_match_fresh_ones(m, data):
    decide_solvable(m)
    # goal fluents stay, so the projection still has something to search for
    gone = frozenset(data.draw(st.sets(st.sampled_from(sorted(m.fluents))))) - m.goal
    assert decide_solvable(m.without(gone)) == decide_solvable_by_sets(project_by_rebuild(m, gone))
    goal = frozenset(data.draw(st.sets(st.sampled_from(sorted(m.fluents)), min_size=1)))
    fresh = PlanningModel(m.table, m.fluents, m.actions, m.init, goal)
    assert decide_solvable(m.with_goal(goal)) == decide_solvable_by_sets(fresh)


# --- the successor index keeps model action order --------------------------

BUDGETS = [SearchLimits(max_nodes=k) for k in (0, 1, 2, 3, 5, 10, 50)]


def _assert_search_matches_sets(m):
    for limits in [SearchLimits()] + BUDGETS:
        assert decide_solvable(m, limits) == decide_solvable_by_sets(m, limits)


def _achievability_goals(m, lg):
    """The shared achievability compile of lg on m, and one goal per landmark."""
    extended, pseudo = final_goal_landmark(m, lg)
    shared = compile_achievability(m, extended, pseudo)
    return shared, [frozenset({shared.table.id_of(f"first-time-lm{lm.id}")})
                    for lm in extended.landmarks]


def _assert_lattice_matches_rebuilt_projections(m, groups):
    for limits in [SearchLimits()] + BUDGETS:
        for projected in build_lattice(m, groups).all_projected_sets():
            # a fresh lattice holds no plans to replay, so the node is searched
            lat = build_lattice(m, groups, limits=limits)
            node = lat.node(projected)
            assert lat.solvability(node) == decide_solvable_by_sets(
                project_by_rebuild(m, node.gone), limits)


@pytest.mark.parametrize("m,groups", [pytest.param(m, groups, id=label)
                                        for label, m, groups in bundled_models()])
def test_search_matches_set_search_on_bundled_instances(m, groups):
    top = top_projection(m, groups)
    # landmarks of the top projection, achievable there, often not on m
    lg = extract_landmarks(top, check_solvable=False)
    for level in (m, top):
        _assert_search_matches_sets(level)
        shared, goals = _achievability_goals(level, lg)
        for goal in goals:
            _assert_search_matches_sets(shared.with_goal(goal))
    _assert_lattice_matches_rebuilt_projections(m, groups)


def _with_keyed_ops(rng, m):
    """m with ops inserted at random positions that exercise every part of
    the successor index: one with an empty precondition, one whose
    precondition holds in init, and three filed under one key bit.
    """
    ids = sorted(m.fluents)

    def op(name, prec):
        adds = frozenset(rng.sample(ids, rng.randint(1, 2)))
        dels = frozenset(rng.sample(ids, rng.randint(0, 2))) - adds
        return Action(name, frozenset(prec), (Effect(frozenset(), adds, dels),))

    extra = [op("free", ()),
             op("held", rng.sample(sorted(m.init), rng.randint(1, min(2, len(m.init)))))]
    # key is the lowest fluent outside init of every twin's precondition
    key = rng.choice([f for f in ids if f not in m.init])
    rest = [f for f in ids if f in m.init or f > key]
    extra += [op(f"twin{i}", {key, *rng.sample(rest, rng.randint(0, min(2, len(rest))))})
              for i in range(3)]
    actions = list(m.actions)
    for a in extra:
        actions.insert(rng.randint(0, len(actions)), a)
    return PlanningModel(m.table, m.fluents, tuple(actions), m.init, m.goal)


def test_search_matches_set_search_on_random_models_with_keyed_ops():
    rng = random.Random(20241)
    cfg = MicroConfig(min_actions=6, max_actions=12)
    for _ in range(60):
        m, groups = random_model(rng, cfg)
        m = _with_keyed_ops(rng, m)
        bits, init, ops = compile_masks(m)
        always, _, buckets = _live(ops, (1 << len(bits)) - 1, init)
        assert "free" in [op[-1] for op in always]
        # held is filed under a bit of init, so expanding init merges
        # its bucket with the always list
        assert any(key & init and "held" in [op[-1] for op in bucket]
                   for key, bucket in buckets.items())
        assert any(sum(op[-1].startswith("twin") for op in bucket) == 3
                   for bucket in buckets.values())
        _assert_search_matches_sets(m)
        lg = extract_landmarks(top_projection(m, groups), check_solvable=False)
        shared, goals = _achievability_goals(m, lg)
        for goal in goals:
            _assert_search_matches_sets(shared.with_goal(goal))
        _assert_lattice_matches_rebuilt_projections(m, groups)
