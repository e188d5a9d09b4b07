import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noplan.model import PlanningModel, validate_plan
from noplan.search import SearchLimits, decide_solvable

from .conftest import build_model
from .oracles import (
    EnumerationBudgetError,
    decide_solvable_by_sets,
    enumerate_plans,
    project_by_rebuild,
    reachable_states,
)


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
