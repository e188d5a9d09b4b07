import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noplan.abstraction import build_lattice
from noplan.achievability import compile_achievability, final_goal_landmark
from noplan.advice import compose, parse_advice
from noplan.landmarks import extract_landmarks
from noplan.model import Action, Effect, PlanningModel, validate_plan
from noplan.pddl import ground, parse_model
from noplan.search import (
    GATE,
    SearchLimits,
    _live,
    _pairs,
    _pairwise,
    _relaxed,
    compile_masks,
    decide_solvable,
    fluent_mask,
    relaxed_reachable,
)

from .conftest import INSTANCES, build_model, bundled_models, top_projection
from .oracles import (
    EnumerationBudgetError,
    decide_solvable_by_sets,
    enumerate_plans,
    project_by_rebuild,
    reachable_pairs,
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
    # decide_solvable stores the relaxed set as decide_masks' relaxed bits
    reached = relaxed_reachable(m)
    bits, init, ops = compile_masks(m, reached)
    assert _relaxed(init, ops) == fluent_mask(bits, reached)
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
    lg = extract_landmarks(top)
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
        lg = extract_landmarks(top_projection(m, groups))
        shared, goals = _achievability_goals(m, lg)
        for goal in goals:
            _assert_search_matches_sets(shared.with_goal(goal))
        _assert_lattice_matches_rebuilt_projections(m, groups)


# --- the pair check (h^2) --------------------------------------------------

def _pair_pass(m):
    """The fluent bits of m and the pair set _bfs would build for it, with no gate."""
    bits, init, ops = compile_masks(m)
    return bits, _pairs(init, _live(ops, _relaxed(init, ops), init))


def _random_conditional_model(rng):
    """A micro-model in which every action has a conditional effect."""
    names = [f"f{i}" for i in range(rng.randint(3, 6))]

    def some(lo, hi):
        return rng.sample(names, rng.randint(lo, hi))

    actions = []
    for i in range(rng.randint(1, 4)):
        adds = some(1, 2)
        effects = [([], adds, [f for f in some(0, 2) if f not in adds])]
        for _ in range(rng.randint(1, 2)):
            cond_adds = some(0, 2)
            effects.append((some(1, 2), cond_adds, [f for f in some(0, 2) if f not in cond_adds]))
        actions.append((f"a{i}", some(0, 2), effects))
    return build_model(names, actions, some(0, 3), some(1, 2))[0]


def test_pair_pass_never_rejects_a_reachable_goal():
    rng = random.Random(4711)
    for _ in range(1500):
        m = _random_conditional_model(rng)
        bits, pairs = _pair_pass(m)
        for state in reachable_states(m):
            assert _pairwise(fluent_mask(bits, state), pairs)
        if decide_solvable_by_sets(m).solvable:
            assert _pairwise(fluent_mask(bits, m.goal), pairs)


@given(micro_models())
@settings(max_examples=150, deadline=None)
def test_pair_pass_matches_set_pairs(m):
    bits, (reached, partners) = _pair_pass(m)
    assert reached == fluent_mask(bits, {f for pair in reachable_pairs(m) for f in pair})
    found = {frozenset((f, g)) for f in m.fluents for g in m.fluents
             if bits[g] & partners.get(bits[f], 0)}
    assert found == reachable_pairs(m)


@pytest.mark.parametrize("m,groups", [pytest.param(m, groups, id=label)
                                        for label, m, groups in bundled_models()])
def test_pair_pass_proves_every_bundled_unsolvable_search(m, groups):
    top = top_projection(m, groups)
    lg = extract_landmarks(top)
    for level in (m, top):
        shared, goals = _achievability_goals(level, lg)
        for task in [level] + [shared.with_goal(goal) for goal in goals]:
            if decide_solvable_by_sets(task).status == "unsolvable":
                bits, pairs = _pair_pass(task)
                assert not _pairwise(fluent_mask(bits, task.goal), pairs)


def _blocks_advice():
    """The bundled blocksworld task under its advice, never holding b,
    with three more blocks on the table, so that breadth-first search
    passes the gate; a fresh model, with no search tables yet.
    """
    base = INSTANCES / "blocksworld"
    problem = (base / "problem.pddl").read_text()
    problem = problem.replace("a b c - block", "a b c d e f - block")
    problem = problem.replace("(handempty)", " ".join(f"(ontable {x}) (clear {x})" for x in "def")
                              + " (handempty)")
    m = ground(parse_model((base / "domain.pddl").read_text(), problem))
    return compose(m, parse_advice((base / "advice.json").read_text(), m)).compiled


def test_pair_check_answers_only_searches_that_reach_the_gate():
    m = _blocks_advice()
    bits, init, ops = compile_masks(m)
    always, _, buckets = _live(ops, _relaxed(init, ops), init)
    gate = GATE * (len(always) + sum(map(len, buckets.values())))
    # breadth-first search alone needs more than gate + 1 expansions to
    # prove this task unsolvable, and the relaxed exit cannot
    assert len(reachable_states(m)) > gate + 1
    assert m.goal <= relaxed_reachable(m)
    below, above = SearchLimits(max_nodes=gate), SearchLimits(max_nodes=gate + 1)
    assert decide_solvable(m, below).exhausted
    assert decide_solvable(m, above).status == "unsolvable"
    assert decide_solvable_by_sets(m, below).exhausted
    assert decide_solvable_by_sets(m, above).status == "unsolvable"


def test_time_budget_reports_exhausted():
    result = decide_solvable(_blocks_advice(), SearchLimits(max_seconds=0))
    assert result.exhausted
    assert "time budget" in result.detail
