import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noplan.errors import FormulaError, ModelError, PreconditionViolation, UnknownActionError
from noplan.model import (
    Action,
    DnfFormula,
    Effect,
    FluentTable,
    PlanningModel,
    apply_action,
    format_formula,
    holds,
    normalize_dnf,
    validate_plan,
)

from .conftest import build_model


def test_apply_move_at_init(minirover_hand):
    m = minirover_hand
    nr = _drop_clear(m)
    a = nr.action("move_l1_l2")
    succ = {nr.table.canonical(f) for f in apply_action(nr.init, a)}
    assert "at_l2" in succ
    assert "at_l1" not in succ


def _drop_clear(m):
    from noplan.abstraction import project_model

    clear = frozenset(f for f in m.fluents if m.table.fluent(f).name == "clear")
    return project_model(m, clear)


def test_apply_precondition_violation(minirover_hand):
    m = minirover_hand
    with pytest.raises(PreconditionViolation) as exc:
        apply_action(m.init, m.action("move_l2_l3"))
    missing = {m.table.canonical(f) for f in exc.value.missing}
    assert missing == {"at_l2"}


def test_apply_first_move_blocked_by_rubble(minirover_hand):
    m = minirover_hand
    with pytest.raises(PreconditionViolation) as exc:
        apply_action(m.init, m.action("move_l1_l2"))
    assert {m.table.canonical(f) for f in exc.value.missing} == {"clear_l2"}


def test_apply_no_triggered_conditional_effect_is_identity():
    m, ids = build_model(
        ["p", "q", "r"],
        [("a", [], [(["q"], ["r"], [])])],
        ["p"],
        ["r"],
    )
    assert apply_action(m.init, m.action("a")) == m.init


def test_conditional_effects_evaluated_on_pre_state():
    # both effects test the pre-state: the first one's add must not
    # enable the second within the same application
    m, ids = build_model(
        ["p", "q", "r"],
        [("a", [], [([], ["p"], []), (["p"], ["q"], [])])],
        [],
        ["q"],
    )
    succ = apply_action(m.init, m.action("a"))
    assert ids["p"] in succ and ids["q"] not in succ
    # second application: p now holds, q fires
    assert ids["q"] in apply_action(succ, m.action("a"))


def test_adds_win_across_effects():
    m, ids = build_model(
        ["p", "q"],
        [("a", [], [([], ["p"], []), ([], [], ["p"])])],
        [],
        ["p"],
    )
    assert ids["p"] in apply_action(m.init, m.action("a"))


def test_effect_add_delete_overlap_rejected():
    with pytest.raises(ModelError):
        Effect(frozenset(), frozenset({1}), frozenset({1}))


def test_with_goal_equals_replace(minirover_hand):
    m = minirover_hand
    goal = frozenset(sorted(m.fluents)[:2])
    swapped = m.with_goal(goal)
    assert swapped == dataclasses.replace(m, goal=goal)
    assert swapped.goal == goal and m.goal != goal
    assert swapped.table is m.table
    assert [swapped.action(a.name) for a in m.actions] == list(m.actions)


def test_with_goal_outside_fluents_rejected(minirover_hand):
    m = minirover_hand
    with pytest.raises(ModelError, match="goal"):
        m.with_goal({max(m.fluents) + 1})


def test_validate_plan_valid(minirover_hand):
    nr = _drop_clear(minirover_hand)
    trace = validate_plan(nr, ("move_l1_l2", "move_l2_l3"))
    assert trace.valid
    assert trace.failing_index is None
    assert trace.unsatisfied_precondition is None
    assert trace.plan == ("move_l1_l2", "move_l2_l3")


def test_validate_empty_plan_goal_in_init():
    m, _ = build_model(["g"], [], ["g"], ["g"])
    assert validate_plan(m, ()).valid


def test_validate_plan_first_failure(minirover_hand):
    m = minirover_hand
    trace = validate_plan(m, ("move_l1_l2",))
    assert not trace.valid
    assert trace.failing_index == 0
    assert {m.table.canonical(f) for f in trace.unsatisfied_precondition} == {"clear_l2"}


def test_validate_plan_goal_miss_reports_plan_length():
    m, ids = build_model(["p", "g"], [("a", [], ["p"], [])], [], ["g"])
    trace = validate_plan(m, ("a",))
    assert not trace.valid
    assert trace.failing_index == 1
    assert trace.unsatisfied_precondition == frozenset({ids["g"]})


def test_validate_unknown_action(minirover_hand):
    with pytest.raises(UnknownActionError):
        validate_plan(minirover_hand, ("fly",))


def test_normalize_distribution():
    f = normalize_dnf(("and", 0, ("or", 1, 2)))
    assert f.disjuncts == frozenset({frozenset({0, 1}), frozenset({0, 2})})


def test_normalize_atom():
    assert normalize_dnf(0).disjuncts == frozenset({frozenset({0})})


def test_normalize_subsumption():
    f = normalize_dnf(("and", ("or", 0, 1), 0))
    assert f.disjuncts == frozenset({frozenset({0})})


def test_normalize_rejects_negation():
    with pytest.raises(FormulaError):
        normalize_dnf(("not", 0))


def test_holds_examples():
    phi = DnfFormula.build([{0, 2}, {1}])
    assert holds(frozenset({0, 1}), phi)
    assert not holds(frozenset(), DnfFormula.build([{0}]))
    assert not holds(frozenset({0}), DnfFormula(frozenset()))  # falsum


@pytest.mark.parametrize("disjuncts, text", [
    ([], "FALSE"),
    ([set(), {"at_l1"}], "TRUE"),
    ([{"clear_l2", "at_l1"}], "at_l1 and clear_l2"),
    ([{"at_l2"}, {"clear_l2", "at_l1"}], "(at_l1 and clear_l2) or at_l2"),
], ids=["falsum", "empty-disjunct", "conjunction", "disjunction"])
def test_format_formula(disjuncts, text):
    table = FluentTable()
    ids = {f"{pred}_{arg}": table.intern(pred, (arg,))
           for pred, arg in (("at", "l1"), ("at", "l2"), ("clear", "l2"))}
    formula = DnfFormula.build([{ids[n] for n in d} for d in disjuncts])
    assert format_formula(table, formula) == text


@st.composite
def formula_trees(draw, n_vars=4, depth=3):
    if depth == 0:
        return draw(st.integers(0, n_vars - 1))
    kind = draw(st.sampled_from(["atom", "and", "or"]))
    if kind == "atom":
        return draw(st.integers(0, n_vars - 1))
    kids = draw(st.lists(formula_trees(n_vars=n_vars, depth=depth - 1), min_size=1, max_size=3))
    return (kind, *kids)


def _eval_tree(tree, state):
    if isinstance(tree, int):
        return tree in state
    op, *kids = tree
    results = [_eval_tree(k, state) for k in kids]
    return all(results) if op == "and" else any(results)


@given(formula_trees())
@settings(max_examples=150, deadline=None)
def test_normalize_preserves_semantics_exhaustively(tree):
    f = normalize_dnf(tree)
    for bits in itertools.product([0, 1], repeat=4):
        state = frozenset(i for i, b in enumerate(bits) if b)
        assert holds(state, f) == _eval_tree(tree, state)


@st.composite
def micro_models(draw, n_fluents=5, n_actions=4):
    names = [f"f{i}" for i in range(n_fluents)]
    subset = st.lists(st.sampled_from(names), max_size=3, unique=True)
    actions = []
    for i in range(draw(st.integers(1, n_actions))):
        prec = draw(subset)
        adds = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
        dels = [f for f in draw(subset) if f not in adds]
        actions.append((f"a{i}", prec, adds, dels))
    init = draw(subset)
    goal = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    return build_model(names, actions, init, goal)[0]


@given(micro_models(), st.data())
@settings(max_examples=80, deadline=None)
def test_apply_is_deterministic_and_framed(m, data):
    applicable = [a for a in m.actions if a.prec <= m.init]
    if not applicable:
        return
    a = data.draw(st.sampled_from(applicable))
    s1 = apply_action(m.init, a)
    assert s1 == apply_action(m.init, a)
    touched = frozenset().union(*((e.adds | e.dels) for e in a.effects))
    for f in m.fluents - touched:
        assert (f in s1) == (f in m.init)


def test_complement_registry_roundtrip():
    t = FluentTable()
    p = t.intern("rock", ("c1",))
    n = t.ensure_complement(p)
    assert t.canonical(n) == "not-rock_c1"
    assert t.complement(p) == n and t.complement(n) == p
    assert t.positive_of(n) == p and t.positive_of(p) is None
    assert t.ensure_complement(p) == n
    clone = t.clone()
    assert clone.positive_of(n) == p
    clone.intern("fresh")
    assert t.get("fresh") is None


def _stray_model(actions):
    """A model over p and q whose actions may name a third fluent, stray."""
    table = FluentTable()
    p, q, stray = (table.intern(n) for n in ("p", "q", "stray"))
    return PlanningModel(table, frozenset({p, q}), tuple(actions(p, q, stray)),
                         frozenset({p}), frozenset({q}))


def _effect(cond=(), adds=(), dels=()):
    return Effect(frozenset(cond), frozenset(adds), frozenset(dels))


@pytest.mark.parametrize("spot", ["precondition", "condition", "add", "delete"])
def test_model_rejects_an_action_naming_a_fluent_outside_it(spot):
    # stray sits in the second effect, so every effect is checked
    def actions(p, q, stray):
        prec = {stray} if spot == "precondition" else {p}
        second = {"precondition": _effect(adds=[q]), "condition": _effect([stray], [q]),
                  "add": _effect(adds=[stray]), "delete": _effect(dels=[stray])}[spot]
        return [Action("ok", frozenset({p}), (_effect(adds=[q]),)),
                Action("bad", frozenset(prec), (_effect(adds=[q]), second))]

    with pytest.raises(ModelError, match="^action bad mentions fluents outside the model$"):
        _stray_model(actions)


def test_model_rejects_duplicate_action_names():
    def actions(p, q, stray):
        return [Action("a", frozenset({p}), (_effect(adds=[q]),)),
                Action("a", frozenset(), (_effect(dels=[p]),))]

    with pytest.raises(ModelError, match="^duplicate action name a$"):
        _stray_model(actions)
