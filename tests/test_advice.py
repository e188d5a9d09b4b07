import itertools
import json
import time

import pytest

from noplan.advice import (
    ActionLabel,
    ConstraintFsa,
    GuardLabel,
    Transition,
    action_count_at_most,
    before,
    compose,
    eventually_holds,
    fsa_product,
    never_holds,
    never_use_action,
    parse_advice,
    strip_meta,
    universal_fsa,
    use_action_eventually,
)
from noplan.errors import AdviceError, InvalidPlanError
from noplan.model import normalize_dnf
from noplan.pddl import ground, parse_ground_formula, parse_model
from noplan.search import decide_solvable

from .conftest import INSTANCES, build_model
from .oracles import (
    accepted_bounded_plans,
    accepts,
    action_moves,
    enumerate_plans,
    reachable_states,
    stripped_bounded_plans,
)


def _formula(m, text):
    return normalize_dnf(parse_ground_formula(text, m))


def _bounds(fsa, base_len):
    return base_len * (1 + len(fsa.states)) + 1


def _language_equal(m, fsa, base_len=6):
    cm = compose(m, fsa)
    left = stripped_bounded_plans(cm, base_len, _bounds(fsa, base_len))
    right = accepted_bounded_plans(m, fsa, base_len)
    return left, right


# --- templates ---------------------------------------------------------------


def test_never_use_shape(norocks):
    fsa = never_use_action(norocks, "move_l1_l2")
    assert len(fsa.states) == 1
    labels = {t.label.name for t in fsa.transitions}
    assert "move_l1_l2" not in labels
    assert "move_l2_l3" in labels


def test_eventually_holds_shape(norocks):
    fsa = eventually_holds(norocks, _formula(norocks, "(at l2)"))
    assert len(fsa.states) == 2
    guards = [t for t in fsa.transitions if isinstance(t.label, GuardLabel)]
    assert len(guards) == 1 and guards[0].target in fsa.accepting


def test_empty_advice_is_universal(norocks):
    fsa = parse_advice("[]", norocks)
    for plan in enumerate_plans(norocks, 4):
        assert accepts(fsa, plan, norocks)


def test_parse_advice_type_alias(norocks):
    fsa = parse_advice('[{"type": "never-use-action", "action": "move_l1_l2"}]', norocks)
    assert not accepts(fsa, ("move_l1_l2", "move_l2_l3"), norocks)


def test_parse_advice_warns_on_unreachable_accepting(norocks, caplog):
    import logging

    text = json.dumps([{
        "fsa": {
            "states": ["a", "island"],
            "initial": "a",
            "accepting": ["island"],
            "transitions": [{"from": "a", "to": "a", "label": {"action": "move_l1_l2"}}],
        }
    }])
    with caplog.at_level(logging.WARNING, logger="noplan.advice"):
        parse_advice(text, norocks)
    assert any("unreachable" in r.message for r in caplog.records)


def test_parse_advice_errors(norocks):
    with pytest.raises(AdviceError, match="unknown advice template"):
        parse_advice('[{"template": "sometimes-maybe"}]', norocks)
    with pytest.raises(AdviceError, match="unknown action"):
        parse_advice('[{"template": "never-use-action", "action": "fly"}]', norocks)
    with pytest.raises(AdviceError, match="JSON"):
        parse_advice("{", norocks)


def test_parse_explicit_fsa(norocks):
    text = json.dumps([{
        "fsa": {
            "states": ["a", "b"],
            "initial": "a",
            "accepting": ["b"],
            "transitions": [
                {"from": "a", "to": "b", "label": {"action": "move_l1_l2"}},
                {"from": "b", "to": "b", "label": {"action": "move_l2_l3"}},
            ],
        }
    }])
    fsa = parse_advice(text, norocks)
    assert accepts(fsa, ("move_l1_l2", "move_l2_l3"), norocks)
    rejecting = json.loads(text)
    rejecting[0]["fsa"]["accepting"] = ["a"]
    fsa2 = parse_advice(json.dumps(rejecting), norocks)
    assert not accepts(fsa2, ("move_l1_l2", "move_l2_l3"), norocks)


# --- accepts -----------------------------------------------------------------


def test_accepts_universal(norocks):
    fsa = universal_fsa(norocks)
    for plan in enumerate_plans(norocks, 4):
        assert accepts(fsa, plan, norocks)


def test_accepts_never_use_rejects(norocks):
    fsa = never_use_action(norocks, "move_l1_l2")
    assert not accepts(fsa, ("move_l1_l2", "move_l2_l3"), norocks)


def test_accepts_eventually_holds(norocks):
    fsa = eventually_holds(norocks, _formula(norocks, "(at l2)"))
    assert accepts(fsa, ("move_l1_l2", "move_l2_l3"), norocks)


def test_accepts_requires_valid_plan(norocks):
    fsa = universal_fsa(norocks)
    with pytest.raises(InvalidPlanError):
        accepts(fsa, ("move_l2_l3",), norocks)


def test_accepts_never_holds_semantics(norocks, twopath):
    fsa = never_holds(norocks, _formula(norocks, "(at l2)"))
    # every norocks plan passes through at_l2
    assert not accepts(fsa, ("move_l1_l2", "move_l2_l3"), norocks)
    # with two routes, only the l3 route survives the constraint
    two = never_holds(twopath, normalize_dnf(twopath.table.id_of("at", ("l2",))))
    assert accepts(two, ("move_l1_l3", "move_l3_l4"), twopath)
    assert not accepts(two, ("move_l1_l2", "move_l2_l4"), twopath)


def test_accepts_before_semantics():
    m, ids = build_model(
        ["p", "q", "g"],
        [
            ("mk_p", [], ["p"], []),
            ("mk_q", [], ["q"], []),
            ("win", [], ["g"], []),
        ],
        [],
        ["g"],
    )
    constraint = before(m, _formula_ids(m, "p"), _formula_ids(m, "q"))
    assert accepts(constraint, ("mk_p", "mk_q", "win"), m)   # p strictly before q
    assert not accepts(constraint, ("mk_q", "mk_p", "win"), m)
    assert accepts(constraint, ("win",), m)                  # q never holds
    assert not accepts(constraint, ("mk_q", "win"), m)       # q with no prior p


def _formula_ids(m, name):
    return normalize_dnf(m.table.id_of(name))


def test_accepts_action_count(norocks):
    fsa = action_count_at_most(norocks, "move_l1_l2", 0)
    assert not accepts(fsa, ("move_l1_l2", "move_l2_l3"), norocks)
    loopy = action_count_at_most(norocks, "move_l1_l2", 1)
    assert accepts(loopy, ("move_l1_l2", "move_l2_l3"), norocks)


def test_action_count_in_the_thousands_parses_in_linear_time():
    """Reachability over the count + 1 automaton states indexes the
    transitions by source once. On blocksworld a count of 4,000 takes
    under a second of CPU time; scanning every transition per state
    took about 20 s."""
    m = ground(parse_model((INSTANCES / "blocksworld" / "domain.pddl").read_text(),
                           (INSTANCES / "blocksworld" / "problem.pddl").read_text()))
    item = {"template": "action-count-at-most", "action": m.actions[0].name, "count": 4000}
    start = time.process_time()
    fsa = parse_advice(json.dumps([item]), m)
    assert time.process_time() - start < 8
    assert len(fsa.states) == 4001


@pytest.mark.parametrize("count", [True, False])
def test_action_count_must_be_an_integer(norocks, count):
    """A JSON true is a Python bool, and bool is a subclass of int; it
    must not be read as the count 1."""
    item = {"template": "action-count-at-most", "action": "move_l1_l2", "count": count}
    with pytest.raises(AdviceError, match="integer 'count'"):
        parse_advice(json.dumps([item]), norocks)


# --- product -----------------------------------------------------------------


def _string_language(fsa, alphabet, max_len):
    """Acceptance over raw action strings (action labels only)."""
    out = set()
    for n in range(max_len + 1):
        for word in itertools.product(alphabet, repeat=n):
            states = {fsa.initial}
            for sym in word:
                states = action_moves(fsa, states, sym)
                if not states:
                    break
            if states & fsa.accepting:
                out.add(word)
    return out


def test_product_with_universal_is_identity(norocks):
    alphabet = [a.name for a in norocks.actions]
    u = universal_fsa(norocks)
    f = never_use_action(norocks, "move_l1_l2")
    prod = fsa_product(f, u)
    assert (_string_language(prod, alphabet, 4)
            == _string_language(f, alphabet, 4))


def test_product_never_use_pair(norocks):
    alphabet = [a.name for a in norocks.actions]
    f = fsa_product(
        never_use_action(norocks, "move_l1_l2"),
        never_use_action(norocks, "move_l2_l3"),
    )
    lang = _string_language(f, alphabet, 4)
    assert lang == {()}


def test_product_is_intersection_exhaustively(norocks):
    alphabet = [a.name for a in norocks.actions]
    f1 = use_action_eventually(norocks, "move_l1_l2")
    f2 = action_count_at_most(norocks, "move_l1_l2", 1)
    prod = fsa_product(f1, f2)
    l1 = _string_language(f1, alphabet, 4)
    l2 = _string_language(f2, alphabet, 4)
    assert _string_language(prod, alphabet, 4) == (l1 & l2)


def test_product_of_disjoint_singletons(norocks):
    def single(word_action):
        return ConstraintFsa(
            frozenset({"s", "t"}), "s", frozenset({"t"}),
            (Transition("s", ActionLabel(word_action), "t"),),
        )

    prod = fsa_product(single("move_l1_l2"), single("move_l2_l3"))
    alphabet = [a.name for a in norocks.actions]
    assert _string_language(prod, alphabet, 4) == set()


# --- compose -----------------------------------------------------------------


def test_compose_never_use_blocks_only_route(norocks):
    cm = compose(norocks, parse_advice(
        '[{"template": "never-use-action", "action": "move_l1_l2"}]', norocks))
    assert not decide_solvable(cm.compiled).solvable


def test_compose_universal_preserves_plans(norocks):
    fsa = universal_fsa(norocks)
    left, right = _language_equal(norocks, fsa, base_len=4)
    assert left == right == {p for p in enumerate_plans(norocks, 4)}


def test_compose_eventually_holds(norocks):
    fsa = eventually_holds(norocks, _formula(norocks, "(at l2)"))
    cm = compose(norocks, fsa)
    result = decide_solvable(cm.compiled)
    assert result.solvable
    stripped = strip_meta(cm, result.plan)
    states = [norocks.init]
    from noplan.model import apply_action

    for name in stripped:
        states.append(apply_action(states[-1], norocks.action(name)))
    at_l2 = norocks.table.id_of("at", ("l2",))
    assert any(at_l2 in s for s in states)


def test_compose_unresolved_label():
    m, _ = build_model(["g"], [("a", [], ["g"], [])], [], ["g"])
    bad = ConstraintFsa(
        frozenset({"s"}), "s", frozenset({"s"}),
        (Transition("s", ActionLabel("ghost"), "s"),),
    )
    with pytest.raises(AdviceError):
        compose(m, bad)


def test_compose_two_guards_between_same_states(norocks):
    loops = [
        {"from": s, "to": s, "label": {"action": a}}
        for s in ("a", "b") for a in ("move_l1_l2", "move_l2_l3")
    ]
    text = json.dumps([{
        "fsa": {
            "states": ["a", "b"],
            "initial": "a",
            "accepting": ["b"],
            "transitions": loops + [
                {"from": "a", "to": "b", "label": {"formula": "(at l2)"}},
                {"from": "a", "to": "b", "label": {"formula": "(at l3)"}},
            ],
        }
    }])
    fsa = parse_advice(text, norocks)
    cm = compose(norocks, fsa)
    guards = sorted(n for n in cm.meta_action_map if n.startswith("guard--"))
    assert guards == ["guard--s0__a--s0__b--0", "guard--s0__a--s0__b--1"]
    left, right = _language_equal(norocks, fsa, base_len=4)
    assert left == right == {("move_l1_l2", "move_l2_l3")}


def _micro_347():
    """a3 deletes f3, and adds it back when f0 holds; a1 makes f0."""
    m, _ = build_model(
        [f"f{i}" for i in range(7)],
        [
            ("a1", [], ["f0"], []),
            ("a3", [], [([], ["f6"], ["f1", "f3"]), (["f0"], ["f3"], ["f4"])]),
        ],
        ["f2"],
        ["f3"],
    )
    return m


def test_compose_rejects_delete_with_conditional_readd():
    # whether f3 survives a3 depends on f0, which no complement tracks;
    # compose used to keep f3 and not-f3 both and admit the plan a1, a3
    m = _micro_347()
    fsa = never_holds(m, _formula(m, "(f3)"))
    with pytest.raises(AdviceError, match=r"action a3 deletes f3"):
        compose(m, fsa)


def test_compose_readd_that_cannot_fire_is_ignored():
    # without a1 nothing makes f0, so a3's re-add never fires
    m, _ = build_model(
        [f"f{i}" for i in range(7)],
        [("a3", [], [([], ["f6"], ["f1", "f3"]), (["f0"], ["f3"], ["f4"])])],
        ["f2"],
        ["f6"],
    )
    fsa = never_holds(m, _formula(m, "(f3)"))
    left, right = _language_equal(m, fsa, base_len=3)
    assert left == right
    assert ("a3",) in left


def test_compose_unconditional_add_beats_conditional_delete():
    """p ends true whenever act fires, so never-holds (p) rules act out."""
    m, _ = build_model(
        ["p", "q", "g"],
        [("act", [], [([], ["p"], []), (["q"], ["g"], ["p"])])],
        ["q"],
        ["g"],
    )
    fsa = never_holds(m, _formula(m, "(p)"))
    cm = compose(m, fsa)
    assert not decide_solvable(cm.compiled).solvable
    left, right = _language_equal(m, fsa, base_len=3)
    assert left == right == set()


def test_strip_meta_identity_under_universal(norocks):
    fsa = universal_fsa(norocks)
    cm = compose(norocks, fsa)
    result = decide_solvable(cm.compiled)
    assert strip_meta(cm, result.plan) == ("move_l1_l2", "move_l2_l3")


def test_strip_meta_empty_plan():
    m, _ = build_model(["g"], [("a", [], ["g"], [])], ["g"], ["g"])
    cm = compose(m, universal_fsa(m))
    # goal-accept still required: the empty compiled plan is not valid,
    # but the accept step alone is, and strips to nothing
    result = decide_solvable(cm.compiled)
    assert result.solvable
    assert strip_meta(cm, result.plan) == ()


def test_strip_meta_requires_valid_plan(norocks):
    cm = compose(norocks, universal_fsa(norocks))
    with pytest.raises(InvalidPlanError):
        strip_meta(cm, ("move_l2_l3--s0--s0",))


def test_exactly_one_in_state_everywhere(norocks):
    fsa = never_holds(norocks, _formula(norocks, "(at l2)"))
    cm = compose(norocks, fsa)
    in_states = [f for f in cm.compiled.fluents
                 if cm.compiled.table.fluent(f).name.startswith("in-state-")]
    for state in reachable_states(cm.compiled):
        assert len(state & frozenset(in_states)) == 1


def test_compose_materializes_guard_complements(norocks):
    fsa = never_holds(norocks, _formula(norocks, "(at l2)"))
    cm = compose(norocks, fsa)
    names = {cm.compiled.table.canonical(f) for f in cm.compiled.fluents}
    assert "not-at_l2" in names
    init = {cm.compiled.table.canonical(f) for f in cm.compiled.init}
    assert "not-at_l2" in init  # at_l2 false initially


@pytest.mark.parametrize("template,args", [
    ("never-use-action", {"action": "move_l1_l2"}),
    ("use-action-eventually", {"action": "move_l1_l2"}),
    ("eventually-holds", {"formula": "(at l2)"}),
    ("never-holds", {"formula": "(at l2)"}),
    ("before", {"first": "(at l2)", "second": "(at l3)"}),
    ("action-count-at-most", {"action": "move_l1_l2", "count": 1}),
])
def test_bounded_language_identity_all_templates(norocks, template, args):
    fsa = parse_advice(json.dumps([dict(template=template, **args)]), norocks)
    left, right = _language_equal(norocks, fsa, base_len=6)
    assert left == right


def test_bounded_language_identity_for_item_product(norocks):
    """Multiple advice items: the folded product still matches accepts()."""
    text = json.dumps([
        {"template": "use-action-eventually", "action": "move_l1_l2"},
        {"template": "eventually-holds", "formula": "(at l2)"},
        {"template": "action-count-at-most", "action": "move_l2_l3", "count": 1},
    ])
    fsa = parse_advice(text, norocks)
    left, right = _language_equal(norocks, fsa, base_len=5)
    assert left == right
    assert ("move_l1_l2", "move_l2_l3") in left


def test_projection_order_preserved_by_compose(minirover, norocks):
    """Constrained versions of ordered models stay plan-set ordered."""
    fsa1 = never_use_action(minirover, "move_l2_l3")
    cm_concrete = compose(minirover, fsa1)
    fsa2 = never_use_action(norocks, "move_l2_l3")
    cm_abstract = compose(norocks, fsa2)
    bound = 4
    left = stripped_bounded_plans(cm_concrete, bound, _bounds(fsa1, bound))
    right = stripped_bounded_plans(cm_abstract, bound, _bounds(fsa2, bound))
    assert left <= right
