import logging
from dataclasses import replace

import pytest
from hypothesis import given, settings

from noplan.abstraction import project_model
from noplan.achievability import (
    FailedSubgoal,
    compile_achievability,
    completion_pairs,
    final_goal_landmark,
    first_unachievable,
)
from noplan.errors import ModelError
from noplan.landmarks import (
    GREEDY_NECESSARY,
    Landmark,
    LandmarkGraph,
    NECESSARY,
    Ordering,
    extract_landmarks,
    linearize,
)
from noplan.model import DnfFormula, validate_plan
from noplan.search import decide_solvable

from .conftest import build_model
from .oracles import achievability_oracle, reachable_states
from .test_search import micro_models


def _lm_by_name(m, g, name):
    for lm in g.landmarks:
        names = {m.table.canonical(f) for d in lm.formula.disjuncts for f in d}
        if names == {name}:
            return lm
    raise KeyError(name)


def test_compile_achievable_in_norocks(norocks):
    g = extract_landmarks(norocks)
    at_l2 = _lm_by_name(norocks, g, "at_l2")
    compiled = compile_achievability(norocks, g, at_l2)
    result = decide_solvable(compiled)
    assert result.solvable
    assert result.plan == ("move_l1_l2",)


def test_compile_unachievable_in_concrete(minirover, norocks):
    g = extract_landmarks(norocks)
    at_l2 = _lm_by_name(norocks, g, "at_l2")
    compiled = compile_achievability(minirover, g, at_l2)
    assert not decide_solvable(compiled).solvable


def test_compile_landmark_true_in_init_is_trivial(norocks):
    g = extract_landmarks(norocks)
    at_l1 = _lm_by_name(norocks, g, "at_l1")
    compiled = compile_achievability(norocks, g, at_l1)
    assert decide_solvable(compiled).plan == ()


def test_compile_rejects_foreign_landmark(norocks):
    g = extract_landmarks(norocks)
    stranger = Landmark(99, DnfFormula.atom(0))
    with pytest.raises(ModelError):
        compile_achievability(norocks, g, stranger)


def test_first_unachievable_minirover(minirover, norocks):
    g = extract_landmarks(norocks)
    seq = linearize(g)
    failed = first_unachievable(minirover, g, seq)
    assert not failed.is_final_goal
    names = {minirover.table.canonical(f)
             for d in failed.landmark.formula.disjuncts for f in d}
    assert names == {"at_l2"}
    prefix = [
        {minirover.table.canonical(f) for d in lm.formula.disjuncts for f in d}
        for lm in failed.achieved_prefix
    ]
    assert prefix == [{"at_l1"}]


def test_first_unachievable_final_goal_marker():
    # p and q are individually reachable, never jointly: each landmark
    # passes, the goal conjunction fails
    m, _ = build_model(
        ["p", "q"],
        [
            ("make_p", [], ["p"], ["q"]),
            ("make_q", [], ["q"], ["p"]),
        ],
        [],
        ["p", "q"],
    )
    assert not decide_solvable(m).solvable
    lms = (
        Landmark(0, DnfFormula.atom(m.table.id_of("p")), is_goal_conjunct=True),
        Landmark(1, DnfFormula.atom(m.table.id_of("q")), is_goal_conjunct=True),
    )
    g = LandmarkGraph(lms, ())
    failed = first_unachievable(m, g, linearize(g))
    assert failed.is_final_goal
    assert len(failed.achieved_prefix) == 2


def test_monotone_failure_prefix_all_achievable(minirover, norocks):
    g = extract_landmarks(norocks)
    seq = linearize(g)
    failed = first_unachievable(minirover, g, seq)
    extended, _ = final_goal_landmark(minirover, g)
    for lm in failed.achieved_prefix:
        compiled = compile_achievability(minirover, extended, lm)
        assert decide_solvable(compiled).solvable


def test_meta_fluent_hygiene(norocks):
    """first-time implies achieved; achieved is never deleted."""
    g = extract_landmarks(norocks)
    at_l3 = _lm_by_name(norocks, g, "at_l3")
    compiled = compile_achievability(norocks, g, at_l3)
    fta = {lm.id: compiled.table.id_of(f"first-time-lm{lm.id}") for lm in g.landmarks}
    ach = {lm.id: compiled.table.id_of(f"achieved-lm{lm.id}") for lm in g.landmarks}
    for a in compiled.actions:
        for e in a.effects:
            assert not (set(ach.values()) & e.dels)
    for state in reachable_states(compiled):
        for lm in g.landmarks:
            if fta[lm.id] in state:
                assert ach[lm.id] in state


def test_base_plan_projection(norocks):
    """Deleting meta fluents from a compiled plan leaves a valid base prefix."""
    g = extract_landmarks(norocks)
    at_l3 = _lm_by_name(norocks, g, "at_l3")
    compiled = compile_achievability(norocks, g, at_l3)
    result = decide_solvable(compiled)
    assert result.solvable
    state = norocks.init
    trace = validate_plan(norocks, result.plan)
    # same action names; execution must not fail on base preconditions
    assert trace.failing_index is None or trace.failing_index == len(result.plan)


def test_oracle_agreement_on_fixture_family(minirover, norocks):
    g = extract_landmarks(norocks)
    for target in (norocks, minirover):
        for lm in g.landmarks:
            compiled = compile_achievability(target, g, lm)
            got = decide_solvable(compiled).solvable
            want = achievability_oracle(target, g, lm)
            assert got == want, (
                f"landmark {lm.id} on {'norocks' if target is norocks else 'minirover'}: "
                f"compiled={got} oracle={want}"
            )


def test_oracle_agreement_two_path(twopath):
    g = extract_landmarks(twopath)
    for lm in g.landmarks:
        compiled = compile_achievability(twopath, g, lm)
        assert decide_solvable(compiled).solvable == achievability_oracle(twopath, g, lm)
    # break the l2 route: at_l4 only achievable through l3 now
    broken = project_model(twopath, frozenset())  # same model, then drop an edge
    actions = tuple(a for a in twopath.actions if a.name != "move_l2_l4")
    from noplan.model import PlanningModel

    broken = PlanningModel(twopath.table, twopath.fluents, actions,
                           twopath.init, twopath.goal)
    for lm in g.landmarks:
        compiled = compile_achievability(broken, g, lm)
        assert decide_solvable(compiled).solvable == achievability_oracle(broken, g, lm)


def test_gnec_enforced_by_compilation():
    """The compiled model demands the gnec predecessor in the pre-state
    of the first achievement, even when another route adds the fluent."""
    m, ids = build_model(
        ["a", "b", "g"],
        [
            ("direct", [], ["g"], []),
            ("via_b", ["b"], ["g"], []),
            ("make_b", [], ["b"], []),
        ],
        [],
        ["g"],
    )
    lms = (
        Landmark(0, DnfFormula.atom(ids["g"]), is_goal_conjunct=True),
        Landmark(1, DnfFormula.atom(ids["b"])),
    )
    g_graph = LandmarkGraph(lms, (Ordering(1, 0, GREEDY_NECESSARY),))
    compiled = compile_achievability(m, g_graph, lms[0])
    result = decide_solvable(compiled)
    assert result.solvable
    # the plan must establish b before the first g
    assert "make_b" in result.plan
    assert achievability_oracle(m, g_graph, lms[0])


def test_nec_enforced_every_time():
    """With a spent enabler, re-achievement without the nec predecessor
    cannot count: the compiled achieved flag never comes back."""
    m, ids = build_model(
        ["token", "g"],
        [
            ("fire", ["token"], ["g"], ["token"]),
            ("undo", ["g"], [], ["g"]),
            ("refire", [], ["g"], []),
        ],
        ["token"],
        ["g"],
    )
    lms = (
        Landmark(0, DnfFormula.atom(ids["g"]), is_goal_conjunct=True),
        Landmark(1, DnfFormula.atom(ids["token"]), holds_in_init=True),
    )
    graph = LandmarkGraph(lms, (Ordering(1, 0, NECESSARY),))
    compiled = compile_achievability(m, graph, lms[0])
    assert decide_solvable(compiled).solvable == achievability_oracle(m, graph, lms[0])


def test_clause_cap_drops_ordering_enforcement(caplog):
    """Pathologically wide predecessor formulas trip the cap with a warning."""
    n = 9
    names = [f"p{i}" for i in range(n)] + [f"q{i}" for i in range(n)] + ["g"]
    actions = [(f"mkp{i}", [], [f"p{i}"], []) for i in range(n)]
    actions += [(f"mkq{i}", [], [f"q{i}"], []) for i in range(n)]
    actions.append(("win", [], ["g"], []))
    m, ids = build_model(names, actions, [], ["g"])
    wide_p = DnfFormula.build([{ids[f"p{i}"]} for i in range(n)])
    wide_q = DnfFormula.build([{ids[f"q{i}"]} for i in range(n)])
    lms = (
        Landmark(0, DnfFormula.atom(ids["g"]), is_goal_conjunct=True),
        Landmark(1, wide_p),
        Landmark(2, wide_q),
    )
    graph = LandmarkGraph(
        lms, (Ordering(1, 0, GREEDY_NECESSARY), Ordering(2, 0, GREEDY_NECESSARY))
    )
    with caplog.at_level(logging.WARNING, logger="noplan.achievability"):
        compiled = compile_achievability(m, graph, lms[0])
    assert any("ordering enforcement" in r.message for r in caplog.records)
    assert decide_solvable(compiled).solvable


def test_failed_subgoal_level_attached_by_pipeline(minirover, minirover_spec):
    from noplan.explain import explain

    e = explain(minirover, minirover_spec)
    assert e.failed.level is not None
    assert e.failed.level.projected == frozenset({"conn"})


# --- the failure scan's shared compile ----------------------------------------


def _scan_per_landmark(m, extended, seq, pseudo):
    """The failure scan with one compile per landmark, as reference."""
    for i, lm in enumerate(seq + [pseudo]):
        if not decide_solvable(compile_achievability(m, extended, lm)).solvable:
            return FailedSubgoal(lm, tuple(seq[:i]), is_final_goal=lm.id == pseudo.id)
    return FailedSubgoal(pseudo, tuple(seq), is_final_goal=True)


def _check_shared_compile(m):
    g = extract_landmarks(m, check_solvable=False)
    extended, pseudo = final_goal_landmark(m, g)
    shared = compile_achievability(m, extended, pseudo)
    for lm in extended.landmarks:
        goal = frozenset({shared.table.id_of(f"first-time-lm{lm.id}")})
        assert replace(shared, goal=goal) == compile_achievability(m, extended, lm)
        for a in m.actions:
            if not a.adds & lm.formula.fluents:
                assert completion_pairs(a, lm.formula) == []
    seq = linearize(g)
    failed = first_unachievable(m, g, seq)
    assert failed == _scan_per_landmark(m, extended, seq, pseudo)
    return failed, seq


@given(micro_models())
@settings(max_examples=80, deadline=None)
def test_shared_compile_matches_per_landmark_compile(m):
    _check_shared_compile(m)


def test_shared_compile_scan_fails_past_the_first_landmark():
    # the token for p is spent once; p, then q (which consumes p) are
    # achievable in order, but g needs p and q together
    m, _ = build_model(
        ["t", "p", "q", "g"],
        [
            ("mk_p", ["t"], ["p"], ["t"]),
            ("use", ["p"], ["q"], ["p"]),
            ("fin", ["p", "q"], ["g"], []),
        ],
        ["t"],
        ["g"],
    )
    failed, seq = _check_shared_compile(m)
    names = [{m.table.canonical(f) for f in lm.formula.fluents} for lm in seq]
    assert names == [{"t"}, {"p"}, {"q"}, {"g"}]
    assert failed.landmark == seq[3] and not failed.is_final_goal
    assert failed.achieved_prefix == tuple(seq[:3])
