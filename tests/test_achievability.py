import logging
from dataclasses import replace

import pytest
from hypothesis import given, settings

from noplan import achievability, search
from noplan.abstraction import project_model
from noplan.achievability import (
    FailedSubgoal,
    compile_achievability,
    completion_pairs,
    final_goal_landmark,
    first_unachievable,
)
from noplan.advice import compose, parse_advice
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

from .conftest import build_model, bundled_models, top_projection
from .oracles import achievability_oracle, reachable_states, with_conditional_resets
from .random_models import unsolvable_corpus
from .test_search import _achievability_goals, micro_models


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
    failed = first_unachievable(minirover, g, decide_solvable(minirover))
    assert not failed.is_final_goal
    names = {minirover.table.canonical(f)
             for d in failed.landmark.formula.disjuncts for f in d}
    assert names == {"at_l2"}
    prefix = [
        {minirover.table.canonical(f) for d in lm.formula.disjuncts for f in d}
        for lm in failed.achieved_prefix
    ]
    assert prefix == [{"at_l1"}]


def test_first_unachievable_final_goal_marker(monkeypatch):
    # p and q are individually reachable, never jointly: each landmark
    # passes, the goal conjunction fails on the model's proof alone
    m, _ = build_model(
        ["p", "q"],
        [
            ("make_p", [], ["p"], ["q"]),
            ("make_q", [], ["q"], ["p"]),
        ],
        [],
        ["p", "q"],
    )
    proof = decide_solvable(m)
    assert not proof.solvable
    lms = (
        Landmark(0, DnfFormula.atom(m.table.id_of("p")), is_goal_conjunct=True),
        Landmark(1, DnfFormula.atom(m.table.id_of("q")), is_goal_conjunct=True),
    )
    g = LandmarkGraph(lms, ())
    searches = _count_scan_searches(monkeypatch)
    failed = first_unachievable(m, g, proof)
    assert failed.is_final_goal
    assert len(failed.achieved_prefix) == 2
    # one search per extracted landmark, none for the goal conjunction
    assert len(searches) == 2


def _count_scan_searches(monkeypatch):
    """The list of models the failure scan searches, filled as it runs."""
    searches = []
    original = achievability.decide_solvable

    def counted(model, *args, **kwargs):
        searches.append(model)
        return original(model, *args, **kwargs)

    monkeypatch.setattr(achievability, "decide_solvable", counted)
    return searches


def test_final_goal_failure_under_conditional_deletes_needs_no_search(monkeypatch, caplog):
    """x adds g1 and, when c holds (always), deletes g2; y adds g2 and
    deletes g1. The model is unsolvable, yet the compilation of the goal
    conjunction is solvable: completion_pairs keeps x's pair (g2 as rest)
    since the delete of g2 is conditional. The scan reports the goal from
    the model's proof, without searching it and without a warning."""
    m, _ = build_model(
        ["c", "g1", "g2"],
        [
            ("x", [], [([], ["g1"], []), (["c"], [], ["g2"])]),
            ("y", [], [([], ["g2"], ["g1"])]),
        ],
        ["c"],
        ["g1", "g2"],
    )
    proof = decide_solvable(m)
    assert not proof.solvable
    lg = extract_landmarks(m)
    extended, pseudo = final_goal_landmark(m, lg)
    assert decide_solvable(compile_achievability(m, extended, pseudo)).solvable
    searches = _count_scan_searches(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="noplan.achievability"):
        failed = first_unachievable(m, lg, proof)
    assert failed.is_final_goal and failed.landmark == pseudo
    assert failed.achieved_prefix == tuple(linearize(lg))
    assert failed.compiled == compile_achievability(m, extended, pseudo)
    assert len(searches) == len(linearize(lg))
    assert caplog.records == []


def test_first_unachievable_refuses_a_solvable_model():
    # without the guard, the scan would report the goal g of this
    # solvable model as a final-goal failure
    m, _ = build_model(
        ["p", "g"],
        [("mk", [], ["p"], []), ("fin", ["p"], ["g"], [])],
        [],
        ["g"],
    )
    proof = decide_solvable(m)
    assert proof.solvable
    with pytest.raises(ModelError, match="unsolvable"):
        first_unachievable(m, extract_landmarks(m), proof)


def test_monotone_failure_prefix_all_achievable(minirover, norocks):
    g = extract_landmarks(norocks)
    failed = first_unachievable(minirover, g, decide_solvable(minirover))
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
    for i, lm in enumerate(seq):
        if not decide_solvable(compile_achievability(m, extended, lm)).solvable:
            return FailedSubgoal(lm, tuple(seq[:i]))
    return FailedSubgoal(pseudo, tuple(seq), is_final_goal=True)


def _check_shared_compile(m):
    g = extract_landmarks(m)
    extended, pseudo = final_goal_landmark(m, g)
    shared = compile_achievability(m, extended, pseudo)
    for lm in extended.landmarks:
        goal = frozenset({shared.table.id_of(f"first-time-lm{lm.id}")})
        assert replace(shared, goal=goal) == compile_achievability(m, extended, lm)
        for a in m.actions:
            if not a.adds & lm.formula.fluents:
                assert completion_pairs(a, lm.formula) == []
    seq = linearize(g)
    proof = decide_solvable(m)
    if proof.solvable:
        # drawn models may be solvable; the scan refuses them
        with pytest.raises(ModelError):
            first_unachievable(m, g, proof)
        return None, seq
    failed = first_unachievable(m, g, proof)
    assert failed == _scan_per_landmark(m, extended, seq, pseudo)
    assert failed.compiled == compile_achievability(m, extended, failed.landmark)
    # searched on tables of its own, the failing step is unsolvable, as
    # the scan found on the tables its steps shared
    assert not decide_solvable(failed.compiled).solvable or failed.landmark == pseudo
    return failed, seq


@given(micro_models())
@settings(max_examples=80, deadline=None)
def test_shared_compile_matches_per_landmark_compile(m):
    _check_shared_compile(m)


def _spent_token_model():
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
    return m


def test_shared_compile_scan_fails_past_the_first_landmark():
    m = _spent_token_model()
    failed, seq = _check_shared_compile(m)
    names = [{m.table.canonical(f) for f in lm.formula.fluents} for lm in seq]
    assert names == [{"t"}, {"p"}, {"q"}, {"g"}]
    assert failed.landmark == seq[3] and not failed.is_final_goal
    assert failed.achieved_prefix == tuple(seq[:3])


def test_one_scan_builds_its_search_tables_once(monkeypatch):
    """The scan searches three landmark goals past the relaxed check (p,
    q, g; t holds initially), on one relaxed set and one set of masks."""
    m = _spent_token_model()
    lg = extract_landmarks(m)
    proof = decide_solvable(m)
    calls = {"relaxed_reachable": 0, "compile_masks": 0, "decide_solvable": 0}

    def count(name):
        original = getattr(search, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in ("relaxed_reachable", "compile_masks"):
        monkeypatch.setattr(search, name, count(name))
    monkeypatch.setattr(achievability, "decide_solvable", count("decide_solvable"))
    assert first_unachievable(m, lg, proof).landmark.formula.fluents == {m.table.id_of("g")}
    assert calls == {"relaxed_reachable": 1, "compile_masks": 1, "decide_solvable": 4}


# --- the unconditional first-time reset ---------------------------------------


def _assert_reset_is_exact(m, lg):
    """The shared compile of lg on m resets every first-time flag in one
    unconditional effect per action, and decides every landmark goal as
    the per-landmark self-conditioned resets do, plan included.
    """
    shared, goals = _achievability_goals(m, lg)
    flags = frozenset().union(*goals)
    for a in shared.actions:
        resets = [e for e in a.effects if e.dels & flags]
        assert len(resets) == 1
        assert resets[0].condition == frozenset()
        assert resets[0].dels == flags and resets[0].adds == frozenset()
    conditional = with_conditional_resets(shared)
    for goal in goals:
        assert decide_solvable(shared.with_goal(goal)) == \
            decide_solvable(conditional.with_goal(goal))


def _assert_reset_is_exact_on(m, groups):
    top = top_projection(m, groups)
    _assert_reset_is_exact(m, extract_landmarks(m))
    # landmarks of the top projection, achievable there, often not on m
    lg = extract_landmarks(top)
    _assert_reset_is_exact(m, lg)
    _assert_reset_is_exact(top, lg)


@pytest.mark.parametrize("m,groups", [pytest.param(m, groups, id=label)
                                        for label, m, groups in bundled_models()])
def test_unconditional_reset_matches_conditional_resets_on_bundled_instances(m, groups):
    _assert_reset_is_exact_on(m, groups)


def test_unconditional_reset_matches_conditional_resets_on_corpus():
    for m, groups, advice in unsolvable_corpus(20240, 50):
        if advice is not None:
            m = compose(m, parse_advice(advice, m)).compiled
        _assert_reset_is_exact_on(m, groups)
