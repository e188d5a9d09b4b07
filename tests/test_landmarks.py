import pytest

from noplan.errors import CycleError, ModelUnsolvableError
from noplan.landmarks import (
    GREEDY_NECESSARY,
    Landmark,
    LandmarkGraph,
    NATURAL,
    NECESSARY,
    Ordering,
    extract_landmarks,
    graph_to_json,
    linearize,
)
from noplan.model import DnfFormula, holds

from .conftest import build_model
from .oracles import (
    check_orderings_on_plans,
    landmark_holds_on_all_plans,
    reachable_states,
    verify_landmark_oracle,
)


def _formula_names(m, lm):
    return sorted(
        tuple(sorted(m.table.canonical(f) for f in d)) for d in lm.formula.disjuncts
    )


def test_extract_norocks_chain(norocks):
    g = extract_landmarks(norocks)
    names = {tuple(_formula_names(norocks, lm)[0]) for lm in g.landmarks}
    assert names == {("at_l1",), ("at_l2",), ("at_l3",)}
    by_name = {
        _formula_names(norocks, lm)[0][0]: lm.id for lm in g.landmarks
    }
    gnec = {(o.source, o.target) for o in g.orderings if o.kind == GREEDY_NECESSARY}
    assert (by_name["at_l1"], by_name["at_l2"]) in gnec
    assert (by_name["at_l2"], by_name["at_l3"]) in gnec
    # single achiever per location: nec edges come along
    nec = {(o.source, o.target) for o in g.orderings if o.kind == NECESSARY}
    assert gnec <= nec | gnec and nec == gnec


def test_extract_goal_in_init_only_goal_conjuncts():
    m, _ = build_model(["g", "p"], [("a", ["g"], ["p"], [])], ["g"], ["g"])
    g = extract_landmarks(m)
    assert len(g.landmarks) == 1
    assert g.landmarks[0].is_goal_conjunct
    assert g.landmarks[0].holds_in_init
    assert g.orderings == ()


def test_extract_requires_solvable(minirover):
    with pytest.raises(ModelUnsolvableError):
        extract_landmarks(minirover)


def test_extract_two_path_disjunction(twopath):
    g = extract_landmarks(twopath)
    disjunctive = [lm for lm in g.landmarks if len(lm.formula.disjuncts) > 1]
    assert len(disjunctive) == 1
    names = _formula_names(twopath, disjunctive[0])
    assert names == [("at_l2",), ("at_l3",)]
    # ordered before the goal landmark
    goal_lm = next(lm for lm in g.landmarks if lm.is_goal_conjunct)
    assert any(
        o.source == disjunctive[0].id and o.target == goal_lm.id
        and o.kind == GREEDY_NECESSARY
        for o in g.orderings
    )


def test_extract_skips_static_fluents(norocks):
    g = extract_landmarks(norocks)
    for lm in g.landmarks:
        for d in lm.formula.disjuncts:
            for f in d:
                assert not norocks.table.canonical(f).startswith("conn")


def test_landmarks_sound_on_fixtures(norocks, twopath):
    for m in (norocks, twopath):
        bound = len(reachable_states(m))
        g = extract_landmarks(m)
        for lm in g.landmarks:
            assert landmark_holds_on_all_plans(m, lm.formula, bound), (
                f"landmark {lm.id} is not satisfied by every plan"
            )


def test_orderings_sound_on_fixtures(norocks, twopath):
    for m in (norocks, twopath):
        bound = len(reachable_states(m))
        g = extract_landmarks(m)
        assert check_orderings_on_plans(m, g, bound) == []


def test_linearize_norocks(norocks):
    g = extract_landmarks(norocks)
    order = [_formula_names(norocks, lm)[0][0] for lm in linearize(g)]
    assert order == ["at_l1", "at_l2", "at_l3"]


def test_linearize_no_orderings_sorts_by_init_then_id():
    lms = (
        Landmark(0, DnfFormula.atom(0), holds_in_init=False),
        Landmark(1, DnfFormula.atom(1), holds_in_init=True),
        Landmark(2, DnfFormula.atom(2), holds_in_init=False),
    )
    order = [lm.id for lm in linearize(LandmarkGraph(lms, ()))]
    assert order == [1, 0, 2]


def test_linearize_cycle_rejected():
    lms = (Landmark(0, DnfFormula.atom(0)), Landmark(1, DnfFormula.atom(1)))
    with pytest.raises(CycleError):
        LandmarkGraph(lms, (Ordering(0, 1, NATURAL), Ordering(1, 0, NATURAL)))


def test_graph_rejects_self_loop():
    lms = (Landmark(0, DnfFormula.atom(0)),)
    with pytest.raises(CycleError):
        LandmarkGraph(lms, (Ordering(0, 0, NATURAL),))


def test_oracle_norocks_at_l2(norocks):
    phi = DnfFormula.build([{norocks.table.id_of("at", ("l2",))}])
    assert verify_landmark_oracle(norocks, phi, 4)


def test_oracle_goal_conjunction_is_landmark(norocks):
    phi = DnfFormula.build([norocks.goal])
    assert verify_landmark_oracle(norocks, phi, 4)


def test_oracle_two_path_at_l2_not_landmark(twopath):
    phi = DnfFormula.build([{twopath.table.id_of("at", ("l2",))}])
    assert not verify_landmark_oracle(twopath, phi, 4)


def test_graph_to_json(norocks):
    g = extract_landmarks(norocks)
    data = graph_to_json(norocks, g)
    assert {lm["id"] for lm in data["landmarks"]} == {0, 1, 2}
    kinds = {o["kind"] for o in data["orderings"]}
    assert kinds <= {NATURAL, NECESSARY, GREEDY_NECESSARY}


def test_abstract_landmarks_hold_on_concrete_plans(norocks):
    """Formulas extracted above stay satisfied on every concrete plan below."""
    from noplan.abstraction import project_model
    from .oracles import landmark_holds_on_all_plans

    # chain: norocks (root) below conn-projected below conn+goal-free level
    conn = frozenset(f for f in norocks.fluents
                     if norocks.table.fluent(f).name == "conn")
    mid = project_model(norocks, conn)
    for abstract in (mid,):
        g = extract_landmarks(abstract)
        bound = len(reachable_states(norocks))
        for lm in g.landmarks:
            assert landmark_holds_on_all_plans(norocks, lm.formula, bound)


def test_refuted_landmarks_stay_refuted_downward(minirover):
    """A landmark unachievable at one level is unachievable at every
    more concrete level (here: at_l2 in the conn projection and the root)."""
    from noplan.abstraction import build_lattice, project_model
    from noplan.achievability import compile_achievability
    from noplan.search import decide_solvable
    from .conftest import minirover_groups

    lat = build_lattice(minirover, minirover_groups(minirover))
    top = lat.node({"rocks", "conn"})
    g = extract_landmarks(top.model)
    at_l2 = next(
        lm for lm in g.landmarks
        if _formula_names(minirover, lm) == [("at_l2",)]
    )
    for projected in ({"conn"}, set()):
        level = lat.node(projected)
        compiled = compile_achievability(level.model, g, at_l2)
        assert not decide_solvable(compiled).solvable
