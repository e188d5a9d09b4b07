import gc
import importlib
import json
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noplan import abstraction, achievability, landmarks
from noplan import search as search_module
from noplan.abstraction import (
    LatticeSpec,
    build_lattice,
    load_lattice_spec,
    minimum_abstraction_set,
)
from noplan.errors import ModelUnsolvableError, ResourceExhaustedError
from noplan.explain import (
    EXEMPLAR_ALWAYS,
    EXEMPLAR_NEVER,
    STATUS_EXPLAINED,
    STATUS_SOLVABLE,
    STATUS_TOP_UNSOLVABLE,
    _write_json,
    exemplar_failure,
    explain,
    render,
)
from noplan.pddl import ground, parse_model
from noplan.search import SearchLimits, decide_solvable

from .conftest import INSTANCES, build_model, minirover_groups


def _names(m, fd):
    return {m.table.canonical(f) for d in fd.landmark.formula.disjuncts for f in d}


def test_explain_minirover(minirover, minirover_spec):
    e = explain(minirover, minirover_spec)
    assert e.status == STATUS_EXPLAINED
    assert not e.advice_applied
    assert e.explanatory.groups == frozenset({"rocks"})
    assert e.explanatory.cost == 3
    assert _names(minirover, e.failed) == {"at_l2"}
    prefix = [
        {minirover.table.canonical(f) for d in lm.formula.disjuncts for f in d}
        for lm in e.failed.achieved_prefix
    ]
    assert prefix == [{"at_l1"}]
    assert e.secondary == ()
    assert e.exemplar is None  # single-atom subgoal: concise, no exemplar


def test_explain_solvable_root(norocks, minirover_spec):
    spec = LatticeSpec((("conn", ("conn",)),))
    e = explain(norocks, spec)
    assert e.status == STATUS_SOLVABLE
    assert e.plan == ("move_l1_l2", "move_l2_l3")
    assert e.explanatory is None and e.failed is None


def test_explain_advice_collapse_reports_blocked_subgoal(norocks):
    advice = json.dumps([{"template": "never-use-action", "action": "move_l1_l2"}])
    spec = LatticeSpec((("conn", ("conn",)),))
    e = explain(norocks, spec, advice)
    assert e.status == STATUS_TOP_UNSOLVABLE
    assert e.advice_applied
    assert _names(norocks, e.failed) == {"at_l2"}
    assert e.explanatory is None


def test_dump_compiled_when_advice_collapses_the_top(tmp_path, norocks):
    """The unsolvable-at-top path writes the constrained model and the
    failed subgoal's compilation, and both parse back."""
    advice = json.dumps([{"template": "never-use-action", "action": "move_l1_l2"}])
    spec = LatticeSpec((("conn", ("conn",)),))
    e = explain(norocks, spec, advice, dump_dir=str(tmp_path))
    assert e.status == STATUS_TOP_UNSOLVABLE
    assert e.failed.compiled is None
    stems = ["constrained", f"subgoal-0-{e.failed.landmark.id}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{stem}-{kind}.pddl" for stem in stems for kind in ("domain", "problem"))
    for stem in stems:
        dom = (tmp_path / f"{stem}-domain.pddl").read_text()
        prob = (tmp_path / f"{stem}-problem.pddl").read_text()
        assert ground(parse_model(dom, prob)).fluents


def test_explain_advice_with_surviving_abstraction(minirover, minirover_spec):
    """Advice on the unsolvable concrete model: the pipeline still finds
    the rocks explanation on the constrained lattice."""
    advice = json.dumps([{"template": "action-count-at-most",
                          "action": "move_l2_l3", "count": 1}])
    e = explain(minirover, minirover_spec, advice)
    assert e.status == STATUS_EXPLAINED
    assert e.advice_applied
    assert e.explanatory.groups == frozenset({"rocks"})
    assert _names(minirover, e.failed) == {"at_l2"}


def test_explain_universal_advice_neutrality(minirover, minirover_spec):
    plain = explain(minirover, minirover_spec)
    advised = explain(minirover, minirover_spec, "[]")
    assert advised.advice_applied and not plain.advice_applied
    assert advised.status == plain.status
    assert advised.explanatory.groups == plain.explanatory.groups
    assert advised.explanatory.cost == plain.explanatory.cost
    assert _names(minirover, advised.failed) == _names(minirover, plain.failed)


def test_explain_deterministic(minirover, minirover_spec):
    a = render(explain(minirover, minirover_spec), "machine")
    b = render(explain(minirover, minirover_spec), "machine")
    assert a == b


def test_explain_unsolvable_at_top_without_advice():
    # goal fluent no action adds, in no group: unsolvable at every level
    m, ids = build_model(
        ["p_x", "g"],
        [("a", [], ["p_x"], [])],
        [],
        ["g"],
    )
    spec = LatticeSpec((("ps", ("p",)),))
    e = explain(m, spec)
    assert e.status == STATUS_TOP_UNSOLVABLE
    assert e.failed is not None
    assert _names(m, e.failed) == {"g"}


def test_explain_unsolvable_at_top_base_search_overrun_raises():
    # advice forbids the only goal achiever, so every level is unsolvable
    # (decided without expanding a node); the base model needs three
    # steps, which a one-node budget cannot show
    m, ids = build_model(
        ["a", "b", "g", "x"],
        [("s1", [], ["a"], []), ("s2", ["a"], ["b"], []), ("s3", ["b"], ["g"], []),
         ("s4", [], ["x"], [])],
        [],
        ["g"],
    )
    spec = LatticeSpec((("xs", ("x",)),))
    advice = json.dumps([{"template": "never-use-action", "action": "s3"}])
    assert explain(m, spec, advice).status == STATUS_TOP_UNSOLVABLE
    with pytest.raises(ResourceExhaustedError, match="without advice"):
        explain(m, spec, advice, limits=SearchLimits(max_nodes=1))


def _restricted_lattice_case():
    """Two alternative routes, each blocked by its own detail group, with
    the joint projection forbidden: two maximal elements survive."""
    m, _ = build_model(
        ["at_l1", "at_l2", "key_k", "door_d", "g"],
        [
            ("walk_door", ["at_l1", "door_d"], ["at_l2"], ["at_l1"]),
            ("walk_key", ["at_l1", "key_k"], ["at_l2"], ["at_l1"]),
            ("finish", ["at_l2"], ["g"], []),
        ],
        ["at_l1"],
        ["g"],
    )
    spec = LatticeSpec(
        (("doors", ("door",)), ("keys", ("key",))),
        forbidden=(frozenset({"doors", "keys"}),),
    )
    return m, spec


def test_explain_restricted_lattice_reports_secondary():
    """The report headlines the lexicographically first maximal element
    and keeps the other."""
    m, spec = _restricted_lattice_case()
    e = explain(m, spec)
    assert e.status == STATUS_EXPLAINED
    assert e.explanatory.groups == frozenset({"doors", "keys"})
    assert e.failed.level.projected == frozenset()  # fully concretized
    assert len(e.secondary) == 1
    assert _names(m, e.failed) == {"at_l2"}
    assert _names(m, e.secondary[0]) == {"at_l2"}


def test_explain_two_maximal_elements_both_broken():
    """Two independent blockers, forbidden joint projection: restoring
    either group must break both maximal elements, so E needs them all."""
    m, ids = build_model(
        ["door_d", "g"],
        [("open", ["door_d"], ["g"], [])],
        [],
        ["g"],
    )
    spec = LatticeSpec(
        (("doors", ("door",)), ("goals", ("g",))),
        forbidden=(frozenset({"doors", "goals"}),),
    )
    e = explain(m, spec)
    # node {doors}: open needs nothing, reaches g: solvable
    # node {goals}: goal empty: solvable
    # restoring doors breaks {doors} but {goals} stays solvable (empty goal),
    # so E must include both groups
    assert e.status == STATUS_EXPLAINED
    assert e.explanatory.groups == frozenset({"doors", "goals"})
    assert len(e.secondary) == 1


def test_exemplar_failure_minirover(minirover, minirover_spec):
    groups = minirover_groups(minirover)
    lat = build_lattice(minirover, groups)
    top = lat.node({"rocks", "conn"})
    lat.solvability(top)
    conc = lat.node({"conn"}).model
    trace = exemplar_failure(top, conc)
    assert trace.failing_index == 0
    assert {minirover.table.canonical(f) for f in trace.unsatisfied_precondition} == {"clear_l2"}
    assert trace.plan == ("move_l1_l2", "move_l2_l3")


def test_exemplar_identity_abstraction_yields_valid_trace(norocks):
    lat = build_lattice(norocks, [])
    root = lat.root_node
    lat.solvability(root)
    trace = exemplar_failure(root, norocks)
    assert trace.valid  # caller treats as "no exemplar"


def test_exemplar_goal_only_difference():
    m, ids = build_model(["p", "g"], [("a", [], ["p"], [])], [], ["g", "p"])
    from noplan.abstraction import FluentGroup

    lat = build_lattice(m, [FluentGroup("gs", frozenset({ids["g"]}))])
    top = lat.node({"gs"})
    lat.solvability(top)
    trace = exemplar_failure(top, m)
    assert not trace.valid
    assert trace.failing_index == len(trace.plan)
    assert ids["g"] in trace.unsatisfied_precondition


def test_exemplar_unsolvable_abstraction_rejected(minirover):
    lat = build_lattice(minirover, [])
    with pytest.raises(ModelUnsolvableError):
        exemplar_failure(lat.root_node, minirover)


def test_auto_exemplar_for_disjunctive_failed_subgoal():
    """Both routes blocked: the failed subgoal is a disjunction, so the
    auto rule attaches an exemplar failure."""
    m, ids = build_model(
        ["at_l1", "at_l2", "at_l3", "at_l4", "clear_l2", "clear_l3", "clear_l4"],
        [
            ("move_l1_l2", ["at_l1", "clear_l2"], ["at_l2"], ["at_l1"]),
            ("move_l1_l3", ["at_l1", "clear_l3"], ["at_l3"], ["at_l1"]),
            ("move_l2_l4", ["at_l2", "clear_l4"], ["at_l4"], ["at_l2"]),
            ("move_l3_l4", ["at_l3", "clear_l4"], ["at_l4"], ["at_l3"]),
        ],
        ["at_l1", "clear_l4"],
        ["at_l4"],
    )
    spec = LatticeSpec((("rocks", ("clear",)),))
    e = explain(m, spec)
    assert e.status == STATUS_EXPLAINED
    assert e.explanatory.groups == frozenset({"rocks"})
    disjuncts = e.failed.landmark.formula.sorted_disjuncts()
    assert len(disjuncts) == 2
    assert _names(m, e.failed) == {"at_l2", "at_l3"}
    assert e.exemplar is not None
    missing = {m.table.canonical(f) for f in e.exemplar.unsatisfied_precondition}
    assert missing <= {"clear_l2", "clear_l3"}


def test_exemplar_mode_always(minirover, minirover_spec):
    e = explain(minirover, minirover_spec, exemplar=EXEMPLAR_ALWAYS)
    assert e.exemplar is not None
    assert e.exemplar.failing_index == 0
    missing = {minirover.table.canonical(f) for f in e.exemplar.unsatisfied_precondition}
    assert missing == {"clear_l2"}  # narrowed to explanatory fluents


def test_exemplar_mode_never(minirover, minirover_spec):
    e = explain(minirover, minirover_spec, exemplar=EXEMPLAR_NEVER)
    assert e.exemplar is None


def test_render_human_mentions_key_fluents(minirover, minirover_spec):
    e = explain(minirover, minirover_spec)
    text = render(e, "human")
    assert "clear_l2" in text
    assert "at_l2" in text
    assert "required by every solution" in text


def test_render_human_solvable_prints_plan(norocks):
    spec = LatticeSpec((("conn", ("conn",)),))
    e = explain(norocks, spec)
    text = render(e, "human")
    assert "solvable" in text
    assert "move_l1_l2" in text


def test_pipeline_self_verification_runs(minirover, minirover_spec):
    # every explanation is self-verified; a full run must not raise
    e = explain(minirover, minirover_spec)
    assert e.status == STATUS_EXPLAINED
    # the verified claims hold when re-checked here as well
    groups = minirover_groups(minirover)
    lat = build_lattice(minirover, groups)
    members = minimum_abstraction_set(lat)
    for node in members:
        target = lat.node(node.projected - e.explanatory.groups)
        assert not decide_solvable(target.model).solvable


def test_explain_dump_compiled(tmp_path, minirover, minirover_spec):
    out = tmp_path / "dump"
    explain(minirover, minirover_spec, dump_dir=str(out))
    files = sorted(p.name for p in out.iterdir())
    assert any(name.startswith("subgoal-") and name.endswith("-domain.pddl")
               for name in files)

    stem = files[0].rsplit("-domain.pddl")[0].rsplit("-problem.pddl")[0]
    dom = (out / f"{stem}-domain.pddl").read_text()
    prob = (out / f"{stem}-problem.pddl").read_text()
    reparsed = ground(parse_model(dom, prob))
    assert reparsed.fluents


def test_dump_writes_one_pair_per_member(tmp_path):
    """Both members of the restricted lattice fail at the same landmark
    id of their own graphs; each keeps its own pair of files."""
    m, spec = _restricted_lattice_case()
    e = explain(m, spec, dump_dir=str(tmp_path))
    assert len(e.secondary) == 1
    assert e.failed.landmark.id == e.secondary[0].landmark.id
    subgoals = sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("subgoal-"))
    stems = sorted({name.rsplit("-", 1)[0] for name in subgoals})
    assert len(stems) == 2
    assert subgoals == sorted(f"{stem}-{kind}.pddl" for stem in stems
                              for kind in ("domain", "problem"))


def test_explain_builds_each_artifact_once(tmp_path, monkeypatch, minirover, minirover_spec):
    """One update listing per explanation, and one landmark extraction and
    one achievability compilation per minimum-set member (the scan, the
    dump and self-verification share them)."""
    calls = {"extract_landmarks": 0, "_updates_for_fluents": 0, "compile_achievability": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        # every module that imported the function calls it by its own name
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("noplan.") and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)

    count(landmarks, "extract_landmarks")
    count(abstraction, "_updates_for_fluents")
    count(achievability, "compile_achievability")
    for i, (m, spec) in enumerate([(minirover, minirover_spec), _restricted_lattice_case()]):
        for key in calls:
            calls[key] = 0
        e = explain(m, spec, dump_dir=str(tmp_path / str(i)))
        assert e.status == STATUS_EXPLAINED
        members = 1 + len(e.secondary)
        assert calls == {"extract_landmarks": members, "_updates_for_fluents": 1,
                         "compile_achievability": members}
        assert e.failed.compiled is None
        assert all(f.compiled is None for f in e.secondary)


def test_subgoal_verification_searches_on_tables_of_its_own(monkeypatch, minirover,
                                                           minirover_spec):
    """Every step of the scan searches on the scan's one tables dict;
    self-verification searches the model the scan found unsolvable with
    none, so it builds tables of its own."""
    original = achievability.decide_solvable
    scans, verifies = [], []

    def scan(model, limits=None, tables=None):
        result = original(model, limits, tables)
        scans.append((model, tables, result))
        return result

    def search(model, limits=None, tables=None):
        verifies.append((model, tables))
        return original(model, limits, tables)

    monkeypatch.setattr(achievability, "decide_solvable", scan)
    monkeypatch.setattr(importlib.import_module("noplan.explain"), "decide_solvable", search)
    e = explain(minirover, minirover_spec)
    assert e.status == STATUS_EXPLAINED and not e.secondary
    shared = scans[0][1]
    assert shared and all(tables is shared for _, tables, _ in scans)
    scanned = next(model for model, _, result in scans if not result.solvable)
    assert [tables for model, tables in verifies if model is scanned] == [None]


def test_final_goal_failure_is_not_searched_again(monkeypatch):
    """p and q are each reachable, never together. Projecting q leaves
    the goal p, which stays achievable at the root, so the failure is the
    goal conjunction: it rests on the root's proof, which self-verification
    re-checks, and its compilation is not searched again."""
    m, _ = build_model(
        ["p", "q"],
        [("make_p", [], ["p"], ["q"]), ("make_q", [], ["q"], ["p"])],
        [],
        ["p", "q"],
    )
    explain_module = importlib.import_module("noplan.explain")
    original = explain_module.decided
    stages = []

    def record(result, stage):
        stages.append(stage)
        return original(result, stage)

    monkeypatch.setattr(explain_module, "decided", record)
    e = explain(m, LatticeSpec((("qs", ("q",)),)))
    assert e.status == STATUS_EXPLAINED and e.failed.is_final_goal
    assert "self-verification of the explanatory level" in stages
    assert "self-verification of the failed subgoal" not in stages


def test_unsolvable_at_top_report_is_self_verified(monkeypatch):
    """p_x is projected at the top, so b still reaches q_y but nothing
    reaches g: every level is unsolvable. The top report's failed goal
    conjunct g and its level are both searched again."""
    m, _ = build_model(
        ["p_x", "q_y", "g"],
        [("a", [], ["p_x"], []), ("b", ["p_x"], ["q_y"], [])],
        [],
        ["g", "q_y"],
    )
    explain_module = importlib.import_module("noplan.explain")
    original = explain_module.decided
    stages = []

    def record(result, stage):
        stages.append(stage)
        return original(result, stage)

    monkeypatch.setattr(explain_module, "decided", record)
    e = explain(m, LatticeSpec((("ps", ("p",)),)))
    assert e.status == STATUS_TOP_UNSOLVABLE
    assert _names(m, e.failed) == {"g"} and not e.failed.is_final_goal
    assert stages == ["solvability of the concrete model",
                      "self-verification of the failed subgoal",
                      "self-verification of the explanatory level"]


@pytest.mark.parametrize("instance", ["rover_grid", "minirover"])
def test_level_is_searched_again_with_no_compilation_alive(monkeypatch, instance):
    """A level's scan compilation is dropped before the level itself is
    searched again, so the two are never alive together."""
    explain_module = importlib.import_module("noplan.explain")
    compiled = []
    calls = []  # (id of the searched model, whether a compilation is alive)
    scan, search = explain_module.first_unachievable, explain_module.decide_solvable

    def keep_weakref(*args, **kwargs):
        failed = scan(*args, **kwargs)
        compiled.append(weakref.ref(failed.compiled))
        return failed

    def record(model, limits=None, tables=None):
        gc.collect()
        # ids, not models: a stored model would keep itself alive
        calls.append((id(model), any(ref() is not None for ref in compiled)))
        return search(model, limits, tables)

    monkeypatch.setattr(explain_module, "first_unachievable", keep_weakref)
    monkeypatch.setattr(explain_module, "decide_solvable", record)
    base = INSTANCES / instance
    m = ground(parse_model((base / "domain.pddl").read_text(),
                           (base / "problem.pddl").read_text()))
    e = explain(m, load_lattice_spec((base / "lattice.json").read_text()))
    assert e.status in (STATUS_EXPLAINED, STATUS_TOP_UNSOLVABLE) and compiled
    for failed in (e.failed, *e.secondary):
        alive = [flag for model_id, flag in calls if model_id == id(failed.level.model)]
        assert alive and not any(alive)


def test_root_target_verification_builds_its_own_relaxed_set(monkeypatch, minirover_texts):
    """With one group, the explanatory level is the root itself; its
    self-verification does not reuse the root decision's relaxed set."""
    m = ground(parse_model(*minirover_texts))
    original = search_module.relaxed_reachable
    calls = []

    def spy(model, banned=frozenset()):
        calls.append(model)
        return original(model, banned)

    monkeypatch.setattr(search_module, "relaxed_reachable", spy)
    e = explain(m, LatticeSpec((("rocks", ("clear",)),)))
    assert e.status == STATUS_EXPLAINED
    assert e.failed.level.projected == frozenset()
    assert sum(model is m for model in calls) == 2


def _written(value) -> str:
    out: list[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


_json_strings = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "\U0001f600", 'a"b\\c'])
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _json_strings,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_json_strings, inner, max_size=4)),
    max_leaves=24,
)


@given(_json_values)
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_standard_encoder(value):
    """machine_json's writer is json.dumps(indent=2, sort_keys=True),
    byte for byte, on every type a rendering holds."""
    assert _written(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": {"b"}}])
def test_json_writer_rejects_types_a_rendering_never_holds(value):
    with pytest.raises(TypeError):
        _written(value)
