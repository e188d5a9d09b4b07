"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import json
import time

import pytest

from noplan.abstraction import (
    LatticeSpec,
    build_lattice,
    concretize,
    diff_models,
    minimum_abstraction_set,
    resolve_groups,
)
from noplan.achievability import compile_achievability, final_goal_landmark
from noplan.advice import (
    compose,
    parse_advice,
    universal_fsa,
)
from noplan.explain import STATUS_EXPLAINED, explain
from noplan.landmarks import extract_landmarks
from noplan.pddl import ground, parse_model
from noplan.random_models import MicroConfig, break_by_deletion, random_model, unsolvable_corpus
from noplan.search import SearchLimits, decide_solvable

from .conftest import INSTANCES, minirover_groups
from .oracles import (
    accepted_bounded_plans,
    achievability_oracle,
    brute_force_explanations,
    check_orderings_on_plans,
    landmark_holds_on_all_plans,
    reachable_states,
    stripped_bounded_plans,
)

LIMITS = SearchLimits(max_nodes=2_000_000, max_seconds=60)

CORPUS_SEED = 20240
CORPUS_SIZE = 200


def _spec_for(m, groups) -> LatticeSpec:
    return LatticeSpec(tuple(
        (g.name, tuple(sorted({m.table.fluent(f).name for f in g.members})))
        for g in groups
    ))


@pytest.fixture(scope="module")
def corpus():
    return list(unsolvable_corpus(CORPUS_SEED, CORPUS_SIZE))


@pytest.fixture(scope="module")
def small_solvable_models():
    """Solvable micro-models with tiny reachable spaces, for enumeration."""
    import random

    rng = random.Random(4242)
    cfg = MicroConfig(min_fluents=5, max_fluents=7, min_actions=2, max_actions=4)
    out = []
    while len(out) < 40:
        m, groups = random_model(rng, cfg)
        if not decide_solvable(m, LIMITS).solvable:
            continue
        if len(reachable_states(m)) > 12:
            continue
        out.append((m, groups))
    return out


def _load_instance(name):
    base = INSTANCES / name
    model = ground(parse_model((base / "domain.pddl").read_text(),
                               (base / "problem.pddl").read_text()))
    from noplan.abstraction import load_lattice_spec

    spec = load_lattice_spec((base / "lattice.json").read_text())
    return base, model, spec


def test_acceptance_1_rover_grid_reconstruction():
    """A 5x5 rover grid with rocks on the only goal approach."""
    started = time.monotonic()
    _, model, spec = _load_instance("rover_grid")
    e = explain(model, spec, limits=LIMITS)
    elapsed = time.monotonic() - started
    assert e.status == STATUS_EXPLAINED
    assert e.explanatory.groups == frozenset({"rocks"})
    failed = {model.table.canonical(f)
              for d in e.failed.landmark.formula.disjuncts for f in d}
    assert failed == {"at-rover_c5-4"}  # the blocked cell
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 (rover grid reconstruction, {elapsed:.1f}s): PASS")


def test_acceptance_2_soundness_suite(corpus):
    """Every non-degenerate explanation passes its unsolvability claims."""
    assert len(corpus) >= 200
    failures = []
    non_degenerate = 0
    for i, (m, groups, advice) in enumerate(corpus):
        spec = _spec_for(m, groups)
        e = explain(m, spec, advice, limits=LIMITS, verify=False)
        if e.status != STATUS_EXPLAINED:
            continue
        non_degenerate += 1
        effective = m
        if advice is not None:
            effective = compose(m, parse_advice(advice, m)).compiled
        lat = build_lattice(effective, resolve_groups(effective, spec), limits=LIMITS)
        members = minimum_abstraction_set(lat)
        for node in members:
            target = concretize(lat, node, e.explanatory.groups & node.projected)
            if decide_solvable(target.model, LIMITS).solvable:
                failures.append(f"instance {i}: node {sorted(node.projected)} still solvable")
        level = lat.node(e.failed.level.projected)
        graph = extract_landmarks(members[0].model, check_solvable=False, limits=LIMITS)
        extended, pseudo = final_goal_landmark(level.model, graph)
        lm = pseudo if e.failed.is_final_goal else e.failed.landmark
        compiled = compile_achievability(level.model, extended, lm)
        if decide_solvable(compiled, LIMITS).solvable and not e.failed.is_final_goal:
            failures.append(f"instance {i}: failed subgoal is achievable")
    assert failures == []
    assert non_degenerate >= 50
    print(f"\nACCEPTANCE 2 (soundness over {len(corpus)} random instances, "
          f"{non_degenerate} non-degenerate): PASS")


def test_acceptance_3_minimality(corpus):
    """Exhaustive subset enumeration finds nothing cheaper than the search."""
    violations = []
    checked = 0
    for i, (m, groups, advice) in enumerate(corpus):
        if len(groups) > 4:
            continue
        spec = _spec_for(m, groups)
        e = explain(m, spec, advice, limits=LIMITS, verify=False)
        if e.status != STATUS_EXPLAINED:
            continue
        checked += 1
        effective = m
        if advice is not None:
            effective = compose(m, parse_advice(advice, m)).compiled
        lat = build_lattice(effective, resolve_groups(effective, spec), limits=LIMITS)
        members = minimum_abstraction_set(lat)
        valid = brute_force_explanations(lat, members)
        best = min(cost for cost, _ in valid)
        if e.explanatory.cost != best:
            violations.append(f"instance {i}: search cost {e.explanatory.cost}, best {best}")
    assert violations == []
    assert checked >= 50
    print(f"\nACCEPTANCE 3 (minimality, {checked} instances checked exhaustively): PASS")


def test_acceptance_4_landmark_soundness(norocks, twopath, small_solvable_models):
    """Landmarks and orderings verified against exhaustive enumeration."""
    fixtures = [norocks, twopath] + [m for m, _ in small_solvable_models]
    violations = []
    landmark_count = 0
    for fi, m in enumerate(fixtures):
        bound = min(len(reachable_states(m)), 10)
        graph = extract_landmarks(m, check_solvable=False, limits=LIMITS)
        for lm in graph.landmarks:
            landmark_count += 1
            if not landmark_holds_on_all_plans(m, lm.formula, bound):
                violations.append(f"fixture {fi}: landmark {lm.id} violated")
        violations.extend(
            f"fixture {fi}: {p}" for p in check_orderings_on_plans(m, graph, bound)
        )
    assert violations == []
    print(f"\nACCEPTANCE 4 (landmark soundness, {len(fixtures)} fixtures, "
          f"{landmark_count} landmarks): PASS")


def test_acceptance_5_achievability_equivalence(minirover, norocks, twopath,
                                                small_solvable_models):
    """Compiled achievability agrees with the trace-simulation oracle."""
    import random

    rng = random.Random(99)
    cases = []  # (landmark-source model, target model)
    cases.append((norocks, norocks))
    cases.append((norocks, minirover))
    cases.append((twopath, twopath))
    for m, _ in small_solvable_models[:25]:
        cases.append((m, m))
        broken = break_by_deletion(rng, m)
        if broken is not None:
            cases.append((m, broken))
    disagreements = []
    compared = 0
    for source, target in cases:
        graph = extract_landmarks(source, check_solvable=False, limits=LIMITS)
        extended, pseudo = final_goal_landmark(target, graph)
        for lm in list(graph.landmarks) + [pseudo]:
            compiled = compile_achievability(target, extended, lm)
            got = decide_solvable(compiled, LIMITS).solvable
            want = achievability_oracle(target, extended, lm)
            compared += 1
            if got != want:
                disagreements.append(
                    f"landmark {lm.id}: compiled={got} oracle={want}"
                )
    assert disagreements == []
    print(f"\nACCEPTANCE 5 (achievability equivalence, {compared} compilations): PASS")


def _loop_model():
    from .conftest import build_model

    return build_model(
        ["at_a", "at_b", "flag", "g"],
        [
            ("go_ab", ["at_a"], ["at_b"], ["at_a"]),
            ("go_ba", ["at_b"], ["at_a"], ["at_b"]),
            ("mark", ["at_b"], ["flag"], []),
            ("finish", ["flag", "at_a"], ["g"], []),
        ],
        ["at_a"],
        ["g"],
    )[0]


def test_acceptance_6_constrained_model_language():
    """Bounded plan-set identity for every template and 3 explicit FSAs."""
    from noplan.model import normalize_dnf

    loop = _loop_model()
    fixtures = []
    base = INSTANCES / "minirover"
    mini = ground(parse_model((base / "domain.pddl").read_text(),
                              (base / "problem.pddl").read_text()))
    from noplan.abstraction import project_model

    clear = frozenset(f for f in mini.fluents if mini.table.fluent(f).name == "clear")
    fixtures.append(project_model(mini, clear))  # two actions, one route
    fixtures.append(loop)

    def fluent_formula(m):
        for name in ("at_l2", "at_b"):
            for f in m.fluents:
                if m.table.canonical(f) == name:
                    return normalize_dnf(f)
        raise AssertionError("fixture is missing its marker fluent")

    def build_fsas(m):
        from noplan import advice as adv

        phi = fluent_formula(m)
        goal_atom = normalize_dnf(next(iter(sorted(m.goal))))
        first = m.actions[0].name
        fsas = [
            adv.never_use_action(m, first),
            adv.use_action_eventually(m, first),
            adv.eventually_holds(m, phi),
            adv.never_holds(m, phi),
            adv.before(m, phi, goal_atom),
            adv.action_count_at_most(m, first, 1),
        ]
        # three hand-built explicit automata
        names = [a.name for a in m.actions]
        from noplan.advice import ActionLabel, ConstraintFsa, GuardLabel, Transition

        only_first_then_anything = ConstraintFsa(
            frozenset({"p", "q"}), "p", frozenset({"q"}),
            (Transition("p", ActionLabel(first), "q"),)
            + tuple(Transition("q", ActionLabel(n), "q") for n in names),
        )
        even_length = ConstraintFsa(
            frozenset({"e", "o"}), "e", frozenset({"e"}),
            tuple(Transition("e", ActionLabel(n), "o") for n in names)
            + tuple(Transition("o", ActionLabel(n), "e") for n in names),
        )
        guard_then_go = ConstraintFsa(
            frozenset({"w", "d"}), "w", frozenset({"d"}),
            (Transition("w", GuardLabel(phi), "d"),)
            + tuple(Transition("w", ActionLabel(n), "w") for n in names)
            + tuple(Transition("d", ActionLabel(n), "d") for n in names),
        )
        fsas += [only_first_then_anything, even_length, guard_then_go]
        return fsas

    bound = 6
    mismatches = []
    combos = 0
    for m in fixtures:
        for fsa in build_fsas(m):
            combos += 1
            cm = compose(m, fsa)
            total = bound * (1 + len(fsa.states)) + 1
            left = stripped_bounded_plans(cm, bound, total)
            right = accepted_bounded_plans(m, fsa, bound)
            if left != right:
                mismatches.append(
                    f"{m.actions[0].name}-fixture fsa#{combos}: "
                    f"only_compiled={sorted(left - right)} only_base={sorted(right - left)}"
                )
    assert mismatches == []
    print(f"\nACCEPTANCE 6 (constrained-model language identity, {combos} combinations): PASS")


def test_acceptance_7_structural_properties(minirover, norocks, small_solvable_models):
    """Order preservation, inheritance, landmark conservation, constraint order."""
    # concretization preserves the lattice order
    lat = build_lattice(minirover, minirover_groups(minirover))
    sets = lat.all_projected_sets()
    for p1, p2 in itertools.product(sets, sets):
        if p1 <= p2:
            for r in map(frozenset, _powerset(sorted(p1))):
                assert (p1 - r) <= (p2 - r)

    # an explanation for an abstract node explains every
    # more concrete node
    for p2 in sets:
        n2 = lat.node(p2)
        for r in map(frozenset, _powerset(sorted(p2))):
            if not r:
                continue
            if decide_solvable(concretize(lat, n2, r).model, LIMITS).solvable:
                continue
            for p1 in sets:
                if p1 <= p2 and r <= p1:
                    n1 = lat.node(p1)
                    assert not decide_solvable(concretize(lat, n1, r).model, LIMITS).solvable

    # landmarks extracted from an abstraction hold on every
    # bounded plan of every more concrete solvable model; a landmark
    # refuted at some level stays refuted further down
    from noplan.abstraction import project_model

    chain_checks = 0
    for m, groups in small_solvable_models[:12]:
        layers = [m]
        acc = frozenset()
        for g in groups[:2]:
            acc = acc | g.members
            layers.append(project_model(m, acc))
        bound = min(len(reachable_states(m)), 8)
        for hi in range(1, len(layers)):
            if not decide_solvable(layers[hi], LIMITS).solvable:
                continue
            graph = extract_landmarks(layers[hi], check_solvable=False, limits=LIMITS)
            for lo in range(hi):
                for lm in graph.landmarks:
                    assert landmark_holds_on_all_plans(layers[lo], lm.formula, bound)
                    chain_checks += 1
    # refutation propagates downward on the minirover lattice
    top = lat.node({"rocks", "conn"})
    graph = extract_landmarks(top.model, check_solvable=False, limits=LIMITS)
    for lm in graph.landmarks:
        refuted_at = None
        for projected in ({"conn"}, frozenset()):
            level = lat.node(projected)
            compiled = compile_achievability(level.model, graph, lm)
            solvable = decide_solvable(compiled, LIMITS).solvable
            if refuted_at is not None:
                assert not solvable, "refuted landmark came back at a deeper level"
            if not solvable and refuted_at is None:
                refuted_at = projected

    # composing the same constraint preserves the
    # plan-set inclusion between a model and its abstraction
    inclusion_checks = 0
    for m, groups in small_solvable_models[:10]:
        abstract = project_model(m, groups[0].members)
        name = m.actions[0].name
        for build in (lambda mm: universal_fsa(mm),
                      lambda mm, n=name: _never(mm, n)):
            f1, f2 = build(m), build(abstract)
            cm1, cm2 = compose(m, f1), compose(abstract, f2)
            bound = 4
            left = stripped_bounded_plans(cm1, bound, bound * (1 + len(f1.states)) + 1)
            right = stripped_bounded_plans(cm2, bound, bound * (1 + len(f2.states)) + 1)
            assert left <= right
            inclusion_checks += 1
    print(f"\nACCEPTANCE 7 (structural properties, {chain_checks} landmark checks, "
          f"{inclusion_checks} constraint inclusions): PASS")


def _never(m, name):
    from noplan.advice import never_use_action

    return never_use_action(m, name)


def _powerset(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


@pytest.mark.parametrize("name", ["blocksworld", "logistics"])
def test_acceptance_8_scale_sanity(name):
    """Bundled instances under advice: within budget, cost verifiable."""
    started = time.monotonic()
    base, model, spec = _load_instance(name)
    advice = (base / "advice.json").read_text()
    e = explain(model, spec, advice, limits=SearchLimits(max_nodes=5_000_000,
                                                         max_seconds=110))
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    assert e.status == STATUS_EXPLAINED
    assert e.advice_applied
    # recompute the cost through diff_models on a fresh lattice
    effective = compose(model, parse_advice(advice, model)).compiled
    lat = build_lattice(effective, resolve_groups(effective, spec), limits=LIMITS)
    members = minimum_abstraction_set(lat)
    updates = set()
    for node in members:
        target = concretize(lat, node, e.explanatory.groups & node.projected)
        updates |= set(diff_models(node.model, target.model))
    assert e.explanatory.cost == len(updates)
    print(f"\nACCEPTANCE 8 ({name} under advice, {elapsed:.1f}s, "
          f"cost {e.explanatory.cost} == diff count): PASS")
