import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noplan.errors import PddlError
from noplan.pddl import ground, parse_model, write_domain, write_problem
from noplan.search import decide_solvable

from .oracles import ground_by_product


def test_parse_minirover(minirover_texts):
    lifted = parse_model(*minirover_texts)
    assert len(lifted.schemas) == 2
    assert {s.name for s in lifted.schemas} == {"move", "blast"}
    locations = [o for o, t in lifted.objects.items() if t == "location"]
    assert sorted(locations) == ["l1", "l2", "l3"]
    assert len(lifted.init) == 4
    assert len(lifted.goal_pos) == 1


def test_parse_empty_goal():
    domain = "(define (domain d) (:predicates (p)))"
    problem = "(define (problem x) (:domain d) (:init) (:goal (and)))"
    lifted = parse_model(domain, problem)
    assert lifted.goal_pos == () and lifted.goal_neg == ()
    assert ground(lifted).goal == frozenset()


def test_parse_undeclared_predicate_reports_position():
    domain = """(define (domain d)
  (:predicates (p))
  (:action a :parameters () :precondition (q) :effect (p)))"""
    problem = "(define (problem x) (:domain d) (:init) (:goal (p)))"
    with pytest.raises(PddlError, match="undeclared predicate") as exc:
        parse_model(domain, problem)
    assert exc.value.line == 3


def test_parse_arity_mismatch():
    domain = "(define (domain d) (:predicates (p ?a)))"
    problem = "(define (problem x) (:domain d) (:init (p a b)) (:goal (and)))"
    with pytest.raises(PddlError, match="arity"):
        parse_model(domain, problem)


def test_parse_undeclared_object():
    domain = "(define (domain d) (:predicates (p ?a)))"
    problem = "(define (problem x) (:domain d) (:init (p ghost)) (:goal (and)))"
    with pytest.raises(PddlError, match="undeclared object"):
        parse_model(domain, problem)


def test_parse_unknown_requirement():
    domain = "(define (domain d) (:requirements :adl) (:predicates (p)))"
    problem = "(define (problem x) (:domain d) (:init) (:goal (and)))"
    with pytest.raises(PddlError, match="unsupported requirement"):
        parse_model(domain, problem)


def test_parse_unbalanced():
    with pytest.raises(PddlError, match="parenthesis"):
        parse_model("(define (domain d)", "(define (problem x))")


def test_ground_minirover_matches_hand_model(minirover, minirover_hand):
    assert len(minirover.actions) == 2
    assert len(minirover.fluents) == 7
    assert minirover.same_content(minirover_hand)


def test_ground_zero_binding_schema_contributes_nothing(minirover):
    # blast has a charge parameter and no charges are declared
    assert not any(a.name.startswith("blast") for a in minirover.actions)


def test_ground_static_pruning_drops_disconnected_moves(minirover):
    names = {a.name for a in minirover.actions}
    assert names == {"move_l1_l2", "move_l2_l3"}


def test_ground_negative_precondition_complement_closure():
    domain = """(define (domain d)
  (:requirements :strips :negative-preconditions)
  (:predicates (clear ?x) (at ?x) (mark ?x))
  (:action probe
    :parameters (?x)
    :precondition (and (at ?x) (not (clear ?x)))
    :effect (and (mark ?x) (clear ?x))))"""
    problem = """(define (problem p) (:domain d)
  (:objects a b)
  (:init (at a) (at b) (clear a))
  (:goal (and (mark a))))"""
    m = ground(parse_model(domain, problem))
    names = {m.table.canonical(f) for f in m.fluents}
    assert {"not-clear_a", "not-clear_b"} <= names
    init = {m.table.canonical(f) for f in m.init}
    # every x with clear_x false initially gains its complement
    assert "not-clear_b" in init and "not-clear_a" not in init
    probe_a = m.action("probe_a")
    prec = {m.table.canonical(f) for f in probe_a.prec}
    assert "not-clear_a" in prec
    # effects maintain the pair: adding clear deletes not-clear
    adds = {m.table.canonical(f) for f in probe_a.adds}
    dels = {m.table.canonical(f) for f in probe_a.dels}
    assert "clear_a" in adds and "not-clear_a" in dels


def test_ground_negative_goal_uses_complement():
    domain = """(define (domain d)
  (:requirements :strips :negative-preconditions)
  (:predicates (p) (q))
  (:action a :parameters () :precondition (p) :effect (and (q) (not (p)))))"""
    problem = """(define (problem x) (:domain d)
  (:init (p)) (:goal (and (q) (not (p)))))"""
    m = ground(parse_model(domain, problem))
    goal = {m.table.canonical(f) for f in m.goal}
    assert goal == {"q", "not-p"}
    from noplan.search import decide_solvable

    assert decide_solvable(m).plan == ("a",)


def test_ground_keeps_negated_static_blockers():
    # has-rocks never changes; moves into rocky cells must stay in the
    # model (permanently blocked), not be pruned away
    domain = """(define (domain d)
  (:requirements :strips :negative-preconditions)
  (:predicates (at ?x) (conn ?x ?y) (has-rocks ?x))
  (:action move
    :parameters (?x ?y)
    :precondition (and (at ?x) (conn ?x ?y) (not (has-rocks ?y)))
    :effect (and (at ?y) (not (at ?x)))))"""
    problem = """(define (problem p) (:domain d)
  (:objects c1 c2)
  (:init (at c1) (conn c1 c2) (has-rocks c2))
  (:goal (and (at c2))))"""
    m = ground(parse_model(domain, problem))
    assert m.has_action("move_c1_c2")
    from noplan.search import decide_solvable

    assert decide_solvable(m).status == "unsolvable"


def test_complement_closure_on_all_reachable_states():
    domain = """(define (domain d)
  (:requirements :strips :negative-preconditions)
  (:predicates (clear ?x) (at ?x) (mark ?x))
  (:action probe
    :parameters (?x)
    :precondition (and (at ?x) (not (clear ?x)))
    :effect (and (mark ?x) (clear ?x)))
  (:action smudge
    :parameters (?x)
    :precondition (and (at ?x) (clear ?x))
    :effect (and (not (clear ?x)))))"""
    problem = """(define (problem p) (:domain d)
  (:objects a b)
  (:init (at a) (at b) (clear a))
  (:goal (and (mark a) (mark b))))"""
    from .oracles import reachable_states

    m = ground(parse_model(domain, problem))
    pairs = []
    for f in m.fluents:
        partner = m.table.complement(f)
        if partner is not None and f < partner:
            pairs.append((f, partner))
    assert pairs
    for state in reachable_states(m):
        for pos, neg in pairs:
            assert (pos in state) != (neg in state)


def test_ground_conditional_effect_input():
    domain = """(define (domain d)
  (:requirements :strips :conditional-effects)
  (:predicates (p) (q) (r))
  (:action a :parameters ()
    :precondition (p)
    :effect (and (r) (when (q) (not (p))))))"""
    problem = "(define (problem x) (:domain d) (:init (p) (q)) (:goal (r)))"
    m = ground(parse_model(domain, problem))
    a = m.action("a")
    assert len(a.effects) == 2
    conds = sorted(len(e.condition) for e in a.effects)
    assert conds == [0, 1]


def test_ground_typed_bindings_respect_hierarchy():
    domain = """(define (domain d)
  (:requirements :strips :typing)
  (:types truck - vehicle vehicle - object)
  (:predicates (parked ?v - vehicle))
  (:action park :parameters (?t - truck) :precondition (and) :effect (parked ?t)))"""
    problem = """(define (problem p) (:domain d)
  (:objects t1 - truck v1 - vehicle)
  (:init) (:goal (parked t1)))"""
    m = ground(parse_model(domain, problem))
    assert m.has_action("park_t1")
    assert not m.has_action("park_v1")


def test_writer_roundtrip(minirover):
    domain_text = write_domain(minirover, "rt")
    problem_text = write_problem(minirover, "rt", "rt")
    again = ground(parse_model(domain_text, problem_text))
    assert again.same_content(minirover)


def test_writer_roundtrip_with_conditionals():
    domain = """(define (domain d)
  (:requirements :strips :conditional-effects)
  (:predicates (p) (q) (r))
  (:action a :parameters ()
    :precondition (p)
    :effect (and (r) (when (q) (not (p))))))"""
    problem = "(define (problem x) (:domain d) (:init (p) (q)) (:goal (r)))"
    m = ground(parse_model(domain, problem))
    again = ground(parse_model(write_domain(m), write_problem(m)))
    assert again.same_content(m)


def test_single_file_with_both_forms(minirover_texts, minirover):
    combined = minirover_texts[0] + "\n" + minirover_texts[1]
    m = ground(parse_model(combined, combined))
    assert m.same_content(minirover)


def _readd_task(a_effect: str) -> tuple[str, str]:
    domain = f"""(define (domain d)
  (:requirements :strips :negative-preconditions :conditional-effects)
  (:predicates (p) (q) (r) (g))
  (:action a :parameters () :effect {a_effect})
  (:action b :parameters () :precondition (not (p)) :effect (g)))"""
    return domain, "(define (problem x) (:domain d) (:init (p) (q)) (:goal (g)))"


def test_ground_rejects_delete_with_conditional_readd():
    # p survives a exactly when q holds, which no complement tracks
    lifted = parse_model(*_readd_task("(and (not (p)) (when (q) (p)))"))
    with pytest.raises(PddlError, match="action a deletes p"):
        ground(lifted)


def test_ground_unconditional_add_beats_conditional_delete():
    # a always leaves p true, so b never becomes applicable
    m = ground(parse_model(*_readd_task("(and (p) (when (q) (not (p))))")))
    assert decide_solvable(m).status == "unsolvable"


def test_ground_readd_that_cannot_fire_is_ignored():
    # r is never true, so the re-add never fires alongside the delete
    m = ground(parse_model(*_readd_task("(and (not (p)) (when (r) (p)))")))
    assert decide_solvable(m).plan == ("a", "b")


CLASH_DOMAIN = """(define (domain clash)
  (:requirements :strips :negative-preconditions)
  (:predicates (p) (not-p) (g))
  (:action mark :parameters () :effect (not-p))
  (:action b :parameters () :precondition (not (p)) :effect (g)))"""
CLASH_PROBLEM = "(define (problem x) (:domain clash) (:init (p)) (:goal (g)))"


def test_ground_rejects_predicate_named_like_a_complement():
    # the complement of p would be the declared not-p, which mark makes
    # true while p still holds, so b would become applicable
    with pytest.raises(PddlError, match="not-p"):
        ground(parse_model(CLASH_DOMAIN, CLASH_PROBLEM))


def test_ground_allows_not_prefix_without_clash():
    # not-q is declared, but q is never negated: no complement is named not-q
    domain = CLASH_DOMAIN.replace("(not-p)", "(not-q)")
    m = ground(parse_model(domain, CLASH_PROBLEM))
    assert m.table.get("not-q") is not None
    assert decide_solvable(m).status == "unsolvable"


_TYPES = ("object", "t1", "t2", "t3")  # t2 is a subtype of t1
_STATIC = {"s0": 0, "s1": 1, "s2": 2}


def _atom(pred: str, args) -> str:
    return f"({pred} {' '.join(args)})" if args else f"({pred})"


@st.composite
def typed_tasks(draw):
    """Small typed domain/problem texts with static preconditions to filter on."""
    objects = [(f"{t}x{i}", t) for t in _TYPES for i in range(draw(st.integers(0, 2)))]
    constants = ["k"] if draw(st.booleans()) else []
    names = sorted([o for o, _ in objects] + constants)
    statics = [_atom(p, args) for p, n in _STATIC.items()
               for args in itertools.product(names, repeat=n)]
    init = draw(st.lists(st.sampled_from(statics), unique=True)) if statics else []
    schemas = []
    for s in range(draw(st.integers(1, 2))):
        params = [(f"?v{i}", draw(st.sampled_from(_TYPES)))
                  for i in range(draw(st.integers(0, 3)))]
        terms = [v for v, _ in params] + constants
        arities = [p for p, n in _STATIC.items() if n == 0 or terms]
        literals = []
        for negated in (False, False, False, True):
            if draw(st.booleans()):
                pred = draw(st.sampled_from(arities))
                args = [draw(st.sampled_from(terms)) for _ in range(_STATIC[pred])]
                literals.append(f"(not {_atom(pred, args)})" if negated else _atom(pred, args))
        effect = _atom("d1", [draw(st.sampled_from(terms))]) if terms else "(d0)"
        schemas.append(f"""  (:action a{s}
    :parameters ({' '.join(f'{v} - {t}' for v, t in params)})
    :precondition (and {' '.join(literals)})
    :effect (and {effect} (not (d0))))""")
    domain = f"""(define (domain d)
  (:requirements :strips :typing :negative-preconditions)
  (:types t1 t3 - object t2 - t1)
  {f"(:constants {' '.join(constants)} - t1)" if constants else ""}
  (:predicates (s0) (s1 ?a) (s2 ?a ?b) (d0) (d1 ?a))
{chr(10).join(schemas)})"""
    problem = f"""(define (problem x) (:domain d)
  (:objects {' '.join(f'{o} - {t}' for o, t in objects)})
  (:init (d0) {' '.join(init)})
  (:goal (and (not (d0)))))"""
    return domain, problem


@given(typed_tasks())
@settings(max_examples=200, deadline=None)
def test_ground_matches_product_oracle(texts):
    lifted = parse_model(*texts)
    m, oracle = ground(lifted), ground_by_product(lifted)
    assert m == oracle
    assert ([m.table.canonical(f) for f in sorted(m.fluents)]
            == [oracle.table.canonical(f) for f in sorted(oracle.fluents)])
    assert [a.name for a in m.actions] == [a.name for a in oracle.actions]
    assert write_domain(m) == write_domain(oracle)
    assert write_problem(m) == write_problem(oracle)
