import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from noplan import cli
from noplan.abstraction import AbstractionLattice
from noplan.cli import main
from noplan.errors import PipelineError
from noplan.search import UNSOLVABLE, SearchResult

from .conftest import INSTANCES

MINIROVER = INSTANCES / "minirover"


def run_cli(*args, capsys=None):
    code = main([str(a) for a in args])
    return code


def test_explain_json_exit_zero(capsys):
    code = main([
        "explain",
        "--domain", str(MINIROVER / "domain.pddl"),
        "--problem", str(MINIROVER / "problem.pddl"),
        "--lattice", str(MINIROVER / "lattice.json"),
        "--format", "json",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "explained"
    assert data["explanatory"]["groups"] == ["rocks"]
    assert data["explanatory"]["cost"] == 3
    assert data["failed"]["formula"] == [["at_l2"]]
    assert data["advice_applied"] is False
    assert set(data) >= {"status", "explanatory", "failed", "exemplar", "advice_applied"}


def test_explain_human_output(capsys):
    code = main([
        "explain",
        "--domain", str(MINIROVER / "domain.pddl"),
        "--problem", str(MINIROVER / "problem.pddl"),
        "--lattice", str(MINIROVER / "lattice.json"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "clear_l2" in out and "at_l2" in out


def test_explain_solvable_exit_one(tmp_path, capsys):
    # drop the rubble requirement: the problem becomes solvable
    domain = (MINIROVER / "domain.pddl").read_text().replace("(clear ?y)", "(conn ?x ?y)")
    d = tmp_path / "d.pddl"
    d.write_text(domain)
    code = main([
        "explain",
        "--domain", str(d),
        "--problem", str(MINIROVER / "problem.pddl"),
        "--lattice", str(MINIROVER / "lattice.json"),
    ])
    assert code == 1
    assert "solvable" in capsys.readouterr().out


def test_explain_input_error_exit_two(capsys):
    code = main([
        "explain",
        "--domain", str(MINIROVER / "domain.pddl"),
        "--problem", str(MINIROVER / "problem.pddl"),
        "--lattice", str(MINIROVER / "missing.json"),
    ])
    assert code == 2
    assert "input error" in capsys.readouterr().err


DOUBLED_PARENTHESES = [
    ("domain.pddl", "(and (at ?x) (conn ?x ?y) (clear ?y))",
     "(and ((at ?x)) (conn ?x ?y) (clear ?y))"),
    ("domain.pddl", "(and (at ?y) (not (at ?x)))", "(and ((at ?y)) (not (at ?x)))"),
    ("domain.pddl", "(and (at ?y) (not (at ?x)))",
     "(and (at ?y) (not (at ?x)) (when (clear ?y) ((clear ?x))))"),
    ("domain.pddl", "(and (at ?y) (not (at ?x)))",
     "(and (at ?y) (not (at ?x)) (when ((clear ?y)) (clear ?x)))"),
    ("domain.pddl", "(:predicates (at ?l - location)", "(:predicates ((at ?l - location))"),
    ("domain.pddl", "(:requirements :strips :typing)", "(:requirements (:strips) :typing)"),
    ("problem.pddl", "(:goal (and (at l3)))", "(:goal (and ((at l3))))"),
]


@pytest.mark.parametrize("name, old, new", DOUBLED_PARENTHESES)
def test_doubled_parentheses_in_pddl_exit_two(tmp_path, capsys, name, old, new):
    for fname in ("domain.pddl", "problem.pddl"):
        text = (MINIROVER / fname).read_text()
        if fname == name:
            assert old in text
            text = text.replace(old, new, 1)
        (tmp_path / fname).write_text(text)
    code = main([
        "explain",
        "--domain", str(tmp_path / "domain.pddl"),
        "--problem", str(tmp_path / "problem.pddl"),
        "--lattice", str(MINIROVER / "lattice.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "parenthesized form" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("formula", ["((at l1))", "(or (at l2) ((at l1)))", "(at (l1))"])
def test_doubled_parentheses_in_advice_formula_exit_two(tmp_path, capsys, formula):
    advice = tmp_path / "advice.json"
    advice.write_text(json.dumps([{"template": "never-holds", "formula": formula}]))
    code = main([
        "explain",
        "--domain", str(MINIROVER / "domain.pddl"),
        "--problem", str(MINIROVER / "problem.pddl"),
        "--lattice", str(MINIROVER / "lattice.json"),
        "--advice", str(advice),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "parenthesized form" in err
    assert err.count("\n") == 1


def test_explain_lattice_predicate_in_two_groups_exit_two(tmp_path, capsys):
    spec = tmp_path / "lattice.json"
    spec.write_text(json.dumps({"groups": [
        {"name": "rocks", "predicates": ["clear"]},
        {"name": "more-rocks", "predicates": ["clear", "conn"]},
    ]}))
    code = main([
        "explain",
        "--domain", str(MINIROVER / "domain.pddl"),
        "--problem", str(MINIROVER / "problem.pddl"),
        "--lattice", str(spec),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "clear" in err
    assert err.count("\n") == 1


MINIROVER_GROUPS = [{"name": "rocks", "predicates": ["clear"]},
                    {"name": "conn", "predicates": ["conn"]}]


@pytest.mark.parametrize("spec", [
    {"groups": 5},
    {"groups": MINIROVER_GROUPS, "forbidden": 5},
    {"groups": MINIROVER_GROUPS, "forbidden": [5]},
    {"groups": [{"name": "rocks", "predicates": 5}]},
    # an empty combination would forbid every node, the root included
    {"groups": MINIROVER_GROUPS, "forbidden": [[]]},
], ids=["groups-int", "forbidden-int", "forbidden-combo-int", "predicates-int",
        "forbidden-empty-combo"])
def test_malformed_lattice_spec_exit_two(tmp_path, capsys, spec):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(spec))
    for command in ("explain", "lattice"):
        code = main([
            command,
            "--domain", str(MINIROVER / "domain.pddl"),
            "--problem", str(MINIROVER / "problem.pddl"),
            "--lattice", str(path),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


MINIROVER_FSA = {"states": ["a", "b"], "initial": "a", "accepting": ["b"],
                 "transitions": [{"from": "a", "to": "b", "label": {"action": "move_l1_l2"}}]}


@pytest.mark.parametrize("fsa", [
    {**MINIROVER_FSA, "transitions": [{"to": "b", "label": {"action": "move_l1_l2"}}]},
    {**MINIROVER_FSA, "transitions": ["x"]},
    {**MINIROVER_FSA, "transitions": 5},
    {**MINIROVER_FSA, "states": 5},
    {**MINIROVER_FSA, "states": "ab"},
], ids=["transition-without-from", "transition-str", "transitions-int", "states-int",
        "states-str"])
def test_malformed_explicit_advice_fsa_exit_two(tmp_path, capsys, fsa):
    advice = tmp_path / "advice.json"
    advice.write_text(json.dumps([{"fsa": fsa}]))
    code = main([
        "explain",
        "--domain", str(MINIROVER / "domain.pddl"),
        "--problem", str(MINIROVER / "problem.pddl"),
        "--lattice", str(MINIROVER / "lattice.json"),
        "--advice", str(advice),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


def test_explain_advice_on_conditionally_readded_atom_exit_two(tmp_path, capsys):
    # a3 deletes f3 and re-adds it when f0 holds: never-holds (f3) cannot be compiled
    d = tmp_path / "d.pddl"
    d.write_text("""
    (define (domain micro)
      (:requirements :strips :conditional-effects)
      (:predicates (f0) (f1) (f2) (f3) (f4) (f6))
      (:action a1 :parameters () :effect (f0))
      (:action a3 :parameters ()
        :effect (and (f6) (not (f1)) (not (f3)) (when (f0) (and (f3) (not (f4)))))))
    """)
    p = tmp_path / "p.pddl"
    p.write_text("(define (problem micro-347) (:domain micro) (:init (f2)) (:goal (f3)))")
    spec = tmp_path / "lattice.json"
    spec.write_text(json.dumps({"groups": [{"name": "g", "predicates": ["f1"]}]}))
    advice = tmp_path / "advice.json"
    advice.write_text(json.dumps([{"template": "never-holds", "formula": "(f3)"}]))
    code = main([
        "explain", "--domain", str(d), "--problem", str(p),
        "--lattice", str(spec), "--advice", str(advice),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "a3" in err and "f3" in err
    assert err.count("\n") == 1


def test_explain_negative_precondition_on_conditionally_readded_atom_exit_two(
        tmp_path, capsys):
    # a deletes p and re-adds it when q holds: not-p, needed by b, is undetermined
    d = tmp_path / "d.pddl"
    d.write_text("""
    (define (domain d)
      (:requirements :strips :negative-preconditions :conditional-effects)
      (:predicates (p) (q) (g))
      (:action a :parameters () :effect (and (not (p)) (when (q) (p))))
      (:action b :parameters () :precondition (not (p)) :effect (g)))
    """)
    p = tmp_path / "p.pddl"
    p.write_text("(define (problem x) (:domain d) (:init (p) (q)) (:goal (g)))")
    spec = tmp_path / "lattice.json"
    spec.write_text(json.dumps({"groups": [{"name": "g", "predicates": ["q"]}]}))
    code = main(["explain", "--domain", str(d), "--problem", str(p), "--lattice", str(spec)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "action a deletes p" in err
    assert err.count("\n") == 1


def test_explain_predicate_named_like_a_complement_exit_two(tmp_path, capsys):
    # the domain declares not-p and negates p: the complement would reuse not-p
    d = tmp_path / "d.pddl"
    d.write_text("""
    (define (domain clash)
      (:requirements :strips :negative-preconditions)
      (:predicates (p) (not-p) (g))
      (:action mark :parameters () :effect (not-p))
      (:action b :parameters () :precondition (not (p)) :effect (g)))
    """)
    p = tmp_path / "p.pddl"
    p.write_text("(define (problem x) (:domain clash) (:init (p)) (:goal (g)))")
    spec = tmp_path / "lattice.json"
    spec.write_text(json.dumps({"groups": [{"name": "g", "predicates": ["g"]}]}))
    code = main(["explain", "--domain", str(d), "--problem", str(p), "--lattice", str(spec)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "not-p" in err
    assert err.count("\n") == 1


def test_explain_complement_predicate_in_second_group_exit_two(tmp_path, capsys):
    rover = INSTANCES / "rover_grid"
    spec = tmp_path / "lattice.json"
    spec.write_text(json.dumps({"groups": [
        {"name": "rocks", "predicates": ["has-rocks"]},
        {"name": "neg", "predicates": ["not-has-rocks"]},
    ]}))
    code = main([
        "explain",
        "--domain", str(rover / "domain.pddl"),
        "--problem", str(rover / "problem.pddl"),
        "--lattice", str(spec),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "rocks" in err and "neg" in err
    assert err.count("\n") == 1


def _minirover_with(tmp_path, predicate):
    """minirover's domain plus a nullary predicate and an action cheat that adds it."""
    domain = (MINIROVER / "domain.pddl").read_text()
    domain = domain.replace("(have ?c - charge))", f"(have ?c - charge)\n               ({predicate}))")
    domain = domain.rstrip()[:-1] + f"(:action cheat :parameters () :effect ({predicate})))\n"
    d = tmp_path / "d.pddl"
    d.write_text(domain)
    return d


def test_explain_predicate_named_like_landmark_bookkeeping_exit_two(tmp_path, capsys):
    # first-time-lm1 would merge with the achievability compile's flag for landmark 1
    d = _minirover_with(tmp_path, "first-time-lm1")
    code = main([
        "explain", "--domain", str(d),
        "--problem", str(MINIROVER / "problem.pddl"),
        "--lattice", str(MINIROVER / "lattice.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "first-time-lm1" in err
    assert err.count("\n") == 1


def test_explain_predicate_named_like_advice_bookkeeping_exit_two(tmp_path, capsys):
    # goal-accept would merge with the advice compile's acceptance flag
    d = _minirover_with(tmp_path, "goal-accept")
    code = main([
        "explain", "--domain", str(d),
        "--problem", str(MINIROVER / "problem.pddl"),
        "--lattice", str(MINIROVER / "lattice.json"),
        "--advice", str(MINIROVER / "advice-block-first-move.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "goal-accept" in err
    assert err.count("\n") == 1


def test_explain_budget_exit_three(capsys):
    code = main([
        "explain",
        "--domain", str(MINIROVER / "domain.pddl"),
        "--problem", str(MINIROVER / "problem.pddl"),
        "--lattice", str(MINIROVER / "lattice.json"),
        "--node-budget", "0",
    ])
    assert code == 3
    assert "gave up" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["explain", "check"])
@pytest.mark.parametrize("budget", [("--node-budget", "-5"), ("--time-budget", "-1"),
                                    ("--time-budget", "nan")],
                         ids=["negative-nodes", "negative-seconds", "nan-seconds"])
def test_malformed_budget_exits_two(capsys, command, budget):
    """A negative budget or a NaN time budget is malformed input, not an
    exhausted budget or no budget at all; a budget of 0 stays valid."""
    args = [command, "--domain", str(MINIROVER / "domain.pddl"),
            "--problem", str(MINIROVER / "problem.pddl"), *budget]
    if command == "explain":
        args += ["--lattice", str(MINIROVER / "lattice.json")]
    code = main(args)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1
    assert budget[0] in captured.err


def test_explain_failed_self_check_exit_four(capsys, monkeypatch):
    def fail(*args):
        raise PipelineError("restoring ['rocks'] left node ['rocks'] solvable")

    monkeypatch.setattr(importlib.import_module("noplan.explain"), "_self_verify", fail)
    code = main([
        "explain",
        "--domain", str(MINIROVER / "domain.pddl"),
        "--problem", str(MINIROVER / "problem.pddl"),
        "--lattice", str(MINIROVER / "lattice.json"),
    ])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("self-check failed:") and "rocks" in captured.err
    assert captured.err.count("\n") == 1


def test_explain_wrong_lattice_exit_four(capsys, monkeypatch):
    """A lattice that decides every node below the root unsolvable yields
    an unsolvable-at-top report whose top is solvable; its self-check
    refuses it."""
    def lie(self, node):
        if node.solvable is None:
            node.solvable = SearchResult(UNSOLVABLE)
        return node.solvable

    monkeypatch.setattr(AbstractionLattice, "solvability", lie)
    code = main([
        "explain",
        "--domain", str(MINIROVER / "domain.pddl"),
        "--problem", str(MINIROVER / "problem.pddl"),
        "--lattice", str(MINIROVER / "lattice.json"),
    ])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "self-check failed: the top node ['conn', 'rocks'] is solvable\n"


def test_explain_unreplayable_scan_plan_exit_four(capsys, monkeypatch):
    """The achieved prefix rests on replaying each step's plan: a scan
    search that returns a plan one step short is refused."""
    achievability = importlib.import_module("noplan.achievability")
    search = achievability.decide_solvable
    cut = []

    def short(model, limits=None, tables=None):
        result = search(model, limits, tables)
        if result.solvable and result.plan:
            cut.append(result.plan)
            return SearchResult(result.status, result.plan[:-1])
        return result

    monkeypatch.setattr(achievability, "decide_solvable", short)
    base = INSTANCES / "rover_grid"
    code = main([
        "explain",
        "--domain", str(base / "domain.pddl"),
        "--problem", str(base / "problem.pddl"),
        "--lattice", str(base / "lattice.json"),
    ])
    assert code == 4 and cut
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("self-check failed: achievability of landmark ")
    assert captured.err.endswith(": the plan found does not replay\n")


# The key is grabbed once, and finishing spends it; the goal needs the
# key and finishing together, which the four free bits hide from a
# small node budget. Nothing opens the lock, so the concrete model is
# unsolvable without a search; projecting the fresh group makes it solvable.
LOCK_DOMAIN = """
(define (domain lock)
  (:requirements :strips :typing)
  (:types bit)
  (:predicates (fresh) (key) (g) (open) (on ?b - bit))
  (:action grab :parameters () :precondition (fresh) :effect (and (key) (not (fresh))))
  (:action finish :parameters () :precondition (and (key) (open))
    :effect (and (g) (not (key))))
  (:action shut :parameters () :precondition (and) :effect (not (open)))
  (:action set :parameters (?b - bit) :precondition (and) :effect (on ?b)))
"""
LOCK_PROBLEM = """
(define (problem lock) (:domain lock)
  (:objects b1 b2 b3 b4 - bit)
  (:init (fresh))
  (:goal (and (g) (key) (open))))
"""
LOCK_LATTICE = {"groups": [{"name": "fresh", "predicates": ["fresh"]},
                           {"name": "open", "predicates": ["open"]}]}

# three steps to the goal; the advice forbids the last, so every level
# is unsolvable without a search, and the model without advice is searched
STEPS_DOMAIN = """
(define (domain steps)
  (:requirements :strips)
  (:predicates (a) (b) (g) (x))
  (:action s1 :parameters () :precondition (and) :effect (a))
  (:action s2 :parameters () :precondition (a) :effect (b))
  (:action s3 :parameters () :precondition (b) :effect (g))
  (:action s4 :parameters () :precondition (and) :effect (x)))
"""
STEPS_PROBLEM = "(define (problem steps) (:domain steps) (:init) (:goal (g)))"
STEPS_LATTICE = {"groups": [{"name": "xs", "predicates": ["x"]}]}
STEPS_ADVICE = [{"template": "never-use-action", "action": "s3"}]


def _write_instance(directory, domain, problem, lattice, advice=None):
    (directory / "domain.pddl").write_text(domain)
    (directory / "problem.pddl").write_text(problem)
    (directory / "lattice.json").write_text(json.dumps(lattice))
    if advice is not None:
        (directory / "advice.json").write_text(json.dumps(advice))
    return directory


BLOCKS = INSTANCES / "blocksworld"
ROVER_GRID = INSTANCES / "rover_grid"

# Searches that a node budget cannot exhaust on its own are left out:
# self-verification repeats a search that already ended within the same
# budget, and the exemplar replays a member's stored plan.
EXHAUSTED_STAGES = [
    pytest.param("check", BLOCKS, False, 1,
                 "solvability of the concrete model", id="check"),
    pytest.param("explain", BLOCKS, False, 0,
                 "solvability of the concrete model", id="root"),
    pytest.param("explain", "lock", False, 5,
                 "solvability of maximal element at node ['fresh', 'open']", id="maximal"),
    pytest.param("explain", "lock", False, 20,
                 "explanatory-fluent check at node ['open']", id="explanatory"),
    pytest.param("explain", BLOCKS, True, 20,
                 "achievability of landmark 0", id="achievability"),
    pytest.param("explain", "steps", True, 1,
                 "solvability of the model without advice", id="without-advice"),
    pytest.param("lattice", ROVER_GRID, False, 5,
                 "lattice table at node ['rocks']", id="lattice"),
]


@pytest.mark.parametrize("command, instance, advice, budget, stage", EXHAUSTED_STAGES)
def test_exhausted_budget_names_stage_and_budget(tmp_path, capsys, command, instance,
                                                 advice, budget, stage):
    if instance == "lock":
        instance = _write_instance(tmp_path, LOCK_DOMAIN, LOCK_PROBLEM, LOCK_LATTICE)
    elif instance == "steps":
        instance = _write_instance(tmp_path, STEPS_DOMAIN, STEPS_PROBLEM, STEPS_LATTICE,
                                   STEPS_ADVICE)
    args = [command, "--domain", instance / "domain.pddl",
            "--problem", instance / "problem.pddl", "--node-budget", budget]
    if command in ("explain", "lattice"):
        args += ["--lattice", instance / "lattice.json"]
    if advice:
        args += ["--advice", instance / "advice.json"]
    assert run_cli(*args) == 3
    assert capsys.readouterr().err == (
        f"gave up: resource budget exhausted during: {stage}: node budget {budget} reached\n")


MAKE_PUZZLE = Path(__file__).resolve().parent.parent / "scripts" / "make_puzzle_instance.py"


def test_final_goal_step_spends_no_node_budget(tmp_path, capsys):
    """On the 2x3 sliding-tile puzzle with two tiles swapped, the seven
    extracted landmarks stay achievable, so the failure is the goal
    conjunction, pseudo-landmark 7. Searching its compilation would
    exhaust a budget of 400 nodes ("achievability of landmark 7"); the
    scan answers it from the level's proof instead."""
    subprocess.run([sys.executable, str(MAKE_PUZZLE), "2", "3", "1", str(tmp_path)],
                   check=True, capture_output=True)
    code = run_cli("explain", "--domain", tmp_path / "domain.pddl",
                   "--problem", tmp_path / "problem.pddl",
                   "--lattice", tmp_path / "lattice.json",
                   "--node-budget", 400, "--format", "json")
    captured = capsys.readouterr()
    assert code == 0, captured.err
    failed = json.loads(captured.out)["failed"]
    assert failed["final_goal"] and len(failed["prefix"]) == 7
    assert failed["level"] == {"projected": ["adjacency"]}


def test_deeply_nested_parentheses_exit_two(tmp_path, capsys):
    domain = (MINIROVER / "domain.pddl").read_text()
    deep = tmp_path / "domain.pddl"
    deep.write_text(domain.replace("(:predicates", "(:predicates " + "(" * 3000, 1))
    code = main([
        "check",
        "--domain", str(deep),
        "--problem", str(MINIROVER / "problem.pddl"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "nested deeper than" in err
    assert err.count("\n") == 1


def test_check_unsolvable(capsys):
    code = main([
        "check",
        "--domain", str(MINIROVER / "domain.pddl"),
        "--problem", str(MINIROVER / "problem.pddl"),
    ])
    assert code == 0
    assert "unsolvable" in capsys.readouterr().out


def test_check_with_advice_strips_meta(tmp_path, capsys):
    domain = (MINIROVER / "domain.pddl").read_text().replace("(clear ?y)", "(conn ?x ?y)")
    d = tmp_path / "d.pddl"
    d.write_text(domain)
    code = main([
        "check",
        "--domain", str(d),
        "--problem", str(MINIROVER / "problem.pddl"),
        "--advice", str(MINIROVER / "advice-block-first-move.json"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "unsolvable" in out


def test_landmarks_on_unsolvable_exits_one(capsys):
    code = main([
        "landmarks",
        "--domain", str(MINIROVER / "domain.pddl"),
        "--problem", str(MINIROVER / "problem.pddl"),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "the problem is unsolvable; landmarks are extracted from solvable models\n")


def test_landmarks_checks_solvability_before_extracting(capsys, monkeypatch):
    # extract_landmarks assumes a solvable model; the command must refuse
    # an unsolvable one before extraction runs, and print no graph
    calls = []
    monkeypatch.setattr(cli, "extract_landmarks", lambda m: calls.append(m))
    code = main([
        "landmarks",
        "--domain", str(MINIROVER / "domain.pddl"),
        "--problem", str(MINIROVER / "problem.pddl"),
    ])
    assert code == 1
    assert calls == []
    assert capsys.readouterr().out == ""


def test_landmarks_budget_overrun_exits_three(capsys):
    # blocksworld is solvable; a one-node budget cannot show it, which
    # is an overrun, not an unsolvable problem
    blocks = INSTANCES / "blocksworld"
    code = main([
        "landmarks",
        "--domain", str(blocks / "domain.pddl"),
        "--problem", str(blocks / "problem.pddl"),
        "--node-budget", "1",
    ])
    assert code == 3
    assert capsys.readouterr().err == ("gave up: resource budget exhausted during: "
                                       "solvability check before landmark extraction: "
                                       "node budget 1 reached\n")


def test_landmarks_dump(tmp_path, capsys):
    domain = (MINIROVER / "domain.pddl").read_text().replace("(clear ?y)", "(conn ?x ?y)")
    d = tmp_path / "d.pddl"
    d.write_text(domain)
    # two routes to l4: the dump holds the disjunctive landmark at_l2 or at_l3
    two_routes = tmp_path / "p.pddl"
    two_routes.write_text("""
    (define (problem two-routes) (:domain minirover)
      (:objects l1 l2 l3 l4 - location)
      (:init (at l1) (conn l1 l2) (conn l1 l3) (conn l2 l4) (conn l3 l4))
      (:goal (at l4)))
    """)
    texts = []
    for problem in (MINIROVER / "problem.pddl", two_routes):
        code = main(["landmarks", "--domain", str(d), "--problem", str(problem)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert {lm["id"] for lm in data["landmarks"]}
        assert all(o["kind"] in ("nat", "nec", "gnec") for o in data["orderings"])
        # the text is the explanation's rendering: words, not operators
        for lm in data["landmarks"]:
            assert "&" not in lm["text"] and "|" not in lm["text"]
            assert lm["text"].count(" and ") == sum(len(c) - 1 for c in lm["formula"])
            assert lm["text"].count(" or ") == len(lm["formula"]) - 1
            texts.append(lm["text"])
    assert "at_l2 or at_l3" in texts


def test_lattice_table(capsys):
    code = main([
        "lattice",
        "--domain", str(MINIROVER / "domain.pddl"),
        "--problem", str(MINIROVER / "problem.pddl"),
        "--lattice", str(MINIROVER / "lattice.json"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "unsolvable" in out and "solvable" in out
    assert out.count("\n") == 5  # header + 4 nodes


def test_compile_advice_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "sigma.pddl"
    code = main([
        "compile-advice",
        "--domain", str(MINIROVER / "domain.pddl"),
        "--problem", str(MINIROVER / "problem.pddl"),
        "--advice", str(MINIROVER / "advice-block-first-move.json"),
        "--out", str(out_file),
    ])
    assert code == 0
    text = out_file.read_text()
    from noplan.pddl import ground, parse_model
    from noplan.search import decide_solvable

    m = ground(parse_model(text, text))
    assert not decide_solvable(m).solvable
    names = {m.table.canonical(f) for f in m.fluents}
    assert any(n.startswith("in-state-") for n in names)


@pytest.mark.parametrize("flag", ["--node-budget", "--time-budget"])
def test_compile_advice_takes_no_budget(tmp_path, capsys, flag):
    # compile-advice runs no search, so it offers no search budget
    with pytest.raises(SystemExit) as exc:
        main([
            "compile-advice",
            "--domain", str(MINIROVER / "domain.pddl"),
            "--problem", str(MINIROVER / "problem.pddl"),
            "--advice", str(MINIROVER / "advice-block-first-move.json"),
            "--out", str(tmp_path / "sigma.pddl"),
            flag, "1",
        ])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_compile_advice_unwritable_out_exit_two(tmp_path, capsys):
    out_file = tmp_path / "missing" / "sigma.pddl"
    code = main([
        "compile-advice",
        "--domain", str(MINIROVER / "domain.pddl"),
        "--problem", str(MINIROVER / "problem.pddl"),
        "--advice", str(MINIROVER / "advice-block-first-move.json"),
        "--out", str(out_file),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {out_file}") and err.count("\n") == 1
    assert not out_file.parent.exists()


def test_explain_dump_under_a_regular_file_exit_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main([
        "explain",
        "--domain", str(MINIROVER / "domain.pddl"),
        "--problem", str(MINIROVER / "problem.pddl"),
        "--lattice", str(MINIROVER / "lattice.json"),
        "--dump-compiled", str(blocker / "dump"),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: cannot write the compiled models to "
                                   f"{blocker / 'dump'}")
    assert captured.err.count("\n") == 1


def test_module_entry_point():
    # run from the directory that holds the package under test, which
    # python -m puts on the module path
    proc = subprocess.run(
        [sys.executable, "-m", "noplan", "--version"],
        capture_output=True, text=True, cwd=Path(cli.__file__).parents[1],
    )
    assert proc.returncode == 0
    assert "noplan" in proc.stdout
