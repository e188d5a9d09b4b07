import json
import subprocess
import sys

from noplan.cli import main

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


def test_landmarks_dump(tmp_path, capsys):
    domain = (MINIROVER / "domain.pddl").read_text().replace("(clear ?y)", "(conn ?x ?y)")
    d = tmp_path / "d.pddl"
    d.write_text(domain)
    code = main([
        "landmarks",
        "--domain", str(d),
        "--problem", str(MINIROVER / "problem.pddl"),
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert {lm["id"] for lm in data["landmarks"]}
    assert all(o["kind"] in ("nat", "nec", "gnec") for o in data["orderings"])


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "noplan", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "noplan" in proc.stdout
