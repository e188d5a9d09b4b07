"""The benchmark's independent checker accepts noplan's explanations.

``perfbench/checker.py`` re-decides the claims of a rendered explanation
with its own PDDL reader, grounder and breadth-first search, and nothing
in it comes from noplan. Here it checks explanations of seeded inputs of
``perfbench/inputs.py``: the small warm-up instances of every workload
and the first 300 micro-corpus models, about a fifth of which come out
``unsolvable-at-top``. Both modules are loaded from their files and only
read.
"""

import json

import pytest

from noplan.abstraction import load_lattice_spec
from noplan.explain import STATUS_TOP_UNSOLVABLE, explain, machine_json
from noplan.model import Action, Effect, FluentTable, PlanningModel
from noplan.pddl import ground, parse_model

from .conftest import load_perfbench, pddl_inputs

inputs = load_perfbench("inputs")
checker = load_perfbench("checker")


def _model(inst) -> PlanningModel:
    """The instance as noplan reads it: PDDL text, or a micro-corpus task
    built through the library API."""
    if inst.task is None:
        return ground(parse_model(inst.domain, inst.problem))
    task = inst.task
    table = FluentTable()
    ids = {atom: table.intern(atom) for atom in task.atoms}

    def fs(atoms):
        return frozenset(ids[a] for a in atoms)

    actions = tuple(
        Action(name, fs(prec), tuple(Effect(fs(c), fs(a), fs(d)) for c, a, d in effects))
        for name, prec, effects in task.actions
    )
    return PlanningModel(table, frozenset(ids.values()), actions, fs(task.init), fs(task.goal))


def _check(instances) -> list[str]:
    """Explain each instance and return its status, asserting that the
    checker finds nothing wrong with the JSON."""
    statuses = []
    for inst in instances:
        e = explain(_model(inst), load_lattice_spec(inst.lattice), inst.advice)
        out = json.loads(machine_json(e))
        assert checker.Checker(inst).check(out) == [], inst.name
        statuses.append(out["status"])
    return statuses


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_checker_accepts_small_inputs(workload):
    assert _check(inputs.generate(workload, 1, small=True))


def test_checker_accepts_micro_corpus_with_top_reports():
    statuses = _check(inputs.generate("micro-corpus", 1)[:300])
    assert STATUS_TOP_UNSOLVABLE in statuses


def _noplan_ground(domain: str, problem: str):
    """noplan's grounding by canonical names: each action's positive and
    negative preconditions, with a not- complement read as the negation
    of its atom, and the initial state's and the goal's atoms likewise."""
    m = ground(parse_model(domain, problem))
    table = m.table

    def split(fids):
        pos = {table.canonical(f) for f in fids if table.positive_of(f) is None}
        neg = {table.canonical(table.positive_of(f)) for f in fids
               if table.positive_of(f) is not None}
        return pos, neg

    actions = sorted((a.name, *split(a.prec)) for a in m.actions)
    return actions, split(m.init)[0], split(m.goal)


def _checker_ground(domain: str, problem: str):
    g = checker.ground_pddl(domain, problem)
    actions = sorted((name, set(pos), set(neg)) for name, pos, neg, _ in g.actions)
    return actions, set(g.init), (set(g.goal_pos), set(g.goal_neg))


def test_ground_matches_checker_reader_and_grounder():
    """The checker reads and grounds the text with code of its own, so a
    reader fault that noplan's product oracle shares shows up here."""
    for name, domain, problem in pddl_inputs():
        assert _noplan_ground(domain, problem) == _checker_ground(domain, problem), name
