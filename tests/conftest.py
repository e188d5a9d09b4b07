import functools
import gc
import importlib.util
import sys
from pathlib import Path

import pytest

from noplan.abstraction import FluentGroup, LatticeSpec, load_lattice_spec, resolve_groups
from noplan.advice import compose, parse_advice
from noplan.model import Action, Effect, FluentTable, PlanningModel
from noplan.pddl import ground, parse_model

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
PERFBENCH = INSTANCES.parent / "perfbench"


@functools.cache
def load_perfbench(name: str):
    """The module perfbench/<name>.py, loaded from its file and only read."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@functools.cache
def pddl_inputs() -> list[tuple[str, str, str]]:
    """(name, domain text, problem text) of every bundled instance and of
    every PDDL warm-up input of perfbench seeds 1-10."""
    out = [(d.name, (d / "domain.pddl").read_text(), (d / "problem.pddl").read_text())
           for d in sorted(INSTANCES.iterdir())]
    inputs = load_perfbench("inputs")
    for workload in inputs.WORKLOADS:
        for seed in range(1, 11):
            out += [(f"{inst.name} seed {seed}", inst.domain, inst.problem)
                    for inst in inputs.generate(workload, seed, small=True) if inst.task is None]
    return out


def cyclic_garbage(call, *args) -> int:
    """The objects that only the cyclic collector frees after call(*args)."""
    gc.collect()
    gc.disable()
    try:
        call(*args)
        return gc.collect()
    finally:
        gc.enable()


def simple_action(name, prec=(), adds=(), dels=()) -> Action:
    """An action with one unconditional effect."""
    return Action(name, frozenset(prec), (Effect(frozenset(), frozenset(adds), frozenset(dels)),))


def build_model(fluent_names, actions, init, goal):
    """Hand-build a model from canonical fluent names.

    actions: list of (name, prec, adds, dels) over fluent names, or
    (name, prec, effects) with effects as (cond, adds, dels) triples.
    """
    table = FluentTable()
    ids = {}
    for name in fluent_names:
        pred, *args = name.split("_")
        ids[name] = table.intern(pred, tuple(args))

    def s(names):
        return frozenset(ids[n] for n in names)

    built = []
    for spec in actions:
        if len(spec) == 4:
            name, prec, adds, dels = spec
            built.append(simple_action(name, s(prec), s(adds), s(dels)))
        else:
            name, prec, effects = spec
            built.append(
                Action(
                    name,
                    s(prec),
                    tuple(Effect(s(c), s(a), s(d)) for c, a, d in effects),
                )
            )
    model = PlanningModel(
        table, frozenset(ids.values()), tuple(built), s(init), s(goal)
    )
    return model, ids


def bundled_models():
    """(label, model, groups) for every bundled instance, with no advice
    and composed with each of its advice files; groups come from the
    instance's lattice spec.
    """
    out = []
    for base in sorted(p for p in INSTANCES.iterdir() if p.is_dir()):
        m = ground(parse_model((base / "domain.pddl").read_text(),
                               (base / "problem.pddl").read_text()))
        spec = load_lattice_spec((base / "lattice.json").read_text())
        out.append((base.name, m, resolve_groups(m, spec)))
        for advice in sorted(p for p in base.glob("*.json") if p.name != "lattice.json"):
            effective = compose(m, parse_advice(advice.read_text(), m)).compiled
            out.append((f"{base.name}+{advice.stem}", effective, resolve_groups(effective, spec)))
    return out


def top_projection(m, groups):
    """m with every group's fluents projected away."""
    return m.without(frozenset().union(*(g.members for g in groups)))


@pytest.fixture(scope="session")
def minirover_texts():
    return (
        (INSTANCES / "minirover" / "domain.pddl").read_text(),
        (INSTANCES / "minirover" / "problem.pddl").read_text(),
    )


@pytest.fixture(scope="session")
def minirover(minirover_texts):
    """MiniRover-A as produced by the parser and grounder."""
    return ground(parse_model(*minirover_texts))


@pytest.fixture(scope="session")
def minirover_hand():
    """MiniRover-A built by hand; the grounding must reproduce it."""
    model, _ = build_model(
        ["at_l1", "at_l2", "at_l3", "clear_l2", "clear_l3", "conn_l1_l2", "conn_l2_l3"],
        [
            ("move_l1_l2", ["at_l1", "conn_l1_l2", "clear_l2"], ["at_l2"], ["at_l1"]),
            ("move_l2_l3", ["at_l2", "conn_l2_l3", "clear_l3"], ["at_l3"], ["at_l2"]),
        ],
        ["at_l1", "conn_l1_l2", "conn_l2_l3", "clear_l3"],
        ["at_l3"],
    )
    return model


def minirover_groups(m):
    def members(pred):
        return frozenset(f for f in m.fluents if m.table.fluent(f).name == pred)

    return [FluentGroup("rocks", members("clear")), FluentGroup("conn", members("conn"))]


@pytest.fixture(scope="session")
def minirover_spec():
    return LatticeSpec((("rocks", ("clear",)), ("conn", ("conn",))))


@pytest.fixture(scope="session")
def norocks(minirover):
    from noplan.abstraction import project_model

    rocks = minirover_groups(minirover)[0]
    return project_model(minirover, rocks.members)


@pytest.fixture(scope="session")
def twopath():
    """Two routes l1->l2->l4 and l1->l3->l4, no obstacles."""
    model, _ = build_model(
        ["at_l1", "at_l2", "at_l3", "at_l4",
         "conn_l1_l2", "conn_l1_l3", "conn_l2_l4", "conn_l3_l4"],
        [
            ("move_l1_l2", ["at_l1", "conn_l1_l2"], ["at_l2"], ["at_l1"]),
            ("move_l1_l3", ["at_l1", "conn_l1_l3"], ["at_l3"], ["at_l1"]),
            ("move_l2_l4", ["at_l2", "conn_l2_l4"], ["at_l4"], ["at_l2"]),
            ("move_l3_l4", ["at_l3", "conn_l3_l4"], ["at_l4"], ["at_l3"]),
        ],
        ["at_l1", "conn_l1_l2", "conn_l1_l3", "conn_l2_l4", "conn_l3_l4"],
        ["at_l4"],
    )
    return model
