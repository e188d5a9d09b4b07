"""The cyclic collector is paused inside parse_model, ground and explain.

Pausing is safe only because the data they build holds no reference
cycle, so every bundled instance is explained and rendered with the
collector off and must leave nothing for it to free. The collector's
own state is the caller's: it is enabled again on every exit, and a
caller that disabled it finds it still disabled.
"""

import gc
import importlib

import pytest

from noplan import pddl
from noplan.abstraction import load_lattice_spec
from noplan.errors import PddlError, ResourceExhaustedError
from noplan.explain import explain, machine_json
from noplan.pddl import ground, parse_model
from noplan.search import SearchLimits

from .conftest import INSTANCES, cyclic_garbage
from .test_pddl import CLASH_DOMAIN, CLASH_PROBLEM, _texts

# the package exports the function explain under the module's name
explain_module = importlib.import_module("noplan.explain")


def _spec(name):
    return load_lattice_spec((INSTANCES / name / "lattice.json").read_text())


# every bundled instance, without advice and with each of its advice files
RUNS = [(base.name, advice.name if advice else None)
        for base in sorted(p for p in INSTANCES.iterdir() if p.is_dir())
        for advice in [None, *sorted(p for p in base.glob("*.json") if p.name != "lattice.json")]]


@pytest.mark.parametrize("name, advice", RUNS)
def test_explain_and_render_leave_no_cyclic_garbage(name, advice):
    m = ground(parse_model(*_texts(name)))
    text = (INSTANCES / name / advice).read_text() if advice else None

    def run():
        machine_json(explain(m, _spec(name), text))

    assert cyclic_garbage(run) == 0


def _parse():
    return parse_model(*_texts("minirover"))


def _ground():
    return ground(_parse())


def _explain():
    return explain(_ground(), _spec("minirover"))


# (call, module and name of a function each call runs inside its pause)
CALLS = {
    "parse_model": (_parse, pddl, "_check_ground_atoms"),
    "ground": (_ground, pddl, "_static_predicates"),
    "explain": (_explain, explain_module, "decide_solvable"),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_collector_paused_inside_and_enabled_after_return(monkeypatch, name):
    call, module, inner = CALLS[name]
    seen = []
    original = getattr(module, inner)

    def record(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, inner, record)
    assert gc.isenabled()
    call()
    assert gc.isenabled()
    assert seen and not any(seen)


@pytest.mark.parametrize("call, error", [
    (lambda: parse_model("(define (domain d)", ""), PddlError),
    (lambda: ground(parse_model(CLASH_DOMAIN, CLASH_PROBLEM)), PddlError),
    (lambda: explain(_ground(), _spec("minirover"), limits=SearchLimits(max_nodes=0)),
     ResourceExhaustedError),
], ids=["parse_model", "ground", "explain"])
def test_collector_enabled_after_raise(call, error):
    with pytest.raises(error):
        call()
    assert gc.isenabled()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_collector_left_disabled_when_caller_disabled_it(name):
    gc.disable()
    try:
        CALLS[name][0]()
        assert not gc.isenabled()
    finally:
        gc.enable()
