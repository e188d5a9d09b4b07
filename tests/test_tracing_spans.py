"""Every name the benchmark's tracer patches still resolves in noplan.

``perfbench/tracing.py`` wraps the attributes listed in its ``SPANS`` at
install time, and the generated-state counter wraps
``noplan.search.apply_action``; a rename in the package would make
``perfbench/run.py --trace 1`` fail before it runs anything. The module
is loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in _spans()])
def test_traced_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(owner, cls_name))[method])
    else:
        assert callable(getattr(owner, attr))


def test_generated_state_counter_target_exists():
    assert callable(importlib.import_module("noplan.search").apply_action)
