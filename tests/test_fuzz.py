"""Bounded fuzzers over the four inputs a user hands the CLI.

Each property is that a malformed input ends in an InputError and
nothing else: no other exception escapes parsing, grounding, lattice
building or advice composition. One CLI case per family checks that
such an input exits 2 with a one-line message.
"""

import json
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from noplan.abstraction import build_lattice, load_lattice_spec, resolve_groups
from noplan.advice import compose, parse_advice
from noplan.cli import main
from noplan.errors import InputError
from noplan.pddl import ground, parse_model

from .conftest import INSTANCES

# small instances, so that a mutation widening a schema stays cheap to ground
_TEXTS = {name: ((INSTANCES / name / "domain.pddl").read_text(),
                 (INSTANCES / name / "problem.pddl").read_text())
          for name in ("minirover", "blocksworld", "logistics")}
_PIECES = re.compile(r"\(|\)|[^\s()]+|\s+")
_EXTRA = ["(", ")", " ", "-", "?z", "not", "and", "or", "when", "object", "(and)", "()",
          ":types", ":action", ":parameters", ":precondition", ":effect", ";", "\n"]


def _only_input_errors(call, *args):
    try:
        return call(*args)
    except InputError:
        return None


@st.composite
def mutated_texts(draw):
    """A bundled domain/problem pair with one of its texts edited."""
    domain, problem = _TEXTS[draw(st.sampled_from(sorted(_TEXTS)))]
    edit_domain = draw(st.booleans())
    pieces = _PIECES.findall(domain if edit_domain else problem)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(pieces)))
        j = min(len(pieces), i + draw(st.integers(1, 6)))
        kind = draw(st.sampled_from(["delete", "insert", "replace", "duplicate"]))
        if kind == "delete":
            del pieces[i:j]
        elif kind == "duplicate":
            pieces[i:i] = pieces[i:j]
        else:
            piece = draw(st.sampled_from(_EXTRA) | st.sampled_from(pieces or _EXTRA))
            pieces[i:j if kind == "replace" else i] = [piece]
    text = "".join(pieces)
    return (text, problem) if edit_domain else (domain, text)


@given(mutated_texts())
@settings(max_examples=300, deadline=None)
def test_mutated_pddl_raises_only_input_errors(texts):
    lifted = _only_input_errors(parse_model, *texts)
    if lifted is not None:
        _only_input_errors(ground, lifted)


def _minirover():
    return ground(parse_model(*_TEXTS["minirover"]))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _mostly(strategy):
    """strategy three times in four, any JSON value otherwise."""
    return st.sampled_from([True, True, True, False]).flatmap(
        lambda well_formed: strategy if well_formed else _JSON)


# minirover's predicates, a complement's name and near misses
_PREDICATES = ["clear", "conn", "at", "have", "not-clear", "nope", ""]
_GROUP_NAMES = ["rocks", "conn", "at", "x", ""]


def _group_name(group) -> str:
    return json.dumps(group.get("name") if isinstance(group, dict) else group, sort_keys=True)


@st.composite
def lattice_texts(draw):
    """Lattice specs near minirover's, or any JSON text."""
    group = st.fixed_dictionaries(
        {"name": _mostly(st.sampled_from(_GROUP_NAMES)),
         "predicates": _mostly(st.lists(st.sampled_from(_PREDICATES), min_size=1, max_size=2))})
    # distinct names, so that most specs get past the duplicate-name check
    groups = st.lists(_mostly(group), max_size=3, unique_by=_group_name)
    spec = st.fixed_dictionaries(
        {"groups": _mostly(groups)},
        optional={"forbidden": _mostly(st.lists(
            _mostly(st.lists(st.sampled_from(_GROUP_NAMES), max_size=3)), max_size=3))})
    return json.dumps(draw(_mostly(spec)))


@given(lattice_texts())
@example("[" * 100_000)
@example("[" * 100_000 + "]" * 100_000)
@settings(max_examples=300, deadline=None)
def test_lattice_spec_raises_only_input_errors(text):
    m = _minirover()
    spec = _only_input_errors(load_lattice_spec, text)
    if spec is None:
        return
    groups = _only_input_errors(resolve_groups, m, spec)
    if groups is not None:
        build_lattice(m, groups, spec.forbidden)


# minirover's grounded actions and atoms, the advice templates, and near misses
_ACTIONS = ["move_l1_l2", "move_l2_l3", "nope"]
_FORMULAS = ["(at l1)", "(at l2)", "(clear l2)", "(and (at l1) (clear l3))",
             "(or (at l2) (at l3))", "(not (at l1))", "(at)", "(at l9)", "((at l1))", "(", "",
             "at l1", "(or)", "(and)"]
_TEMPLATES = ["never-use-action", "use-action-eventually", "eventually-holds", "never-holds",
              "before", "action-count-at-most", "nope"]


@st.composite
def advice_texts(draw):
    """Advice near minirover's: templates, explicit automata, or any JSON."""
    action = _mostly(st.sampled_from(_ACTIONS))
    formula = _mostly(st.sampled_from(_FORMULAS))
    # every template finds its arguments; the others are ignored
    template = st.fixed_dictionaries(
        {"template": _mostly(st.sampled_from(_TEMPLATES)), "action": action,
         "formula": formula, "first": formula, "second": formula,
         "count": _mostly(st.integers(-2, 3))})
    state = _mostly(st.sampled_from(["a", "b", "c d"]))
    label = _mostly(st.fixed_dictionaries({"action": action})
                    | st.fixed_dictionaries({"formula": formula}))
    transition = _mostly(st.fixed_dictionaries({"from": state, "to": state, "label": label}))
    fsa = st.fixed_dictionaries(
        {"states": _mostly(st.lists(state, max_size=3)), "initial": state,
         "accepting": _mostly(st.lists(state, max_size=2)),
         "transitions": _mostly(st.lists(transition, max_size=3))})
    item = _mostly(template | st.fixed_dictionaries({"fsa": fsa}))
    return json.dumps(draw(st.lists(item, max_size=2) | item))


@given(advice_texts())
@example("[" * 100_000)
@example("[" * 100_000 + "]" * 100_000)
@settings(max_examples=300, deadline=None)
def test_advice_raises_only_input_errors(text):
    m = _minirover()
    fsa = _only_input_errors(parse_advice, text, m)
    if fsa is not None:
        _only_input_errors(compose, m, fsa)


MINIROVER = INSTANCES / "minirover"


def _explain_exit(tmp_path, capsys, **texts):
    """The exit code of explain on minirover with some of its inputs replaced."""
    paths = {"domain": MINIROVER / "domain.pddl", "problem": MINIROVER / "problem.pddl",
             "lattice": MINIROVER / "lattice.json"}
    for key, text in texts.items():
        paths[key] = tmp_path / key
        paths[key].write_text(text)
    argv = ["explain"]
    for key, path in paths.items():
        argv += [f"--{key}", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1
    return code


def test_mutated_pddl_exits_two(tmp_path, capsys):
    domain = (MINIROVER / "domain.pddl").read_text().replace(":parameters", ":parameters -", 1)
    assert _explain_exit(tmp_path, capsys, domain=domain) == 2


def test_deeply_nested_lattice_spec_exits_two(tmp_path, capsys):
    assert _explain_exit(tmp_path, capsys, lattice="[" * 100_000) == 2


def test_deeply_nested_advice_exits_two(tmp_path, capsys):
    assert _explain_exit(tmp_path, capsys, advice="[" * 100_000) == 2
