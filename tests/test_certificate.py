"""Certificates of unsolvability: every one a search emits passes the
check, and every corruption of one is rejected."""

import ast
import importlib
from pathlib import Path

import pytest

from noplan import achievability
from noplan import certificate
from noplan.abstraction import AbstractionLattice, LatticeSpec, load_lattice_spec
from noplan.certificate import check
from noplan.explain import explain
from noplan.pddl import ground, parse_model
from noplan.search import UNSOLVABLE, decide_solvable, relaxed_reachable

from .conftest import INSTANCES, build_model
from .random_models import unsolvable_corpus


def _pair_model(free: int = 4):
    """p and q exclude each other and the goal needs both; free bits
    that any action may set keep the search past its gate, so only the
    pair check refutes it."""
    names = ["p", "q"] + [f"b{i}" for i in range(free)]
    actions = [("make_p", [], ["p"], ["q"]), ("make_q", [], ["q"], ["p"])]
    actions += [(f"set_b{i}", [], [f"b{i}"], []) for i in range(free)]
    actions += [(f"clear_b{i}", [], [], [f"b{i}"]) for i in range(free)]
    m, _ = build_model(names, actions, [], ["p", "q"])
    return m


def _spec_for(m, groups) -> LatticeSpec:
    return LatticeSpec(tuple(
        (g.name, tuple(sorted({m.table.fluent(f).name for f in g.members})))
        for g in groups
    ))


def _explanations():
    """(model, lattice spec, advice text) for the bundled instances, with
    and without each of their advice files, and for 120 corpus models."""
    for base in sorted(p for p in INSTANCES.iterdir() if p.is_dir()):
        m = ground(parse_model((base / "domain.pddl").read_text(),
                               (base / "problem.pddl").read_text()))
        spec = load_lattice_spec((base / "lattice.json").read_text())
        yield m, spec, None
        for advice in sorted(p for p in base.glob("*.json") if p.name != "lattice.json"):
            yield m, spec, advice.read_text()
    for m, groups, advice in unsolvable_corpus(20240, 120):
        yield m, _spec_for(m, groups), advice


def _kind(proof) -> str:
    if isinstance(proof, (set, frozenset)):
        return "set"
    return "bits" if isinstance(proof[1], int) else "pairs"


@pytest.fixture(scope="module")
def emitted():
    """(model, proof) for every certificate the searches of explain emit
    on _explanations, and for the pair model's root."""
    out = []
    explain_module = importlib.import_module("noplan.explain")
    searches = {module: module.decide_solvable for module in (achievability, explain_module)}
    solvability = AbstractionLattice.solvability

    def searched(original):
        def spy(model, limits=None, tables=None):
            result = original(model, limits, tables)
            if result.proof is not None:
                out.append((model, result.proof))
            return result
        return spy

    def decided(self, node):
        known = node.solvable is not None
        result = solvability(self, node)
        if not known and result.proof is not None:
            out.append((node.model, result.proof))
        return result

    mp = pytest.MonkeyPatch()
    try:
        for module, original in searches.items():
            mp.setattr(module, "decide_solvable", searched(original))
        mp.setattr(AbstractionLattice, "solvability", decided)
        for m, spec, advice in _explanations():
            explain(m, spec, advice)
    finally:
        mp.undo()
    pair_model = _pair_model()
    out.append((pair_model, decide_solvable(pair_model).proof))
    return out


def test_every_emitted_certificate_passes(emitted):
    kinds = {_kind(proof) for _, proof in emitted}
    assert kinds == {"set", "bits", "pairs"}
    assert all(check(m, proof) for m, proof in emitted)


def test_only_relaxed_exits_and_the_gate_carry_a_certificate():
    # a three-state breadth-first proof has no certificate
    m, _ = build_model(["p", "q"], [("make_p", [], ["p"], ["q"]), ("make_q", [], ["q"], ["p"])],
                       [], ["p", "q"])
    result = decide_solvable(m)
    assert result.status == UNSOLVABLE and result.proof is None
    m, ids = build_model(["p", "g"], [("a", [], ["p"], [])], [], ["g"])
    result = decide_solvable(m)
    assert result.status == UNSOLVABLE and result.proof == relaxed_reachable(m) == {ids["p"]}


def _bits(mask):
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit


def _mutations(m, proof):
    """Corrupted copies of proof, each one that check must reject."""
    kind = _kind(proof)
    if kind == "set":
        for f in sorted(proof):
            yield proof - {f}
        yield set(proof) | m.goal
        yield set(proof) | {max(m.fluents) + 1}
        return
    order, cert = proof
    bit_of = {f: 1 << i for i, f in enumerate(order)}
    outside = [bit_of[f] for f in order if f not in m.fluents] + [1 << len(order)]
    goal = 0
    for f in m.goal:
        goal |= bit_of[f]
    if kind == "bits":
        for bit in _bits(cert):
            yield order, cert ^ bit
        yield order, cert | goal
        for bit in outside:
            yield order, cert | bit
        return
    reached, partners = cert
    for bit in _bits(reached):
        for other in _bits(partners[bit]):
            if other < bit:
                continue
            cut = dict(partners)
            cut[bit] &= ~other
            yield order, (reached, cut)  # no longer symmetric
            cut = dict(cut)
            cut[other] &= ~bit
            yield order, (reached, cut)
    for bit in _bits(reached):
        # dropped from reached and from every other atom's partners, but
        # with its own partners left in place
        yield order, (reached & ~bit, {b: v if b == bit else v & ~bit
                                       for b, v in partners.items()})
    grown = {bit: partners[bit] | goal for bit in _bits(reached)}
    for bit in _bits(goal):
        grown[bit] = reached | goal
    yield order, (reached | goal, grown)
    init = 0
    for f in m.init:
        init |= bit_of[f]
    for bit in _bits(init):
        yield order, (reached & ~bit, {b: v & ~bit for b, v in partners.items() if b != bit})
    for bit in outside:
        yield order, (reached | bit, {**partners, bit: bit})


def test_every_corruption_of_an_emitted_certificate_is_rejected(emitted):
    """Both certificates are least fixpoints, so dropping any one atom or
    pair breaks closure; adding the goal or a fluent outside the model,
    or dropping an atom of init, breaks the rest of the check."""
    tried = 0
    for m, proof in emitted:
        for bad in _mutations(m, proof):
            tried += 1
            assert not check(m, bad)
    assert tried > len(emitted)


def test_checker_imports_nothing_from_search():
    tree = ast.parse(Path(certificate.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert imported and not any("search" in name.split(".") for name in imported)
