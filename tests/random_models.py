"""Seeded random micro-models for soundness experiments.

Models are small on purpose: every property they feed into is checked
by exhaustive enumeration or exact search. Fluents are partitioned into
named groups plus an ungrouped remainder; generation can then break a
solvable model either by deleting a fluent occurrence or by adding a
piece of advice, producing unsolvable-with-a-reason instances.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from noplan.abstraction import FluentGroup
from noplan.advice import compose, parse_advice
from noplan.errors import AdviceError
from noplan.model import Action, Effect, FluentTable, PlanningModel
from noplan.search import SearchLimits, decide_solvable


@dataclass(frozen=True)
class MicroConfig:
    min_fluents: int = 6
    max_fluents: int = 10
    min_actions: int = 3
    max_actions: int = 6
    min_groups: int = 2
    max_groups: int = 4
    max_goal: int = 2


def random_model(rng: random.Random, cfg: MicroConfig = MicroConfig()):
    """One random grounded model plus its fluent groups."""
    n = rng.randint(cfg.min_fluents, cfg.max_fluents)
    k = rng.randint(cfg.min_groups, min(cfg.max_groups, n - 2))
    table = FluentTable()
    ids = [table.intern(f"f{i}") for i in range(n)]

    grouped = ids[: n - 2]  # keep a couple of fluents ungrouped
    rng.shuffle(grouped)
    groups = []
    bounds = sorted(rng.sample(range(1, len(grouped)), k - 1)) if k > 1 else []
    pieces = []
    prev = 0
    for b in bounds + [len(grouped)]:
        pieces.append(grouped[prev:b])
        prev = b
    for gi, piece in enumerate(pieces):
        groups.append(FluentGroup(f"g{gi}", frozenset(piece)))

    n_actions = rng.randint(cfg.min_actions, cfg.max_actions)
    actions = []
    for ai in range(n_actions):
        prec = frozenset(rng.sample(ids, rng.randint(0, min(3, n))))
        adds = set(rng.sample(ids, rng.randint(1, 2)))
        dels = set(rng.sample(ids, rng.randint(0, 2))) - adds
        effects = [Effect(frozenset(), frozenset(adds), frozenset(dels))]
        if rng.random() < 0.2:
            cond = frozenset(rng.sample(ids, 1))
            extra_add = set(rng.sample(ids, 1))
            extra_del = set(rng.sample(ids, 1)) - extra_add
            effects.append(Effect(cond, frozenset(extra_add), frozenset(extra_del)))
        actions.append(Action(f"a{ai}", prec, tuple(effects)))

    init = frozenset(rng.sample(ids, rng.randint(1, max(1, n // 2))))
    goal = frozenset(rng.sample(ids, rng.randint(1, cfg.max_goal)))
    model = PlanningModel(table, frozenset(ids), tuple(actions), init, goal)
    return model, groups


def _solvable(m: PlanningModel) -> bool:
    return decide_solvable(m, SearchLimits(max_nodes=200_000, max_seconds=20)).solvable


def break_by_deletion(rng: random.Random, m: PlanningModel) -> PlanningModel | None:
    """Drop one fluent occurrence (from init or from an add effect) until unsolvable."""
    candidates = []
    for f in sorted(m.init):
        candidates.append(("init", None, f))
    for a in m.actions:
        for ei, e in enumerate(a.effects):
            for f in sorted(e.adds):
                candidates.append(("add", (a.name, ei), f))
    rng.shuffle(candidates)
    for kind, where, f in candidates:
        if kind == "init":
            broken = PlanningModel(m.table, m.fluents, m.actions, m.init - {f}, m.goal)
        else:
            name, ei = where
            actions = []
            for a in m.actions:
                if a.name != name:
                    actions.append(a)
                    continue
                effects = list(a.effects)
                e = effects[ei]
                effects[ei] = Effect(e.condition, e.adds - {f}, e.dels)
                actions.append(Action(a.name, a.prec, tuple(effects)))
            broken = PlanningModel(m.table, m.fluents, tuple(actions), m.init, m.goal)
        if not _solvable(broken):
            return broken
    return None


def break_by_advice(rng: random.Random, m: PlanningModel) -> str | None:
    """Advice text (JSON) that renders the model unsolvable, if one is found."""
    result = decide_solvable(m, SearchLimits(max_nodes=200_000, max_seconds=20))
    if not result.solvable:
        return None
    plan_actions = list(dict.fromkeys(result.plan))
    rng.shuffle(plan_actions)
    candidates = [
        json.dumps([{"template": "never-use-action", "action": name}])
        for name in plan_actions
    ]
    for f in sorted(m.goal):
        candidates.append(json.dumps([
            {"template": "never-holds",
             "formula": m.table.fluent(f).sexpr}
        ]))
    for text in candidates:
        try:
            compiled = compose(m, parse_advice(text, m)).compiled
        except AdviceError:
            continue  # the complement of the atom cannot be maintained
        if not _solvable(compiled):
            return text
    return None


def unsolvable_corpus(seed: int, count: int, cfg: MicroConfig = MicroConfig(),
                      max_tries: int = 100_000):
    """Yield (model, groups, advice_text_or_None) tuples, count of them.

    Every instance starts from a solvable random model and is then
    broken: half by deleting a fluent occurrence, half by attaching
    advice.
    """
    rng = random.Random(seed)
    produced = 0
    tries = 0
    want_advice = False
    while produced < count and tries < max_tries:
        tries += 1
        m, groups = random_model(rng, cfg)
        if not _solvable(m):
            continue
        if want_advice:
            advice = break_by_advice(rng, m)
            if advice is None:
                continue
            yield m, groups, advice
        else:
            m = break_by_deletion(rng, m)
            if m is None:
                continue
            yield m, groups, None
        produced += 1
        want_advice = not want_advice
    if produced < count:
        raise RuntimeError(f"could not generate {count} instances in {max_tries} tries")
