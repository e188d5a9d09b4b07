#!/usr/bin/env python3
"""Seeded input generators for the noplan benchmark workloads.

Every workload is a list of instances built from one integer seed; the
same seed always gives the same bytes. Nothing here imports noplan, so
a change to the package cannot change what the benchmark feeds it.

    python3 perfbench/inputs.py --workload rover-grid --seed 1

prints the instance count and a sha256 digest of the generated inputs,
which shows that two commits were run on identical inputs.

PDDL workloads (rover-grid, blocks-advice, lattice-wide) are emitted as
domain and problem text. micro-corpus models are plain Python tasks
(see ``Task``) that the benchmark hands to noplan through its library
API; the solvability test that breaks them is the breadth-first search
of ``reachable_goal`` below, not noplan's search.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from collections import deque
from dataclasses import dataclass

WORKLOADS = ("rover-grid", "blocks-advice", "lattice-wide", "micro-corpus")

# Sizes. Every seed gives the same state-space sizes, so the work per
# pass does not depend on the seed; only positions and names move.
ROVER_SIZE, ROVER_SOIL, ROVER_PER_PASS = 6, 6, 4
BLOCKS, BLOCKS_PER_PASS = 4, 4
WIDE_SIZE, WIDE_PER_PASS = 8, 4
MICRO_PER_PASS = 2000

# The eight obstacle kinds of lattice-wide. Only rocks and water guard
# the goal cell; the other six sit on interior cells. Group weights tie,
# so the cheapest-set search walks pairs in name order and reaches
# {rocks, water} only after deciding about 30 lattice nodes.
OBSTACLES = ("ice", "lava", "mud", "rocks", "sand", "snow", "trees", "water")
DECOYS = tuple(o for o in OBSTACLES if o not in ("rocks", "water"))
# forbidden pairs per lattice-wide variant (index within a pass)
WIDE_FORBIDDEN = ((), (), (("ice", "lava"),), (("ice", "lava"), ("mud", "sand")))


@dataclass(frozen=True)
class Task:
    """A grounded task over named atoms; the micro-corpus input format.

    An effect is (condition, adds, deletes). Conditions are read in the
    pre-state, deletes apply before adds.
    """

    atoms: tuple[str, ...]
    actions: tuple[tuple[str, frozenset, tuple], ...]  # (name, prec, effects)
    init: frozenset
    goal: frozenset

    def to_json(self):
        def eff(e):
            return [sorted(e[0]), sorted(e[1]), sorted(e[2])]

        return {
            "atoms": list(self.atoms),
            "actions": [[n, sorted(p), [eff(e) for e in effs]] for n, p, effs in self.actions],
            "init": sorted(self.init),
            "goal": sorted(self.goal),
        }


@dataclass(frozen=True)
class Instance:
    """One benchmark input.

    ``domain``/``problem`` are PDDL text, or None when ``task`` holds a
    micro-corpus model. ``expect`` holds answers known by construction:
    the explanatory groups, and the cell the failed subgoal names.
    """

    name: str
    lattice: str
    advice: str | None = None
    domain: str | None = None
    problem: str | None = None
    task: Task | None = None
    expect: dict | None = None

    def canonical(self) -> str:
        return json.dumps({
            "name": self.name, "lattice": self.lattice, "advice": self.advice,
            "domain": self.domain, "problem": self.problem,
            "task": self.task.to_json() if self.task else None,
            "expect": self.expect,
        }, sort_keys=True)


def generate(workload: str, seed: int, *, small: bool = False) -> list[Instance]:
    """The instances of one pass of a workload.

    ``small`` gives a few tiny instances of the same kind, used to warm
    the code paths up before timing.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "rover-grid":
        size, soil, count = (4, 1, 1) if small else (ROVER_SIZE, ROVER_SOIL, ROVER_PER_PASS)
        return [rover_grid(rng, size, soil, i) for i in range(count)]
    if workload == "blocks-advice":
        n, count = (3, 1) if small else (BLOCKS, BLOCKS_PER_PASS)
        return [blocks_advice(rng, n, i) for i in range(count)]
    if workload == "lattice-wide":
        size, count = (4, 1) if small else (WIDE_SIZE, WIDE_PER_PASS)
        return [lattice_wide(rng, size, WIDE_FORBIDDEN[i], i) for i in range(count)]
    if workload == "micro-corpus":
        return micro_corpus(rng, 20 if small else MICRO_PER_PASS)
    raise ValueError(f"unknown workload {workload!r}")


def digest(instances: list[Instance]) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.canonical().encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Grid rovers


def _cell(x: int, y: int) -> str:
    return f"c{x}-{y}"


def _grid_edges(size: int, removed: frozenset) -> list[tuple[str, str]]:
    out = []
    for x in range(1, size + 1):
        for y in range(1, size + 1):
            for nx, ny in ((x + 1, y), (x, y + 1)):
                if nx > size or ny > size or frozenset({(x, y), (nx, ny)}) == removed:
                    continue
                out.append((_cell(x, y), _cell(nx, ny)))
                out.append((_cell(nx, ny), _cell(x, y)))
    return out


def _rover_domain(obstacles: tuple[str, ...], with_soil: bool) -> str:
    preds = "".join(f"\n               (has-{o} ?c - cell)" for o in obstacles)
    blocked = " ".join(f"(not (has-{o} ?to))" for o in obstacles)
    soil_preds = "\n               (has-soil ?c - cell)\n               (have-sample)" if with_soil else ""
    soil_action = """
  (:action sample-soil
    :parameters (?c - cell)
    :precondition (and (at-rover ?c) (has-soil ?c))
    :effect (and (have-sample) (not (has-soil ?c))))""" if with_soil else ""
    return f"""\
(define (domain rover-grid)
  (:requirements :strips :typing :negative-preconditions)
  (:types cell)
  (:predicates (at-rover ?c - cell)
               (conn ?a - cell ?b - cell){preds}{soil_preds})
  (:action move
    :parameters (?from - cell ?to - cell)
    :precondition (and (at-rover ?from) (conn ?from ?to) {blocked})
    :effect (and (at-rover ?to) (not (at-rover ?from)))){soil_action})
"""


def _rover_problem(name: str, size: int, removed: frozenset, facts: list[str],
                   goal: str) -> str:
    cells = " ".join(_cell(x, y) for x in range(1, size + 1) for y in range(1, size + 1))
    init = ["(at-rover c1-1)"]
    init += [f"(conn {a} {b})" for a, b in _grid_edges(size, removed)]
    init += facts
    body = "\n    ".join(init)
    return (f"(define (problem {name})\n  (:domain rover-grid)\n"
            f"  (:objects {cells} - cell)\n  (:init\n    {body})\n"
            f"  (:goal {goal}))\n")


def _approaches(size: int, rng: random.Random):
    """The two neighbours of the goal corner, in seeded order."""
    pair = [(size - 1, size), (size, size - 1)]
    rng.shuffle(pair)
    return pair


def rover_grid(rng: random.Random, size: int, soil: int, index: int) -> Instance:
    """N x N rover grid; rocks on the only approach to the goal corner.

    The other approach edge is removed, so no plan reaches cN-N. S soil
    cells elsewhere make the goal need a sample, and every reachable
    subset of sampled cells is a distinct state, so the root proof
    stores about (N*N - 2) * 2**S states whatever the seed.
    """
    goal = (size, size)
    rock, cut = _approaches(size, rng)
    free = [(x, y) for x in range(1, size + 1) for y in range(1, size + 1)
            if (x, y) not in (goal, rock)]
    soil_cells = sorted(rng.sample(free, soil))
    facts = [f"(has-rocks {_cell(*rock)})"] + [f"(has-soil {_cell(*c)})" for c in soil_cells]
    problem = _rover_problem(f"rover-{size}-{index}", size, frozenset({cut, goal}), facts,
                             f"(and (at-rover {_cell(*goal)}) (have-sample))")
    lattice = json.dumps({"groups": [{"name": "rocks", "predicates": ["has-rocks"]},
                                     {"name": "soil", "predicates": ["has-soil"]}]})
    return Instance(f"rover-grid-{index}", lattice, domain=_rover_domain(("rocks",), True),
                    problem=problem,
                    expect={"groups": ["rocks"], "failed": f"at-rover_{_cell(*rock)}"})


def lattice_wide(rng: random.Random, size: int, forbidden, index: int) -> Instance:
    """Rover grid with eight obstacle kinds, one lattice group each.

    Rocks and water sit on the two approaches of the goal corner, so only
    restoring both makes the goal unreachable. The decoy kinds cover the
    interior cells with both coordinates even off the diagonal, six of
    them on an 8 x 8 grid (the small warm-up grid reuses one). Such cells
    are never 8-adjacent, so decoys cannot wall anything off. Which decoy
    covers which cell is fixed: it decides which cells the solvable node
    searches must steer around, and so most of the work. The seed picks
    which approach has rocks and the order of the facts.
    """
    goal = (size, size)
    rock, water = _approaches(size, rng)
    cells = [(x, y) for x in range(2, size, 2) for y in range(2, size, 2) if x != y] or [(2, 2)]
    facts = [f"(has-rocks {_cell(*rock)})", f"(has-water {_cell(*water)})"]
    facts += [f"(has-{o} {_cell(*cells[i % len(cells)])})" for i, o in enumerate(DECOYS)]
    rng.shuffle(facts)
    problem = _rover_problem(f"wide-{size}-{index}", size, frozenset(), facts,
                             f"(and (at-rover {_cell(*goal)}))")
    lattice = json.dumps({
        "groups": [{"name": o, "predicates": [f"has-{o}"]} for o in OBSTACLES],
        "forbidden": [list(p) for p in forbidden],
    })
    return Instance(f"lattice-wide-{index}", lattice, domain=_rover_domain(OBSTACLES, False),
                    problem=problem, expect={"groups": ["rocks", "water"]})


# ---------------------------------------------------------------------------
# Blocks world under advice

BLOCKS_DOMAIN = """\
(define (domain blocksworld)
  (:requirements :strips :typing)
  (:types block)
  (:predicates (on ?x - block ?y - block)
               (ontable ?x - block)
               (clear ?x - block)
               (holding ?x - block)
               (handempty))
  (:action pickup
    :parameters (?x - block)
    :precondition (and (ontable ?x) (clear ?x) (handempty))
    :effect (and (holding ?x) (not (ontable ?x)) (not (clear ?x)) (not (handempty))))
  (:action putdown
    :parameters (?x - block)
    :precondition (and (holding ?x))
    :effect (and (ontable ?x) (clear ?x) (handempty) (not (holding ?x))))
  (:action stack
    :parameters (?x - block ?y - block)
    :precondition (and (holding ?x) (clear ?y))
    :effect (and (on ?x ?y) (clear ?x) (handempty) (not (holding ?x)) (not (clear ?y))))
  (:action unstack
    :parameters (?x - block ?y - block)
    :precondition (and (on ?x ?y) (clear ?x) (handempty))
    :effect (and (holding ?x) (clear ?y) (not (on ?x ?y)) (not (clear ?x)) (not (handempty)))))
"""

BLOCKS_LATTICE = json.dumps({"groups": [
    {"name": "arm", "predicates": ["holding", "handempty"]},
    {"name": "surfaces", "predicates": ["clear"]},
]})


def blocks_advice(rng: random.Random, n: int, index: int) -> Instance:
    """One tower b1 (bottom) .. bn (top); the goal (on bn b1) needs bn held.

    The advice never-holds (holding bn) makes that impossible. The seed
    permutes the middle of the tower and the order of objects and facts,
    which leaves the state space the same size.
    """
    middle = [f"b{i}" for i in range(2, n)]
    rng.shuffle(middle)
    tower = ["b1"] + middle + [f"b{n}"]
    facts = [f"(ontable {tower[0]})", f"(clear {tower[-1]})", "(handempty)"]
    facts += [f"(on {tower[i + 1]} {tower[i]})" for i in range(n - 1)]
    rng.shuffle(facts)
    objects = list(tower)
    rng.shuffle(objects)
    problem = (f"(define (problem tower-{n}-{index})\n  (:domain blocksworld)\n"
               f"  (:objects {' '.join(objects)} - block)\n"
               f"  (:init {' '.join(facts)})\n  (:goal (and (on b{n} b1))))\n")
    advice = json.dumps([{"template": "never-holds", "formula": f"(holding b{n})"}])
    return Instance(f"blocks-advice-{index}", BLOCKS_LATTICE, advice=advice,
                    domain=BLOCKS_DOMAIN, problem=problem)


# ---------------------------------------------------------------------------
# Random micro-models


def successors(task: Task, state: frozenset, banned: frozenset = frozenset()):
    """(action name, successor) pairs; the reference semantics of a Task."""
    for name, prec, effects in task.actions:
        if name in banned or not prec <= state:
            continue
        adds: set = set()
        dels: set = set()
        for cond, a, d in effects:
            if cond <= state:
                adds |= a
                dels |= d
        yield name, (state - dels) | adds


def reachable_goal(task: Task, banned: frozenset = frozenset(),
                   cut: frozenset = frozenset()):
    """Shortest plan by breadth-first search, or None when unsolvable.

    ``banned`` actions are dropped; states holding an atom of ``cut``
    are never entered, which is how never-holds advice reads.
    """
    if task.init & cut:
        return None
    parent = {task.init: None}
    queue = deque([task.init])
    while queue:
        state = queue.popleft()
        if task.goal <= state:
            plan = []
            while parent[state] is not None:
                state, name = parent[state]
                plan.append(name)
            return plan[::-1]
        for name, succ in successors(task, state, banned):
            if succ not in parent and not succ & cut:
                parent[succ] = (state, name)
                queue.append(succ)
    return None


def random_task(rng: random.Random):
    """A random task with 6-10 atoms plus a partition into 2-4 groups."""
    n = rng.randint(6, 10)
    k = rng.randint(2, min(4, n - 2))
    atoms = [f"f{i}" for i in range(n)]
    grouped = atoms[: n - 2]  # two atoms stay ungrouped
    rng.shuffle(grouped)
    bounds = sorted(rng.sample(range(1, len(grouped)), k - 1)) + [len(grouped)]
    groups, prev = [], 0
    for b in bounds:
        groups.append(sorted(grouped[prev:b]))
        prev = b
    actions = []
    for ai in range(rng.randint(3, 6)):
        prec = frozenset(rng.sample(atoms, rng.randint(0, 3)))
        adds = frozenset(rng.sample(atoms, rng.randint(1, 2)))
        dels = frozenset(rng.sample(atoms, rng.randint(0, 2))) - adds
        effects = [(frozenset(), adds, dels)]
        if rng.random() < 0.2:
            cond = frozenset(rng.sample(atoms, 1))
            extra_add = frozenset(rng.sample(atoms, 1))
            effects.append((cond, extra_add, frozenset(rng.sample(atoms, 1)) - extra_add))
        actions.append((f"a{ai}", prec, tuple(effects)))
    init = frozenset(rng.sample(atoms, rng.randint(1, max(1, n // 2))))
    goal = frozenset(rng.sample(atoms, rng.randint(1, 2)))
    return Task(tuple(atoms), tuple(actions), init, goal), groups


def _break_by_deletion(rng: random.Random, task: Task) -> Task | None:
    """Drop one atom occurrence from init or an add effect until unsolvable."""
    spots = [("init", None, f) for f in sorted(task.init)]
    for ai, (_, _, effects) in enumerate(task.actions):
        for ei, (_, adds, _) in enumerate(effects):
            spots += [("add", (ai, ei), f) for f in sorted(adds)]
    rng.shuffle(spots)
    for kind, where, f in spots:
        if kind == "init":
            broken = Task(task.atoms, task.actions, task.init - {f}, task.goal)
        else:
            ai, ei = where
            name, prec, effects = task.actions[ai]
            cond, adds, dels = effects[ei]
            effects = effects[:ei] + ((cond, adds - {f}, dels),) + effects[ei + 1:]
            actions = task.actions[:ai] + ((name, prec, effects),) + task.actions[ai + 1:]
            broken = Task(task.atoms, actions, task.init, task.goal)
        if reachable_goal(broken) is None:
            return broken
    return None


def _break_by_advice(rng: random.Random, task: Task, plan: list[str]) -> list | None:
    """Advice items (never-use-action or never-holds) that make the task unsolvable."""
    names = list(dict.fromkeys(plan))
    rng.shuffle(names)
    candidates = [[{"template": "never-use-action", "action": a}] for a in names]
    # Leave out never-holds on an atom that one action both adds and
    # deletes in different effects: noplan's advice compile keeps both the
    # atom and its complement then, and reports such tasks solvable.
    conflicted = set()
    for _, _, effects in task.actions:
        adds = set().union(*(e[1] for e in effects))
        dels = set().union(*(e[2] for e in effects))
        conflicted |= adds & dels
    candidates += [[{"template": "never-holds", "formula": f"({f})"}]
                   for f in sorted(task.goal - conflicted)]
    for advice in candidates:
        item = advice[0]
        if item["template"] == "never-use-action":
            unsolvable = reachable_goal(task, banned=frozenset({item["action"]})) is None
        else:
            unsolvable = reachable_goal(task, cut=frozenset({item["formula"][1:-1]})) is None
        if unsolvable:
            return advice
    return None


def micro_corpus(rng: random.Random, count: int) -> list[Instance]:
    """count unsolvable micro-models: even ones broken by deletion, odd ones by advice."""
    out: list[Instance] = []
    while len(out) < count:
        task, groups = random_task(rng)
        plan = reachable_goal(task)
        if plan is None:
            continue
        advice = None
        if len(out) % 2 == 0:
            task = _break_by_deletion(rng, task)
            if task is None:
                continue
        else:
            advice = _break_by_advice(rng, task, plan)
            if advice is None:
                continue
        lattice = json.dumps({"groups": [{"name": f"g{i}", "predicates": g}
                                         for i, g in enumerate(groups)]})
        out.append(Instance(f"micro-{len(out)}", lattice, task=task,
                            advice=json.dumps(advice) if advice else None))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for workload in args.workload or WORKLOADS:
        instances = generate(workload, args.seed)
        print(f"{workload} seed {args.seed}: {len(instances)} instances, "
              f"sha256 {digest(instances)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
