#!/usr/bin/env python3
"""Self-test of the benchmark's output checker.

    python3 perfbench/selftest.py

The checker must accept noplan's explanations of the bundled instances
and of small instances of every workload, and must reject three kinds
of tampered explanation: one with an explanatory group dropped, one
whose failed subgoal is swapped for an atom that is no landmark, and
one whose reported level is solvable. Exits 1 when any of that fails.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

from checker import Checker
from inputs import WORKLOADS, Instance, generate
from run import import_noplan, operation

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
BUNDLED = (
    ("minirover", None),
    ("minirover", "advice-block-first-move.json"),
    ("rover_grid", None),
    ("blocksworld", "advice.json"),
    ("logistics", "advice.json"),
)


def bundled() -> list[Instance]:
    out = []
    for name, advice in BUNDLED:
        base = INSTANCES / name
        out.append(Instance(
            name + (f"+{advice}" if advice else ""),
            (base / "lattice.json").read_text(),
            advice=(base / advice).read_text() if advice else None,
            domain=(base / "domain.pddl").read_text(),
            problem=(base / "problem.pddl").read_text(),
        ))
    return out


def tampered(checker: Checker, out: dict):
    """(kind, explanation, words the rejection must contain) triples."""
    groups = out["explanatory"]["groups"]
    level = out["failed"]["level"]["projected"]
    dropped = copy.deepcopy(out)
    dropped["explanatory"]["groups"] = groups[1:]
    yield "group dropped", dropped, ""

    solvable_level = copy.deepcopy(out)
    solvable_level["failed"]["level"]["projected"] = sorted(set(level) | set(groups))
    yield "solvable level", solvable_level, "restored"

    element = frozenset(level) | frozenset(groups)
    for atom in sorted(checker.model(element).pred):
        if checker.is_landmark(element, [[atom]]) is False:
            swapped = copy.deepcopy(out)
            swapped["failed"].update(formula=[[atom]], final_goal=False)
            yield "non-landmark subgoal", swapped, "is not a landmark"
            break


def main() -> int:
    np = import_noplan()
    cases = bundled()
    for workload in WORKLOADS:
        cases += generate(workload, 1, small=True)[:4]
    failures = 0
    rejected: dict[str, int] = {}
    for inst in cases:
        out = json.loads(operation(np, inst))
        checker = Checker(inst)
        errors = checker.check(out)
        print(f"{inst.name}: {out['status']}, {'accepted' if not errors else errors}")
        failures += bool(errors)
        if out["status"] != "explained":
            continue
        for kind, bad, words in tampered(checker, out):
            if any(words in e for e in checker.check(bad)):
                rejected[kind] = rejected.get(kind, 0) + 1
            else:
                print(f"  tampered explanation not rejected as expected: {kind}")
                failures += 1
    print("tampered explanations rejected:", rejected)
    kinds = {"group dropped", "solvable level", "non-landmark subgoal"}
    if failures or set(rejected) != kinds:
        print("checker self-test FAILED")
        return 1
    print("checker self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
