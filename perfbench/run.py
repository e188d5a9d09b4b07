#!/usr/bin/env python3
"""The noplan benchmark: seeded inputs, run from text to rendered explanation.

    python3 perfbench/run.py --workload rover-grid --seed 1 --seconds 15 --trace 0

One operation takes an input from its text (PDDL, or a plain task for
micro-corpus, built through noplan's library API) through
``parse_model`` -> ``ground`` -> ``explain`` -> ``machine_json``. A run
repeats whole passes over the workload's instances until ``--seconds``
have gone by, in one process on one thread (a closed loop with one
client). Every output is then checked by ``checker.py``, outside the
timed region; one failed check makes ``correct`` false.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of
``tracing.py``, plus the tracing overhead (traced minus untraced median
operation time); its spans are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402  (the benchmark's own modules sit next to this file)
from checker import Checker  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

SETUP_REPEATS = 3


def import_noplan() -> dict:
    """Import noplan afresh, as a new process does, and return its modules."""
    for name in [n for n in sys.modules if n == "noplan" or n.startswith("noplan.")]:
        del sys.modules[name]
    importlib.import_module("noplan")
    return {name: sys.modules[f"noplan.{name}"]
            for name in ("model", "pddl", "abstraction", "explain")}


def task_model(np: dict, task):
    """A micro-corpus task as a noplan PlanningModel, through the library API."""
    model = np["model"]
    table = model.FluentTable()
    ids = {atom: table.intern(atom) for atom in task.atoms}

    def fs(atoms):
        return frozenset(ids[a] for a in atoms)

    actions = tuple(
        model.Action(name, fs(prec), tuple(model.Effect(fs(c), fs(a), fs(d)) for c, a, d in effects))
        for name, prec, effects in task.actions
    )
    return model.PlanningModel(table, frozenset(ids.values()), actions, fs(task.init), fs(task.goal))


def operation(np: dict, inst) -> str:
    """One explanation, from input text to the rendered JSON."""
    if inst.task is not None:
        m = task_model(np, inst.task)
    else:
        pddl = np["pddl"]
        m = pddl.ground(pddl.parse_model(inst.domain, inst.problem))
    spec = np["abstraction"].load_lattice_spec(inst.lattice)
    ex = np["explain"]
    return ex.machine_json(ex.explain(m, spec, inst.advice))


class Pass:
    """Timings of one pass over every instance.

    Outputs go into ``outputs``, one set of distinct strings per
    instance, so memory does not grow with the number of passes.
    """

    def __init__(self, np: dict, instances, outputs: list[set], tracer: Tracer | None = None):
        self.times: list[float] = []
        self.errors: list[str] = []
        start = time.perf_counter()
        for inst, seen in zip(instances, outputs):
            t0 = time.perf_counter()
            try:
                out = tracer.run_op(operation, np, inst) if tracer else operation(np, inst)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = None
                self.errors.append(f"{inst.name}: {type(exc).__name__}: {exc}")
            self.times.append(time.perf_counter() - t0)
            if out is not None:
                seen.add(out)
        self.seconds = time.perf_counter() - start


def set_up(workload: str, seed: int):
    """Import noplan, generate the inputs and warm up on small ones; timed."""
    t0 = time.perf_counter()
    np = import_noplan()
    instances = inputs.generate(workload, seed)
    warm = inputs.generate(workload, seed, small=True)
    Pass(np, warm, [set() for _ in warm])  # failures show in the timed passes
    return time.perf_counter() - t0, np, instances


def check(instances, outputs: list[set]) -> tuple[list[str], int]:
    """Checker violations over all distinct outputs, and the count of skipped landmark checks."""
    problems: list[str] = []
    unchecked = 0
    for inst, outs in zip(instances, outputs):
        if len(outs) > 1:
            problems.append(f"{inst.name}: output differs between passes")
        checker = Checker(inst)
        for out in outs:
            problems += [f"{inst.name}: {e}" for e in checker.check(json.loads(out))]
        unchecked += checker.unchecked
    return problems, unchecked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, np, instances = set_up(args.workload, args.seed)
        setups.append(seconds)
    print(f"{args.workload} seed {args.seed}: {len(instances)} instances, "
          f"sha256 {inputs.digest(instances)}")

    outputs: list[set] = [set() for _ in instances]
    passes: list[Pass] = []
    traced: list[Pass] = []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        passes.append(Pass(np, instances, outputs))
        if args.trace:
            tracer.install()
            try:
                traced.append(Pass(np, instances, outputs, tracer))
            finally:
                tracer.uninstall()
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems, unchecked = check(instances, outputs)
    errors = [e for p in passes + traced for e in p.errors]
    for line in sorted(set(errors)) + problems:
        print(line, file=sys.stderr)
    attempted = sum(len(p.times) for p in passes + traced)
    print(f"{attempted} explanations, {len(errors)} failed, {len(problems)} check "
          f"violations, {unchecked} landmark checks over compile bookkeeping skipped")

    untraced_s = statistics.median(t for p in passes for t in p.times)
    if args.trace:
        metrics = tracer.summary()
        metrics["trace.overhead_s"] = statistics.median(t for p in traced for t in p.times) - untraced_s
        tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json")
        units = dict(LAYER_METRICS)
    else:
        metrics = {
            "explain_s": untraced_s,
            "explains_per_s": sum(len(p.times) for p in passes) / sum(p.seconds for p in passes),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
        units = {"explain_s": "s", "explains_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
