#!/usr/bin/env python3
"""Time two checkouts of noplan in one process, alternating whole passes.

    python3 scripts/interleave_passes.py --baseline DIR --workload lattice-wide \\
        --seed 7 [--rounds 30] [--change DIR]

Both sides run the same workload and seed of this repository's
``perfbench``: each is imported through ``perfbench/run.py``'s
``import_noplan`` (from ``DIR/src``) and set up and warmed by its
``set_up``, and each round times one pass of every instance per side,
the side that goes first alternating from round to round. The script
prints each side's median and quartiles of the per-operation time of a
pass (pass seconds over instances) and the rounds each side won, and
exits 1 when an instance's outputs differ between the two sides or
between passes, or when an operation fails.

Separate benchmark processes drift apart by 20-25% on a shared machine,
while both sides of one process share its drift, so this is a sizing
aid for a change before it is benchmarked. A performance claim still
comes from paired runs of ``scripts/run_benchmarks.py``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py, imported as it stands)


def load(checkout: Path, workload: str, seed: int):
    """The checkout's noplan modules and the workload's instances, warmed up."""
    src = str(checkout.resolve() / "src")
    sys.path.insert(0, src)
    try:
        _, np, instances = run.set_up(workload, seed)
    finally:
        sys.path.remove(src)
    if Path(np["explain"].__file__).resolve().parent.parent != Path(src):
        raise SystemExit(f"noplan was not imported from {src}")
    return np, instances


def spread(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {median * 1e3:.3f} ms (quartiles {q1 * 1e3:.3f}-{q3 * 1e3:.3f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="checkout measured (default: this one)")
    parser.add_argument("--workload", required=True, choices=run.inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")

    sides = {}
    for label, checkout in (("baseline", args.baseline), ("change", args.change)):
        np, instances = load(checkout, args.workload, args.seed)
        sides[label] = (np, instances, [set() for _ in instances])
    times: dict[str, list[float]] = {label: [] for label in sides}
    errors: list[str] = []
    for i in range(args.rounds):
        order = ["baseline", "change"] if i % 2 == 0 else ["change", "baseline"]
        for label in order:
            np, instances, outputs = sides[label]
            p = run.Pass(np, instances, outputs)
            times[label].append(p.seconds / len(instances))
            errors += [f"{label}: {e}" for e in p.errors]

    won = sum(c < b for b, c in zip(times["baseline"], times["change"]))
    lost = sum(c > b for b, c in zip(times["baseline"], times["change"]))
    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds")
    for label in sides:
        print(f"  {label:8} {spread(times[label])}")
    print(f"  change faster in {won} of {args.rounds} rounds, slower in {lost}")

    _, instances, base_out = sides["baseline"]
    differ = [inst.name for inst, b, c in zip(instances, base_out, sides["change"][2])
              if len(b) != 1 or b != c]
    for line in sorted(set(errors)) + [f"{name}: outputs differ" for name in differ]:
        print(line, file=sys.stderr)
    return 1 if errors or differ else 0


if __name__ == "__main__":
    sys.exit(main())
