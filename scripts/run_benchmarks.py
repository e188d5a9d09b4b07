#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and write BENCH_<label>.json.

    python3 scripts/run_benchmarks.py --label main --workloads lattice-wide \\
        --seeds 101-110 [--trace 0|1] [--baseline DIR --baseline-label NAME]

Each run is one ``perfbench/run.py`` process of this repository,
started in its root, for the benchmark's ``run_seconds``; its last
output line is the run's result. The file records every run and, per
workload, the median and quartiles of each end-to-end metric that
``BENCHMARK.json`` declares, or of each per-layer metric with
``--trace 1``.

With ``--baseline`` (another checkout, such as the parent commit),
every seed is run on both checkouts, alternating which goes first,
and ``BENCH_<baseline-label>.json`` is written too. The file of
``--label`` then counts, per metric, the pairs in which it was better
than the baseline's run on the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench/run.py process; its result line plus the seed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method, so a single run is its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], trace: int) -> dict:
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    rows = {m["name"]: {"unit": m["unit"], "better": m["better"],
                        **spread([r["metrics"][m["name"]] for r in runs])}
            for m in declared}
    return {
        "seeds": [r["seed"] for r in runs],
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "per_layer" if trace else "end_to_end": rows,
        "runs": runs,
    }


def pairs_better(runs: list[dict], base_runs: list[dict], trace: int) -> dict:
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    out = {}
    for m in declared:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        out[name] = sum(sign * (r["metrics"][name] - b["metrics"][name]) > 0
                        for r, b in zip(runs, base_runs))
    return out


def write(path: Path, label: str, args, workloads: dict) -> None:
    doc = {
        "label": label,
        "seconds": SPEC["run_seconds"],
        "trace": args.trace,
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "workloads": workloads,
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1-10 or 3,5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path, default=None, help="checkout to compare against")
    parser.add_argument("--baseline-label", default="baseline")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the BENCH files")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}")

    ours: dict = {}
    theirs: dict = {}
    for workload in workloads:
        runs, base_runs = [], []
        for i, seed in enumerate(args.seeds):
            sides = [(ROOT, runs)]
            if args.baseline is not None:
                sides.append((args.baseline, base_runs))
                if i % 2 == 0:
                    sides.reverse()
            for checkout, into in sides:
                into.append(run_once(checkout, workload, seed, args.trace))
            print(f"{workload} seed {seed} done", file=sys.stderr)
        ours[workload] = summarize(runs, args.trace)
        if args.baseline is not None:
            theirs[workload] = summarize(base_runs, args.trace)
            ours[workload]["against"] = {"label": args.baseline_label,
                                         "pairs": len(runs),
                                         "pairs_better": pairs_better(runs, base_runs, args.trace)}
    write(args.out / f"BENCH_{args.label}.json", args.label, args, ours)
    if args.baseline is not None:
        write(args.out / f"BENCH_{args.baseline_label}.json", args.baseline_label, args, theirs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
