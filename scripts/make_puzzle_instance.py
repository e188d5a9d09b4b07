#!/usr/bin/env python3
"""Write an unsolvable sliding-tile puzzle instance.

    python3 scripts/make_puzzle_instance.py ROWS COLS SEED OUT_DIR

The goal puts tile i on cell i in row-major order, with the blank on
the last cell; the initial state swaps two tiles picked by SEED. A swap
is an odd permutation, so no sequence of slides reaches the goal. The
lattice lists the groups blank and adjacency.
"""

import json
import random
import sys
from pathlib import Path

DOMAIN = """\
(define (domain sliding-tile)
  (:requirements :strips :typing)
  (:types tile cell)
  (:predicates (at ?t - tile ?c - cell) (blank ?c - cell) (adj ?a - cell ?b - cell))
  (:action slide
    :parameters (?t - tile ?from - cell ?to - cell)
    :precondition (and (at ?t ?from) (blank ?to) (adj ?from ?to))
    :effect (and (at ?t ?to) (blank ?from) (not (at ?t ?from)) (not (blank ?to)))))
"""

LATTICE = {"groups": [{"name": "blank", "predicates": ["blank"]},
                      {"name": "adjacency", "predicates": ["adj"]}]}


def problem_text(rows: int, cols: int, seed: int) -> str:
    cells = [f"c{r}-{c}" for r in range(rows) for c in range(cols)]
    tiles = [f"t{i}" for i in range(1, len(cells))]
    start = list(tiles)
    i, j = random.Random(seed).sample(range(len(tiles)), 2)
    start[i], start[j] = start[j], start[i]
    init = [f"(at {t} {c})" for t, c in zip(start, cells)] + [f"(blank {cells[-1]})"]
    for r in range(rows):
        for c in range(cols):
            for nr, nc in ((r, c + 1), (r + 1, c)):
                if nr < rows and nc < cols:
                    init += [f"(adj c{r}-{c} c{nr}-{nc})", f"(adj c{nr}-{nc} c{r}-{c})"]
    goal = " ".join(f"(at {t} {c})" for t, c in zip(tiles, cells))
    return (f"(define (problem puzzle-{rows}x{cols}-{seed}) (:domain sliding-tile)\n"
            f"  (:objects {' '.join(tiles)} - tile {' '.join(cells)} - cell)\n"
            f"  (:init {' '.join(init)})\n  (:goal (and {goal})))\n")


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print("usage: make_puzzle_instance.py ROWS COLS SEED OUT_DIR", file=sys.stderr)
        return 2
    rows, cols, seed, out = int(argv[0]), int(argv[1]), int(argv[2]), Path(argv[3])
    out.mkdir(parents=True, exist_ok=True)
    (out / "domain.pddl").write_text(DOMAIN)
    (out / "problem.pddl").write_text(problem_text(rows, cols, seed))
    (out / "lattice.json").write_text(json.dumps(LATTICE, indent=2) + "\n")
    print(f"wrote {out}/domain.pddl, problem.pddl, lattice.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
