#!/usr/bin/env python3
"""One sha256 over the rendered explanations of a fixed input set.

    python3 scripts/output_digest.py

A refactor that must not change behaviour prints the same digest before
and after. The inputs are the bundled instances, each run through
``noplan explain`` with no advice and with each of its advice files,
under ``--exemplar`` auto, always and never, in ``--format`` json and
human; and 300 instances of ``unsolvable_corpus(20240, 300)`` from
``tests/random_models.py``, the seeded corpus generator of the test
suite, explained through the library and rendered both ways. The exit
code and standard error of every CLI run, and the type and message of
any exception, are part of the digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from noplan.abstraction import LatticeSpec  # noqa: E402
from noplan.cli import main as cli_main  # noqa: E402
from noplan.errors import NoplanError  # noqa: E402
from noplan.explain import explain, machine_json, render  # noqa: E402
from tests.random_models import unsolvable_corpus  # noqa: E402

INSTANCES = ROOT / "instances"
EXEMPLARS = ("auto", "always", "never")
FORMATS = ("json", "human")
CORPUS_SEED = 20240
CORPUS_SIZE = 300


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except NoplanError as exc:
            code = f"{type(exc).__name__}: {exc}"
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def bundled_outputs():
    """(label, text) for every CLI run over the bundled instances."""
    for base in sorted(p for p in INSTANCES.iterdir() if p.is_dir()):
        advice_files = [None] + sorted(p.name for p in base.glob("*.json")
                                       if p.name != "lattice.json")
        for advice in advice_files:
            for exemplar in EXEMPLARS:
                for fmt in FORMATS:
                    argv = ["explain",
                            "--domain", str(base / "domain.pddl"),
                            "--problem", str(base / "problem.pddl"),
                            "--lattice", str(base / "lattice.json"),
                            "--exemplar", exemplar, "--format", fmt]
                    if advice is not None:
                        argv += ["--advice", str(base / advice)]
                    label = f"{base.name} advice={advice} exemplar={exemplar} {fmt}"
                    yield label, _cli(argv)


def corpus_outputs():
    """(label, text) for each instance of the seeded unsolvable corpus."""
    corpus = unsolvable_corpus(CORPUS_SEED, CORPUS_SIZE)
    for i, (m, groups, advice) in enumerate(corpus):
        spec = LatticeSpec(tuple(
            (g.name, tuple(sorted({m.table.fluent(f).name for f in g.members})))
            for g in groups
        ))
        try:
            e = explain(m, spec, advice)
            text = machine_json(e) + "\n" + render(e, "human")
        except NoplanError as exc:
            text = f"{type(exc).__name__}: {exc}"
        yield f"corpus-{i}", text


def main() -> int:
    total = hashlib.sha256()
    count = 0
    for outputs in (bundled_outputs(), corpus_outputs()):
        for label, text in outputs:
            total.update(f"{label}\n{text}\n".encode())
            count += 1
    print(f"{total.hexdigest()}  ({count} inputs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
