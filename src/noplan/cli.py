"""Command line front end.

Exit codes: 0 when an explanation (or requested output) was produced,
1 when the problem turned out to be solvable so there is nothing to
explain, 2 on input errors, 3 when a search budget was exhausted, 4
when an explanation failed its own self-check.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .abstraction import build_lattice, load_lattice_spec, resolve_groups
from .advice import compose, parse_advice, strip_meta
from .errors import InputError, PipelineError, ResourceExhaustedError
from .explain import (
    EXEMPLAR_AUTO,
    STATUS_SOLVABLE,
    explain,
    machine_json,
    render,
)
from .landmarks import extract_landmarks, graph_to_json
from .pddl import ground, parse_model, write_domain, write_problem
from .search import SearchLimits, decide_solvable, decided

EXIT_OK = 0
EXIT_SOLVABLE = 1
EXIT_INPUT = 2
EXIT_EXHAUSTED = 3
EXIT_SELF_CHECK = 4


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_model(args):
    lifted = parse_model(_read(args.domain), _read(args.problem))
    return ground(lifted)


def _limits(args) -> SearchLimits:
    nodes = getattr(args, "node_budget", None)
    seconds = getattr(args, "time_budget", None)
    return SearchLimits(
        max_nodes=SearchLimits.max_nodes if nodes is None else nodes,
        max_seconds=SearchLimits.max_seconds if seconds is None else seconds,
    )


def cmd_explain(args) -> int:
    m = _load_model(args)
    spec = load_lattice_spec(_read(args.lattice))
    advice_text = _read(args.advice) if args.advice else None
    result = explain(
        m,
        spec,
        advice_text,
        limits=_limits(args),
        exemplar=args.exemplar,
        dump_dir=args.dump_compiled,
    )
    if args.format == "json":
        print(machine_json(result))
    else:
        print(render(result, "human"))
    return EXIT_SOLVABLE if result.status == STATUS_SOLVABLE else EXIT_OK


def cmd_check(args) -> int:
    m = _load_model(args)
    cm = compose(m, parse_advice(_read(args.advice), m)) if args.advice else None
    result = decided(decide_solvable(cm.compiled if cm else m, _limits(args)),
                     "solvability of the concrete model")
    if result.solvable:
        plan = strip_meta(cm, result.plan) if cm else result.plan
        steps = ", ".join(plan) if plan else "(empty plan)"
        print(f"solvable: {steps}")
    else:
        print("unsolvable")
    return EXIT_OK


def cmd_landmarks(args) -> int:
    m = _load_model(args)
    result = decided(decide_solvable(m, _limits(args)),
                     "solvability check before landmark extraction")
    if not result.solvable:
        print("the problem is unsolvable; landmarks are extracted from solvable models",
              file=sys.stderr)
        return EXIT_SOLVABLE
    print(json.dumps(graph_to_json(m, extract_landmarks(m)), indent=2))
    return EXIT_OK


def cmd_lattice(args) -> int:
    m = _load_model(args)
    spec = load_lattice_spec(_read(args.lattice))
    lat = build_lattice(m, resolve_groups(m, spec), spec.forbidden, _limits(args))
    print(f"{'projected':<40} {'fluents':>8} {'solvable':>10}")
    for projected in lat.all_projected_sets():
        node = lat.node(projected)
        result = decided(lat.solvability(node), f"lattice table at node {sorted(projected)}")
        label = "{" + ", ".join(sorted(projected)) + "}"
        fluents = len(lat.root.fluents) - len(node.gone)
        print(f"{label:<40} {fluents:>8} {result.status:>10}")
    return EXIT_OK


def cmd_compile_advice(args) -> int:
    m = _load_model(args)
    cm = compose(m, parse_advice(_read(args.advice), m))
    text = (
        write_domain(cm.compiled, "constrained")
        + "\n\n"
        + write_problem(cm.compiled, "constrained", "constrained")
        + "\n"
    )
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote constrained model to {args.out}")
    return EXIT_OK


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domain", required=True, help="domain file")
    p.add_argument("--problem", required=True, help="problem file")


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--node-budget", type=int, default=None,
                   help="max expanded nodes per solvability check")
    p.add_argument("--time-budget", type=float, default=None,
                   help="max seconds per solvability check")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noplan",
        description="Explain why a planning problem (optionally under advice) has no solution.",
    )
    parser.add_argument("--version", action="version", version=f"noplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explain", help="produce an unsolvability explanation")
    _add_model_args(p)
    p.add_argument("--lattice", required=True, help="lattice spec (JSON)")
    p.add_argument("--advice", default=None, help="advice file (JSON)")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.add_argument("--exemplar", choices=("auto", "always", "never"), default=EXEMPLAR_AUTO)
    p.add_argument("--dump-compiled", default=None, metavar="DIR",
                   help="dump compiled models into DIR")
    _add_budget_args(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("check", help="decide solvability and print a plan")
    _add_model_args(p)
    p.add_argument("--advice", default=None)
    _add_budget_args(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("landmarks", help="dump the landmark graph")
    _add_model_args(p)
    _add_budget_args(p)
    p.set_defaults(func=cmd_landmarks)

    p = sub.add_parser("lattice", help="print the lattice node table")
    _add_model_args(p)
    p.add_argument("--lattice", required=True)
    _add_budget_args(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("compile-advice", help="emit the advice-constrained model")
    _add_model_args(p)
    p.add_argument("--advice", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compile_advice)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceExhaustedError as exc:
        print(f"gave up: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except PipelineError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return EXIT_SELF_CHECK


if __name__ == "__main__":
    sys.exit(main())
