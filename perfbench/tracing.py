"""Per-layer spans for the traced benchmark run, recorded from outside noplan.

``Tracer.install`` replaces the public functions named in ``SPANS`` by
wrappers, in every ``noplan`` module that holds a reference to them, so
calls between modules go through the wrappers too. Each call records a
span (name, parent, start, end) in memory; ``Tracer.write`` saves them
when the run ends. ``Tracer.uninstall`` puts the originals back.

A layer's time is the self time of its spans: a span's duration minus
the durations of its direct children. Self times of all spans add up
to the duration of the root spans, one per benchmark operation.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" patches a method.
SPANS = (
    ("noplan.pddl", "parse_model", "pddl.parse"),
    ("noplan.pddl", "ground", "pddl.ground"),
    ("noplan.advice", "parse_advice", "advice.compose"),
    ("noplan.advice", "compose", "advice.compose"),
    ("noplan.search", "decide_solvable", "search"),
    ("noplan.abstraction", "load_lattice_spec", "abstraction.lattice"),
    ("noplan.abstraction", "resolve_groups", "abstraction.lattice"),
    ("noplan.abstraction", "build_lattice", "abstraction.lattice"),
    ("noplan.abstraction", "minimum_abstraction_set", "abstraction.lattice"),
    ("noplan.abstraction", "concretize", "abstraction.lattice"),
    ("noplan.abstraction", "AbstractionLattice.solvability", "abstraction.lattice"),
    ("noplan.abstraction", "find_explanatory_fluents", "abstraction.explanatory"),
    ("noplan.landmarks", "extract_landmarks", "landmarks.extract"),
    ("noplan.landmarks", "linearize", "landmarks.extract"),
    ("noplan.achievability", "compile_achievability", "achievability.compile"),
    ("noplan.achievability", "final_goal_landmark", "achievability.compile"),
    ("noplan.achievability", "first_unachievable", "achievability.scan"),
    ("noplan.explain", "explain", "explain"),
    ("noplan.explain", "exemplar_failure", "explain"),
    ("noplan.explain", "machine_json", "explain.render"),
)

ROOT = "op"

# span name -> metric that receives its self time; search spans go to
# search.<stage>_s by the stage that called them
SELF_METRIC = {
    ROOT: "harness.self_s",
    "pddl.parse": "pddl.parse_s",
    "pddl.ground": "pddl.ground_s",
    "advice.compose": "advice.compose_s",
    "abstraction.lattice": "abstraction.lattice_s",
    "abstraction.explanatory": "abstraction.explanatory_s",
    "landmarks.extract": "landmarks.extract_s",
    "achievability.compile": "achievability.compile_s",
    "achievability.scan": "achievability.scan_s",
    "explain": "explain.self_s",
    "explain.render": "explain.render_s",
}
STAGES = ("root", "lattice", "scan", "verify")
COUNTS = ("pddl.actions", "advice.compiled_actions", "search.calls", "search.generated",
          "abstraction.node_decisions", "abstraction.node_searches", "landmarks.count",
          "achievability.compiled_effects", "achievability.scan_steps")

# every per-layer metric of a traced run, with its unit
LAYER_METRICS = (
    [(m, "s") for m in sorted(set(SELF_METRIC.values()))]
    + [(f"search.{s}_s", "s") for s in STAGES]
    + [("search.s", "s"), ("search.generated_per_s", "1/s"),
       ("trace.total_s", "s"), ("trace.overhead_s", "s")]
    + [(c, "count") for c in COUNTS]
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end, stage]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.ops = 0
        self._scanned = False
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, stage: str | None = None) -> list:
        rec = [name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0, stage]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self.stack.pop()

    def _parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def run_op(self, fn, *args):
        """fn(*args) as one benchmark operation under a root span."""
        self.ops += 1
        self._scanned = False
        rec = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(rec)

    def _stage(self) -> str:
        parent = self._parent_name()
        if parent == "abstraction.lattice":
            return "lattice"
        if parent == "achievability.scan":
            return "scan"
        return "verify" if self._scanned else "root"

    def _before(self, attr: str, args) -> str | None:
        if attr == "decide_solvable":
            self.counts["search.calls"] += 1
            return self._stage()
        if attr == "AbstractionLattice.solvability":
            self.counts["abstraction.node_decisions"] += 1
            if args[1].solvable is None:
                self.counts["abstraction.node_searches"] += 1
        elif attr == "first_unachievable":
            self._scanned = True
        elif attr == "compile_achievability" and self._parent_name() == "achievability.scan":
            self.counts["achievability.scan_steps"] += 1
        return None

    def _after(self, attr: str, result) -> None:
        if attr == "ground":
            self.counts["pddl.actions"] += len(result.actions)
        elif attr == "compose":
            self.counts["advice.compiled_actions"] += len(result.compiled.actions)
        elif attr == "extract_landmarks":
            self.counts["landmarks.count"] += len(result.landmarks)
        elif attr == "compile_achievability":
            self.counts["achievability.compiled_effects"] += sum(len(a.effects) for a in result.actions)

    def _wrap(self, attr: str, name: str, fn):
        def traced(*args, **kwargs):
            stage = self._before(attr, args)
            rec = self._open(name, stage)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            self._after(attr, result)
            return result

        return traced

    def _count_generated(self, fn):
        counts = self.counts

        def counted(state, action):
            counts["search.generated"] += 1
            return fn(state, action)

        return counted

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Route the calls named in SPANS, and successor generation, through the tracer."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "noplan" or n.startswith("noplan."))]
        for modname, attr, name in SPANS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self._wrap(attr, name, vars(cls)[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(attr, name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        search = sys.modules["noplan.search"]
        self._set(search, "apply_action", self._count_generated(search.apply_action))

    def _set(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-operation means of every per-layer metric except trace.overhead_s."""
        own = [rec[3] - rec[2] for rec in self.spans]
        for rec in self.spans:
            if rec[1] >= 0:
                own[rec[1]] -= rec[3] - rec[2]
        totals: dict[str, float] = defaultdict(float)
        for rec, self_time in zip(self.spans, own):
            metric = f"search.{rec[4]}_s" if rec[0] == "search" else SELF_METRIC[rec[0]]
            totals[metric] += self_time
        total = sum(rec[3] - rec[2] for rec in self.spans if rec[1] < 0)
        accounted = sum(totals.values())
        if abs(accounted - total) > 1e-6 * max(1.0, total):
            raise RuntimeError(f"self times add up to {accounted}, traced total is {total}")
        search_s = sum(totals[f"search.{s}_s"] for s in STAGES)
        n = max(1, self.ops)
        out = {m: totals[m] / n for m in {*SELF_METRIC.values(), *(f"search.{s}_s" for s in STAGES)}}
        out.update({c: self.counts[c] / n for c in COUNTS})
        out["search.s"] = search_s / n
        out["trace.total_s"] = total / n
        out["search.generated_per_s"] = self.counts["search.generated"] / search_s if search_s else 0.0
        return out

    def write(self, path) -> None:
        """Save every span: [name, parent index, start, end, search stage]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "stage"],
                       "spans": self.spans}, fh, separators=(",", ":"))
