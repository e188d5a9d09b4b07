"""Independent checker for noplan explanations.

Nothing here comes from noplan, nor from the generators in inputs.py,
so a mistake in either cannot hide in the checks: the checker reads the
PDDL subset the generators emit with its own reader, grounds it, projects by predicate
name, applies advice directly on the base task and decides solvability
by its own breadth-first search. It then checks the rendered
``--format json`` explanation against what it computed itself:

* the input is unsolvable (advice read directly: a never-use-action
  action is dropped, a never-holds atom's states are cut);
* the reported levels are exactly the solvable maximal lattice elements
  with the reported groups restored, in lattice order, and each such
  element is solvable while its level is not;
* every non-final failed subgoal, and every subgoal of its achieved
  prefix, is a landmark of its element: with its states cut, the goal
  is unreachable;
* without advice and with few groups, no group subset that is cheaper,
  counted as occurrences of the group's atoms, breaks every element;
* answers the generator knows by construction.

Formulas over the advice compilation's bookkeeping atoms (automaton
states, the accept flag) have no meaning on the base task; landmark
checks skip them and count them as ``unchecked``.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import deque
from dataclasses import dataclass

_TOKEN = re.compile(r"\(|\)|[^\s();]+")
BRUTE_FORCE_GROUPS = 4
MAX_STATES = 1_000_000  # a proof past this would take the checker minutes


# ---------------------------------------------------------------------------
# A grounded task over named atoms


@dataclass(frozen=True)
class Ground:
    """Grounded task. An action is (name, pos, neg, effects) and an effect
    (condition, adds, deletes); ``pred`` maps each atom to its predicate."""

    pred: dict
    actions: tuple
    init: frozenset
    goal_pos: frozenset
    goal_neg: frozenset

    def project(self, dropped_preds) -> "Ground":
        """Remove every atom of the dropped predicates from every component."""
        gone = frozenset(a for a, p in self.pred.items() if p in dropped_preds)
        if not gone:
            return self
        actions = tuple(
            (name, pos - gone, neg - gone,
             tuple((c - gone, a - gone, d - gone) for c, a, d in effects))
            for name, pos, neg, effects in self.actions
        )
        pred = {a: p for a, p in self.pred.items() if a not in gone}
        return Ground(pred, actions, self.init - gone, self.goal_pos - gone,
                      self.goal_neg - gone)

    def successors(self, state, banned=frozenset()):
        for name, pos, neg, effects in self.actions:
            if name in banned or not pos <= state or neg & state:
                continue
            adds: set = set()
            dels: set = set()
            for cond, a, d in effects:
                if cond <= state:
                    adds |= a
                    dels |= d
            yield (state - dels) | adds

    def goal_reachable(self, banned=frozenset(), cut=lambda state: False) -> bool:
        """Breadth-first reachability of the goal, never entering a cut state."""
        init = self.init
        if cut(init):
            return False
        seen = {init}
        queue = deque([init])
        goal_pos, goal_neg = self.goal_pos, self.goal_neg
        while queue:
            state = queue.popleft()
            if goal_pos <= state and not goal_neg & state:
                return True
            for succ in self.successors(state, banned):
                if succ not in seen:
                    seen.add(succ)
                    if not cut(succ):
                        queue.append(succ)
            if len(seen) > MAX_STATES:
                raise RuntimeError(f"the checker's search passed {MAX_STATES} states")
        return False


def _atom(pred: str, args) -> str:
    return pred if not args else pred + "_" + "_".join(args)


def ground_task(task) -> Ground:
    """A micro-corpus Task; every atom is its own zero-ary predicate."""
    actions = tuple((name, prec, frozenset(), effects) for name, prec, effects in task.actions)
    return Ground({a: a for a in task.atoms}, actions, task.init, task.goal, frozenset())


# ---------------------------------------------------------------------------
# PDDL subset: typed objects, positive and negative preconditions and
# goals, plain and (when ...) effects.


def _sexprs(text: str):
    tokens = []
    for line in text.lower().split("\n"):
        tokens += _TOKEN.findall(line.split(";", 1)[0])
    stack: list[list] = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ValueError("unbalanced parentheses")
    return stack[0]


def _section(form, key):
    for item in form:
        if isinstance(item, list) and item and item[0] == key:
            return item
    return None


def _typed(items):
    """[(name, type)] from a typed list such as (a b - t c)."""
    out, pending = [], []
    i = 0
    while i < len(items):
        if items[i] == "-":
            out += [(n, items[i + 1]) for n in pending]
            pending = []
            i += 2
        else:
            pending.append(items[i])
            i += 1
    return out + [(n, "object") for n in pending]


def _literals(form):
    """(positive atoms, negative atoms) of an (and ...) of literals; atoms are lists."""
    parts = form[1:] if form and form[0] == "and" else ([form] if form else [])
    pos, neg = [], []
    for lit in parts:
        if lit[0] == "not":
            neg.append(lit[1])
        else:
            pos.append(lit)
    return pos, neg


def _effects(form):
    """[(condition atoms, adds, deletes)], the unconditional part first."""
    parts = form[1:] if form and form[0] == "and" else [form]
    plain: list = []
    out = []
    for part in parts:
        if part[0] == "when":
            cond, cneg = _literals(part[1])
            if cneg:
                raise ValueError("negative effect conditions are not supported")
            adds, dels = _literals(part[2])
            out.append((cond, adds, dels))
        else:
            plain.append(part)
    adds, dels = _literals(["and"] + plain)
    return [([], adds, dels)] + out


def ground_pddl(domain_text: str, problem_text: str) -> Ground:
    """Ground every schema over its typed objects.

    Like the input language defines, an instantiation whose positive
    precondition names a false atom of a static predicate (one no
    action changes) is not part of the task; negative static
    preconditions never remove an instantiation.
    """
    domain = _sexprs(domain_text)[0]
    problem = _sexprs(problem_text)[0]
    parent: dict[str, str] = {}
    types = _section(domain, ":types")
    for name, sup in _typed(types[1:] if types else []):
        parent[name] = sup
    objects: dict[str, list[str]] = {}
    for obj, typ in _typed(_section(problem, ":objects")[1:]):
        t = typ
        while True:
            objects.setdefault(t, []).append(obj)
            if t == "object" or t not in parent:
                break
            t = parent[t]
    objects.setdefault("object", [])
    init_atoms = {tuple(a) for a in _section(problem, ":init")[1:]}
    goal_pos, goal_neg = _literals(_section(problem, ":goal")[1])

    schemas = []
    for item in domain:
        if isinstance(item, list) and item and item[0] == ":action":
            fields = dict(zip(item[2::2], item[3::2]))
            params = _typed(fields.get(":parameters", []))
            pos, neg = _literals(fields.get(":precondition", []))
            schemas.append((item[1], params, pos, neg, _effects(fields.get(":effect", []))))
    dynamic = {atom[0] for _, _, _, _, effs in schemas for _, adds, dels in effs
               for atom in adds + dels}

    pred: dict[str, str] = {}

    def name_of(atom, binding):
        args = tuple(binding.get(a, a) for a in atom[1:])
        key = _atom(atom[0], args)
        pred[key] = atom[0]
        return key, (atom[0],) + args

    actions = []
    for schema_name, params, pos, neg, effects in schemas:
        for combo in itertools.product(*(objects.get(t, []) for _, t in params)):
            binding = {var: obj for (var, _), obj in zip(params, combo)}
            pos_names = []
            pruned = False
            for atom in pos:
                key, full = name_of(atom, binding)
                if combo and atom[0] not in dynamic and full not in init_atoms:
                    pruned = True
                    break
                pos_names.append(key)
            if pruned:
                continue
            effs = tuple(
                (frozenset(name_of(a, binding)[0] for a in c),
                 frozenset(name_of(a, binding)[0] for a in ad),
                 frozenset(name_of(a, binding)[0] for a in de))
                for c, ad, de in effects
            )
            name = schema_name if not combo else schema_name + "_" + "_".join(combo)
            actions.append((name, frozenset(pos_names),
                            frozenset(name_of(a, binding)[0] for a in neg), effs))
    init = frozenset(name_of(list(a), {})[0] for a in init_atoms)
    return Ground(pred, tuple(actions), init,
                  frozenset(name_of(a, {})[0] for a in goal_pos),
                  frozenset(name_of(a, {})[0] for a in goal_neg))


# ---------------------------------------------------------------------------
# Checking explanations


def _cost(task, groups_atoms: frozenset) -> int:
    """Occurrences of the atoms: init, goal, precondition and effect literals."""
    seen = set()
    for f in task.init & groups_atoms:
        seen.add(("init", None, f))
    for f in task.goal & groups_atoms:
        seen.add(("goal", None, f))
    for name, prec, effects in task.actions:
        for f in prec & groups_atoms:
            seen.add(("pre", name, f))
        for cond, adds, dels in effects:
            seen.update(("cond", name, f) for f in cond & groups_atoms)
            seen.update(("add", name, f) for f in adds & groups_atoms)
            seen.update(("del", name, f) for f in dels & groups_atoms)
    return len(seen)


class Checker:
    """Checks explanations of one benchmark instance."""

    def __init__(self, inst):
        self.inst = inst
        spec = json.loads(inst.lattice)
        self.groups = {g["name"]: frozenset(g["predicates"]) for g in spec["groups"]}
        self.forbidden = [frozenset(f) for f in spec.get("forbidden", [])]
        self.base = ground_task(inst.task) if inst.task else ground_pddl(inst.domain, inst.problem)
        self.banned: set[str] = set()
        self.never: set[str] = set()
        for item in json.loads(inst.advice) if inst.advice else []:
            if item["template"] == "never-use-action":
                self.banned.add(item["action"])
            elif item["template"] == "never-holds":
                pred, *args = _sexprs(item["formula"])[0]
                self.never.add(_atom(pred, args))
            else:
                raise ValueError(f"the checker does not read advice {item['template']!r}")
        self._models: dict[frozenset, Ground] = {}
        self._solvable: dict[frozenset, bool] = {}
        self.unchecked = 0

    def model(self, projected: frozenset) -> Ground:
        if projected not in self._models:
            preds = frozenset().union(*(self.groups[g] for g in projected))
            self._models[projected] = self.base.project(preds)
        return self._models[projected]

    def _cut(self, m: Ground, extra=None):
        never = frozenset(self.never & m.pred.keys())
        if extra is None:
            return lambda s: bool(never & s)
        return lambda s: bool(never & s) or extra(s)

    def solvable(self, projected: frozenset) -> bool:
        if projected not in self._solvable:
            m = self.model(projected)
            self._solvable[projected] = m.goal_reachable(frozenset(self.banned), self._cut(m))
        return self._solvable[projected]

    def maximal(self) -> list[frozenset]:
        names = sorted(self.groups)
        allowed = [frozenset(c) for r in range(len(names) + 1)
                   for c in itertools.combinations(names, r)
                   if not any(f <= frozenset(c) for f in self.forbidden)]
        return sorted((p for p in allowed if not any(p < q for q in allowed)),
                      key=lambda p: tuple(sorted(p)))

    def _formula(self, m: Ground, disjuncts):
        """A state test for a DNF over canonical names, or None if not on the base task."""
        tests = []
        for d in disjuncts:
            pos, neg = set(), set()
            for name in d:
                if name in m.pred:
                    pos.add(name)
                elif name.startswith("not-") and name[4:] in m.pred:
                    neg.add(name[4:])
                else:
                    return None
            tests.append((frozenset(pos), frozenset(neg)))
        return lambda s: any(p <= s and not n & s for p, n in tests)

    def is_landmark(self, element: frozenset, disjuncts) -> bool | None:
        m = self.model(element)
        test = self._formula(m, disjuncts)
        if test is None:
            return None
        if any(frozenset(d) <= m.goal_pos for d in disjuncts):
            return True  # holds in every goal state, so at the end of every plan
        return not m.goal_reachable(frozenset(self.banned), self._cut(m, test))

    def check(self, out: dict) -> list[str]:
        """Violations found in one rendered explanation; empty when it passes."""
        errors: list[str] = []
        if self.solvable(frozenset()):
            return ["the checker finds the input solvable"]
        status = out["status"]
        if status == "solvable":
            return [f"reported solvable with plan {out['plan']}, the checker proves unsolvable"]
        maximal = self.maximal()
        members = [p for p in maximal if self.solvable(p)]
        levels = [out["failed"]] + list(out["secondary"])
        if status == "unsolvable-at-top":
            if members:
                errors.append(f"maximal element {sorted(members[0])} is solvable")
            if frozenset(out["failed"]["level"]["projected"]) != maximal[0]:
                errors.append("the failed subgoal is not reported at the top element")
            return errors
        if status != "explained":
            return [f"unknown status {status!r}"]
        if not members:
            return ["explained, but every maximal element is unsolvable"]
        groups = frozenset(out["explanatory"]["groups"])
        if not groups or not groups <= frozenset(self.groups):
            errors.append(f"bad explanatory groups {sorted(groups)}")
        if len(levels) != len(members):
            errors.append(f"{len(levels)} levels reported for {len(members)} solvable maximal elements")
        for member, failed in zip(members, levels):
            level = frozenset(failed["level"]["projected"])
            if level != member - groups:
                errors.append(f"level {sorted(level)} is not element {sorted(member)} "
                              f"with {sorted(groups)} restored")
                continue
            if self.solvable(level):
                errors.append(f"level {sorted(level)} is solvable")
            subgoals = list(failed["prefix"])
            if not failed["final_goal"]:
                subgoals.append(failed["formula"])
            for formula in subgoals:
                verdict = self.is_landmark(member, formula)
                if verdict is None:
                    self.unchecked += 1
                elif not verdict:
                    errors.append(f"{formula} is not a landmark of {sorted(member)}")
        if self.inst.task is not None and not self.inst.advice and len(self.groups) <= BRUTE_FORCE_GROUPS:
            errors += self._check_cheapest(members, groups, out["explanatory"]["cost"])
        expect = self.inst.expect or {}
        if "groups" in expect and sorted(groups) != expect["groups"]:
            errors.append(f"groups {sorted(groups)}, expected {expect['groups']}")
        if "failed" in expect and out["failed"]["formula"] != [[expect["failed"]]]:
            errors.append(f"failed subgoal {out['failed']['formula']}, expected {expect['failed']}")
        return errors

    def _check_cheapest(self, members, groups, reported_cost) -> list[str]:
        def cost(names):
            atoms = frozenset(a for a, p in self.base.pred.items()
                              if any(p in self.groups[g] for g in names))
            return _cost(self.inst.task, atoms)

        errors = []
        own = cost(groups)
        if own != reported_cost:
            errors.append(f"cost {reported_cost} reported, {own} counted")
        universe = sorted(frozenset().union(*members))
        for r in range(1, len(universe) + 1):
            for combo in itertools.combinations(universe, r):
                subset = frozenset(combo)
                if cost(subset) < own and all(not self.solvable(m - subset) for m in members):
                    errors.append(f"cheaper group set {sorted(subset)} also explains")
        return errors
