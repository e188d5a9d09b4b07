"""Parser, grounder and printer for the s-expression planning input.

The accepted subset: :strips, :typing, :negative-preconditions and
:conditional-effects, one domain text plus one problem text. Negative
preconditions (and negative goals) are compiled away during grounding
via complement fluents (not-p) that are maintained in the initial state
and in every effect touching p, so everything downstream is positive.
An action that deletes p in one effect and may add it back in another
leaves not-p undetermined and is rejected with a PddlError.

The reader makes one pass per line (lines end at \\r\\n, \\r or \\n) and
builds a Tok only for a name. Grounding binds schema parameters one at a
time by a join over the initial state: a parameter tested by a positive
precondition on a static predicate (one that appears in no schema
effect) takes its candidates from an index of that predicate's initial
facts, keyed by the values bound before it, so only surviving actions
are instantiated. Each schema atom is compiled once into an itemgetter
of its argument slots, and numbered for all bindings in one C-level
pass; one sort of the distinct atoms then gives the final ids, so
exactly the fluents that occur in the surviving model are interned, in
sorted order. Negated occurrences of static predicates are kept: an
action permanently blocked by such a fluent is still part of the model
and of anything derived from it.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import PddlError
from .model import Action, Effect, FluentTable, PlanningModel, maintain_complements
from .nogc import nogc
from .search import relaxed_reachable

_TOKEN_RE = re.compile(r"\(|\)|[^\s();]+")
_LINE_RE = re.compile(r"\r\n?|\n")
_new_tok = tuple.__new__  # a Tok from (text, line, col), without Tok.__new__'s Python call

REQUIREMENTS = {":strips", ":typing", ":negative-preconditions", ":conditional-effects"}

# the deepest nesting of parentheses the reader accepts
MAX_DEPTH = 100


class Tok(NamedTuple):
    text: str
    line: int
    col: int


def _read_sexprs(text: str):
    """Parse every top-level s-expression in text into nested lists of Tok;
    a ';' comments out the rest of its line."""
    items = forms = []  # items: the list the next item goes into
    stack: list[tuple[list, int, int]] = []  # (enclosing list, line, col) per open '('
    for ln, line in enumerate(_LINE_RE.split(text), start=1):
        if ";" in line:
            line = line[:line.index(";")]
        for match in _TOKEN_RE.finditer(line):
            tok = match[0]
            if tok == "(":
                if len(stack) == MAX_DEPTH:
                    raise PddlError(f"parentheses nested deeper than {MAX_DEPTH}",
                                    ln, match.start() + 1)
                stack.append((items, ln, match.start() + 1))
                items.append(inner := [])
                items = inner
            elif tok == ")":
                if not stack:
                    raise PddlError("unexpected ')'", ln, match.start() + 1)
                items = stack.pop()[0]
            else:
                items.append(_new_tok(Tok, (tok, ln, match.start() + 1)))
    if stack:
        raise PddlError("unbalanced parenthesis", *stack[-1][1:])
    return forms


def _head(form) -> str:
    if not isinstance(form, list) or not form or not isinstance(form[0], Tok):
        raise PddlError("expected a parenthesized form")
    return form[0].text.lower()


def _err(tok: Tok, message: str) -> PddlError:
    return PddlError(message, tok.line, tok.col)


def _name(item, what: str) -> Tok:
    """item as a name token; a parenthesized form in its place is a PddlError."""
    if isinstance(item, Tok):
        return item
    inner = item
    while isinstance(inner, list) and inner:
        inner = inner[0]
    message = f"expected a name in {what}, found a parenthesized form"
    if isinstance(inner, Tok):
        raise _err(inner, message)
    raise PddlError(message)


# ---------------------------------------------------------------------------
# Lifted representation


@dataclass(frozen=True)
class LiftedAtom:
    pred: str
    args: tuple[str, ...]  # variables (?x) or object names


@dataclass(frozen=True)
class SchemaEffect:
    condition: tuple[LiftedAtom, ...]
    adds: tuple[LiftedAtom, ...]
    dels: tuple[LiftedAtom, ...]


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[tuple[str, str], ...]  # (variable, type)
    pos_pre: tuple[LiftedAtom, ...]
    neg_pre: tuple[LiftedAtom, ...]
    effects: tuple[SchemaEffect, ...]


@dataclass(frozen=True)
class LiftedModel:
    """Loss-free capture of a parsed domain/problem pair."""

    domain_name: str
    problem_name: str
    types: dict[str, str]  # type -> parent ("object" is the root)
    predicates: dict[str, tuple[str, ...]]  # name -> parameter types
    objects: dict[str, str]  # name -> type (constants included)
    schemas: tuple[ActionSchema, ...]
    init: tuple[LiftedAtom, ...]
    goal_pos: tuple[LiftedAtom, ...]
    goal_neg: tuple[LiftedAtom, ...]

    def subtypes(self, t: str) -> set[str]:
        out = {t}
        while grown := {child for child, parent in self.types.items() if parent in out} - out:
            out |= grown
        return out

    def objects_of(self, t: str) -> list[str]:
        ok = self.subtypes(t)
        return sorted(name for name, ot in self.objects.items() if ot in ok)


def _parse_typed_list(items, *, what: str) -> list[tuple[str, str]]:
    """Parse `a b - t c - t2 d` into [(name, type)], default type object."""
    out: list[tuple[str, str]] = []
    pending: list[Tok] = []
    rest = iter(items)
    for tok in rest:
        if not isinstance(tok, Tok):
            raise PddlError(f"malformed {what} list")
        if tok.text != "-":
            pending.append(tok)
            continue
        typ = next(rest, None)
        if not isinstance(typ, Tok):
            raise _err(tok, f"missing type after '-' in {what} list")
        out += [(p.text.lower(), typ.text.lower()) for p in pending]
        pending = []
    return out + [(p.text.lower(), "object") for p in pending]


def _parse_atom(form, predicates, *, allow_vars: bool) -> LiftedAtom:
    if not isinstance(form, list) or not form or not isinstance(form[0], Tok):
        raise PddlError("expected an atom")
    head = form[0]
    name = head.text.lower()
    if name not in predicates:
        raise _err(head, f"undeclared predicate {name}")
    args = []
    for a in form[1:]:
        if not isinstance(a, Tok):
            raise _err(head, f"malformed argument in atom {name}")
        if a.text.startswith("?") and not allow_vars:
            raise _err(a, f"variable {a.text} not allowed here")
        args.append(a.text.lower())
    if len(args) != len(predicates[name]):
        raise _err(head, f"arity mismatch for predicate {name}: "
                         f"expected {len(predicates[name])}, got {len(args)}")
    return LiftedAtom(name, tuple(args))


def _parse_literals(form, predicates, *, allow_vars: bool, allow_neg: bool, what: str):
    """Flatten atom | (not atom) | (and ...) into (positives, negatives)."""
    pos: list[LiftedAtom] = []
    neg: list[LiftedAtom] = []
    todo = [form]
    while todo:
        f = todo.pop()
        if isinstance(f, Tok):
            raise _err(f, f"expected a parenthesized {what}")
        if not f:
            continue  # (and) and () are empty conjunctions
        head = _name(f[0], what)
        kw = head.text.lower()
        if kw == "and":
            todo.extend(reversed(f[1:]))
        elif kw == "not":
            if not allow_neg:
                raise _err(head, f"negation not allowed in {what}")
            if len(f) != 2:
                raise _err(head, "(not ...) takes exactly one atom")
            neg.append(_parse_atom(f[1], predicates, allow_vars=allow_vars))
        elif kw in ("or", "imply", "forall", "exists", "when"):
            raise _err(head, f"unsupported construct {kw} in {what}")
        else:
            pos.append(_parse_atom(f, predicates, allow_vars=allow_vars))
    return tuple(pos), tuple(neg)


def _parse_effect(form, predicates) -> list[SchemaEffect]:
    """Parse an effect into conditional-effect clauses.

    Top-level literals are gathered into one clause with an empty
    condition; each (when cond eff) becomes its own clause.
    """
    plain_adds: list[LiftedAtom] = []
    plain_dels: list[LiftedAtom] = []
    conditional: list[tuple] = []
    # (form, adds, dels, top), popped in the order of the text
    todo = [(form, plain_adds, plain_dels, True)]
    while todo:
        f, adds, dels, top = todo.pop()
        if isinstance(f, Tok):
            raise _err(f, "expected a parenthesized effect")
        if not f:
            continue
        head = _name(f[0], "effect")
        kw = head.text.lower()
        if kw == "and":
            todo.extend((sub, adds, dels, top) for sub in reversed(f[1:]))
        elif kw == "not":
            if len(f) != 2:
                raise _err(head, "(not ...) takes exactly one atom")
            dels.append(_parse_atom(f[1], predicates, allow_vars=True))
        elif kw == "when":
            if not top:
                raise _err(head, "nested (when ...) is not supported")
            if len(f) != 3:
                raise _err(head, "(when ...) takes a condition and an effect")
            cond, _ = _parse_literals(
                f[1], predicates, allow_vars=True, allow_neg=False, what="effect condition"
            )
            when_adds: list[LiftedAtom] = []
            when_dels: list[LiftedAtom] = []
            conditional.append((cond, when_adds, when_dels))
            todo.append((f[2], when_adds, when_dels, False))
        else:
            adds.append(_parse_atom(f, predicates, allow_vars=True))

    effects = []
    if plain_adds or plain_dels or not conditional:
        effects.append(SchemaEffect((), tuple(plain_adds), tuple(plain_dels)))
    effects.extend(SchemaEffect(cond, tuple(adds), tuple(dels))
                   for cond, adds, dels in conditional)
    return effects


def _find_form(forms, kind: str):
    for form in forms:
        if isinstance(form, list) and form and isinstance(form[0], Tok):
            if form[0].text.lower() == "define":
                for sub in form[1:]:
                    if (isinstance(sub, list) and sub and isinstance(sub[0], Tok)
                            and sub[0].text.lower() == kind):
                        return form
    return None


@nogc
def parse_model(domain_text: str, problem_text: str) -> LiftedModel:
    """Parse a domain and a problem text into one lifted model.

    Either text may contain several top-level forms (e.g. a file holding
    both the domain and the problem); the right (define ...) is picked.
    """
    domain_form = _find_form(_read_sexprs(domain_text), "domain")
    if domain_form is None:
        raise PddlError("no (define (domain ...)) form found in domain text")
    problem_form = _find_form(_read_sexprs(problem_text), "problem")
    if problem_form is None:
        raise PddlError("no (define (problem ...)) form found in problem text")

    domain_name = ""
    types: dict[str, str] = {"object": "object"}
    predicates: dict[str, tuple[str, ...]] = {}
    constants: dict[str, str] = {}
    schemas: list[ActionSchema] = []

    for section in domain_form[1:]:
        head = _head(section)
        if head == "domain":
            if len(section) > 1:
                domain_name = _name(section[1], "(domain ...)").text.lower()
        elif head == ":requirements":
            for req in section[1:]:
                req = _name(req, ":requirements")
                if req.text.lower() not in REQUIREMENTS:
                    raise _err(req, f"unsupported requirement {req.text}")
        elif head == ":types":
            types.update(_parse_typed_list(section[1:], what="type"))
            for parent in list(types.values()):
                types.setdefault(parent, "object")
        elif head == ":predicates":
            for p in section[1:]:
                if not isinstance(p, list) or not p:
                    raise PddlError("malformed predicate declaration")
                pname = _name(p[0], "predicate declaration").text.lower()
                params = _parse_typed_list(p[1:], what="predicate parameter")
                for _, t in params:
                    if t not in types:
                        raise _err(p[0], f"undeclared type {t} in predicate {pname}")
                predicates[pname] = tuple(t for _, t in params)
        elif head == ":constants":
            for name, t in _parse_typed_list(section[1:], what="constant"):
                if t not in types:
                    raise PddlError(f"undeclared type {t} for constant {name}")
                constants[name] = t
        elif head == ":action":
            schemas.append(_parse_schema(section, predicates, types))
        else:
            raise _err(section[0], f"unsupported domain section {head}")

    problem_name = ""
    objects: dict[str, str] = dict(constants)
    init: list[LiftedAtom] = []
    goal_pos: tuple[LiftedAtom, ...] = ()
    goal_neg: tuple[LiftedAtom, ...] = ()

    for section in problem_form[1:]:
        head = _head(section)
        if head == "problem":
            if len(section) > 1:
                problem_name = _name(section[1], "(problem ...)").text.lower()
        elif head == ":domain":
            pass
        elif head == ":objects":
            for name, t in _parse_typed_list(section[1:], what="object"):
                if t not in types:
                    raise PddlError(f"undeclared type {t} for object {name}")
                objects[name] = t
        elif head == ":init":
            init.extend(_parse_atom(atom, predicates, allow_vars=False) for atom in section[1:])
        elif head == ":goal":
            if len(section) != 2:
                raise _err(section[0], "(:goal ...) takes exactly one formula")
            goal_pos, goal_neg = _parse_literals(
                section[1], predicates, allow_vars=False, allow_neg=True, what="goal"
            )
        else:
            raise _err(section[0], f"unsupported problem section {head}")

    lifted = LiftedModel(
        domain_name=domain_name,
        problem_name=problem_name,
        types=types,
        predicates=predicates,
        objects=objects,
        schemas=tuple(schemas),
        init=tuple(init),
        goal_pos=goal_pos,
        goal_neg=goal_neg,
    )
    _check_ground_atoms(lifted)
    return lifted


def _parse_schema(section, predicates, types) -> ActionSchema:
    name = None
    params: tuple[tuple[str, str], ...] = ()
    pos_pre: tuple[LiftedAtom, ...] = ()
    neg_pre: tuple[LiftedAtom, ...] = ()
    effects: tuple[SchemaEffect, ...] = (SchemaEffect((), (), ()),)
    i = 1
    if i < len(section) and isinstance(section[i], Tok):
        name = section[i].text.lower()
        i += 1
    if name is None:
        raise _err(section[0], "action without a name")
    while i < len(section):
        key = section[i]
        if not isinstance(key, Tok):
            raise _err(section[0], f"malformed action {name}")
        kw = key.text.lower()
        if i + 1 >= len(section):
            raise _err(key, f"missing value for {kw} in action {name}")
        value = section[i + 1]
        i += 2
        if kw == ":parameters":
            if not isinstance(value, list):
                raise _err(key, ":parameters takes a parenthesized list")
            parsed = _parse_typed_list(value, what="parameter")
            for var, t in parsed:
                if not var.startswith("?"):
                    raise _err(key, f"parameter {var} must start with '?'")
                if t not in types:
                    raise _err(key, f"undeclared type {t} in action {name}")
            params = tuple(parsed)
        elif kw == ":precondition":
            pos_pre, neg_pre = _parse_literals(
                value, predicates, allow_vars=True, allow_neg=True, what="precondition"
            )
        elif kw == ":effect":
            effects = tuple(_parse_effect(value, predicates))
        else:
            raise _err(key, f"unsupported action keyword {kw}")
    schema = ActionSchema(name, params, pos_pre, neg_pre, effects)
    bound = {var for var, _ in params}
    for atom in _schema_atoms(schema):
        for arg in atom.args:
            if arg.startswith("?") and arg not in bound:
                raise PddlError(f"unbound variable {arg} in action {name}")
    return schema


def _schema_atoms(schema: ActionSchema):
    return itertools.chain(schema.pos_pre, schema.neg_pre,
                           *((e.condition + e.adds + e.dels) for e in schema.effects))


def _check_ground_atoms(lifted: LiftedModel) -> None:
    subtypes = functools.cache(lifted.subtypes)
    for where, atoms in (("init", lifted.init),
                         ("goal", lifted.goal_pos + lifted.goal_neg)):
        for atom in atoms:
            expected = lifted.predicates[atom.pred]
            for arg, t in zip(atom.args, expected):
                if arg not in lifted.objects:
                    raise PddlError(f"undeclared object {arg} in {where}")
                if lifted.objects[arg] not in subtypes(t):
                    raise PddlError(
                        f"object {arg} (type {lifted.objects[arg]}) does not fit "
                        f"type {t} of predicate {atom.pred} in {where}"
                    )
    for schema in lifted.schemas:
        for atom in _schema_atoms(schema):
            for arg in atom.args:
                if not arg.startswith("?") and arg not in lifted.objects:
                    raise PddlError(
                        f"undeclared constant {arg} in action {schema.name}"
                    )


# ---------------------------------------------------------------------------
# Grounding


@nogc
def ground(lifted: LiftedModel) -> PlanningModel:
    """Instantiate a lifted model into a grounded PlanningModel.

    Binding values are the schema's constants, then its parameters, as
    ``_bindings`` draws them. Negative preconditions, conditions and
    goals become complement fluents; the fluents are exactly those of
    the surviving actions, the initial state and the goal, with
    complement pairs kept whole.
    """
    static_preds = _static_predicates(lifted)
    objects_of = functools.cache(lifted.objects_of)
    init_atoms = {(a.pred, a.args) for a in lifted.init}
    init_args: dict[str, list[tuple[str, ...]]] = {}
    for pred, args in init_atoms:
        init_args.setdefault(pred, []).append(args)
    # each distinct atom's provisional id: the count of atoms instantiated
    # before its first instance, so ids are distinct but not dense
    provisional: dict[tuple[str, tuple[str, ...]], int] = {}
    counter = itertools.count()
    negated: set[int] = set()
    # (name, atom ids, layout) per action; the layout's slices of the ids
    # are the positive and the negative preconditions and, per clause,
    # the condition, adds and deletes
    grounded = []
    for schema in lifted.schemas:
        parts = [schema.pos_pre, schema.neg_pre,
                 *(part for e in schema.effects for part in (e.condition, e.adds, e.dels))]
        atoms = [atom for part in parts for atom in part]
        consts = tuple(dict.fromkeys(arg for atom in atoms
                                     for arg in atom.args if not arg.startswith("?")))
        slot = {arg: i for i, arg in enumerate(consts)}
        slot.update((var, len(consts) + i) for i, (var, _) in enumerate(schema.params))
        slots = [tuple([slot[arg] for arg in atom.args]) for atom in atoms]
        bounds = list(itertools.accumulate(map(len, parts), initial=0))
        pre, neg, *clauses = map(slice, bounds, bounds[1:])
        layout = (pre, neg, [clauses[i:i + 3] for i in range(0, len(clauses), 3)])
        combos = _bindings(schema, consts, list(zip([a.pred for a in atoms[pre]], slots[pre])),
                           static_preds, init_atoms, init_args, objects_of)
        rows = [consts + combo for combo in combos]
        # one C-level pass per atom over all rows, zipped back into rows
        columns = [map(provisional.setdefault, zip(itertools.repeat(atom.pred),
                                                   map(_slot_getter(t), rows)), counter)
                   for atom, t in zip(atoms, slots)]
        for combo, ids in zip(combos, zip(*columns) if columns else itertools.repeat(())):
            negated.update(ids[neg])
            grounded.append(("_".join((schema.name, *combo)), ids, layout))
    init_ids = [provisional.setdefault(key, next(counter)) for key in init_atoms]
    goal_pos = [provisional.setdefault((a.pred, a.args), next(counter)) for a in lifted.goal_pos]
    goal_neg = [provisional.setdefault((a.pred, a.args), next(counter)) for a in lifted.goal_neg]
    negated.update(goal_neg)

    keys = sorted(provisional)
    final = {provisional[key]: fid for fid, key in enumerate(keys)}
    table = FluentTable.of_keys(keys)
    complement = {p: table.ensure_complement(p, PddlError)
                  for p in sorted(final[p] for p in negated)}
    to_final = final.__getitem__
    to_comp = {p: complement[final[p]] for p in negated}.__getitem__

    init = {final[p] for p in init_ids}
    init = frozenset(init | {neg for p, neg in complement.items() if p not in init})

    base = []
    names = set()
    for name, ids, (pre, neg, clauses) in grounded:
        if name in names:
            raise PddlError(f"duplicate grounded action name {name}")
        names.add(name)
        fids = list(map(to_final, ids))
        effects = []
        for cond, adds, dels in clauses:
            condition, add_ids = frozenset(fids[cond]), frozenset(fids[adds])
            # adds win inside a single clause
            del_ids = frozenset(fids[dels]) - add_ids
            if condition or add_ids or del_ids or len(clauses) == 1:
                effects.append(Effect(condition, add_ids, del_ids))
        base.append(Action(name, frozenset(fids[pre] + list(map(to_comp, ids[neg]))),
                           tuple(effects)))

    goal = frozenset(list(map(to_final, goal_pos)) + list(map(to_comp, goal_neg)))
    fluents = frozenset(range(len(table)))

    @functools.cache
    def reachable():
        # every effect deleting p adds its complement: a superset of the
        # adds of the exact maintenance, so its relaxed reachability
        # over-approximates the model's
        naive = tuple(Action(a.name, a.prec, tuple(
            Effect(e.condition, e.adds | {complement[p] for p in e.dels if p in complement},
                   e.dels) for e in a.effects)) for a in base)
        return relaxed_reachable(PlanningModel(table, fluents, naive, init, goal))

    if complement:
        base = [maintain_complements(a, complement, table, reachable, PddlError,
                                     "a negative precondition or goal")
                for a in base]
    return PlanningModel(table, fluents, tuple(base), init, goal)


def _slot_getter(slots: tuple[int, ...]):
    """An itemgetter of the binding values at slots, as a tuple also for
    zero and one slot (a single index would give the value itself)."""
    if len(slots) > 1:
        return operator.itemgetter(*slots)
    return operator.itemgetter(slice(slots[0], slots[0] + 1) if slots else slice(0, 0))


def _bindings(schema: ActionSchema, consts, pos, static_preds, init_atoms, init_args,
              objects_of) -> list[tuple[str, ...]]:
    """Parameter tuples of schema whose positive static preconditions hold.

    Parameters are bound one at a time, in declaration order, and each
    positive static precondition (predicate and slots in ``pos``) is
    tested at its last parameter's level. A level's first test is a
    join: candidates come from an index of that predicate's init facts
    keyed by the earlier slots' values, of the parameter's type only,
    each hit list sorted (objects_of order), so tuples come out in
    itertools.product order. A variable-free static atom is tested once;
    a false one empties the schema. Negated static preconditions never
    prune (see the module docstring). Schemas without parameters are
    kept verbatim.
    """
    if not schema.params:
        return [()]
    first = len(consts)  # the slot of the first parameter
    checks: list[list[tuple[str, tuple[int, ...]]]] = [[] for _ in schema.params]
    for (pred, template), atom in zip(pos, schema.pos_pre):
        if pred not in static_preds:
            continue
        level = max(template, default=-1) - first
        if level >= 0:
            checks[level].append((pred, template))
        elif (pred, atom.args) not in init_atoms:
            return []
    combos: list[tuple[str, ...]] = [()]
    for level, ((_, typ), tests) in enumerate(zip(schema.params, checks)):
        objects = objects_of(typ)
        if not tests:
            combos = [combo + (obj,) for combo in combos for obj in objects]
            continue
        (pred, template), rest = tests[0], tests[1:]
        here = first + level
        at = [j for j, x in enumerate(template) if x == here]
        before = [j for j, x in enumerate(template) if x < here]
        allowed = set(objects)
        index: dict[tuple[str, ...], list[str]] = {}
        for args in init_args.get(pred, ()):
            obj = args[at[0]]
            if obj in allowed and all(args[j] == obj for j in at):
                index.setdefault(tuple([args[j] for j in before]), []).append(obj)
        for hits in index.values():
            hits.sort()
        extended = []
        for combo in combos:
            values = consts + combo
            for obj in index.get(tuple([values[template[j]] for j in before]), ()):
                candidate = combo + (obj,)
                if rest:
                    full = consts + candidate
                    if not all((p, tuple([full[x] for x in t])) in init_atoms for p, t in rest):
                        continue
                extended.append(candidate)
        combos = extended
    return combos


def _static_predicates(lifted: LiftedModel) -> set[str]:
    return set(lifted.predicates) - {atom.pred for schema in lifted.schemas
                                     for e in schema.effects for atom in e.adds + e.dels}


# ---------------------------------------------------------------------------
# Printing grounded models back out


def write_domain(m: PlanningModel, name: str = "compiled") -> str:
    preds: dict[tuple[str, int], None] = {}
    for fid in sorted(m.fluents):
        pred, fargs = m.table.key(fid)
        preds.setdefault((pred, len(fargs)), None)
    lines = [f"(define (domain {name})",
             "  (:requirements :strips :conditional-effects)"]
    consts = sorted({a for fid in m.fluents for a in m.table.key(fid)[1]})
    if consts:
        lines.append(f"  (:constants {' '.join(consts)})")
    decls = []
    for pname, arity in sorted(preds):
        args = " ".join(f"?a{i}" for i in range(arity))
        decls.append(f"({pname} {args})" if args else f"({pname})")
    lines.append(f"  (:predicates {' '.join(decls)})")
    for a in m.actions:
        lines.append(f"  (:action {a.name}")
        lines.append("    :parameters ()")
        lines.append(f"    :precondition {_conj(m, a.prec)}")
        lines.append(f"    :effect {_effect_sexpr(m, a)})")
    lines.append(")")
    return "\n".join(lines)


def write_problem(m: PlanningModel, name: str = "compiled",
                  domain_name: str = "compiled") -> str:
    lines = [f"(define (problem {name})", f"  (:domain {domain_name})"]
    lines.append("  (:init " + " ".join(m.table.sexpr(f) for f in sorted(m.init)) + ")")
    lines.append(f"  (:goal {_conj(m, m.goal)})")
    lines.append(")")
    return "\n".join(lines)


def _conj(m: PlanningModel, ids) -> str:
    parts = [m.table.sexpr(f) for f in sorted(ids)]
    return "(and " + " ".join(parts) + ")" if parts else "(and)"


def _effect_sexpr(m: PlanningModel, a: Action) -> str:
    parts = []
    for e in a.effects:
        lits = [m.table.sexpr(f) for f in sorted(e.adds)]
        lits += [f"(not {m.table.sexpr(f)})" for f in sorted(e.dels)]
        if not lits:
            continue
        body = lits[0] if len(lits) == 1 else "(and " + " ".join(lits) + ")"
        if e.condition:
            parts.append(f"(when {_conj(m, e.condition)} {body})")
        else:
            parts.extend(lits)
    if not parts:
        return "(and)"
    if len(parts) == 1:
        return parts[0]
    return "(and " + " ".join(parts) + ")"


def parse_ground_formula(text: str, m: PlanningModel):
    """Parse an and/or formula over ground atoms into a DNF tree.

    Returns the nested tuple tree expected by normalize_dnf; atoms are
    resolved to fluent ids of m (raises PddlError when unresolved).
    """
    forms = _read_sexprs(text)
    if len(forms) != 1:
        raise PddlError("expected exactly one formula")
    return _formula_tree(forms[0], m)


def _formula_tree(f, m: PlanningModel):
    """The DNF tree of one read formula, its atoms resolved in m."""
    if isinstance(f, Tok):
        raise _err(f, "expected a parenthesized formula")
    if not f:
        return ("and",)
    head = _name(f[0], "formula")
    kw = head.text.lower()
    if kw in ("and", "or"):
        return (kw, *(_formula_tree(sub, m) for sub in f[1:]))
    if kw == "not":
        raise _err(head, "negation is not supported in formulas")
    args = tuple(_name(t, f"atom ({kw} ...)").text.lower() for t in f[1:])
    fid = m.table.get(kw, args)
    if fid is None or fid not in m.fluents:
        raise _err(head, f"unresolved atom ({kw} {' '.join(args)})")
    return fid
