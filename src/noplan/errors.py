"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: anything derived from InputError is a
user-input problem (exit 2), ResourceExhaustedError is a blown search
budget (exit 3) and PipelineError a failed self-check (exit 4).
Everything else is a programming or contract error.
"""

from __future__ import annotations


class NoplanError(Exception):
    """Base class for all package errors."""


class InputError(NoplanError):
    """Malformed or inconsistent user input (files, formulas, specs)."""


class PddlError(InputError):
    """Syntax or semantic error in a domain/problem text."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class AdviceError(InputError):
    """Malformed advice file, unknown template, or unresolved label."""


class LatticeSpecError(InputError):
    """Malformed lattice spec: bad groups, overlaps, unknown names."""


class ReservedNameError(InputError):
    """The input declares a fluent under a name a compilation reserves for its bookkeeping."""


class ModelError(NoplanError):
    """A model or one of its components violates a structural invariant."""


class UnknownActionError(ModelError):
    """A plan references an action name the model does not define."""


class PreconditionViolation(ModelError):
    """An action was applied in a state that misses preconditions."""

    def __init__(self, action: str, missing: frozenset[int]):
        self.action = action
        self.missing = missing
        super().__init__(f"action {action}: unsatisfied precondition ({len(missing)} fluents)")


class FormulaError(NoplanError):
    """Unsupported construct in a boolean formula (e.g. negation)."""


class InvalidPlanError(NoplanError):
    """A plan that was required to be valid failed to validate."""


class CycleError(NoplanError):
    """A landmark graph that must be acyclic contains a cycle."""


class ModelUnsolvableError(NoplanError):
    """An operation that needs a solvable model received an unsolvable one."""


class LatticeError(NoplanError):
    """Invalid lattice addressing (unknown group, forbidden combination)."""


class RootSolvableError(NoplanError):
    """The concrete model is solvable, so no explanatory fluents exist."""


class UnsolvableEverywhereError(NoplanError):
    """Every maximal abstraction is unsolvable; the minimum set is empty."""


class ResourceExhaustedError(NoplanError):
    """A search budget was exceeded before a decision was reached."""

    def __init__(self, stage: str):
        self.stage = stage
        super().__init__(f"resource budget exhausted during: {stage}")


class PipelineError(NoplanError):
    """The explanation pipeline failed one of its self-checks."""
