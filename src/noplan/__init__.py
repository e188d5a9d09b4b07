"""noplan: explain why a planning problem has no solution.

Given a grounded STRIPS-style task, a lattice of fluent-group
abstractions and optional plan advice, the package finds the cheapest
set of fluent groups whose details make the task unsolvable and the
first necessary subgoal that stops being achievable once those details
are restored.
"""

__version__ = "0.1.0"

from .abstraction import (
    AbstractionLattice,
    ExplanatorySet,
    FluentGroup,
    LatticeNode,
    LatticeSpec,
    ModelUpdate,
    build_lattice,
    concretize,
    diff_models,
    find_explanatory_fluents,
    load_lattice_spec,
    minimum_abstraction_set,
    project_model,
    resolve_groups,
)
from .achievability import FailedSubgoal, compile_achievability, first_unachievable
from .advice import (
    ConstrainedModel,
    ConstraintFsa,
    accepts,
    compose,
    fsa_product,
    parse_advice,
    strip_meta,
    universal_fsa,
)
from .explain import (
    Explanation,
    ExplanationReport,
    build_report,
    exemplar_failure,
    explain,
    parse_machine,
    render,
)
from .landmarks import (
    Landmark,
    LandmarkGraph,
    Ordering,
    extract_landmarks,
    linearize,
)
from .model import (
    Action,
    DnfFormula,
    Effect,
    Fluent,
    FluentTable,
    PlanningModel,
    ValidationTrace,
    apply_action,
    holds,
    normalize_dnf,
    validate_plan,
)
from .pddl import LiftedModel, ground, parse_model, write_domain, write_problem
from .search import SearchLimits, SearchResult, decide_solvable
