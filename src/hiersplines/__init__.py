"""Hierarchical B-spline spaces with adaptive local refinement.

Building blocks: open knot vectors and their two-scale structure, tensor
product levels, hierarchies of subdomains with the classical hierarchical
basis and a refinable children-only subspace basis carrying strictly
positive partition-of-unity weights, and a multiscale quasi-interpolant
with local approximation-order verification tooling.
"""

from .errors import (
    AdmissibilityError,
    EvaluationError,
    FixtureError,
    HierSplineError,
    HierarchyError,
    InternalInvariantError,
    KnotVectorError,
    NestingError,
    RefinementMismatchError,
)
from .univariate import (
    Breakpoints,
    IntervalCell,
    KnotVector,
    LocalKnotVector,
    dyadic_refine,
    is_child_of,
    make_open_knot_vector,
    uniform_open_knot_vector,
)
from .tensor import (
    CellSet,
    LevelSpline,
    TensorFunctionId,
    TensorLevel,
    build_level_sequence,
    extend_level_sequence,
    tensor_children,
)
from .hierarchy import (
    CLASSICAL,
    REFINABLE,
    HierBasis,
    HierSplineFunction,
    HierarchicalMesh,
    SubdomainHierarchy,
    WeightMap,
    active_mesh,
    build_hierarchical_basis,
    build_refinable_basis,
    compute_weights,
    enlarge_hierarchy,
    expand_deactivated,
    partition_of_unity,
    validate_hierarchy,
)
from .quasiinterp import (
    AdmissibilityReport,
    CoreDomains,
    LevelQuasiInterpolant,
    LocalProjectionWorkspace,
    MultiscaleQuasiInterpolant,
    OperatorConfig,
    check_admissibility,
    compute_core_domains,
    error_norms,
    lq_norm,
)
from .functions import TestFunction, get_function
from .fixtures import (
    Fixture,
    dump_active_cells,
    fixture_to_dict,
    hierarchy_from_active_cells,
    load_fixture,
    load_mesh_dump,
    parse_fixture,
    parse_mesh_dump,
    write_fixture,
)
from .invariants import InvariantResult, SuiteReport, run_invariant_suite
from .study import StudyReport, load_family, read_study_csv, run_convergence_study

__version__ = "0.1.0"
