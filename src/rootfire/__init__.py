"""Exact interval root-firing on weight lattices.

Build a root system from its type, fire positive roots under the
symmetric/truncated/central interval rules, stabilize, classify sinks,
enumerate components and discrete permutohedra, and fit the exact
Ehrhart-like counting polynomials.
"""

from .errors import (
    ClassificationError,
    DomainError,
    FitInconsistentError,
    InvariantViolationError,
    NonGoodParamsError,
    PreconditionError,
    ResourceCapError,
    StepBudgetError,
)
from .firing import (
    FiringGraph,
    FiringParams,
    bounding_center,
    build_graph,
    check_confluence_random,
    component,
    coord_box,
    eta,
    eta_inverse,
    fiber,
    fireable_roots,
    graph_symmetry_breaks,
    is_sink,
    labels_a_sink,
    neighbors,
    reachable_central_sinks,
    rho_of_k,
    stabilization_label,
    stabilize,
    stabilize_trace,
)
from .ehrhart import (
    FitReport,
    LatticePolynomial,
    count_fiber,
    decomposition_check,
    fit_ehrhart_like,
    full_dim_labels,
    iterate_check,
    perm_ehrhart,
)
from .kernel import BACKEND as KERNEL_BACKEND
from .polytope import (
    DiscretePermutohedron,
    enumerate_perm,
    is_funny,
    perm_contains,
    traverse_bruteforce,
    traverse_formula,
)
from .rootsys import (
    RootSystem,
    build_root_system,
    dominant_rep,
    from_spec,
    minuscule_weights,
    pairing,
    parse_system,
    reflect_simple,
    root_order_leq,
    subgroup_C,
    weyl_orbit,
)

__version__ = "0.1.0"
