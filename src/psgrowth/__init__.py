"""Product-set growth machinery for groups acting on trees and hyperbolic
graphs: exact word arithmetic, metric backends, the geometry toolbox,
energy/base-point selection, reduction and periodicity certificates, and
the growth verification harness."""

from .energy import Case, EnergyProfile, Mode, classify, energy_at, minimize_energy
from .growth import (
    AlphaConstants,
    GrowthReport,
    concentrated_pipeline,
    diffuse_pipeline,
    exponent_fit,
    growth_report,
)
from .hypgeom import (
    AxisData,
    Constants,
    chain_certificate,
    cylinder_membership,
    gromov_product,
    small_cancellation_diameter,
    translation_length,
)
from .periodicity import (
    BiPeriodicWitness,
    PeriodCertificate,
    Refusal,
    e_reduce,
    extract_period_from_equations,
    is_biperiodic,
    is_periodic,
    pingpong_certify,
    separate,
)
from .reduction import ReductionResult, median_split, reduce_tree, reduced_at
from .spaces import (
    FiniteHypGraph,
    FreeGroupTree,
    FreeProductTree,
    cycle_graph,
    estimate_delta,
    load_graph,
)
from .treeapprox import ApproximationTree, approximate_tree, distortion_report
from .words import (
    BudgetExceededError,
    ElementSet,
    GroupElement,
    PresentationContext,
    cyclic_reduce,
    free_group,
    free_product,
    parse,
    primitive_root,
    product_set,
    safin_counts,
    safin_family,
)

__version__ = "0.1.0"
