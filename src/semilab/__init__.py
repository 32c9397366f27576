"""Finite-dimensional laboratory for contraction semigroups: dissipativity
certificates, Cayley transforms of operators and of open systems, internal
loops closed directly or through output feedback, passivity checks, and
mimetic discretizations of damped-wave and degenerate-parabolic equations.
"""

from .cayley import (
    AccretiveOperator,
    ContractionOperator,
    accretive_of_contraction,
    accretivity_lower_bound,
    cayley_of_accretive,
    s_norm_bound,
    strict_contraction_bound,
)
from .feedback import (
    FeedbackResult,
    InadmissibleFeedbackError,
    InternalLoopResult,
    a_s_via_feedback,
    check_admissible,
    internal_loop,
)
from .numkernel import (
    ContractionReport,
    Gram,
    contraction_certificate,
    dissipativity_margin,
    expm,
    herm_part,
    op_norm,
)
from .pdelab import (
    Grid1D,
    PdeCoefficients,
    beta_midpoints,
    degenerate_as1,
    degenerate_ext,
    degenerate_loop_path,
    energy_gram,
    grad_div_pair,
    neumann_heat_ext,
    wave_combined_ext,
    wave_ext,
    wave_structural_ext,
    wave_viscous_ext,
)
from .simkit import (
    IoMapEstimate,
    Trajectory,
    cn_step,
    feedthrough_deviation,
    io_map_norm,
    simulate_semigroup,
)
from .sysnode import (
    ExtendedOperator,
    SystemNode,
    external_cayley,
    node_apply,
    passivity_check,
)

__version__ = "0.1.0"

__all__ = [
    "AccretiveOperator",
    "ContractionOperator",
    "ContractionReport",
    "ExtendedOperator",
    "FeedbackResult",
    "Gram",
    "Grid1D",
    "InadmissibleFeedbackError",
    "InternalLoopResult",
    "IoMapEstimate",
    "PdeCoefficients",
    "SystemNode",
    "Trajectory",
    "a_s_via_feedback",
    "accretive_of_contraction",
    "accretivity_lower_bound",
    "beta_midpoints",
    "cayley_of_accretive",
    "check_admissible",
    "cn_step",
    "contraction_certificate",
    "degenerate_as1",
    "degenerate_ext",
    "degenerate_loop_path",
    "dissipativity_margin",
    "energy_gram",
    "expm",
    "external_cayley",
    "feedthrough_deviation",
    "grad_div_pair",
    "herm_part",
    "internal_loop",
    "io_map_norm",
    "neumann_heat_ext",
    "node_apply",
    "op_norm",
    "passivity_check",
    "s_norm_bound",
    "simulate_semigroup",
    "strict_contraction_bound",
    "wave_combined_ext",
    "wave_ext",
    "wave_structural_ext",
    "wave_viscous_ext",
    "__version__",
]
