"""Weak quantum measurements with imperfect detectors on a truncated Fock space.

Subpackages split along the physics: ``fockspace`` (states, operators and
quadrature transforms), ``povm`` (detector kernels and effective marginals),
``quasiprob`` (generalized Kirkwood / Terletsky-Margenau-Hill distributions),
``weakvalues`` (trace-formula and closed-form weak values with negativity
probabilities), ``vonneumann`` (exact finite-strength pointer simulations)
and ``cli`` (command-line surface).
"""

from .fockspace import (
    DensityOperator,
    Observable,
    QuadratureGrid,
    TruncationWarning,
    alpha_from_quadratures,
    coherent_state,
    default_grid,
    displaced_thermal_state,
    make_operator,
    position_density,
    thermal_state,
    wavefunction_table,
)
from .povm import (
    DetectorKernel,
    ValidationReport,
    delta_kernel,
    effective_marginal,
    gaussian_kernel,
    sigma_from_efficiency,
    validate,
)
from .quasiprob import (
    BasisPair,
    NegativityReport,
    QuasiDistribution,
    displaced_thermal_s,
    effective_distribution,
    effective_thermal_s,
    marginal_over_phi,
    marginal_over_xi,
    negativity_scan,
    s_distribution,
    t_distribution,
    thermal_s,
    weak_value_from_distribution,
)
from .vonneumann import (
    CrossKerrResult,
    JointOutcomeTable,
    JointState,
    PointerState,
    QubitPointerResult,
    UnsupportedPointerError,
    conditional_pointer_shift,
    evolve_exact,
    evolve_further,
    joint_distribution,
    phi_marginal,
    pointer_shift,
    simulate_cross_kerr,
    simulate_qubit_pointer,
)
from .weakvalues import (
    NegativityProbability,
    UndefinedWeakValueError,
    WeakValueProfile,
    classify_strange,
    h_closed_profile,
    marginal_density,
    n_closed_profile,
    negative_intervals,
    negativity_probability,
    p2_closed_profile,
    weak_value,
)

__version__ = "0.1.0"
