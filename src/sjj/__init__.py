"""Two-mode quantum and mean-field models of weakly coupled atomic Josephson junctions.

The package covers two junction types built from attractively interacting
condensates: the conventional bosonic junction (BJJ, Gaussian mode profiles,
coupling ``lambda``) and the soliton junction (SJJ, bright-soliton profiles,
coupling ``Lambda`` with population-dependent effective tunneling).  It
provides exact diagonalization of the two-mode Hamiltonians, mean-field
dynamics, variational superposition-state analysis, entanglement and
spin-squeezing witnesses, beam-splitter particle-loss channels, and
laboratory-unit parameter conversions, plus a CLI for parameter sweeps.
"""

from .model import (
    FockState,
    ModelKind,
    TridiagonalHamiltonian,
    TwoModeParams,
    apply_hamiltonian,
    build_hamiltonian,
)
from .eigensolve import (
    Spectrum,
    eigen_decompose,
    eigenvalues,
    energy_gap,
    ground_state,
    propagate,
)
from .meanfield import (
    MeanFieldState,
    SteadyState,
    Trajectory,
    energy_h,
    integrate,
    kappa_eff,
    lambda_eff,
    overlap_integral,
    rhs,
    steady_states,
)
from .hartree import (
    HartreeSolution,
    cat_overlap,
    cat_state,
    coherent_fock_amplitudes,
    exact_branch_energy,
    noon_state,
    stationary_solutions,
)
from .observables import (
    SpinExpectations,
    UndefinedCriterionError,
    cj_scan,
    crossover_coupling,
    hz1_from_spins,
    hz_criterion,
    mean_imbalance,
    planar_squeezing,
    spin_expectations,
)
from .losses import (
    ConditionalState,
    LossChannel,
    TracedRows,
    ZeroProbabilityBranchError,
    bs_coefficient,
    conditional_state,
    gamma3,
    loss_mixture,
    one_body_decay,
    three_body_decay,
    traced_mixture,
)
from .physical import (
    TrapParams,
    atomic_mass,
    coupling_Lambda,
    coupling_lambda,
    critical_atom_number,
    gap_soliton_number,
    nonlinearity_u,
    wp_coefficient,
)

__version__ = "0.1.0"

__all__ = [
    "ModelKind",
    "TwoModeParams",
    "TridiagonalHamiltonian",
    "FockState",
    "build_hamiltonian",
    "apply_hamiltonian",
    "Spectrum",
    "eigen_decompose",
    "eigenvalues",
    "ground_state",
    "propagate",
    "energy_gap",
    "MeanFieldState",
    "Trajectory",
    "SteadyState",
    "rhs",
    "energy_h",
    "integrate",
    "steady_states",
    "overlap_integral",
    "kappa_eff",
    "lambda_eff",
    "HartreeSolution",
    "stationary_solutions",
    "exact_branch_energy",
    "cat_overlap",
    "coherent_fock_amplitudes",
    "cat_state",
    "noon_state",
    "SpinExpectations",
    "spin_expectations",
    "hz_criterion",
    "hz1_from_spins",
    "planar_squeezing",
    "cj_scan",
    "crossover_coupling",
    "mean_imbalance",
    "UndefinedCriterionError",
    "LossChannel",
    "ConditionalState",
    "ZeroProbabilityBranchError",
    "bs_coefficient",
    "conditional_state",
    "loss_mixture",
    "TracedRows",
    "traced_mixture",
    "three_body_decay",
    "one_body_decay",
    "gamma3",
    "TrapParams",
    "atomic_mass",
    "nonlinearity_u",
    "coupling_lambda",
    "coupling_Lambda",
    "critical_atom_number",
    "gap_soliton_number",
    "wp_coefficient",
    "__version__",
]
