"""Two-mode quantum and mean-field models of weakly coupled atomic Josephson junctions.

The package covers two junction types built from attractively interacting
condensates: the conventional bosonic junction (BJJ, Gaussian mode profiles,
coupling ``lambda``) and the soliton junction (SJJ, bright-soliton profiles,
coupling ``Lambda`` with population-dependent effective tunneling).  It
provides exact diagonalization of the two-mode Hamiltonians, mean-field
dynamics, variational superposition-state analysis, entanglement and
spin-squeezing witnesses, beam-splitter particle-loss channels, and
laboratory-unit parameter conversions, plus a CLI for parameter sweeps.

``import sjj`` is cheap: each public name below is imported from its
submodule on first access (PEP 562), so a caller that needs only the
closed-form Hartree branches or the laboratory conversions never loads
numpy.  ``_EXPORTS`` is the one list of public names; each submodule's
``__all__`` reads its entry (``physical`` adds its three constants).
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# The one list of public names: submodule -> the names it defines.  Each
# submodule's ``__all__`` reads its entry; ``sjj.<name>`` imports the
# submodule on first access, and ``sjj.<submodule>`` works without an import.
_EXPORTS = {
    "model": ("ModelKind", "TridiagonalHamiltonian", "FockState",
              "build_hamiltonian", "apply_hamiltonian"),
    "eigensolve": ("Spectrum", "EigensolveError", "eigen_decompose", "eigenvalues",
                   "ground_state", "ground", "energy_gap"),
    "meanfield": ("MeanFieldState", "Trajectory", "SteadyState", "MeanFieldIntegrationError",
                  "rhs", "energy_h", "integrate", "steady_states", "overlap_integral",
                  "kappa_eff", "lambda_eff"),
    "hartree": ("HartreeSolution", "stationary_solutions", "exact_branch_energy", "cat_overlap",
                "coherent_fock_amplitudes", "cat_state", "noon_state"),
    "observables": ("SpinExpectations", "PlanarSqueezing", "CJScanResult",
                    "UndefinedCriterionError", "spin_expectations", "mean_imbalance",
                    "hz_criterion", "hz1_from_spins", "planar_squeezing", "refine_minimum",
                    "cj_scan", "crossover_coupling"),
    "losses": ("LossChannel", "ConditionalState", "ZeroProbabilityBranchError",
               "conditional_state", "loss_mixture", "TracedRows", "traced_mixture",
               "three_body_decay", "one_body_decay", "gamma3"),
    "physical": ("TrapParams", "atomic_mass", "nonlinearity_u", "coupling_lambda",
                 "coupling_Lambda", "wp_coefficient", "critical_atom_number",
                 "gap_soliton_number"),
    "logspace": ("log_factorial", "logsumexp"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
