"""Variational (Hartree) superposition-state analysis for the soliton junction.

The N-particle ansatz is the atomic coherent state
(alpha a^dag + beta b^dag)^N |0> / sqrt(N!), with real variational
amplitudes obeying alpha^2 + beta^2 = 1 and imbalance S = beta^2 - alpha^2.
Its mean energy per kappa*N is

    E(S) = -(Lambda/2) S^2 - (1 - 0.21 S^2)(1 - S^2)        (theta = 0),

whose stationary points are the branches returned by
:func:`stationary_solutions`:

* S0: balanced, alpha = beta = 1/sqrt(2), E0 = -1 for any coupling;
* S+-: imbalanced pair S = +-sqrt((2.42 - Lambda)/0.84) on 1.58 <= Lambda
  < 2.42, with the quadratic fit E = 0.30 Lambda^2 - 1.44 Lambda + 0.74;
* N00N+-: fully imbalanced pair S = +-1 on 0 < Lambda <= 1.58 with the
  phase-independent energy -Lambda/2.

The shared quantity X = sqrt((Lambda - 1.58)/0.84) fixes both the S+-
amplitudes and the cat-state overlap epsilon = X^N; it is defined once here
so the two uses cannot drift apart.

The branches and the overlap are closed-form scalars and need no numpy; the
three functions that build Fock states import it when called.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .overlap_fit import _LAMBDA_HI, _LAMBDA_LO, _OVERLAP_FIT, _mean_field_energy

if TYPE_CHECKING:
    from .model import FockState

__all__ = [
    "HartreeSolution",
    "stationary_solutions",
    "exact_branch_energy",
    "cat_overlap",
    "coherent_fock_amplitudes",
    "cat_state",
    "noon_state",
]


@dataclass(frozen=True)
class HartreeSolution:
    """One stationary branch: imbalance S, amplitudes, phase (0 or pi),
    energy in units kappa*N, and a branch label."""

    s: float
    alpha: float
    beta: float
    theta: float
    energy: float
    branch: str

    def __post_init__(self):
        if abs(self.alpha**2 + self.beta**2 - 1.0) > 1e-12:
            raise ValueError("alpha^2 + beta^2 must equal 1")
        if abs(self.s - (self.beta**2 - self.alpha**2)) > 1e-12:
            raise ValueError("S must equal beta^2 - alpha^2")


def _branch_x_squared(Lambda: float) -> float:
    """X^2 = (Lambda - 1.58)/0.84, the squared component overlap per particle."""
    return (Lambda - _LAMBDA_LO) / (_LAMBDA_HI - _LAMBDA_LO)


def stationary_solutions(Lambda: float) -> list[HartreeSolution]:
    """All variational stationary branches at the given coupling."""
    if not (math.isfinite(Lambda) and Lambda >= 0):
        raise ValueError(f"Lambda must be finite and >= 0, got {Lambda}")
    r = 1.0 / math.sqrt(2.0)
    out = [HartreeSolution(s=0.0, alpha=r, beta=r, theta=0.0, energy=-1.0, branch="S0")]
    if _LAMBDA_LO <= Lambda < _LAMBDA_HI:
        x2 = max(0.0, _branch_x_squared(Lambda))
        s = math.sqrt(max(0.0, 1.0 - x2))
        hi = math.sqrt(0.5 * (1.0 + s))
        lo = math.sqrt(0.5 * (1.0 - s))
        e = 0.30 * Lambda**2 - 1.44 * Lambda + 0.74
        out.append(HartreeSolution(s=+s, alpha=lo, beta=hi, theta=0.0, energy=e, branch="S+"))
        out.append(HartreeSolution(s=-s, alpha=hi, beta=lo, theta=0.0, energy=e, branch="S-"))
    if 0.0 < Lambda <= _LAMBDA_LO:
        e = -Lambda / 2.0
        out.append(HartreeSolution(s=+1.0, alpha=0.0, beta=1.0, theta=0.0, energy=e, branch="N00N+"))
        out.append(HartreeSolution(s=-1.0, alpha=1.0, beta=0.0, theta=0.0, energy=e, branch="N00N-"))
    return out


def exact_branch_energy(Lambda: float) -> float:
    """Mean energy of the imbalanced branch without the quadratic fit.

    E/kappa*N = -(Lambda/2) S^2 - (1 - 0.21 S^2)(1 - S^2) evaluated at
    S^2 = (2.42 - Lambda)/0.84.  Agrees with the fit used in
    :func:`stationary_solutions` to better than 0.02 over the branch domain.
    """
    if not _LAMBDA_LO <= Lambda <= _LAMBDA_HI:
        raise ValueError(
            f"imbalanced branch exists only for {_LAMBDA_LO} <= Lambda <= {_LAMBDA_HI}, got {Lambda}"
        )
    s2 = max(0.0, (_LAMBDA_HI - Lambda) / (4.0 * _OVERLAP_FIT))
    return _mean_field_energy(s2, 1.0, Lambda)


def cat_overlap(Lambda: float, n_total: int) -> float:
    """Distinguishability overlap eps = X^N of the two cat components.

    Computed in log space; eps = 0 at Lambda = 1.58 (orthogonal components,
    the N00N limit) and eps -> 1 at Lambda = 2.42 (indistinguishable).
    """
    if not _LAMBDA_LO <= Lambda <= _LAMBDA_HI:
        raise ValueError(
            f"cat branch exists only for {_LAMBDA_LO} <= Lambda <= {_LAMBDA_HI}, got {Lambda}"
        )
    if n_total < 1:
        raise ValueError(f"n_total must be >= 1, got {n_total}")
    if n_total > sys.float_info.max:  # N enters the exponent as a float
        raise ValueError(f"n_total must be at most {sys.float_info.max:g}")
    x2 = _branch_x_squared(Lambda)
    if x2 <= 0.0:
        return 0.0
    return min(1.0, math.exp(0.5 * n_total * math.log(x2)))


def coherent_fock_amplitudes(alpha: float, beta: float, n_total: int) -> FockState:
    """Binomial Fock expansion A_n = sqrt(C(N, n)) alpha^(N-n) beta^n.

    Combinatorics run through log n! so N = 300 and beyond stay finite;
    the result is renormalized (raw norm must already be 1 within 1e-9).
    """
    import numpy as np

    from .logspace import log_factorial
    from .model import FockState

    if abs(alpha**2 + beta**2 - 1.0) > 1e-12:
        raise ValueError("alpha^2 + beta^2 must equal 1")
    if n_total < 1:
        raise ValueError(f"n_total must be >= 1, got {n_total}")
    n = np.arange(n_total + 1)
    log_mag = 0.5 * (log_factorial(n_total) - log_factorial(n) - log_factorial(n_total - n))
    # zero amplitude wherever a zero base carries a positive power
    ok = np.ones(n_total + 1, dtype=bool)
    if alpha == 0.0:
        ok &= n == n_total
    else:
        log_mag = log_mag + (n_total - n) * math.log(abs(alpha))
    if beta == 0.0:
        ok &= n == 0
    else:
        log_mag = log_mag + n * math.log(abs(beta))
    mag = np.zeros(n_total + 1)
    mag[ok] = np.exp(log_mag[ok])
    sign = np.sign(alpha) ** ((n_total - n) % 2) * np.sign(beta) ** (n % 2)
    amps = mag * np.where(sign == 0, 1.0, sign)
    norm = math.sqrt(float(np.sum(amps**2)))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"binomial expansion lost normalization: norm = {norm!r}")
    return FockState((amps / norm).astype(complex))


def cat_state(Lambda: float, n_total: int, sign: int = +1) -> FockState:
    """Superposition (|psi_+> +- |psi_->)/sqrt(2 (1 +- eps)) of the two
    imbalanced-branch coherent states; defined for 1.58 <= Lambda < 2.42
    (the '-' cat additionally needs eps < 1)."""
    from .model import FockState

    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    sols = {sol.branch: sol for sol in stationary_solutions(Lambda)}
    if "S+" not in sols:
        raise ValueError(f"cat components do not exist at Lambda = {Lambda}")
    plus, minus = sols["S+"], sols["S-"]
    eps = cat_overlap(Lambda, n_total)
    norm2 = 2.0 * (1.0 + sign * eps)
    if norm2 <= 0.0:
        raise ValueError("indistinguishable components: the odd cat is degenerate")
    a_plus = coherent_fock_amplitudes(plus.alpha, plus.beta, n_total).amps
    a_minus = coherent_fock_amplitudes(minus.alpha, minus.beta, n_total).amps
    return FockState((a_plus + sign * a_minus) / math.sqrt(norm2))


def noon_state(n_total: int, phase: float = 0.0) -> FockState:
    """Balanced N00N state (|N,0> + e^{i phase} |0,N>)/sqrt(2)."""
    import numpy as np

    from .model import FockState

    if n_total < 1:
        raise ValueError(f"n_total must be >= 1, got {n_total}")
    amps = np.zeros(n_total + 1, dtype=complex)
    amps[0] = 1.0 / math.sqrt(2.0)
    amps[-1] = np.exp(1j * phase) / math.sqrt(2.0)
    return FockState(amps)
