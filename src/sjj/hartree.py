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

X^2 and S^2 share one width w = 2.42 - 1.58 (:func:`_branch_squares`); the
coherent and cat states are built in log space from one binomial expansion.

The branches and the overlap are closed-form scalars and need no numpy; the
three functions that build Fock states import it when called, and take
1 <= N <= 10^6 as the models do.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import _EXPORTS
from .overlap_fit import (_LAMBDA_HI, _LAMBDA_LO, _check_coupling, _finite, _mean_field_energy,
                          _shown)

if TYPE_CHECKING:
    from .model import FockState

__all__ = list(_EXPORTS["hartree"])


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


def _branch_squares(Lambda: float) -> tuple[float, float]:
    """(X^2, S^2) = ((Lambda - 1.58)/w, (2.42 - Lambda)/w), w = 2.42 - 1.58; on the
    window both differences are exact, so S = 1 at 1.58 and 0 at 2.42."""
    if not _LAMBDA_LO <= Lambda <= _LAMBDA_HI:
        raise ValueError(
            f"imbalanced branch exists only for {_LAMBDA_LO} <= Lambda <= {_LAMBDA_HI}, got {Lambda}"
        )
    width = _LAMBDA_HI - _LAMBDA_LO
    return (Lambda - _LAMBDA_LO) / width, (_LAMBDA_HI - Lambda) / width


def stationary_solutions(Lambda: float) -> list[HartreeSolution]:
    """All variational stationary branches at the given coupling."""
    _check_coupling(Lambda, "Lambda")
    r = 1.0 / math.sqrt(2.0)
    out = [HartreeSolution(s=0.0, alpha=r, beta=r, theta=0.0, energy=-1.0, branch="S0")]
    if _LAMBDA_LO <= Lambda < _LAMBDA_HI:
        x2, s2 = _branch_squares(Lambda)
        s = math.sqrt(s2)
        hi = math.sqrt(0.5 * (1.0 + s))
        lo = math.sqrt(x2) / (2.0 * hi)  # alpha beta = X/2, with no 1 - S to cancel
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
    S^2 = (2.42 - Lambda)/(2.42 - 1.58).  Agrees with the fit used in
    :func:`stationary_solutions` to better than 0.02 over the branch domain.
    """
    _, s2 = _branch_squares(Lambda)
    return _mean_field_energy(s2, 1.0, Lambda)


def cat_overlap(Lambda: float, n_total: int) -> float:
    """Distinguishability overlap eps = X^N of the two cat components.

    Computed in log space; eps = 0 at Lambda = 1.58 (orthogonal components,
    the N00N limit) and eps -> 1 at Lambda = 2.42 (indistinguishable).
    """
    x2, _ = _branch_squares(Lambda)
    if n_total < 1:
        raise ValueError(f"n_total must be >= 1, got {n_total}")
    if n_total > sys.float_info.max:  # N enters the exponent as a float
        raise ValueError(f"n_total must be at most {sys.float_info.max:g}")
    if x2 <= 0.0:
        return 0.0
    return math.exp(0.5 * n_total * math.log(x2))


def _log_binomial_amplitudes(alpha: float, beta: float, n_total: int):
    """n = 0..N and log|sqrt(C(N, n)) alpha^(N-n) beta^n|, with 0 log 0 = 0."""
    import numpy as np

    from .logspace import log_factorial
    from .model import _check_n

    _check_n(n_total)
    n = np.arange(n_total + 1)
    log_mag = 0.5 * (log_factorial(n_total) - log_factorial(n) - log_factorial(n_total - n))
    for power, base in ((n_total - n, alpha), (n, beta)):
        if base == 0.0:
            log_mag = np.where(power > 0, -np.inf, log_mag)
        else:
            log_mag = log_mag + power * math.log(abs(base))
    return n, log_mag


def _normalized(sign, log_mag) -> FockState:
    """The FockState of sign * exp(log_mag - max(log_mag)), divided by its norm."""
    import numpy as np

    from .model import FockState

    amps = sign * np.exp(log_mag - np.max(log_mag))
    return FockState(amps / math.sqrt(float(np.sum(amps**2))))


def coherent_fock_amplitudes(alpha: float, beta: float, n_total: int) -> FockState:
    """Binomial Fock expansion A_n = sqrt(C(N, n)) alpha^(N-n) beta^n, normalized."""
    # written so that a NaN or an overflowing input fails it too
    if not abs(alpha * alpha + beta * beta - 1.0) <= 1e-12:
        raise ValueError("alpha^2 + beta^2 must equal 1")
    n, log_mag = _log_binomial_amplitudes(alpha, beta, n_total)
    return _normalized((-1.0) ** ((n_total - n) * (alpha < 0) + n * (beta < 0)), log_mag)


def cat_state(Lambda: float, n_total: int, sign: int = +1) -> FockState:
    """Normalized |psi_+> +- |psi_-> of the S+- coherent states, 1.58 <= Lambda < 2.42,
    built in log space: with d = |N - 2n|, amplitude n is the larger component times
    1 +- e^(-d atanh S), negative for n < N/2 in the odd cat; a N00N state at 1.58."""
    import numpy as np

    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    plus = {sol.branch: sol for sol in stationary_solutions(Lambda)}.get("S+")
    if plus is None:
        raise ValueError(f"cat components do not exist at Lambda = {Lambda}")
    n, log_mag = _log_binomial_amplitudes(plus.alpha, plus.beta, n_total)
    x2, _ = _branch_squares(Lambda)
    # atanh S = log((1 + S)/(1 - S))/2 with 1 - S = X^2/(1 + S), which does not cancel
    r = math.inf if x2 == 0.0 else 0.5 * math.log1p(2.0 * plus.s * (1.0 + plus.s) / x2)
    d = np.abs(n_total - 2 * n)
    dr = np.multiply(d, r, out=np.zeros(len(d)), where=d > 0)  # 0, not 0 inf, at d = 0
    with np.errstate(divide="ignore"):  # the odd cat is exactly 0 at n = N/2
        factor = np.log1p(np.exp(-dr)) if sign > 0 else np.log(-np.expm1(-dr))
    signs = np.where((sign < 0) & (2 * n < n_total), -1.0, 1.0)
    return _normalized(signs, log_mag[np.maximum(n, n_total - n)] + factor)


def noon_state(n_total: int, phase: float = 0.0) -> FockState:
    """Balanced N00N state (|N,0> + e^{i phase} |0,N>)/sqrt(2)."""
    import numpy as np

    from .model import FockState, _check_n

    _check_n(n_total)
    if not _finite(phase):
        raise ValueError(f"phase must be finite, got {_shown(phase)}")
    amps = np.zeros(n_total + 1, dtype=complex)
    amps[0] = 1.0 / math.sqrt(2.0)
    amps[-1] = np.exp(1j * phase) / math.sqrt(2.0)
    return FockState(amps)
