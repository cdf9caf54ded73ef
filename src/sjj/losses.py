"""Particle-loss channels: mean-field decay laws and the fictitious
beam-splitter model with conditional and traced output states.

Each mode passes a beam splitter of transmissivity eta into an unobserved
environment mode.  Detecting (l_a, l_b) lost particles projects the input
sum_n A_n |N-n, n> onto the branch with amplitudes proportional to
A_n sqrt(B^n_{l_a,l_b}) for l_b <= n <= N - l_a, where

    B^n_{l_a,l_b} = C(N-n, l_a) eta_a^(N-n-l_a) (1-eta_a)^l_a
                  * C(n, l_b)   eta_b^(n-l_b)   (1-eta_b)^l_b

is a product of two binomial weights (an algebraically equivalent,
overflow-safe regrouping of the usual eta^(N-n) (eta^-1 - 1)^l form).
Branches are normalized individually and carry their probability
separately; summed over all (l_a, l_b) the probabilities are complete.
The environment modes are never materialized, only the reduced branch data.

Mean-field losses: one-body decay N(t) = N(0) exp(-gamma_1 t) and
three-body recombination N(t) = N(0)/sqrt(1 + 2 L_3 rho^2 t) with effective
rate gamma_3 = 2 L_3 rho^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logspace import log_factorial, logsumexp
from .model import FockState

__all__ = [
    "LossChannel",
    "ConditionalState",
    "ZeroProbabilityBranchError",
    "bs_coefficient",
    "conditional_state",
    "loss_mixture",
    "three_body_decay",
    "one_body_decay",
    "gamma3",
]


class ZeroProbabilityBranchError(ValueError):
    """The requested detection event has zero probability for this state."""


@dataclass(frozen=True)
class LossChannel:
    """Beam-splitter transmissivities of the two loss channels, 0 < eta <= 1."""

    eta_a: float
    eta_b: float

    def __post_init__(self):
        for name, eta in (("eta_a", self.eta_a), ("eta_b", self.eta_b)):
            if not 0.0 < eta <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {eta}")


@dataclass(frozen=True, eq=False)
class ConditionalState:
    """Post-detection branch: loss counts, branch probability, and the
    normalized state of the remaining N' = N - l_a - l_b particles.
    state.amps[k] multiplies |N'-k, k> with k = n - l_b."""

    l_a: int
    l_b: int
    probability: float
    state: FockState

    @property
    def n_remaining(self) -> int:
        return self.state.n_total


def _log_binom_weight(j: np.ndarray, l: int, eta: float) -> np.ndarray:
    """log of C(j, l) eta^(j-l) (1-eta)^l, elementwise over integers j >= l."""
    out = log_factorial(j) - log_factorial(l) - log_factorial(j - l)
    out += (j - l) * math.log(eta)
    if l > 0:
        if eta == 1.0:
            return np.full_like(out, -np.inf)
        out += l * math.log1p(-eta)
    return out


def bs_coefficient(n: int, l_a: int, l_b: int, n_total: int, ch: LossChannel) -> float:
    """Probability weight B^n_{l_a,l_b} of losing (l_a, l_b) particles from
    the basis state |N-n, n>.  Evaluated in log space; lies in [0, 1] and is
    binomially complete: summed over all admissible (l_a, l_b) it is 1."""
    if not 0 <= n <= n_total:
        raise ValueError(f"need 0 <= n <= {n_total}, got n = {n}")
    if not 0 <= l_a <= n_total - n:
        raise ValueError(f"need 0 <= l_a <= {n_total - n}, got l_a = {l_a}")
    if not 0 <= l_b <= n:
        raise ValueError(f"need 0 <= l_b <= {n}, got l_b = {l_b}")
    log_w = _log_binom_weight(np.array([n_total - n]), l_a, ch.eta_a)
    log_w = log_w + _log_binom_weight(np.array([n]), l_b, ch.eta_b)
    return float(np.exp(log_w[0]))


def conditional_state(s: FockState, l_a: int, l_b: int, ch: LossChannel) -> ConditionalState:
    """Normalized branch state after detecting (l_a, l_b) lost particles.

    Unnormalized amplitudes A_n sqrt(B^n_{l_a,l_b}) over n in [l_b, N-l_a],
    re-indexed to the (N - l_a - l_b)-particle basis; the branch probability
    is sum_n |A_n|^2 B^n.  A zero-probability branch (an impossible
    detection event, e.g. simultaneous loss from both modes of an ideal
    N00N state) raises :class:`ZeroProbabilityBranchError`.
    """
    N = s.n_total
    if l_a < 0 or l_b < 0:
        raise ValueError("loss counts must be >= 0")
    if l_a + l_b > N:
        raise ValueError(f"cannot lose {l_a}+{l_b} particles out of {N}")
    n = np.arange(l_b, N - l_a + 1)
    log_w = _log_binom_weight(N - n, l_a, ch.eta_a) + _log_binom_weight(n, l_b, ch.eta_b)
    raw = s.amps[n] * np.exp(0.5 * log_w)

    # probability in log space: deep branches have weights far below the
    # double floor, where direct products are pure underflow noise
    p2 = np.abs(s.amps[n]) ** 2
    with np.errstate(divide="ignore"):
        log_p = np.where(p2 > 0.0, np.log(np.where(p2 > 0.0, p2, 1.0)), -np.inf)
    finite = np.isfinite(log_p + log_w)
    prob = float(np.exp(logsumexp((log_p + log_w)[finite]))) if np.any(finite) else 0.0

    peak = float(np.max(np.abs(raw))) if raw.size else 0.0
    if prob == 0.0 or peak == 0.0:
        raise ZeroProbabilityBranchError(
            f"detection event (l_a={l_a}, l_b={l_b}) has zero probability"
        )
    # rescale before normalizing: squared magnitudes of ~1e-170 amplitudes
    # underflow, which would corrupt the norm
    scaled = raw / peak
    return ConditionalState(
        l_a=l_a,
        l_b=l_b,
        probability=prob,
        state=FockState(scaled / np.linalg.norm(scaled)),
    )


def loss_mixture(s: FockState, ch: LossChannel, p_min: float = 0.0) -> list[ConditionalState]:
    """All loss branches with probability >= p_min, sorted by probability
    descending (ties broken by (l_a, l_b)).

    Branch enumeration is exact, no sampling: the (l_a, l_b) grid is
    O(N^2) with O(N) work per branch.  Impossible branches (probability
    exactly 0, e.g. when eta = 1) are omitted; the complete p_min = 0 set
    has probabilities summing to 1 within 1e-12.  p_min only truncates the
    returned list, never the underlying enumeration.
    """
    if p_min < 0:
        raise ValueError(f"p_min must be >= 0, got {p_min}")
    N = s.n_total
    probs = np.abs(s.amps) ** 2
    n = np.arange(N + 1)

    # branch probabilities in one shot: p[l_a, l_b] = sum_n |A_n|^2 Ta[n,l_a] Tb[n,l_b]
    ta = np.zeros((N + 1, N + 1))  # ta[n, l_a], weight of losing l_a of N-n
    tb = np.zeros((N + 1, N + 1))  # tb[n, l_b], weight of losing l_b of n
    for l in range(N + 1):
        ja = N - n
        oka = ja >= l
        ta[oka, l] = np.exp(_log_binom_weight(ja[oka], l, ch.eta_a))
        okb = n >= l
        tb[okb, l] = np.exp(_log_binom_weight(n[okb], l, ch.eta_b))
    p_branch = np.einsum("n,na,nb->ab", probs, ta, tb)
    if ch.eta_a == ch.eta_b and np.array_equal(probs, probs[::-1]):
        # p[l_a, l_b] = p[l_b, l_a] for a mirror-symmetric state; make the
        # tie exact, so (l_a, l_b) and not rounding orders each mirror pair
        p_branch = 0.5 * (p_branch + p_branch.T)

    la_idx, lb_idx = np.nonzero(p_branch >= max(p_min, 0.0))
    order = sorted(
        zip(la_idx.tolist(), lb_idx.tolist()),
        key=lambda ab: (-p_branch[ab[0], ab[1]], ab[0], ab[1]),
    )
    out = []
    for l_a, l_b in order:
        if p_branch[l_a, l_b] == 0.0 or l_a + l_b > N:
            continue
        try:
            out.append(conditional_state(s, l_a, l_b, ch))
        except ZeroProbabilityBranchError:
            # the direct product sum and the log-space sum can disagree
            # right at the underflow boundary
            continue
    return out


def three_body_decay(n0: float, l3: float, rho: float, t: float) -> float:
    """Atom number under three-body recombination, N(0)/sqrt(1 + 2 L3 rho^2 t).

    l3 in cm^6/s, rho in cm^-3, t in s.
    """
    if min(n0, l3, rho, t) < 0:
        raise ValueError("all inputs must be >= 0")
    return n0 / math.sqrt(1.0 + gamma3(l3, rho) * t)


def gamma3(l3: float, rho: float) -> float:
    """Effective three-body loss rate gamma_3 = 2 L3 rho^2 (1/s)."""
    if l3 < 0 or rho < 0:
        raise ValueError("l3 and rho must be >= 0")
    return 2.0 * l3 * rho * rho


def one_body_decay(n0: float, gamma1: float, t: float) -> float:
    """Atom number under one-body losses, N(0) exp(-gamma_1 t)."""
    if min(n0, gamma1, t) < 0:
        raise ValueError("all inputs must be >= 0")
    return n0 * math.exp(-gamma1 * t)
