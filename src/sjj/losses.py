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

One log-space kernel serves every form: the traced row
|A_n|^2 B^n_{l_a,l_b} of the output mixture, the branch probability (the
sum of a branch's rows over n) and the conditional state (one branch's
rows, normalized).  The binomial weights are tabulated once per state as
two (N+1) x (N+1) arrays, and the (l_a, l_b, n) row tensor is scanned
one l_a at a time.  Each binomial weight is at most 1, so a branch
probability is at most both marginal loss distributions,
P[l_a, l_b] <= Pa[l_a] = sum_n |A_n|^2 Ta[n, l_a] and
P[l_a, l_b] <= Pb[l_b] = sum_n |A_n|^2 Tb[n, l_b]; a scan that needs only
the branches reaching a floor skips every (l_a, l_b) whose marginals lie
below half of it.

Mean-field losses: one-body decay N(t) = N(0) exp(-gamma_1 t) and
three-body recombination N(t) = N(0)/sqrt(1 + 2 L_3 rho^2 t) with effective
rate gamma_3 = 2 L_3 rho^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .logspace import log_factorial
from .model import FockState

__all__ = [
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


def _log_binom_weight(j, l, eta: float) -> np.ndarray:
    """log of C(j, l) eta^(j-l) (1-eta)^l elementwise over integers j, l >= 0
    (broadcast together); -inf where l > j, and where l > 0 at eta = 1."""
    j, l = np.broadcast_arrays(j, l)
    kept = np.where(l <= j, j - l, 0)
    out = log_factorial(j) - log_factorial(l) - log_factorial(kept) + kept * math.log(eta)
    # l log(1 - eta), with 0 log 0 = 0 at eta = 1
    out = out + (l * math.log1p(-eta) if eta < 1.0 else np.where(l > 0, -np.inf, 0.0))
    return np.where(l <= j, out, -np.inf)


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
    return float(np.exp(_log_binom_weight(n_total - n, l_a, ch.eta_a)
                        + _log_binom_weight(n, l_b, ch.eta_b)))


@dataclass(frozen=True, eq=False)
class _Kernel:
    """Log-space factors of the traced rows

        row(l_a, l_b, n) = |A_n|^2 Ta[n, l_a] Tb[n, l_b],

    Ta and Tb the binomial weights of losing l_a of the N-n particles of
    mode a and l_b of the n of mode b.  Each table holds one loss count per
    row and n along the row.  A row is always summed as
    (log Ta + log Tb) + log |A_n|^2: at eta_a = eta_b the first sum is the
    same for (l_a, l_b, n) and (l_b, l_a, N-n), so a mirror-symmetric state
    gives bit-identical mirror rows."""

    amps: np.ndarray
    log_p: np.ndarray  # log |A_n|^2, -inf where A_n = 0
    log_ta: np.ndarray  # [l_a, n]
    log_tb: np.ndarray  # [l_b, n]
    mirror: bool  # eta_a = eta_b and |A_n| = |A_{N-n}|: P[l_a, l_b] = P[l_b, l_a]


# largest (N+1)^2 of the kernel's tables: 128 MiB each, N <= 4095; the
# README's N = 300 needs 0.7 MB.  A scan with no floor evaluates all
# ~N^3/3 rows; one with a floor only the rows of the branches whose
# marginals reach it
_MAX_TABLE = 1 << 24


def _kernel(s: FockState, ch: LossChannel) -> _Kernel:
    if (s.n_total + 1) ** 2 > _MAX_TABLE:
        raise ValueError(
            f"n_total must be at most {math.isqrt(_MAX_TABLE) - 1} for the loss tables, got {s.n_total}"
        )
    n = np.arange(s.n_total + 1)
    with np.errstate(divide="ignore"):
        log_p = np.log(s.probabilities)
    return _Kernel(
        amps=s.amps,
        log_p=log_p,
        log_ta=_log_binom_weight(s.n_total - n, n[:, None], ch.eta_a),
        log_tb=_log_binom_weight(n, n[:, None], ch.eta_b),
        mirror=ch.eta_a == ch.eta_b and np.array_equal(log_p, log_p[::-1]),
    )


def _marginals(k: _Kernel) -> tuple[np.ndarray, np.ndarray]:
    """The marginal loss distributions Pa[l_a] = sum_n |A_n|^2 Ta[n, l_a]
    and Pb[l_b] = sum_n |A_n|^2 Tb[n, l_b], each term formed in log space
    as the rows are."""
    return np.exp(k.log_ta + k.log_p).sum(axis=-1), np.exp(k.log_tb + k.log_p).sum(axis=-1)


def _scan(
    k: _Kernel, row_min: float, floor: float = 0.0
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Branch probabilities P[l_a, l_b] = sum_n row(l_a, l_b, n), and the
    (l_a, l_b, n, row) columns of the rows with row >= row_min and row > 0,
    in (l_a, l_b, n) order.  The row tensor is built one l_a at a time, its
    (l_b, n) slab cut to l_b <= N - l_a and n <= N - l_a, past which every
    row is 0.

    Branches that cannot reach `floor` are skipped: a slab is built only
    for the l_a with Pa[l_a] >= floor/2, on the rows l_b with
    Pb[l_b] >= floor/2 (see :func:`_marginals`).  The factor 2 covers the
    ~1e-12 relative rounding by which a computed P may exceed its computed
    marginals.  P is exact wherever it is >= floor, and is 0 for a skipped
    branch; every row of a built slab, and every sum, is the one the whole
    tensor gives, bit for bit."""
    size = len(k.log_p)
    prob = np.zeros((size, size))
    # the empty columns stand in when no branch reaches the floor
    found = [(np.zeros(0, dtype=int),) * 3 + (np.zeros(0),)]
    pa, pb = _marginals(k)
    if k.mirror:
        # Pa = Pb in exact arithmetic, but their sums round differently:
        # one bound for both keeps or skips each mirror pair together
        pa = pb = np.maximum(pa, pb)
    keep_a, keep_b = pa >= 0.5 * floor, pb >= 0.5 * floor
    for l_a in np.flatnonzero(keep_a).tolist():
        m = size - l_a
        rows_b = np.flatnonzero(keep_b[:m])
        slab = k.log_ta[l_a, :m] + k.log_tb[rows_b, :m]
        slab += k.log_p[:m]
        np.exp(slab, out=slab)
        sums = slab.sum(axis=-1)
        prob[l_a, rows_b] = sums
        # only a branch whose sum reaches row_min can hold such a row
        lb = np.flatnonzero(sums >= row_min)
        sub = slab[lb]
        j, n = np.nonzero((sub >= row_min) & (sub > 0.0))
        found.append((np.full(len(j), l_a), rows_b[lb[j]], n, sub[j, n]))
    if k.mirror:
        # make the tie exact, so (l_a, l_b) and not rounding orders each mirror pair
        prob = 0.5 * (prob + prob.T)
    return prob, tuple(np.concatenate(col) for col in zip(*found))


def _branch(k: _Kernel, l_a: int, l_b: int, probability: float | None = None) -> ConditionalState:
    """Conditional state of one branch from its slice of the kernel; the
    probability is the row sum unless given."""
    N = len(k.log_p) - 1
    n = slice(l_b, N - l_a + 1)
    log_w = k.log_ta[l_a, n] + k.log_tb[l_b, n]
    log_rows = log_w + k.log_p[n]
    if probability is None:
        probability = float(np.sum(np.exp(log_rows)))
    if probability == 0.0:
        raise ZeroProbabilityBranchError(
            f"detection event (l_a={l_a}, l_b={l_b}) has zero probability"
        )
    top = float(np.max(log_rows))
    # A_n sqrt(B^n) scaled by exp(-top/2) so the largest |amplitude|^2 is 1:
    # the tails keep their size relative to it wherever they stay above the
    # double underflow
    scaled = k.amps[n] * np.exp(0.5 * (log_w - top))
    norm2 = float(np.sum(np.exp(log_rows - top)))
    return ConditionalState(
        l_a=l_a, l_b=l_b, probability=probability, state=FockState(scaled / math.sqrt(norm2))
    )


def conditional_state(s: FockState, l_a: int, l_b: int, ch: LossChannel) -> ConditionalState:
    """Normalized branch state after detecting (l_a, l_b) lost particles.

    Unnormalized amplitudes A_n sqrt(B^n_{l_a,l_b}) over n in [l_b, N-l_a],
    re-indexed to the (N - l_a - l_b)-particle basis; the branch probability
    is sum_n |A_n|^2 B^n, the sum of the branch's traced rows.  A
    zero-probability branch (an impossible detection event, e.g.
    simultaneous loss from both modes of an ideal N00N state) raises
    :class:`ZeroProbabilityBranchError`.
    """
    N = s.n_total
    if l_a < 0 or l_b < 0:
        raise ValueError("loss counts must be >= 0")
    if l_a + l_b > N:
        raise ValueError(f"cannot lose {l_a}+{l_b} particles out of {N}")
    return _branch(_kernel(s, ch), l_a, l_b)


def _check_p_min(p_min: float) -> None:
    if p_min < 0:
        raise ValueError(f"p_min must be >= 0, got {p_min}")


def loss_mixture(s: FockState, ch: LossChannel, p_min: float = 0.0) -> list[ConditionalState]:
    """All loss branches with probability >= p_min, sorted by probability
    descending (ties broken by (l_a, l_b)).

    Branch enumeration is exact, no sampling: every probability is the sum
    of the branch's traced rows (see :func:`traced_mixture`).  Impossible
    branches (probability exactly 0, e.g. when eta = 1) are omitted; the
    complete p_min = 0 set has probabilities summing to 1 within 1e-12.
    p_min only truncates the returned list, never the underlying
    enumeration.
    """
    _check_p_min(p_min)
    k = _kernel(s, ch)
    prob, _ = _scan(k, math.inf, floor=p_min)
    la, lb = np.nonzero((prob >= p_min) & (prob > 0.0))
    order = np.lexsort((lb, la, -prob[la, lb]))
    return [_branch(k, a, b, float(prob[a, b])) for a, b in zip(la[order].tolist(), lb[order].tolist())]


class TracedRows(NamedTuple):
    """Columns of the traced output state: the joint probability `prob` of
    losing (l_a, l_b) particles and finding n in mode b before the loss."""

    l_a: np.ndarray
    l_b: np.ndarray
    n: np.ndarray
    prob: np.ndarray


def traced_mixture(
    s: FockState, ch: LossChannel, p_min: float = 0.0, row_min: float = 0.0
) -> TracedRows:
    """The rows |A_n|^2 Ta[n, l_a] Tb[n, l_b] of the branches with
    probability >= p_min, ordered as :func:`loss_mixture` orders the
    branches and by n within a branch.  Rows below row_min and rows that
    are exactly 0 are left out; p_min still applies to the whole branch."""
    _check_p_min(p_min)
    # no row of a branch below row_min reaches row_min
    prob, (la, lb, n, rows) = _scan(_kernel(s, ch), row_min, floor=max(p_min, row_min))
    branch = prob[la, lb]
    kept = np.flatnonzero(branch >= p_min)
    order = kept[np.argsort(-branch[kept], kind="stable")]
    return TracedRows(la[order], lb[order], n[order], rows[order])


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
