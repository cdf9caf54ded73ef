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
sum of a branch's rows over n, formed by the scan alone) and the
conditional state (one branch's rows, normalized, with the scan's
probability).  The binomial weights are tabulated once per state as
two tables, one loss count per row, and the (l_a, l_b, n) row tensor is
scanned one l_a at a time.  Mode a holds at most N particles, so a branch
probability is at most the binomial tail P(Bin(N, 1-eta_a) >= l_a), and
likewise for mode b; a scan that needs only the branches reaching a floor
tabulates only the loss counts whose tail reaches half of it.

Mean-field losses: one-body decay N(t) = N(0) exp(-gamma_1 t) and
three-body recombination N(t) = N(0)/sqrt(1 + 2 L_3 rho^2 t) with effective
rate gamma_3 = 2 L_3 rho^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _EXPORTS
from .logspace import log_factorial
from .model import FockState, _check_min
from .overlap_fit import _finite

__all__ = list(_EXPORTS["losses"])


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


def _log_binom_weight(j, l, eta: float) -> np.ndarray:
    """log of C(j, l) eta^(j-l) (1-eta)^l elementwise over integers j, l >= 0
    (broadcast together); -inf where l > j, and where l > 0 at eta = 1."""
    j, l = np.broadcast_arrays(j, l)
    kept = np.where(l <= j, j - l, 0)
    out = log_factorial(j) - log_factorial(l) - log_factorial(kept) + kept * math.log(eta)
    # l log(1 - eta), with 0 log 0 = 0 at eta = 1
    out = out + (l * math.log1p(-eta) if eta < 1.0 else np.where(l > 0, -np.inf, 0.0))
    return np.where(l <= j, out, -np.inf)


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
    log_p: np.ndarray  # FockState.log_probabilities
    log_ta: np.ndarray  # [l_a, n]
    log_tb: np.ndarray  # [l_b, n]
    mirror: bool  # eta_a = eta_b and |A_n| = |A_{N-n}|: P[l_a, l_b] = P[l_b, l_a]


# largest (N+1)^2 of a loss kernel, N <= 4095: it bounds the scan and its
# output, not the tables (see _reach); a scan with no floor evaluates all
# ~N^3/3 rows, 9.1 M at the README's N = 300
_MAX_TABLE = 1 << 24


def _reach(n_total: int, eta: float, floor: float) -> int:
    """How many loss counts l = 0, 1, ... have a binomial tail
    P(Bin(N, 1-eta) >= l) of at least floor/2 (N + 1 when floor is 0); the
    factor 2 covers the ~1e-12 relative rounding of the computed P and tail."""
    if floor == 0.0:
        return n_total + 1
    # with Pa[l_a] = sum_n |A_n|^2 Ta[n, l_a], P[l_a, l_b] <= Pa[l_a]
    # <= max_n P(Bin(N-n, 1-eta_a) = l_a) <= P(Bin(N, 1-eta_a) >= l_a), alike
    # for mode b; the tail grows as eta falls, so the smaller eta bounds both
    log_weight = _log_binom_weight(n_total, np.arange(n_total + 1), eta)
    log_tail = np.logaddexp.accumulate(log_weight[::-1])
    return int(np.count_nonzero(log_tail >= math.log(floor) - math.log(2.0)))


def _kernel(s: FockState, ch: LossChannel, rows: int | None = None) -> _Kernel:
    """The kernel of s, its tables cut to loss counts 0..rows-1 (all N + 1
    when rows is None)."""
    if (s.n_total + 1) ** 2 > _MAX_TABLE:
        raise ValueError(
            f"n_total must be at most {math.isqrt(_MAX_TABLE) - 1} for the loss tables, got {s.n_total}"
        )
    n = np.arange(s.n_total + 1)
    log_p = s.log_probabilities
    return _Kernel(
        amps=s.amps,
        log_p=log_p,
        log_ta=_log_binom_weight(s.n_total - n, n[:rows, None], ch.eta_a),
        log_tb=_log_binom_weight(n, n[:rows, None], ch.eta_b),
        mirror=ch.eta_a == ch.eta_b and np.array_equal(log_p, log_p[::-1]),
    )


def _scan(k: _Kernel, row_min: float) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Branch probabilities P[l_a, l_b] = sum_n row(l_a, l_b, n) over the
    loss counts the kernel holds, and the (l_a, l_b, n, row) columns of the
    rows with row >= row_min and row > 0, in (l_a, l_b, n) order.  The row
    tensor is built one l_a at a time, its (l_b, n) slab cut to
    l_b <= N - l_a and n <= N - l_a, past which every row is 0.  Every row
    and every sum is the one the whole tensor gives, bit for bit."""
    size, rows = len(k.log_p), len(k.log_ta)
    prob = np.zeros((rows, rows))
    # the empty columns stand in when the kernel holds no loss count
    found = [(np.zeros(0, dtype=int),) * 3 + (np.zeros(0),)]
    for l_a in range(rows):
        m = size - l_a
        slab = k.log_ta[l_a, :m] + k.log_tb[:m, :m]
        slab += k.log_p[:m]
        np.exp(slab, out=slab)
        sums = slab.sum(axis=-1)
        prob[l_a, :m] = sums
        # only a branch whose sum reaches row_min can hold such a row
        lb = np.flatnonzero(sums >= row_min)
        sub = slab[lb]
        j, n = np.nonzero((sub >= row_min) & (sub > 0.0))
        found.append((np.full(len(j), l_a), lb[j], n, sub[j, n]))
    if k.mirror:
        # make the tie exact, so (l_a, l_b) and not rounding orders each mirror pair
        prob = 0.5 * (prob + prob.T)
    return prob, tuple(np.concatenate(col) for col in zip(*found))


def _branch(k: _Kernel, l_a: int, l_b: int, probability: float) -> ConditionalState:
    """Normalized state of one branch from its slice of the kernel; the
    probability is the branch's entry of :func:`_scan`'s table."""
    if probability == 0.0:
        raise ZeroProbabilityBranchError(
            f"detection event (l_a={l_a}, l_b={l_b}) has zero probability"
        )
    n = slice(l_b, len(k.log_p) - l_a)
    log_w = k.log_ta[l_a, n] + k.log_tb[l_b, n]
    log_rows = log_w + k.log_p[n]
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
    re-indexed to the (N - l_a - l_b)-particle basis.  The branch
    probability sum_n |A_n|^2 B^n is read from the scan of the loss counts
    0..max(l_a, l_b), which holds the branch and its mirror partner, so it
    is :func:`loss_mixture`'s bit for bit.  A zero-probability branch (an
    impossible detection event, e.g. simultaneous loss from both modes of
    an ideal N00N state) raises :class:`ZeroProbabilityBranchError`.
    """
    N = s.n_total
    if l_a < 0 or l_b < 0:
        raise ValueError("loss counts must be >= 0")
    if l_a + l_b > N:
        raise ValueError(f"cannot lose {l_a}+{l_b} particles out of {N}")
    k = _kernel(s, ch, max(l_a, l_b) + 1)
    prob, _ = _scan(k, math.inf)
    return _branch(k, l_a, l_b, float(prob[l_a, l_b]))


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
    _check_min("p_min", p_min)
    k = _kernel(s, ch, _reach(s.n_total, min(ch.eta_a, ch.eta_b), p_min))
    prob, _ = _scan(k, math.inf)
    la, lb = np.nonzero((prob >= p_min) & (prob > 0.0))
    order = np.argsort(-prob[la, lb], kind="stable")  # ties stay in (l_a, l_b) order
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
    _check_min("p_min", p_min)
    _check_min("row_min", row_min)
    # no row of a branch below row_min reaches row_min
    reach = _reach(s.n_total, min(ch.eta_a, ch.eta_b), max(p_min, row_min))
    prob, (la, lb, n, rows) = _scan(_kernel(s, ch, reach), row_min)
    branch = prob[la, lb]
    kept = np.flatnonzero(branch >= p_min)
    order = kept[np.argsort(-branch[kept], kind="stable")]
    return TracedRows(la[order], lb[order], n[order], rows[order])


def three_body_decay(n0: float, l3: float, rho: float, t: float) -> float:
    """Atom number under three-body recombination, N(0)/sqrt(1 + 2 L3 rho^2 t).

    l3 in cm^6/s, rho in cm^-3, t in s.
    """
    if not all(_finite(x) and x >= 0 for x in (n0, l3, rho, t)):
        raise ValueError("all inputs must be >= 0 and finite")
    return n0 / math.sqrt(1.0 + gamma3(l3, rho) * t)


def gamma3(l3: float, rho: float) -> float:
    """Effective three-body loss rate gamma_3 = 2 L3 rho^2 (1/s)."""
    if not (_finite(l3) and l3 >= 0 and _finite(rho) and rho >= 0):
        raise ValueError("l3 and rho must be >= 0 and finite")
    return 2.0 * l3 * rho * rho


def one_body_decay(n0: float, gamma1: float, t: float) -> float:
    """Atom number under one-body losses, N(0) exp(-gamma_1 t)."""
    if not all(_finite(x) and x >= 0 for x in (n0, gamma1, t)):
        raise ValueError("all inputs must be >= 0 and finite")
    return n0 * math.exp(-gamma1 * t)
