"""Entanglement and squeezing diagnostics for two-mode Fock states.

Basis convention, used everywhere in this module: amps[n] multiplies
|N-n>_a |n>_b, so J_Z = (a^dag a - b^dag b)/2 has eigenvalue (N - 2n)/2 and
the population imbalance used by the mean-field picture is
<z> = -2 <J_Z> / N (see :func:`mean_imbalance`).

Spin components for fixed total number N:

    J_X = (a^dag b + b^dag a)/2,  J_Y = (b^dag a - a^dag b)/(2i),
    J_Z = (a^dag a - b^dag b)/2,  J   = N/2,

with the Casimir identity <J_X^2 + J_Y^2 + J_Z^2> = (N/2)(N/2 + 1) for any
pure state, a built-in consistency check on the moment machinery.

The order-m witness compares m-particle coherence between the modes against
the m-particle populations; values in [0, 1) certify mode entanglement, and
values below 0.5 at m = 1 certify EPR steering for this system.  All
factorial ratios run through log n!, and only ratios of the large moments
are ever exponentiated, so m = N = 300 stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .eigensolve import ground
from .logspace import log_factorial, logsumexp
from .model import FockState, ModelKind

__all__ = [
    "SpinExpectations",
    "PlanarSqueezing",
    "CJScanResult",
    "UndefinedCriterionError",
    "spin_expectations",
    "mean_imbalance",
    "hz_criterion",
    "hz1_from_spins",
    "planar_squeezing",
    "refine_minimum",
    "cj_scan",
    "crossover_coupling",
]


class UndefinedCriterionError(ValueError):
    """The witness denominator vanished: the criterion is undefined for
    this state and order."""


@dataclass(frozen=True)
class SpinExpectations:
    """First and second spin moments; j_total = N/2."""

    jx: float
    jy: float
    jz: float
    var_jx: float
    var_jy: float
    var_jz: float
    j_total: float


class PlanarSqueezing(NamedTuple):
    delta_parallel: float
    j_parallel: float
    squeezed: bool


class CJScanResult(NamedTuple):
    c_j: float
    argmin: float


def _ladder(N: int) -> np.ndarray:
    """c_n = sqrt((n+1)(N-n)) coupling amplitudes between n and n+1."""
    n = np.arange(N, dtype=float)
    return np.sqrt((n + 1.0) * (N - n))


def _jx_apply(amps: np.ndarray, c: np.ndarray) -> np.ndarray:
    out = np.zeros_like(amps)
    out[1:] += 0.5 * c * amps[:-1]
    out[:-1] += 0.5 * c * amps[1:]
    return out


def _jy_apply(amps: np.ndarray, c: np.ndarray) -> np.ndarray:
    out = np.zeros_like(amps)
    out[1:] += c * amps[:-1] / 2j
    out[:-1] -= c * amps[1:] / 2j
    return out


def spin_expectations(s: FockState) -> SpinExpectations:
    """Means and variances of J_X, J_Y, J_Z; second moments are obtained by
    applying each operator twice (as squared norms of J|psi>)."""
    N = s.n_total
    amps = s.amps
    c = _ladder(N)
    jz_diag = 0.5 * (N - 2.0 * np.arange(N + 1))

    jx_amps = _jx_apply(amps, c)
    jy_amps = _jy_apply(amps, c)
    jz_amps = jz_diag * amps

    ex = float(np.real(np.vdot(amps, jx_amps)))
    ey = float(np.real(np.vdot(amps, jy_amps)))
    ez = float(np.real(np.vdot(amps, jz_amps)))
    # clamp rounding-level negatives of the variances at zero
    vx = max(0.0, float(np.real(np.vdot(jx_amps, jx_amps))) - ex * ex)
    vy = max(0.0, float(np.real(np.vdot(jy_amps, jy_amps))) - ey * ey)
    vz = max(0.0, float(np.real(np.vdot(jz_amps, jz_amps))) - ez * ez)
    return SpinExpectations(
        jx=ex, jy=ey, jz=ez, var_jx=vx, var_jy=vy, var_jz=vz, j_total=N / 2.0
    )


def mean_imbalance(s: FockState) -> float:
    """<z> = -2 <J_Z> / N, matching the mean-field sign convention."""
    return -2.0 * spin_expectations(s).jz / s.n_total


def _log_falling(x: np.ndarray, m: int) -> np.ndarray:
    """log(x!/(x-m)!) for integers x >= 0, -inf where x < m."""
    return np.where(x >= m, log_factorial(x) - log_factorial(np.maximum(x - m, 0)), -np.inf)


def hz_criterion(s: FockState, m: int) -> float:
    """Order-m entanglement witness from mode moments.

    E = 1 + (<a+^m a^m b+^m b^m> - |<a^m b+^m>|^2) / <a+^m a^m (b^m b+^m - b+^m b^m)>

    evaluated by closed-form falling-factorial sums over the amplitudes.
    Only the ratios of the three moments are exponentiated, so the result is
    finite for any 1 <= m <= N.  Values in [0, 1) witness entanglement.
    """
    N = s.n_total
    if not 1 <= m <= N:
        raise ValueError(f"order must satisfy 1 <= m <= {N}, got {m}")
    amps = s.amps
    probs = np.abs(amps) ** 2
    n = np.arange(N + 1)

    lff_a = _log_falling(N - n, m)  # a+^m a^m on |N-n>
    lff_b = _log_falling(n, m)      # b+^m b^m on |n>
    log_rise = log_factorial(n + m) - log_factorial(n)  # b^m b+^m on |n>

    with np.errstate(divide="ignore"):
        log_p = np.where(probs > 0, np.log(np.where(probs > 0, probs, 1.0)), -np.inf)

    log_pop = logsumexp(log_p + lff_a + lff_b)

    # <a^m b+^m>: couples A_{n+m} and A_n; amplitude moduli are <= 1 and are
    # kept out of log space, only the factorial scale K is factored out
    idx = n[: N + 1 - m]
    log_fac = 0.5 * (lff_a[idx] + _log_falling(idx + m, m))
    pair = np.conj(amps[idx + m]) * amps[idx]
    finite = np.isfinite(log_fac) & (pair != 0)
    if np.any(finite):
        K = float(np.max(log_fac[finite]))
        coh = np.sum(pair[finite] * np.exp(log_fac[finite] - K))
        log_coh2 = 2.0 * (K + math.log(abs(coh))) if coh != 0 else -np.inf
    else:
        log_coh2 = -np.inf

    # b^m b+^m - b+^m b^m > 0, via log1p on the ratio falling/rising
    log_comm = log_rise + np.log1p(-np.exp(np.minimum(lff_b - log_rise, 0.0)))
    log_den = logsumexp(log_p + lff_a + log_comm)

    if log_den == -np.inf:
        raise UndefinedCriterionError(
            f"witness denominator vanished for m = {m} (no support with >= {m} particles in mode a)"
        )
    with np.errstate(over="ignore"):
        return float(1.0 + np.exp(log_pop - log_den) - np.exp(log_coh2 - log_den))


def hz1_from_spins(s: FockState) -> float:
    """First-order witness in spin form, (var J_X + var J_Y)/<J>, <J> = N/2.

    Equals hz_criterion(s, 1) whenever the modes are equally populated
    (<N_a> = N/2), which covers every mirror-symmetric state this package
    produces.
    """
    e = spin_expectations(s)
    return (e.var_jx + e.var_jy) / e.j_total


def planar_squeezing(s: FockState) -> PlanarSqueezing:
    """In-plane variance sum dJ_par = var J_X + var J_Y against the in-plane
    spin length J_par = sqrt(<J_X>^2 + <J_Y>^2); squeezed iff dJ_par < J_par."""
    e = spin_expectations(s)
    delta = e.var_jx + e.var_jy
    j_par = math.hypot(e.jx, e.jy)
    return PlanarSqueezing(delta_parallel=delta, j_parallel=j_par, squeezed=delta < j_par)


def refine_minimum(
    f: Callable[[float], float],
    grid: np.ndarray,
    refine_to: float = 1e-5,
) -> tuple[float, float, list[float]]:
    """Locate the minimum of f by iterated local grid refinement.

    Scans the given grid, then repeatedly subdivides a one-step bracket
    around the current argmin into 21 points until the local step drops
    below refine_to, which must be >= 0; refine_to = inf scans the grid only.
    Returns (x_min, f_min, all x evaluated).  The minimum of the witness
    sits in an extremely narrow coupling window for the soliton model, which
    is what the refinement is for.
    """
    if not refine_to >= 0.0:
        raise ValueError(f"refine_to must be >= 0, got {refine_to}")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    evaluated: list[float] = []

    def eval_all(xs: np.ndarray) -> np.ndarray:
        evaluated.extend(float(x) for x in xs)
        return np.array([f(float(x)) for x in xs])

    vals = eval_all(grid)
    i = int(np.argmin(vals))
    best_x, best_v = float(grid[i]), float(vals[i])
    step = float(grid[1] - grid[0]) if grid.size > 1 else 0.0
    while step > refine_to:
        sub = np.linspace(best_x - step, best_x + step, 21)
        sub = sub[sub >= 0.0]
        sv = eval_all(sub)
        j = int(np.argmin(sv))
        if sv[j] < best_v:
            best_x, best_v = float(sub[j]), float(sv[j])
        step = float(sub[1] - sub[0])
    return best_x, best_v, evaluated


def cj_scan(kind: ModelKind, n_total: int, grid: np.ndarray, refine_to: float = 1e-5) -> CJScanResult:
    """Minimum of the first-order witness over a coupling grid, with local
    refinement of the argmin down to a step of refine_to."""

    def f(coupling: float) -> float:
        return hz_criterion(ground(kind, n_total, coupling)[1], 1)

    best_x, best_v, _ = refine_minimum(f, grid, refine_to=refine_to)
    return CJScanResult(c_j=best_v, argmin=best_x)


_CROSSOVER_PREDICATES = ("bimodal", "edge", "hz_jump")


def crossover_coupling(
    kind: ModelKind,
    n_total: int,
    criterion: str = "bimodal",
    tol: float = 1e-7,
    bracket: tuple[float, float] | None = None,
) -> float:
    """Smallest coupling at which the ground state switches character.

    Predicates on the ground distribution p_n (N >= 4):

    * "bimodal" (default): the center n = N/2 is no longer the global
      maximum.  This is the onset of the two-peak superposition structure
      and reproduces the published crossover of both models.
    * "edge": p_0 exceeds the center probability (edge dominance).  For the
      soliton model this flips at the same point as "bimodal" to seven
      digits; for the conventional junction it flips much later, once the
      peaks have migrated all the way to the edges.
    * "hz_jump": the first-order witness has jumped above 0.75.

    Bisection to ``tol`` >= 0 in coupling, or until the bracket's ends are
    adjacent floats; the initial bracket expands upward by doubling until the
    predicate holds.
    """
    if n_total < 4:
        raise ValueError(f"n_total must be >= 4, got {n_total}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if criterion not in _CROSSOVER_PREDICATES:
        raise ValueError(f"criterion must be one of {_CROSSOVER_PREDICATES}, got {criterion!r}")

    def predicate(coupling: float) -> bool:
        _, state = ground(kind, n_total, coupling)
        p = state.probabilities
        if criterion == "edge":
            return p[0] > p[n_total // 2]
        if criterion == "bimodal":
            return float(np.max(p)) > p[n_total // 2] * (1.0 + 1e-9)
        return hz_criterion(state, 1) >= 0.75

    if bracket is None:
        lo, hi = 0.25, 4.0
    else:
        lo, hi = bracket
    if predicate(lo):
        raise ValueError(f"predicate already satisfied at bracket low {lo}")
    while not predicate(hi):
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("predicate never satisfied on the search bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats: the bracket cannot shrink
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi
