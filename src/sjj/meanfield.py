"""Classical (mean-field) dynamics of the soliton junction in (z, theta).

Canonical equations, with dots denoting derivatives in dimensionless time
tau = kappa N t:

    dz/dtau     = (1 - z^2) (1 - 0.21 z^2) sin(theta)
    dtheta/dtau = Lambda z - 2 z (1.21 - 0.42 z^2) cos(theta)

They derive from the reduced Hamiltonian (units kappa*N, constants dropped)

    h(z, theta) = -(Lambda/2) z^2 - (1 - z^2)(1 - 0.21 z^2) cos(theta),

which is the form whose canonical equations reproduce the equations of
motion verbatim; the sqrt(1-z^2) variant that appears in some write-ups of
the effective Hamiltonian differs only by regrouping of the overlap factor.

The 0.21 coefficient is the quadratic fit of the soliton overlap integral
I(z) = int_0^inf dx / (cosh^2 x + sinh^2(z x)) ~= 1 - 0.21 z^2, computed
exactly by :func:`overlap_integral`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .overlap_fit import _LAMBDA_HI, _LAMBDA_LO, _OVERLAP_FIT, _mean_field_energy

__all__ = [
    "MeanFieldState",
    "Trajectory",
    "SteadyState",
    "MeanFieldIntegrationError",
    "rhs",
    "energy_h",
    "integrate",
    "steady_states",
    "overlap_integral",
    "kappa_eff",
    "lambda_eff",
    "wrap_phase",
]

# the 1.21 and 0.42 of dtheta/dtau, bit for bit
_ONE_PLUS_FIT = 1.0 + _OVERLAP_FIT
_TWICE_FIT = 2.0 * _OVERLAP_FIT
# largest RK4 step count of one trajectory: 200 times the README's 10^5
# steps, and 160 MB per stored column
_MAX_STEPS = 20_000_000


class MeanFieldIntegrationError(RuntimeError):
    """Raised when a trajectory leaves the physical domain or overflows."""


@dataclass(frozen=True)
class MeanFieldState:
    """Population imbalance z in [-1, 1] and phase difference theta (rad)."""

    z: float
    theta: float

    def __post_init__(self):
        if not abs(self.z) <= 1.0:
            raise ValueError(f"|z| must be <= 1, got {self.z}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Fixed-step trajectory: times tau, z(tau), theta(tau) (unwrapped), and
    the conserved energy h(tau) for drift diagnostics."""

    times: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    energies: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int) -> MeanFieldState:
        return MeanFieldState(z=float(self.z[i]), theta=float(self.theta[i]))

    @property
    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energies - self.energies[0])))


@dataclass(frozen=True)
class SteadyState:
    z: float
    theta: float
    branch: str


def rhs(s: MeanFieldState, Lambda: float) -> tuple[float, float]:
    """(dz/dtau, dtheta/dtau) at the given state."""
    return _rhs_raw(s.z, s.theta, Lambda)


def energy_h(s: MeanFieldState, Lambda: float) -> float:
    """Conserved energy h(z, theta) in units kappa*N (constant terms dropped)."""
    return _mean_field_energy(s.z * s.z, math.cos(s.theta), Lambda)


def _rhs_raw(z: float, th: float, Lambda: float) -> tuple[float, float]:
    return (
        (1.0 - z * z) * (1.0 - _OVERLAP_FIT * z * z) * math.sin(th),
        Lambda * z - 2.0 * z * (_ONE_PLUS_FIT - _TWICE_FIT * z * z) * math.cos(th),
    )


def integrate(
    s0: MeanFieldState,
    Lambda: float,
    tau_max: float,
    dtau: float = 1e-3,
) -> Trajectory:
    """Classical 4th-order fixed-step integration over [0, tau_max].

    The step is fixed (no adaptive control) so trajectories are reproducible;
    energy drift stays below 1e-8 for tau_max <= 100 at dtau <= 1e-3.  theta
    is reported unwrapped.  If |z| exceeds 1 by more than 1e-9 the run aborts
    instead of clamping silently; a non-finite Lambda, tau_max or dtau, and
    more than _MAX_STEPS = 2e7 steps, are rejected before anything is
    allocated.
    """
    if not math.isfinite(Lambda):
        raise ValueError(f"Lambda must be finite, got {Lambda}")
    if not (math.isfinite(dtau) and dtau > 0):
        raise ValueError(f"dtau must be finite and > 0, got {dtau}")
    if not (math.isfinite(tau_max) and tau_max >= 0):
        raise ValueError(f"tau_max must be finite and >= 0, got {tau_max}")
    ratio = tau_max / dtau
    if ratio > _MAX_STEPS:  # also a ratio that overflowed to inf
        raise ValueError(f"tau_max / dtau must be at most {_MAX_STEPS} steps, got {ratio:g}")

    steps = int(round(ratio))
    zs = np.empty(steps + 1)
    ths = np.empty(steps + 1)
    z, th = s0.z, s0.theta
    zs[0], ths[0] = z, th
    half = 0.5 * dtau
    sixth = dtau / 6.0
    for i in range(1, steps + 1):
        k1z, k1t = _rhs_raw(z, th, Lambda)
        k2z, k2t = _rhs_raw(z + half * k1z, th + half * k1t, Lambda)
        k3z, k3t = _rhs_raw(z + half * k2z, th + half * k2t, Lambda)
        k4z, k4t = _rhs_raw(z + dtau * k3z, th + dtau * k3t, Lambda)
        z = z + sixth * (k1z + 2.0 * (k2z + k3z) + k4z)
        th = th + sixth * (k1t + 2.0 * (k2t + k3t) + k4t)
        if not (math.isfinite(z) and math.isfinite(th)):
            raise MeanFieldIntegrationError(
                f"integration overflow at tau = {i * dtau:g}"
            )
        if abs(z) > 1.0 + 1e-9:
            raise MeanFieldIntegrationError(
                f"|z| = {abs(z)!r} left the physical domain at tau = {i * dtau:g}"
            )
        zs[i], ths[i] = z, th

    zc = np.clip(zs, -1.0, 1.0)  # shield energy evaluation from 1e-9 excursions
    energies = _mean_field_energy(zc * zc, np.cos(ths), Lambda)
    return Trajectory(times=dtau * np.arange(steps + 1), z=zs, theta=ths, energies=energies)


def steady_states(Lambda: float) -> list[SteadyState]:
    """All fixed points of the flow at the given coupling.

    The balanced branch (0, 0) always exists.  The self-trapped pair
    z = +-sqrt((1.21 - Lambda/2)/0.42) with theta = 0 exists for
    1.58 < Lambda <= 2.42; the fully imbalanced pair z = +-1 with
    cos(theta) = Lambda/1.58 exists for 0 < Lambda <= 1.58.
    """
    if Lambda < 0:
        raise ValueError(f"Lambda must be >= 0, got {Lambda}")
    out = [SteadyState(z=0.0, theta=0.0, branch="symmetric")]
    if _LAMBDA_LO < Lambda <= _LAMBDA_HI:
        z = math.sqrt(max(0.0, (_ONE_PLUS_FIT - Lambda / 2.0) / _TWICE_FIT))
        out.append(SteadyState(z=+z, theta=0.0, branch="self-trapped+"))
        out.append(SteadyState(z=-z, theta=0.0, branch="self-trapped-"))
    if 0.0 < Lambda <= _LAMBDA_LO:
        th = math.acos(Lambda / _LAMBDA_LO)
        out.append(SteadyState(z=+1.0, theta=th, branch="pinned+"))
        out.append(SteadyState(z=-1.0, theta=th, branch="pinned-"))
    return out


def _adaptive_simpson(f, a, fa, m, fm, b, fb, whole, tol, depth):
    """Interval-halving Simpson with Richardson correction."""
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = (left + right - whole) / 15.0
    if depth <= 0 or abs(err) <= tol:
        return left + right + err
    return _adaptive_simpson(
        f, a, fa, lm, flm, m, fm, left, 0.5 * tol, depth - 1
    ) + _adaptive_simpson(f, m, fm, rm, frm, b, fb, right, 0.5 * tol, depth - 1)


def overlap_integral(z: float) -> float:
    """Soliton overlap integral I(z) = int_0^inf dx / (cosh^2 x + sinh^2(z x)).

    Adaptive Simpson quadrature to absolute tolerance 1e-10.  The integrand
    is bounded by sech^2 x, so it is truncated where cosh^2 x > 1e16; the
    discarded tail is below 1 - tanh(x_max) ~ 2e-16.  I(0) = 1 and
    I(1) = pi/4 are the closed-form anchors.
    """
    if not abs(z) <= 1.0:
        raise ValueError(f"|z| must be <= 1, got {z}")

    def f(x: float) -> float:
        return 1.0 / (math.cosh(x) ** 2 + math.sinh(z * x) ** 2)

    a, b = 0.0, math.acosh(1e8)
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, fa, m, fm, b, fb, whole, 1e-10, 50)


def kappa_eff(z: float, kappa: float) -> float:
    """Population-dependent effective tunneling kappa (1 - 0.21 z^2) sqrt(1 - z^2).

    Monotone decreasing in |z|; vanishes at full imbalance, which is the
    self-tuning effect that distinguishes the soliton junction.
    """
    if not abs(z) <= 1.0:
        raise ValueError(f"|z| must be <= 1, got {z}")
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    return kappa * (1.0 - _OVERLAP_FIT * z * z) * math.sqrt(1.0 - z * z)


def lambda_eff(z: float, Lambda: float) -> float:
    """Effective coupling Lambda / ((1 - 0.21 z^2) sqrt(1 - z^2)).

    Diverges as |z| -> 1 together with the vanishing of kappa_eff;
    lambda_eff(z) * (1 - 0.21 z^2) sqrt(1 - z^2) == Lambda identically.
    """
    if not abs(z) < 1.0:
        raise ValueError(f"|z| must be < 1, got {z}")
    return Lambda / ((1.0 - _OVERLAP_FIT * z * z) * math.sqrt(1.0 - z * z))


def wrap_phase(theta: float | np.ndarray) -> float | np.ndarray:
    """Reduce an unwrapped phase to (-pi, pi]."""
    return -((-np.asarray(theta) + np.pi) % (2.0 * np.pi) - np.pi)
