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
I(z) = int_0^inf dx / (cosh^2 x + sinh^2(z x)) ~= 1 - 0.21 z^2, which
:func:`overlap_integral` computes to rounding by the trapezoidal rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .hartree import _branch_squares
from .overlap_fit import (_LAMBDA_HI, _LAMBDA_LO, _OVERLAP_FIT, _check_coupling, _finite,
                          _mean_field_energy, _shown)

__all__ = list(_EXPORTS["meanfield"])

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
        if not _finite(self.theta):
            raise ValueError(f"theta must be finite, got {_shown(self.theta)}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Fixed-step trajectory: times tau, z(tau), theta(tau) (unwrapped), and
    the conserved energy h(tau) for drift diagnostics."""

    times: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    energies: np.ndarray

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
    _check_coupling(Lambda, "Lambda")
    return _rhs_raw(s.z, s.theta, Lambda)


def energy_h(s: MeanFieldState, Lambda: float) -> float:
    """Conserved energy h(z, theta) in units kappa*N (constant terms dropped)."""
    _check_coupling(Lambda, "Lambda")
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
    """Classical 4th-order fixed-step integration over [0, tau_max], in the
    whole steps of dtau that fit in it.

    The step is fixed (no adaptive control) so trajectories are reproducible;
    energy drift stays below 1e-8 for tau_max <= 100 at dtau <= 1e-3.  theta
    is reported unwrapped.  If |z| exceeds 1 by more than 1e-9 the run aborts
    instead of clamping silently; a Lambda that is not finite and >= 0, a
    non-finite tau_max or dtau, and more than _MAX_STEPS = 2e7 steps, are
    rejected before anything is allocated.
    """
    _check_coupling(Lambda, "Lambda")
    if not (_finite(dtau) and dtau > 0):
        raise ValueError(f"dtau must be finite and > 0, got {_shown(dtau)}")
    if not (_finite(tau_max) and tau_max >= 0):
        raise ValueError(f"tau_max must be finite and >= 0, got {_shown(tau_max)}")
    ratio = tau_max / dtau
    if ratio > _MAX_STEPS:  # also a ratio that overflowed to inf
        raise ValueError(f"tau_max / dtau must be at most {_MAX_STEPS} steps, got {ratio:g}")

    # the whole steps that fit; the relative 1e-12 covers the few ulps by which
    # a quotient of decimal inputs misses its integer (0.3 / 0.1 is
    # 2.9999999999999996) and stays far below one step at _MAX_STEPS
    steps = math.floor(ratio * (1.0 + 1e-12))
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
    z = +-S with theta = 0, S = sqrt((2.42 - Lambda)/0.84) of the Hartree
    S+- branch, exists for 1.58 < Lambda <= 2.42; the fully imbalanced pair
    z = +-1 with cos(theta) = Lambda/1.58 exists for 0 < Lambda <= 1.58.
    """
    _check_coupling(Lambda, "Lambda")
    out = [SteadyState(z=0.0, theta=0.0, branch="symmetric")]
    if _LAMBDA_LO < Lambda <= _LAMBDA_HI:
        z = math.sqrt(_branch_squares(Lambda)[1])
        out.append(SteadyState(z=+z, theta=0.0, branch="self-trapped+"))
        out.append(SteadyState(z=-z, theta=0.0, branch="self-trapped-"))
    if 0.0 < Lambda <= _LAMBDA_LO:
        th = math.acos(Lambda / _LAMBDA_LO)
        out.append(SteadyState(z=+1.0, theta=th, branch="pinned+"))
        out.append(SteadyState(z=-1.0, theta=th, branch="pinned-"))
    return out


def overlap_integral(z: float) -> float:
    """Soliton overlap integral I(z) = int_0^inf dx / (cosh^2 x + sinh^2(z x)).

    Trapezoidal rule with step 1/8 on [0, acosh(1e8)], exact to rounding
    (within ~2e-16 of a 40-digit reference on [-1, 1]).  I(0) = 1 and
    I(1) = pi/4 are the closed-form anchors.
    """
    if not abs(z) <= 1.0:
        raise ValueError(f"|z| must be <= 1, got {z}")
    # cosh^2 x + sinh^2(z x) = cosh((1+z) x) cosh((1-z) x), so the integrand is
    # even and analytic in the strip |Im x| < pi/(2(1+|z|)), at least pi/4 wide:
    # the trapezoidal rule over the whole line has an aliasing error of order
    # exp(-2 pi (pi/4) / h) ~ 7e-18 at h = 1/8 (Trefethen & Weideman 2014,
    # SIAM Rev. 56, 385), and the integrand is below sech^2 x, so the tail
    # past cosh x = 1e8 is below 2e-16.  The node x = 0, where it is 1, has
    # weight 1/2.
    x = np.arange(0.0, math.acosh(1e8), 0.125)
    return 0.125 * (float(np.sum(1.0 / (np.cosh(x) ** 2 + np.sinh(z * x) ** 2))) - 0.5)


def kappa_eff(z: float, kappa: float) -> float:
    """Population-dependent effective tunneling kappa (1 - 0.21 z^2) sqrt(1 - z^2).

    Monotone decreasing in |z|; vanishes at full imbalance, which is the
    self-tuning effect that distinguishes the soliton junction.
    """
    if not abs(z) <= 1.0:
        raise ValueError(f"|z| must be <= 1, got {z}")
    if not (_finite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be > 0 and finite, got {_shown(kappa)}")
    return kappa * (1.0 - _OVERLAP_FIT * z * z) * math.sqrt(1.0 - z * z)


def lambda_eff(z: float, Lambda: float) -> float:
    """Effective coupling Lambda / ((1 - 0.21 z^2) sqrt(1 - z^2)).

    Diverges as |z| -> 1 together with the vanishing of kappa_eff;
    lambda_eff(z) * (1 - 0.21 z^2) sqrt(1 - z^2) == Lambda identically.
    """
    if not abs(z) < 1.0:
        raise ValueError(f"|z| must be < 1, got {z}")
    _check_coupling(Lambda, "Lambda")
    return Lambda / ((1.0 - _OVERLAP_FIT * z * z) * math.sqrt(1.0 - z * z))
