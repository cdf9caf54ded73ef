"""Conversions between laboratory trap parameters and the dimensionless
model couplings.

All model formulas use the transverse-trap units: lengths in
a_perp = sqrt(hbar / (m omega_perp)), times in 1/omega_perp.  The
dimensionless inputs derived here are

    u      = 2 pi |a_sc| / a_perp              (Kerr-like nonlinearity)
    kappa  = |K| / omega_perp                  (tunneling rate)
    nu     = omega_x / omega_perp              (trap asymmetry)
    lambda = sqrt(nu) u N / (2 sqrt(2 pi) kappa)   (BJJ coupling)
    Lambda = u^2 N^2 / (16 kappa)                  (SJJ coupling)

with the cross-model bridge Lambda = wp * lambda^2, wp = pi kappa / (2 nu).
The tunneling rate K is always an input; it depends on the transverse
wave-function overlap, which is outside the scope of this package.

Constants (hbar and the atomic mass unit are the CODATA 2018 values, to 10
significant figures; the masses have 9): hbar = 1.054571817e-34 J s, atomic
mass unit = 1.660539069e-27 kg, m(7Li) = 7.01600344 u, m(87Rb) = 86.9091805 u.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

from . import _EXPORTS

# module data has no __module__, so the package table lists functions and classes only
__all__ = list(_EXPORTS["physical"]) + ["HBAR", "ATOMIC_MASS_KG", "SPECIES_MASS_U"]

HBAR = 1.054_571_817e-34  # J s
ATOMIC_MASS_KG = 1.660_539_069e-27  # kg

SPECIES_MASS_U = {
    "li7": 7.016_003_44,
    "rb87": 86.909_180_5,
}


def atomic_mass(species: str) -> float:
    """Atomic mass in kg for a supported species key ('li7', 'rb87')."""
    try:
        return SPECIES_MASS_U[species] * ATOMIC_MASS_KG
    except KeyError:
        raise ValueError(
            f"unknown species {species!r}; known: {sorted(SPECIES_MASS_U)}"
        ) from None


@dataclass(frozen=True)
class TrapParams:
    """Laboratory parameters of a double-well junction.

    a_sc: s-wave scattering length in meters, sign carried (attractive < 0
    physically; only |a_sc| enters the conversions).
    omega_x, omega_perp: angular trap frequencies in rad/s.
    tunnel_rate: |K| expressed as an angular frequency in rad/s.
    n_atoms: total particle number.
    mass: particle mass in kg (see :func:`atomic_mass`).
    a_perp: optional explicit transverse length in meters; when omitted it
    is derived as sqrt(hbar/(mass omega_perp)).
    Every field given must be finite, and n_atoms at most the largest float;
    a mass * omega_perp, a derived a_perp, a kappa or a nu that underflows
    to 0 from nonzero inputs is a ValueError.  omega_x = 0 (no
    axial trap) gives nu = 0.
    """

    a_sc: float
    omega_x: float
    omega_perp: float
    tunnel_rate: float
    n_atoms: int
    mass: float
    a_perp: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not isinstance(value, int) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.omega_perp <= 0:
            raise ValueError(f"omega_perp must be > 0, got {self.omega_perp}")
        if self.omega_x < 0:
            raise ValueError(f"omega_x must be >= 0, got {self.omega_x}")
        if self.tunnel_rate < 0:
            raise ValueError(f"tunnel_rate must be >= 0, got {self.tunnel_rate}")
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if self.n_atoms > sys.float_info.max:  # the conversions take N as a float
            raise ValueError(f"n_atoms must be at most {sys.float_info.max:g}")
        if self.mass <= 0:
            raise ValueError(f"mass must be > 0, got {self.mass}")
        if self.a_perp is not None and self.a_perp <= 0:
            raise ValueError(f"a_perp must be > 0, got {self.a_perp}")
        # a derived denominator that underflows to 0 would divide by zero later
        if self.a_perp is None and self.mass * self.omega_perp == 0:
            raise ValueError("a_perp cannot be derived: mass * omega_perp underflows to 0")
        if self.a_perp_eff == 0:  # also a mass * omega_perp that overflows to inf
            raise ValueError("derived a_perp = sqrt(hbar / (mass * omega_perp)) underflows to 0")
        if self.tunnel_rate > 0 and self.kappa == 0:
            raise ValueError("kappa = tunnel_rate / omega_perp underflows to 0")
        if self.omega_x > 0 and self.nu == 0:
            raise ValueError("nu = omega_x / omega_perp underflows to 0")

    @property
    def a_perp_eff(self) -> float:
        """Transverse length a_perp in meters."""
        if self.a_perp is not None:
            return self.a_perp
        return math.sqrt(HBAR / (self.mass * self.omega_perp))

    @property
    def nu(self) -> float:
        """Trap asymmetry omega_x / omega_perp."""
        return self.omega_x / self.omega_perp

    @property
    def kappa(self) -> float:
        """Dimensionless tunneling |K| / omega_perp."""
        return self.tunnel_rate / self.omega_perp


def nonlinearity_u(tp: TrapParams) -> float:
    """Dimensionless nonlinearity u = 2 pi |a_sc| / a_perp."""
    return 2.0 * math.pi * abs(tp.a_sc) / tp.a_perp_eff


def coupling_lambda(tp: TrapParams) -> float:
    """BJJ coupling lambda = sqrt(nu) u N omega_perp / (2 sqrt(2 pi) |K|)."""
    if tp.tunnel_rate == 0:
        raise ValueError("tunnel_rate must be nonzero")
    u = nonlinearity_u(tp)
    return math.sqrt(tp.nu) * u * tp.n_atoms / (2.0 * math.sqrt(2.0 * math.pi) * tp.kappa)


def coupling_Lambda(tp: TrapParams) -> float:
    """SJJ coupling Lambda = u^2 N^2 omega_perp / (16 |K|).

    Satisfies Lambda = wp * lambda^2 with wp = pi kappa / (2 nu); the
    quadratic growth in N is the defining feature of the soliton junction.
    """
    if tp.tunnel_rate == 0:
        raise ValueError("tunnel_rate must be nonzero")
    u = nonlinearity_u(tp)
    return u * u * tp.n_atoms * tp.n_atoms / (16.0 * tp.kappa)


def wp_coefficient(tp: TrapParams) -> float:
    """Bridge coefficient wp = pi kappa / (2 nu) in Lambda = wp * lambda^2."""
    if tp.nu == 0:
        raise ValueError("omega_x must be nonzero for the bridge coefficient")
    return math.pi * tp.kappa / (2.0 * tp.nu)


def critical_atom_number(tp: TrapParams) -> float:
    """Collapse threshold N_c = 0.67 a_perp / |a_sc| for attractive atoms."""
    if tp.a_sc == 0:
        raise ValueError("a_sc must be nonzero")
    return 0.67 * tp.a_perp_eff / abs(tp.a_sc)


def gap_soliton_number(a_perp: float, mass_ratio: float, x0: float, a_sc: float) -> float:
    """Particle number of a band-gap soliton, N = a_perp^2 (m/|m_eff|) / (1.5 x0 a_sc).

    mass_ratio is m/|m_eff|, x0 the soliton width in meters.
    """
    if not all(0 < x < math.inf for x in (a_perp, mass_ratio, x0, a_sc)):
        raise ValueError("all inputs must be > 0 and finite")
    return a_perp * a_perp * mass_ratio / (1.5 * x0 * a_sc)
