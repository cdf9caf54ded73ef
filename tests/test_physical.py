import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjj import (
    TrapParams,
    atomic_mass,
    coupling_Lambda,
    coupling_lambda,
    critical_atom_number,
    gap_soliton_number,
    nonlinearity_u,
    wp_coefficient,
)

TWO_PI = 2.0 * math.pi


def lithium_trap(kappa_hz: float, n_atoms: int = 300, a_perp: float | None = 1.4e-6) -> TrapParams:
    """Worked lithium-soliton parameter set: |a_sc| = 1.4 nm, 70/700 Hz trap."""
    return TrapParams(
        a_sc=-1.4e-9,
        omega_x=TWO_PI * 70.0,
        omega_perp=TWO_PI * 700.0,
        tunnel_rate=TWO_PI * kappa_hz,
        n_atoms=n_atoms,
        mass=atomic_mass("li7"),
        a_perp=a_perp,
    )


def test_nonlinearity_worked_numbers():
    tp = lithium_trap(77.0)
    u = nonlinearity_u(tp)
    assert abs(u - TWO_PI * 1e-3) <= 1e-15
    assert abs(u * 300 - 1.88) <= 0.01
    tp0 = TrapParams(a_sc=0.0, omega_x=0.0, omega_perp=TWO_PI * 700.0,
                     tunnel_rate=1.0, n_atoms=10, mass=atomic_mass("li7"))
    assert nonlinearity_u(tp0) == 0.0


def test_derived_transverse_length():
    tp = lithium_trap(77.0, a_perp=None)
    assert 1.38e-6 <= tp.a_perp_eff <= 1.48e-6  # ~1.4 um for 7Li at 700 Hz


def test_coupling_lambda_worked_number():
    lam = coupling_lambda(lithium_trap(83.0))
    assert abs(lam - 1.0) <= 0.05
    # linear in N
    assert abs(coupling_lambda(lithium_trap(83.0, n_atoms=600)) - 2.0 * lam) <= 1e-12


def test_coupling_lambda_zero_nonlinearity():
    tp = TrapParams(a_sc=0.0, omega_x=TWO_PI * 70, omega_perp=TWO_PI * 700,
                    tunnel_rate=TWO_PI * 83, n_atoms=300, mass=atomic_mass("li7"))
    assert coupling_lambda(tp) == 0.0


def test_coupling_Lambda_worked_number():
    Lam = coupling_Lambda(lithium_trap(77.0))
    assert abs(Lam - 2.01) <= 0.02 * 2.01
    # quadratic in N
    assert abs(coupling_Lambda(lithium_trap(77.0, n_atoms=600)) - 4.0 * Lam) <= 1e-10


def test_bridge_identity(rng):
    for _ in range(20):
        tp = TrapParams(
            a_sc=rng.uniform(0.2, 5.0) * 1e-9,
            omega_x=rng.uniform(10.0, 500.0),
            omega_perp=rng.uniform(1000.0, 9000.0),
            tunnel_rate=rng.uniform(50.0, 900.0),
            n_atoms=int(rng.integers(10, 2000)),
            mass=atomic_mass("li7"),
        )
        lhs = coupling_Lambda(tp)
        rhs = wp_coefficient(tp) * coupling_lambda(tp) ** 2
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_zero_tunneling_errors():
    tp = lithium_trap(77.0)
    broken = TrapParams(a_sc=tp.a_sc, omega_x=tp.omega_x, omega_perp=tp.omega_perp,
                        tunnel_rate=0.0, n_atoms=300, mass=tp.mass, a_perp=tp.a_perp)
    with pytest.raises(ValueError):
        coupling_lambda(broken)
    with pytest.raises(ValueError):
        coupling_Lambda(broken)


def test_critical_atom_number():
    tp = lithium_trap(77.0)
    nc = critical_atom_number(tp)
    assert abs(nc - 670.0) <= 1e-9
    half = TrapParams(a_sc=-2.8e-9, omega_x=tp.omega_x, omega_perp=tp.omega_perp,
                      tunnel_rate=tp.tunnel_rate, n_atoms=300, mass=tp.mass, a_perp=1.4e-6)
    assert abs(critical_atom_number(half) - nc / 2.0) <= 1e-9
    # u * N_c is a pure number, 2 pi * 0.67, independent of the trap
    assert abs(nonlinearity_u(tp) * nc - TWO_PI * 0.67) <= 1e-12
    with pytest.raises(ValueError):
        critical_atom_number(TrapParams(a_sc=0.0, omega_x=1.0, omega_perp=10.0,
                                        tunnel_rate=1.0, n_atoms=5, mass=1e-26))


def test_critical_length_product():
    # threshold in length units: N_c |a_sc| = 0.67 a_perp ~ 1.105 um for the
    # early soliton experiments
    a_perp = 1.105e-6 / 0.67
    tp = TrapParams(a_sc=-0.21e-9, omega_x=1.0, omega_perp=100.0,
                    tunnel_rate=1.0, n_atoms=5000, mass=atomic_mass("li7"),
                    a_perp=a_perp)
    assert abs(critical_atom_number(tp) * abs(tp.a_sc) - 1.105e-6) <= 1e-12


def test_gap_soliton_number_scalings():
    base = gap_soliton_number(1.17e-6, 1.0, 6.9e-6, 5.3e-9)
    assert abs(gap_soliton_number(1.17e-6, 10.0, 6.9e-6, 5.3e-9) - 10.0 * base) <= 1e-9
    assert abs(gap_soliton_number(1.17e-6, 1.0, 2 * 6.9e-6, 5.3e-9) - base / 2.0) <= 1e-9
    with pytest.raises(ValueError):
        gap_soliton_number(1.0e-6, 1.0, 0.0, 1e-9)


def test_gap_soliton_rubidium_order_of_magnitude():
    # repulsive rubidium in a lattice with tailored effective mass: a few
    # hundred atoms for micrometer-scale widths
    n = gap_soliton_number(1.17e-6, 10.0, 6.9e-6, 5.3e-9)
    assert 125.0 <= n <= 500.0


def test_species_table():
    m_li = atomic_mass("li7")
    m_rb = atomic_mass("rb87")
    assert abs(m_li - 7.016 * 1.6605e-27) <= 1e-30
    assert abs(m_rb / m_li - 86.909 / 7.016) <= 1e-3
    with pytest.raises(ValueError):
        atomic_mass("na23")


@settings(max_examples=200, deadline=None)
@given(
    a_sc=st.floats(min_value=1e-11, max_value=1e-8),
    omega_x=st.floats(min_value=1.0, max_value=1e4),
    omega_perp=st.floats(min_value=1e2, max_value=1e5),
    tunnel_rate=st.floats(min_value=1e-2, max_value=1e4),
    n_atoms=st.integers(min_value=1, max_value=100_000),
    species=st.sampled_from(["li7", "rb87"]),
    a_perp=st.one_of(st.none(), st.floats(min_value=1e-7, max_value=1e-4)),
)
def test_bridge_identity_property(a_sc, omega_x, omega_perp, tunnel_rate, n_atoms, species,
                                  a_perp):
    tp = TrapParams(a_sc=-a_sc, omega_x=omega_x, omega_perp=omega_perp,
                    tunnel_rate=tunnel_rate, n_atoms=n_atoms, mass=atomic_mass(species),
                    a_perp=a_perp)
    lhs = coupling_Lambda(tp)
    rhs = wp_coefficient(tp) * coupling_lambda(tp) ** 2
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


@pytest.mark.parametrize("field", ["a_sc", "omega_x", "omega_perp", "tunnel_rate", "mass",
                                   "a_perp"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_trap_rejects_non_finite_fields(field, value):
    good = dict(a_sc=-1.4e-9, omega_x=439.8, omega_perp=4398.2, tunnel_rate=483.8,
                n_atoms=300, mass=atomic_mass("li7"), a_perp=1.4e-6)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrapParams(**{**good, field: value})


def test_trap_validation():
    with pytest.raises(ValueError):
        TrapParams(a_sc=1e-9, omega_x=1.0, omega_perp=0.0, tunnel_rate=1.0,
                   n_atoms=5, mass=1e-26)
    with pytest.raises(ValueError):
        TrapParams(a_sc=1e-9, omega_x=1.0, omega_perp=10.0, tunnel_rate=1.0,
                   n_atoms=0, mass=1e-26)
    with pytest.raises(ValueError):
        TrapParams(a_sc=1e-9, omega_x=1.0, omega_perp=10.0, tunnel_rate=1.0,
                   n_atoms=5, mass=1e-26, a_perp=-1.0)


def test_dimensionless_outputs(rng):
    # unit round trip: SI inputs, pure numbers out
    tp = lithium_trap(77.0)
    for value in (nonlinearity_u(tp), coupling_lambda(tp), coupling_Lambda(tp),
                  wp_coefficient(tp), tp.nu, tp.kappa):
        assert np.isfinite(value) and value >= 0.0


def test_trap_rejects_n_atoms_beyond_float():
    # 10**400 used to end in OverflowError in the conversions
    good = dict(a_sc=-1.4e-9, omega_x=439.8, omega_perp=4398.2, tunnel_rate=483.8,
                mass=atomic_mass("li7"), a_perp=1.4e-6)
    with pytest.raises(ValueError, match="n_atoms must be at most"):
        TrapParams(**good, n_atoms=10**400)
    assert TrapParams(**good, n_atoms=10**300).n_atoms == 10**300
