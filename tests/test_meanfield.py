import math

import numpy as np
import pytest
from scipy.integrate import quad

from sjj import (
    MeanFieldState,
    coherent_fock_amplitudes,
    energy_h,
    integrate,
    kappa_eff,
    lambda_eff,
    noon_state,
    overlap_integral,
    rhs,
    steady_states,
)
from sjj import meanfield
from sjj.meanfield import MeanFieldIntegrationError
from oracles import mp_overlap_integral, reference_flow


def test_rhs_symmetric_fixed_point():
    for Lambda in (0.0, 1.0, 5.0):
        assert rhs(MeanFieldState(0.0, 0.0), Lambda) == (0.0, 0.0)


def test_rhs_quarter_phase():
    dz, dth = rhs(MeanFieldState(0.0, math.pi / 2), 3.0)
    assert abs(dz - 1.0) <= 1e-15
    assert abs(dth) <= 1e-15


def test_rhs_self_trapped_fixed_point():
    dz, dth = rhs(MeanFieldState(math.sqrt(0.5), 0.0), 2.0)
    assert abs(dz) <= 1e-15
    assert abs(dth) <= 1e-13


def test_energy_values():
    assert energy_h(MeanFieldState(0.0, 0.0), 2.0) == -1.0
    for Lambda in (0.5, 2.0):
        assert abs(energy_h(MeanFieldState(1.0, 0.7), Lambda) + Lambda / 2) <= 1e-15
        assert abs(energy_h(MeanFieldState(-1.0, 2.1), Lambda) + Lambda / 2) <= 1e-15
    assert abs(energy_h(MeanFieldState(0.0, math.pi / 2), 7.0)) <= 1e-15


def test_state_validation():
    with pytest.raises(ValueError):
        MeanFieldState(1.0001, 0.0)
    with pytest.raises(ValueError):
        integrate(MeanFieldState(0.1, 0.0), 1.0, 1.0, dtau=0.0)
    with pytest.raises(ValueError):
        integrate(MeanFieldState(0.1, 0.0), 1.0, -1.0)


@pytest.mark.parametrize("Lambda, tau_max, dtau", [
    (4.0, math.inf, 1e-3),
    (4.0, math.nan, 1e-3),
    (4.0, 1.0, math.inf),
    (4.0, 1.0, math.nan),
    (math.inf, 1.0, 1e-3),
    (math.nan, 1.0, 1e-3),
])
def test_integrate_rejects_non_finite_input(Lambda, tau_max, dtau):
    # tau_max = inf used to overflow int(round(...)), dtau = inf to give a
    # one-row trajectory at tau = nan
    with pytest.raises(ValueError, match="must be finite"):
        integrate(MeanFieldState(0.6, 0.0), Lambda, tau_max, dtau)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_state_rejects_non_finite_phase(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        MeanFieldState(0.5, theta)


_S = MeanFieldState(0.3, 0.4)
NOT_FINITE = [
    (rhs, (_S, math.nan)), (rhs, (_S, math.inf)),
    (energy_h, (_S, math.nan)), (energy_h, (_S, -math.inf)),
    (noon_state, (4, math.nan)), (noon_state, (4, math.inf)),
    (coherent_fock_amplitudes, (math.nan, 0.0, 4)), (coherent_fock_amplitudes, (0.6, math.nan, 4)),
    (coherent_fock_amplitudes, (math.inf, 0.0, 4)), (coherent_fock_amplitudes, (1e200, 0.0, 4)),
]


@pytest.mark.parametrize("f, args", NOT_FINITE,
                         ids=[f"{f.__name__}{args}" for f, args in NOT_FINITE])
def test_not_finite_input_is_value_error(f, args):
    # each used to return NaN or inf, or to fail later as an unnormalized state
    with pytest.raises(ValueError, match="finite|must equal 1"):
        f(*args)


def test_integrate_stationary_at_fixed_points():
    traj = integrate(MeanFieldState(math.sqrt(0.5), 0.0), 2.0, 10.0, 1e-3)
    assert np.max(np.abs(traj.z - math.sqrt(0.5))) <= 1e-8
    assert np.max(np.abs(traj.theta)) <= 1e-8
    traj = integrate(MeanFieldState(0.0, 0.0), 3.7, 5.0, 1e-3)
    assert np.max(np.abs(traj.z)) <= 1e-12
    assert np.max(np.abs(traj.theta)) <= 1e-12


def test_integrate_zero_time_single_row():
    traj = integrate(MeanFieldState(0.3, 1.0), 2.0, 0.0, 1e-3)
    assert [len(col) for col in (traj.times, traj.z, traj.theta, traj.energies)] == [1] * 4
    assert (traj.z[0], traj.theta[0]) == (0.3, 1.0)


def test_energy_conservation():
    traj = integrate(MeanFieldState(0.6, 0.0), 4.0, 20.0, 1e-3)
    assert traj.energy_drift <= 1e-8


def test_self_trapping_regime():
    # above the critical coupling a displaced start never crosses z = 0
    traj = integrate(MeanFieldState(0.6, 0.0), 4.0, 50.0, 1e-3)
    assert np.min(traj.z) > 0.0


def test_matches_adaptive_reference():
    traj = integrate(MeanFieldState(0.6, 0.0), 4.0, 10.0, 1e-3)
    z_ref, th_ref = reference_flow(0.6, 0.0, 4.0, 10.0)
    assert abs(traj.z[-1] - z_ref) <= 1e-7
    assert abs(traj.theta[-1] - th_ref) <= 1e-7


def test_time_reversal():
    # the flow is invariant under (z, theta, tau) -> (z, -theta, -tau)
    s0 = MeanFieldState(0.35, 0.8)
    fwd = integrate(s0, 2.3, 10.0, 1e-3)
    back = integrate(MeanFieldState(fwd.z[-1], -fwd.theta[-1]), 2.3, 10.0, 1e-3)
    assert abs(back.z[-1] - s0.z) <= 1e-7
    assert abs(-back.theta[-1] - s0.theta) <= 1e-7


def test_integrate_domain_abort():
    # a absurdly large step makes the scheme overshoot |z| = 1
    with pytest.raises(MeanFieldIntegrationError):
        integrate(MeanFieldState(0.97, math.pi / 2), 0.0, 400.0, 2.0)
    # a coupling near the float limit makes the first step overflow
    with pytest.raises(MeanFieldIntegrationError, match="integration overflow"):
        integrate(MeanFieldState(0.5, 0.0), 1e308, 10.0, 1e-3)


def test_steady_states_branches():
    st = {s.branch: s for s in steady_states(2.0)}
    assert set(st) == {"symmetric", "self-trapped+", "self-trapped-"}
    assert abs(st["self-trapped+"].z - 0.707107) <= 1e-6
    assert st["self-trapped+"].theta == 0.0

    st = {s.branch: s for s in steady_states(1.0)}
    assert set(st) == {"symmetric", "pinned+", "pinned-"}
    assert st["pinned+"].z == 1.0
    assert abs(st["pinned+"].theta - math.acos(1.0 / 1.58)) <= 1e-12
    assert abs(math.cos(st["pinned+"].theta) - 0.632911) <= 1e-6

    assert [s.branch for s in steady_states(3.0)] == ["symmetric"]
    # boundary membership: pinned at 1.58, self-trapped at 2.42
    assert "pinned+" in {s.branch for s in steady_states(1.58)}
    assert "self-trapped+" not in {s.branch for s in steady_states(1.58)}
    assert "self-trapped+" in {s.branch for s in steady_states(2.42)}
    with pytest.raises(ValueError, match="Lambda must be finite and >= 0"):
        steady_states(-1.0)


def test_steady_states_are_fixed_points():
    for Lambda in np.arange(0.0, 3.01, 0.1):
        for s in steady_states(float(Lambda)):
            dz, dth = rhs(MeanFieldState(s.z, s.theta), float(Lambda))
            assert math.hypot(dz, dth) <= 1e-12


def test_overlap_integral_closed_forms():
    assert abs(overlap_integral(0.0) - 1.0) <= 1e-10
    assert abs(overlap_integral(1.0) - math.pi / 4) <= 1e-9
    assert abs(overlap_integral(-1.0) - math.pi / 4) <= 1e-9
    with pytest.raises(ValueError, match="must be <= 1"):
        overlap_integral(1.5)


def test_overlap_integral_quadratic_fit():
    zs = np.linspace(-1.0, 1.0, 41)
    dev = max(abs(overlap_integral(float(z)) - (1.0 - 0.21 * z * z)) for z in zs)
    assert dev <= 0.01


def test_overlap_integral_exact_to_rounding():
    for z in [*np.linspace(-1.0, 1.0, 41).tolist(), 1e-8, -1e-8]:
        assert abs(overlap_integral(z) - mp_overlap_integral(z)) <= 1e-15, z


def test_overlap_integral_against_scipy():
    for z in (0.2, 0.55, 0.9):
        ref, _ = quad(lambda x: 1.0 / (math.cosh(x) ** 2 + math.sinh(z * x) ** 2),
                      0.0, 25.0, epsabs=1e-13)
        assert abs(overlap_integral(z) - ref) <= 1e-9


def test_kappa_eff():
    assert kappa_eff(0.0, 0.11) == 0.11
    assert kappa_eff(1.0, 0.11) == 0.0
    assert kappa_eff(-1.0, 0.11) == 0.0
    assert abs(kappa_eff(0.5, 1.0) - 0.9475 * math.sqrt(0.75)) <= 1e-15
    assert abs(kappa_eff(0.5, 1.0) - 0.820534) <= 5e-5
    zs = np.linspace(0.0, 1.0, 21)
    vals = [kappa_eff(float(z), 1.0) for z in zs]
    assert np.all(np.diff(vals) < 0.0)
    with pytest.raises(ValueError):
        kappa_eff(0.1, 0.0)
    with pytest.raises(ValueError, match="must be <= 1"):
        kappa_eff(1.5, 0.1)


def test_lambda_eff_identity():
    for z in (0.0, 0.3, 0.9, 0.999):
        for Lambda in (0.5, 2.0, 4.0):
            back = lambda_eff(z, Lambda) * (1.0 - 0.21 * z * z) * math.sqrt(1.0 - z * z)
            assert abs(back - Lambda) <= 1e-14 * Lambda if Lambda else abs(back) <= 1e-14
    assert lambda_eff(0.999, 1.0) > 10.0  # diverges toward full imbalance
    with pytest.raises(ValueError):
        lambda_eff(1.0, 1.0)


def test_trajectory_energies_are_energy_h():
    # one formula: the stored energies are energy_h of the stored states, bit for bit
    Lambda = 4.0
    traj = integrate(MeanFieldState(0.6, 0.3), Lambda, 5.0, dtau=1e-2)
    assert [float(e) for e in traj.energies] == [
        energy_h(MeanFieldState(float(z), float(theta)), Lambda)
        for z, theta in zip(traj.z, traj.theta)
    ]


def test_integrate_takes_the_whole_steps_that_fit():
    s0 = MeanFieldState(0.6, 0.0)
    # half a step left over is not taken: the run ends inside [0, tau_max]
    assert integrate(s0, 4.0, 0.0015, dtau=0.001).times[-1] == 0.001
    # 0.3 / 0.1 is 2.9999999999999996 and still three steps
    assert len(integrate(s0, 4.0, 0.3, dtau=0.1).times) == 4
    assert len(integrate(s0, 4.0, 10.0, dtau=1.0).times) == 11


def test_integrate_bounds_step_count(monkeypatch):
    monkeypatch.setattr(meanfield, "_MAX_STEPS", 10)
    assert len(integrate(MeanFieldState(0.6, 0.0), 4.0, 10.0, dtau=1.0).times) == 11
    with pytest.raises(ValueError, match="at most 10 steps"):
        integrate(MeanFieldState(0.6, 0.0), 4.0, 11.0, dtau=1.0)
    monkeypatch.undo()
    # rejected before the 10^13-float arrays are asked for; an overflowing
    # ratio too
    for tau_max, dtau in ((1e10, 1e-3), (1e300, 1e-10)):
        with pytest.raises(ValueError, match=f"at most {meanfield._MAX_STEPS} steps"):
            integrate(MeanFieldState(0.6, 0.0), 4.0, tau_max, dtau)
