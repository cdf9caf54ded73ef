import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjj import (
    FockState,
    LossChannel,
    ModelKind,
    TwoModeParams,
    UndefinedCriterionError,
    build_hamiltonian,
    cat_state,
    coherent_fock_amplitudes,
    conditional_state,
    crossover_coupling,
    ground_state,
    hz1_from_spins,
    hz_criterion,
    mean_imbalance,
    noon_state,
    planar_squeezing,
    spin_expectations,
)
from sjj.observables import cj_scan, refine_minimum
from oracles import dense_hz, random_balanced_state, random_state

SJJ, BJJ = ModelKind.SJJ, ModelKind.BJJ
R2 = 1.0 / math.sqrt(2.0)


def casimir_defect(s: FockState) -> float:
    e = spin_expectations(s)
    total = (e.var_jx + e.jx**2) + (e.var_jy + e.jy**2) + (e.var_jz + e.jz**2)
    j = s.n_total / 2.0
    return abs(total - j * (j + 1.0))


def test_single_fock_spins():
    for n_total, n in ((6, 0), (6, 2), (7, 7)):
        amps = np.zeros(n_total + 1, dtype=complex)
        amps[n] = 1.0
        e = spin_expectations(FockState(amps))
        assert e.jx == e.jy == 0.0
        assert abs(e.jz - (n_total - 2 * n) / 2.0) <= 1e-15


def test_balanced_coherent_spins():
    e = spin_expectations(coherent_fock_amplitudes(R2, R2, 300))
    assert abs(e.jx - 150.0) <= 1e-9
    assert abs(e.jy) <= 1e-12 and abs(e.jz) <= 1e-12
    assert e.var_jx <= 1e-9  # J_X eigenstate


def test_noon_spins():
    e = spin_expectations(noon_state(40))
    assert abs(e.jx) <= 1e-12 and abs(e.jy) <= 1e-12 and abs(e.jz) <= 1e-12
    assert abs(e.var_jz - 40.0**2 / 4.0) <= 1e-12


def test_mean_imbalance_sign():
    n_total = 9
    all_a = np.zeros(n_total + 1, dtype=complex)
    all_a[0] = 1.0  # |N, 0>: every particle in mode a
    assert mean_imbalance(FockState(all_a)) == -1.0
    all_b = np.zeros(n_total + 1, dtype=complex)
    all_b[-1] = 1.0
    assert mean_imbalance(FockState(all_b)) == 1.0


def test_casimir_identity_everywhere(rng):
    states = [
        coherent_fock_amplitudes(R2, R2, 300),
        coherent_fock_amplitudes(0.6, 0.8, 120),
        noon_state(80),
        cat_state(2.0, 60),
        ground_state(build_hamiltonian(TwoModeParams(SJJ, 300, 2.001)))[1],
        ground_state(build_hamiltonian(TwoModeParams(BJJ, 300, 1.0)))[1],
    ]
    ch = LossChannel(0.99, 0.98)
    states.append(conditional_state(states[0], 2, 1, ch).state)
    for n_total in (2, 10, 50):
        states.extend(FockState(random_state(rng, n_total)) for _ in range(5))
    for s in states:
        assert casimir_defect(s) <= 1e-9 * max(1.0, (s.n_total / 2.0) ** 2)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n_total=st.integers(min_value=1, max_value=60))
def test_casimir_identity_random_states(seed, n_total):
    # <J^2> = (N/2)(N/2 + 1) for any normalised state; seen within 5e-16 relative
    s = FockState(random_state(np.random.default_rng(seed), n_total))
    j = n_total / 2.0
    assert casimir_defect(s) <= 1e-13 * j * (j + 1.0)


def test_hz_fixed_points():
    coh = coherent_fock_amplitudes(R2, R2, 300)
    assert abs(hz_criterion(coh, 1) - 0.5) <= 1e-10
    noon = noon_state(300)
    assert abs(hz_criterion(noon, 1) - 1.0) <= 1e-12
    assert abs(hz_criterion(noon, 300) - 0.5) <= 1e-12


def test_hz_against_dense_oracle(rng):
    for n_total in (2, 4, 6, 8):
        for _ in range(3):
            amps = random_state(rng, n_total)
            for m in range(1, n_total + 1):
                got = hz_criterion(FockState(amps), m)
                ref = dense_hz(amps, m)
                assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


def test_hz_highest_order_reduction(rng):
    # at m = N the witness collapses to 1 - |A_N|^2 (given A_0 != 0)
    for n_total in (3, 12, 40):
        amps = random_state(rng, n_total)
        if abs(amps[0]) < 0.05:
            amps[0] += 0.3
            amps /= np.linalg.norm(amps)
        s = FockState(amps)
        expect = 1.0 - abs(amps[-1]) ** 2
        assert abs(hz_criterion(s, n_total) - expect) <= 1e-12


def test_hz_denominator_error():
    all_b = np.zeros(8, dtype=complex)
    all_b[-1] = 1.0
    with pytest.raises(UndefinedCriterionError):
        hz_criterion(FockState(all_b), 1)
    with pytest.raises(ValueError):
        hz_criterion(noon_state(4), 0)
    with pytest.raises(ValueError):
        hz_criterion(noon_state(4), 5)


def test_hz_spin_form_values():
    assert abs(hz1_from_spins(coherent_fock_amplitudes(R2, R2, 300)) - 0.5) <= 1e-10
    assert abs(hz1_from_spins(noon_state(30)) - 1.0) <= 1e-12
    center = np.zeros(3, dtype=complex)
    center[1] = 1.0  # |1,1> at N=2
    assert abs(hz1_from_spins(FockState(center)) - 2.0) <= 1e-12
    assert abs(hz_criterion(FockState(center), 1) - 2.0) <= 1e-12


def test_hz_spin_form_matches_moments_on_balanced_states(rng):
    # the two formulations coincide on the equal-population manifold
    for n_total in (2, 10, 50):
        for _ in range(25):
            s = FockState(random_balanced_state(rng, n_total))
            assert abs(hz_criterion(s, 1) - hz1_from_spins(s)) <= 1e-10


def test_planar_squeezing_cases():
    ps = planar_squeezing(coherent_fock_amplitudes(R2, R2, 300))
    assert abs(ps.delta_parallel - 75.0) <= 1e-9
    assert abs(ps.j_parallel - 150.0) <= 1e-9
    assert ps.squeezed
    ps = planar_squeezing(noon_state(50))
    assert ps.j_parallel <= 1e-12
    assert not ps.squeezed
    _, g = ground_state(build_hamiltonian(TwoModeParams(SJJ, 300, 1.5)))
    assert planar_squeezing(g).squeezed


def test_steering_window_near_crossover():
    # the first-order witness sits below the steering bound 0.5 just before
    # the ground-state crossover
    for coupling in (1.9, 1.95, 2.0):
        _, g = ground_state(build_hamiltonian(TwoModeParams(SJJ, 300, coupling)))
        assert hz_criterion(g, 1) < 0.5


def test_highest_order_witness_approaches_noon_value():
    # past the crossover the ground state tends to the ideal N00N state and
    # the order-N witness approaches 0.5 from above
    vals = []
    for coupling in (2.1, 3.0, 4.0):
        _, g = ground_state(build_hamiltonian(TwoModeParams(SJJ, 300, coupling)))
        vals.append(hz_criterion(g, 300))
    assert all(v > 0.5 for v in vals)
    assert vals[0] > vals[1] > vals[2]
    assert abs(vals[-1] - 0.5) < 0.01


def test_refine_minimum_quadratic():
    x0 = 1.234567
    xmin, fmin, evaluated = refine_minimum(
        lambda x: (x - x0) ** 2, np.arange(0.0, 2.0001, 0.1), refine_to=1e-5
    )
    assert abs(xmin - x0) <= 1e-5
    assert fmin <= 1e-9
    assert len(evaluated) > 21
    with pytest.raises(ValueError):
        refine_minimum(lambda x: x, np.array([]))


@pytest.mark.parametrize("refine_to", [-1.0, math.nan])
def test_refine_minimum_rejects_negative_step_floor(refine_to):
    # with a negative floor the refinement would never end: the local step
    # stops at 0
    calls = []
    with pytest.raises(ValueError, match="refine_to"):
        refine_minimum(calls.append, np.arange(0.0, 1.0001, 0.5), refine_to=refine_to)
    assert calls == []


def test_cj_scan_consistency():
    grid = np.arange(0.8, 1.3 + 1e-9, 0.05)
    res = cj_scan(BJJ, 50, grid)
    coarse = min(
        hz_criterion(ground_state(build_hamiltonian(TwoModeParams(BJJ, 50, float(c))))[1], 1)
        for c in grid
    )
    assert res.c_j <= coarse
    assert grid[0] - 0.05 <= res.argmin <= grid[-1] + 0.05


def test_bjj_witness_depth_scaling():
    # minimum witness depth follows ~0.6 J^(-1/3) (J = N/2) within 15%
    for n_total, j in ((100, 50.0), (300, 150.0)):
        res = cj_scan(BJJ, n_total, np.arange(0.9, 1.2 + 1e-9, 0.01))
        predicted = 0.6 * j ** (-1.0 / 3.0)
        assert abs(res.c_j - predicted) <= 0.15 * predicted


def test_bjj_witness_minimum_regression():
    # faithful recomputation of the N = 300 witness floor; the acceptance
    # suite separately pins the published 0.163, which this value contradicts
    res = cj_scan(BJJ, 300, np.arange(0.9, 1.2 + 1e-9, 0.01))
    assert abs(res.c_j - 0.1056) <= 0.005
    assert abs(res.argmin - 1.009) <= 0.01


def test_crossover_default_values():
    sjj = crossover_coupling(SJJ, 300)
    assert 2.000 <= sjj <= 2.002
    bjj = crossover_coupling(BJJ, 300)
    assert 0.95 <= bjj <= 1.15


def test_crossover_edge_predicate():
    sjj = crossover_coupling(SJJ, 300, criterion="edge")
    assert 2.000 <= sjj <= 2.002
    # for the conventional junction edge dominance happens well after the
    # two-peak onset
    bjj_edge = crossover_coupling(BJJ, 300, criterion="edge")
    assert bjj_edge > crossover_coupling(BJJ, 300, criterion="bimodal")


def test_crossover_hz_jump_predicate():
    v = crossover_coupling(SJJ, 300, criterion="hz_jump")
    assert 2.000 <= v <= 2.002


def test_crossover_small_and_monotone():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v4 = crossover_coupling(SJJ, 4)
    assert np.isfinite(v4) and v4 > 0
    values = [crossover_coupling(SJJ, n) for n in (50, 100, 300)]
    assert values[0] > values[1] > values[2]


def test_crossover_validation():
    with pytest.raises(ValueError):
        crossover_coupling(SJJ, 3)
    with pytest.raises(ValueError):
        crossover_coupling(SJJ, 300, criterion="nope")
    with pytest.raises(ValueError):
        crossover_coupling(SJJ, 300, bracket=(3.0, 4.0))  # already past the flip


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_crossover_rejects_negative_tolerance(tol):
    with pytest.raises(ValueError, match="tol"):
        crossover_coupling(SJJ, 300, tol=tol)


def test_crossover_tolerance_below_float_spacing_returns():
    # the bracket cannot shrink past adjacent floats, so a tolerance at or
    # below their spacing must end the bisection there
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reference = crossover_coupling(SJJ, 4, tol=1e-15)
        for tol in (0.0, 1e-20):
            assert abs(crossover_coupling(SJJ, 4, tol=tol) - reference) <= 1e-15
