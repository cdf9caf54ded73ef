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
    UndefinedCriterionError,
    build_hamiltonian,
    cat_state,
    coherent_fock_amplitudes,
    conditional_state,
    crossover_coupling,
    ground,
    ground_state,
    hz1_from_spins,
    hz_criterion,
    mean_imbalance,
    noon_state,
    planar_squeezing,
    spin_expectations,
)
from sjj import observables
from sjj.cli import main
from sjj.observables import cj_scan, refine_minimum
from oracles import dense_hz, dense_spin_operators, mp_hz, random_balanced_state, random_state

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


@pytest.mark.parametrize("observable", [mean_imbalance, hz1_from_spins])
def test_zero_particle_state_is_a_value_error(observable):
    # losing all 10 atoms from mode a leaves the N = 0 state
    empty = conditional_state(ground(SJJ, 10, 4.0)[1], 10, 0, LossChannel(0.9, 0.9)).state
    assert empty.n_total == 0
    with pytest.raises(ValueError, match="undefined at N = 0"):
        observable(empty)


def test_casimir_identity_everywhere(rng):
    states = [
        coherent_fock_amplitudes(R2, R2, 300),
        coherent_fock_amplitudes(0.6, 0.8, 120),
        noon_state(80),
        cat_state(2.0, 60),
        ground_state(build_hamiltonian(SJJ, 300, 2.001))[1],
        ground_state(build_hamiltonian(BJJ, 300, 1.0))[1],
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


def _dense_spin_states():
    rng = np.random.default_rng(20261020)
    for n_total in (1, 2, 5, 12):
        for _ in range(5):
            yield FockState(random_state(rng, n_total))
    for kind, coupling in ((SJJ, 0.5), (SJJ, 2.001), (BJJ, 1.0)):
        yield ground(kind, 300, coupling)[1]
    yield coherent_fock_amplitudes(0.6, -0.8, 40)


@pytest.mark.parametrize("s", list(_dense_spin_states()))
def test_spin_moments_against_dense_operators(s):
    # complex random states carry <J_Y> != 0, so its sign is checked here;
    # the errors, scaled by N and N^2, measure below 1e-16
    n_total = s.n_total
    e = spin_expectations(s)
    got = ((e.jx, e.var_jx), (e.jy, e.var_jy), (e.jz, e.var_jz))
    for op, (mean, var) in zip(dense_spin_operators(n_total), got):
        j_psi = op @ s.amps
        ref_mean = np.vdot(s.amps, j_psi).real
        ref_var = np.vdot(s.amps, op @ j_psi).real - ref_mean**2
        assert abs(mean - ref_mean) <= 1e-12 * n_total
        assert abs(var - ref_var) <= 1e-12 * n_total**2


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


def test_hz_against_mp_moment_sums_at_n300(rng):
    # the mpmath oracle agrees with the dense one where both run ...
    amps = random_state(rng, 7)
    assert all(abs(mp_hz(amps, m) - dense_hz(amps, m)) <= 1e-13 for m in range(1, 8))
    # ... and pins the log-space moments at N = 300, up to m = N; the worst
    # error measured over these cases is 1.7e-13
    states = [coherent_fock_amplitudes(R2, R2, 300)]
    states += [ground(SJJ, 300, coupling)[1] for coupling in (0.5, 2.001, 4.0)]
    for s in states:
        for m in (1, 2, 3, 10, 150, 299, 300):
            assert abs(hz_criterion(s, m) - mp_hz(s.amps, m)) <= 5e-13, m


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


@pytest.mark.parametrize("n_total", [300, 1000])
def test_hz_order_n_exact(n_total):
    # 1 - |A_N|^2 in place of the log-space moment sums, which lose about
    # eps log(N!): up to 1.4e-13 at N = 300 and 1.7e-13 at N = 1000 on
    # these states
    for coupling in (0.5, 2.001, 2.025, 2.1, 4.0):
        s = ground(SJJ, n_total, coupling)[1]
        assert abs(hz_criterion(s, n_total) - mp_hz(s.amps, n_total, 50)) <= 2.3e-16, coupling


def test_hz_order_n_where_probabilities_underflow():
    # A_0 = 3.8e-183 squares to 0 but is not 0, so the witness is defined:
    # 1 - |A_N|^2, which rounds to 1
    s = ground(SJJ, 800, 0.5)[1]
    assert s.probabilities[0] == 0.0 and s.amps[0] != 0.0
    assert hz_criterion(s, 800) == 1.0


def test_hz_denominator_error():
    all_b = np.zeros(8, dtype=complex)
    all_b[-1] = 1.0
    for m in (1, 7):  # at m = N too, where A_0 = 0
        with pytest.raises(UndefinedCriterionError):
            hz_criterion(FockState(all_b), m)
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
    _, g = ground_state(build_hamiltonian(SJJ, 300, 1.5))
    assert planar_squeezing(g).squeezed


def test_steering_window_near_crossover():
    # the first-order witness sits below the steering bound 0.5 just before
    # the ground-state crossover
    for coupling in (1.9, 1.95, 2.0):
        _, g = ground_state(build_hamiltonian(SJJ, 300, coupling))
        assert hz_criterion(g, 1) < 0.5


def test_highest_order_witness_approaches_noon_value():
    # past the crossover the ground state tends to the ideal N00N state and
    # the order-N witness approaches 0.5 from above
    vals = []
    for coupling in (2.1, 3.0, 4.0):
        _, g = ground_state(build_hamiltonian(SJJ, 300, coupling))
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
    # f sees each key once, in scan order, and the argmin is a key
    seen = []
    assert refine_minimum(lambda x: seen.append(x) or (x - x0) ** 2,
                          np.arange(0.0, 2.0001, 0.1), refine_to=1e-5)[2] == seen
    assert len(set(seen)) == len(seen)
    assert all(x == float("%.12g" % round(x, 12)) for x in seen)
    assert xmin in seen
    with pytest.raises(ValueError):
        refine_minimum(lambda x: x, np.array([]))
    for grid in ([0.0, 0.5, 0.5], [1.0, 0.5]):
        with pytest.raises(ValueError, match="strictly increasing"):
            refine_minimum(lambda x: x, np.array(grid))


@pytest.mark.parametrize("grid", [[0.0, math.nan, 1.0], [math.nan], [0.0, math.inf]])
def test_refine_minimum_rejects_non_finite_grid(grid):
    # a NaN difference is not <= 0, so the order check alone lets it through
    calls = []
    with pytest.raises(ValueError, match="grid must be finite"):
        refine_minimum(calls.append, np.array(grid))
    assert calls == []


def test_refine_minimum_stays_in_the_double_range():
    # a bracket 2e308 wide overflowed np.linspace, and f was called at inf;
    # the keys are every point f was called at
    assert refine_minimum(lambda x: -x, [0.0, 1e308]) == (1e308, -1e308, [0.0, 1e308])


def test_refine_minimum_stops_at_the_key_resolution(monkeypatch):
    # once the step falls below the key resolution a level adds no key, and
    # the refinement stops there instead of running down through the subnormals
    levels = []
    linspace = np.linspace
    monkeypatch.setattr(np, "linspace", lambda *a, **k: levels.append(a) or linspace(*a, **k))
    xmin, fmin, evaluated = refine_minimum(lambda x: x, [0.0, 0.5, 1.0], refine_to=0.0)
    assert (xmin, fmin, len(evaluated)) == (0.0, 0.0, 106)
    assert len(levels) == 13
    levels.clear()
    refine_minimum(lambda x: x, [0.0, 0.5, 1.0], refine_to=1e-5)
    assert len(levels) == 5


@pytest.mark.parametrize("grid", [[-1.0, -0.5], [-1.0, -0.5, 0.0]])
def test_refine_minimum_rejects_negative_grid(grid):
    # the refinement keeps to couplings >= 0: the first grid used to raise
    # IndexError, the second to return -0.5 without refining toward -0.7
    calls = []
    with pytest.raises(ValueError, match="grid must be >= 0"):
        refine_minimum(lambda x: calls.append(x) or (x + 0.7) ** 2, np.array(grid))
    assert calls == []


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
        hz_criterion(ground_state(build_hamiltonian(BJJ, 50, float(c)))[1], 1)
        for c in grid
    )
    assert res.c_j <= coarse
    assert grid[0] - 0.05 <= res.argmin <= grid[-1] + 0.05


def test_cj_scan_solves_each_coupling_once(monkeypatch):
    # the refinement brackets share their ends and centre with earlier
    # points: each coupling is solved once, at its key
    solved, results = [], []

    def counting(kind, n_total, coupling):
        solved.append(coupling)
        return ground(kind, n_total, coupling)

    def recording(*args, **kwargs):
        results.append(refine_minimum(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(observables, "ground", counting)
    monkeypatch.setattr(observables, "refine_minimum", recording)
    res = cj_scan(BJJ, 50, np.arange(0.8, 1.3 + 1e-9, 0.05))
    (argmin, c_j, evaluated), = results
    assert (res.argmin, res.c_j) == (argmin, c_j)
    assert solved == evaluated
    assert len(solved) == len(set(solved))


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


def test_crossover_validation(monkeypatch, capsys):
    with pytest.raises(ValueError):
        crossover_coupling(SJJ, 3)
    with pytest.raises(ValueError):
        crossover_coupling(SJJ, 300, criterion="nope")
    # at N = 4 the first-order witness is 0.830 at coupling 0.25, already
    # past the jump at the lowest coupling searched
    held = "criterion 'hz_jump' already holds at coupling 0.25, the lowest coupling searched"
    with pytest.raises(ValueError, match=held):
        crossover_coupling(SJJ, 4, criterion="hz_jump")
    assert main(["crossover", "--model", "sjj", "--n", "4", "--criterion", "hz_jump"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"sjj crossover: {held}\n"
    # a witness that never jumps stops the bracket doubling past 1e6
    monkeypatch.setattr(observables, "hz_criterion", lambda state, m: 0.0)
    with pytest.raises(ValueError, match="never satisfied"):
        crossover_coupling(SJJ, 10, criterion="hz_jump")


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
