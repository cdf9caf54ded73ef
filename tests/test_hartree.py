import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjj import (
    HartreeSolution,
    ModelKind,
    TwoModeParams,
    apply_hamiltonian,
    build_hamiltonian,
    cat_overlap,
    cat_state,
    coherent_fock_amplitudes,
    exact_branch_energy,
    noon_state,
    stationary_solutions,
    steady_states,
)
from sjj.overlap_fit import _LAMBDA_HI, _LAMBDA_LO, _OVERLAP_FIT, _mean_field_energy
from oracles import mp_cat_amplitudes

R2 = 1.0 / math.sqrt(2.0)


def branches(Lambda):
    return {s.branch: s for s in stationary_solutions(Lambda)}


def test_balanced_branch_always_present():
    for Lambda in (0.0, 1.0, 2.0, 5.0):
        b = branches(Lambda)
        assert b["S0"].alpha == b["S0"].beta == pytest.approx(R2, abs=1e-15)
        assert b["S0"].energy == -1.0


def test_imbalanced_branch_at_two():
    b = branches(2.0)
    assert abs(b["S+"].s - 0.707107) <= 1e-6
    assert abs(b["S+"].s - math.sqrt(0.5)) <= 1e-12
    assert abs(b["S+"].beta - math.sqrt((1 + math.sqrt(0.5)) / 2)) <= 1e-12
    assert abs(b["S-"].s + b["S+"].s) <= 1e-15
    assert b["S+"].alpha == b["S-"].beta
    assert abs(b["S+"].energy - (0.30 * 4 - 1.44 * 2 + 0.74)) <= 1e-15


def test_branch_existence_windows():
    assert set(branches(0.0)) == {"S0"}
    assert set(branches(1.0)) == {"S0", "N00N+", "N00N-"}
    assert set(branches(1.58)) == {"S0", "S+", "S-", "N00N+", "N00N-"}
    assert set(branches(2.0)) == {"S0", "S+", "S-"}
    assert set(branches(2.42)) == {"S0"}  # open upper end of the S+- window
    assert set(branches(3.0)) == {"S0"}


def test_noon_branch_amplitudes_and_energy():
    b = branches(1.0)
    assert (b["N00N+"].alpha, b["N00N+"].beta) == (0.0, 1.0)
    assert (b["N00N-"].alpha, b["N00N-"].beta) == (1.0, 0.0)
    assert b["N00N+"].energy == -0.5
    assert b["N00N+"].s == 1.0


def test_branch_energies_dominated_by_balanced():
    for Lambda in np.arange(1.58, 2.42, 0.02):
        b = branches(float(Lambda))
        assert b["S+"].energy >= b["S0"].energy


@pytest.mark.parametrize("Lambda", [math.nan, math.inf, -1.0])
def test_stationary_solutions_reject_bad_coupling(Lambda):
    with pytest.raises(ValueError, match="Lambda must be finite and >= 0"):
        stationary_solutions(Lambda)


def test_exact_branch_energy_values():
    assert abs(exact_branch_energy(2.0) + 0.9475) <= 1e-12
    assert abs(exact_branch_energy(1.58) + 0.79) <= 1e-12  # equals -Lambda/2 at S = +-1
    assert abs(exact_branch_energy(2.42) + 1.0) <= 1e-12
    with pytest.raises(ValueError):
        exact_branch_energy(1.5)
    with pytest.raises(ValueError):
        exact_branch_energy(2.5)


def test_fit_tracks_exact_energy():
    for Lambda in np.linspace(1.58, 2.42, 85):
        fit = 0.30 * Lambda**2 - 1.44 * Lambda + 0.74
        assert abs(fit - exact_branch_energy(float(Lambda))) <= 0.02


def test_cat_overlap_values():
    assert cat_overlap(1.58, 300) == 0.0
    assert abs(cat_overlap(2.42, 300) - 1.0) <= 1e-13
    assert abs(cat_overlap(2.0, 300) - 2.0**-150) <= 1e-12 * 2.0**-150
    vals = [cat_overlap(float(L), 40) for L in np.linspace(1.58, 2.42, 30)]
    assert np.all(np.diff(vals) > 0.0)
    with pytest.raises(ValueError):
        cat_overlap(1.0, 10)
    with pytest.raises(ValueError, match="n_total must be >= 1"):
        cat_overlap(2.0, 0)


def test_coherent_amplitudes_edge_cases():
    s = coherent_fock_amplitudes(1.0, 0.0, 7)
    assert s.amps[0] == 1.0 and np.all(s.amps[1:] == 0.0)
    s = coherent_fock_amplitudes(0.0, 1.0, 7)
    assert s.amps[-1] == 1.0 and np.all(s.amps[:-1] == 0.0)
    with pytest.raises(ValueError):
        coherent_fock_amplitudes(0.9, 0.9, 7)
    with pytest.raises(ValueError, match="n_total must be >= 1"):
        coherent_fock_amplitudes(R2, R2, 0)


def test_coherent_amplitudes_binomial():
    s = coherent_fock_amplitudes(R2, R2, 2)
    assert np.allclose(s.amps.real, [0.5, R2, 0.5], atol=1e-14)
    # negative amplitude carries alternating signs
    s = coherent_fock_amplitudes(-R2, R2, 2)
    assert np.allclose(s.amps.real, [0.5, -R2, 0.5], atol=1e-14)


def test_coherent_amplitudes_large_n_normalized():
    s = coherent_fock_amplitudes(0.6, 0.8, 300)
    assert abs(np.sum(s.probabilities) - 1.0) <= 1e-12


def test_components_overlap_equals_cat_overlap():
    # <psi_+|psi_-> = (2 alpha beta)^N = X^N, the same eps used for the
    # cat normalization
    for Lambda, n in ((1.8, 15), (2.2, 30)):
        b = branches(Lambda)
        ap = coherent_fock_amplitudes(b["S+"].alpha, b["S+"].beta, n).amps
        am = coherent_fock_amplitudes(b["S-"].alpha, b["S-"].beta, n).amps
        assert abs(np.vdot(ap, am).real - cat_overlap(Lambda, n)) <= 1e-12


def test_cat_state_structure():
    even = cat_state(2.0, 20, +1)
    odd = cat_state(2.0, 20, -1)
    assert abs(np.sum(even.probabilities) - 1.0) <= 1e-12
    assert np.allclose(even.amps, even.amps[::-1], atol=1e-12)
    assert np.allclose(odd.amps, -odd.amps[::-1], atol=1e-12)
    assert abs(np.vdot(even.amps, odd.amps)) <= 1e-12
    with pytest.raises(ValueError):
        cat_state(1.0, 20)
    with pytest.raises(ValueError):
        cat_state(2.0, 20, sign=2)


def test_noon_state_amplitudes():
    s = noon_state(12)
    assert abs(s.amps[0] - R2) <= 1e-15
    assert abs(s.amps[12] - R2) <= 1e-15
    assert np.all(s.amps[1:12] == 0.0)
    s = noon_state(5, phase=math.pi)
    assert abs(s.amps[5] + R2) <= 1e-15
    with pytest.raises(ValueError, match="n_total must be >= 1"):
        noon_state(0)


@pytest.mark.parametrize("n_total", [50, 100, 300])
def test_hartree_limit_of_quantum_energy(n_total):
    # the balanced coherent state's quantum mean energy approaches the
    # variational value -kappa*N as N grows, within 5/N relative
    s = coherent_fock_amplitudes(R2, R2, n_total)
    h = build_hamiltonian(TwoModeParams(ModelKind.SJJ, n_total, 2.0))
    energy = float(np.real(np.vdot(s.amps, apply_hamiltonian(h, s))))
    assert abs(energy - (-1.0)) <= 5.0 / n_total


def test_exact_branch_energy_is_mean_field_energy():
    for Lambda in np.linspace(1.58, 2.42, 43):
        Lambda = float(Lambda)
        s2 = (2.42 - Lambda) / (2.42 - 1.58)
        assert exact_branch_energy(Lambda) == _mean_field_energy(s2, 1.0, Lambda)


def test_cat_overlap_rejects_n_beyond_float():
    # 10**400 used to end in OverflowError when N met a float
    with pytest.raises(ValueError, match="n_total must be at most"):
        cat_overlap(2.0, 10**400)


@pytest.mark.parametrize("fields, message", [
    (dict(s=0.0, alpha=0.6, beta=0.6), r"alpha\^2 \+ beta\^2 must equal 1"),
    (dict(s=0.5, alpha=R2, beta=R2), r"S must equal beta\^2 - alpha\^2"),
])
def test_hartree_solution_rejects_inconsistent_fields(fields, message):
    with pytest.raises(ValueError, match=message):
        HartreeSolution(**fields, theta=0.0, energy=-1.0, branch="S0")


def _check_window(Lambda, n_total):
    # in floating point Lambda - 1.58 lies in [0, 2.42 - 1.58] on the window
    # and Lambda/2 <= 1.21 exactly, so the window formulas need no clamp:
    # each is finite, >= 0 and equal to its clamped form
    x2 = (Lambda - _LAMBDA_LO) / (_LAMBDA_HI - _LAMBDA_LO)
    assert 0.0 <= x2 <= 1.0
    s2 = (_LAMBDA_HI - Lambda) / (_LAMBDA_HI - _LAMBDA_LO)
    assert 0.0 <= s2 < math.inf
    energy = exact_branch_energy(Lambda)
    assert math.isfinite(energy)
    assert energy == _mean_field_energy(max(0.0, s2), 1.0, Lambda)
    eps = cat_overlap(Lambda, n_total)
    assert 0.0 <= eps <= 1.0
    assert eps == (0.0 if x2 <= 0.0 else min(1.0, math.exp(0.5 * n_total * math.log(x2))))
    if Lambda < _LAMBDA_HI:
        s = branches(Lambda)["S+"].s
        assert math.isfinite(s) and s == math.sqrt(max(0.0, s2))
    if Lambda > _LAMBDA_LO:
        z2 = (1.0 + _OVERLAP_FIT - Lambda / 2.0) / (2.0 * _OVERLAP_FIT)
        assert z2 >= 0.0
        z = {s.branch: s for s in steady_states(Lambda)}["self-trapped+"].z
        assert math.isfinite(z) and z == math.sqrt(max(0.0, z2))


@pytest.mark.parametrize("n_total", [1, 300, 10**300])
@pytest.mark.parametrize("Lambda", [
    _LAMBDA_LO, math.nextafter(_LAMBDA_LO, math.inf),
    math.nextafter(_LAMBDA_HI, 0.0), _LAMBDA_HI,
])
def test_window_edges_need_no_clamp(Lambda, n_total):
    _check_window(Lambda, n_total)


@settings(max_examples=300, deadline=None)
@given(Lambda=st.floats(min_value=_LAMBDA_LO, max_value=_LAMBDA_HI),
       n_total=st.integers(min_value=1, max_value=10**300))
def test_window_formulas_need_no_clamp(Lambda, n_total):
    _check_window(Lambda, n_total)


def _check_cat_against_mpmath(Lambda, n_total, sign):
    # every amplitude above 1e-300 within 1e-14 (N+1) relative; exact zeros stay zero
    amps = cat_state(Lambda, n_total, sign).amps
    ref = mp_cat_amplitudes(Lambda, n_total, sign)
    assert np.all(amps.imag == 0.0)
    assert np.all(amps.real[ref == 0.0] == 0.0)
    big = np.abs(ref) > 1e-300
    rel = np.abs(amps.real[big] - ref[big]) / np.abs(ref[big])
    assert np.max(rel) <= 1e-14 * (n_total + 1)


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("Lambda, n_total", [
    # near 2.42 the two components nearly coincide, so the odd cat is a small
    # difference of large terms; at 1.58 + 1e-12, atanh S is near its pole
    (2.42 - 1e-6, 1), (2.42 - 1e-6, 10), (2.42 - 1e-8, 300), (2.42 - 1e-4, 1),
    (math.nextafter(_LAMBDA_HI, 0.0), 1), (math.nextafter(_LAMBDA_HI, 0.0), 300),
    (_LAMBDA_LO, 57), (1.58 + 1e-12, 57), (2.0, 300),
])
def test_cat_state_matches_mpmath(Lambda, n_total, sign):
    _check_cat_against_mpmath(Lambda, n_total, sign)


@settings(max_examples=100, deadline=None)
@given(Lambda=st.floats(min_value=_LAMBDA_LO, max_value=_LAMBDA_HI, exclude_max=True),
       n_total=st.integers(min_value=1, max_value=400),
       sign=st.sampled_from([+1, -1]))
def test_cat_state_matches_mpmath_on_the_window(Lambda, n_total, sign):
    _check_cat_against_mpmath(Lambda, n_total, sign)


@pytest.mark.parametrize("n_total", [1, 2, 7, 300])
def test_cats_at_window_start_are_noon_states(n_total):
    # S = 1 exactly at 1.58, so the components are |N,0> and |0,N>
    assert np.array_equal(cat_state(_LAMBDA_LO, n_total, +1).amps, noon_state(n_total).amps)
    odd = cat_state(_LAMBDA_LO, n_total, -1).amps
    assert np.allclose(odd, -noon_state(n_total, phase=math.pi).amps, rtol=0.0, atol=1e-16)
    assert odd[0] == -R2 and odd[-1] == R2


@pytest.mark.parametrize("Lambda", [1.58 + 1e-12, 2.0, 2.42 - 1e-12])
def test_branch_amplitudes_match_mpmath(Lambda):
    # S, alpha and beta come from S^2 and X^2 directly, never from 1 -+ S
    import mpmath

    plus = branches(Lambda)["S+"]
    with mpmath.workdps(50):
        hi, lo = mpmath.mpf(_LAMBDA_HI), mpmath.mpf(_LAMBDA_LO)
        s = mpmath.sqrt((hi - mpmath.mpf(Lambda)) / (hi - lo))
        ref = {"s": s, "alpha": mpmath.sqrt((1 - s) / 2), "beta": mpmath.sqrt((1 + s) / 2)}
        for name, value in ref.items():
            assert abs(getattr(plus, name) - value) <= 1e-15 * value, name


def test_branch_ends_are_exact():
    assert branches(_LAMBDA_LO)["S+"].s == 1.0
    assert branches(_LAMBDA_LO)["S+"].alpha == 0.0
    # the closed form cos(pi/8), sin(pi/8) at Lambda = 2, both correctly rounded
    assert (branches(2.0)["S+"].alpha, branches(2.0)["S+"].beta) == (0.3826834323650898,
                                                                    0.9238795325112867)
