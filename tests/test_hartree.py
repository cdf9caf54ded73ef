import math

import numpy as np
import pytest

from sjj import (
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
)
from sjj.overlap_fit import _mean_field_energy

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


def test_coherent_amplitudes_edge_cases():
    s = coherent_fock_amplitudes(1.0, 0.0, 7)
    assert s.amps[0] == 1.0 and np.all(s.amps[1:] == 0.0)
    s = coherent_fock_amplitudes(0.0, 1.0, 7)
    assert s.amps[-1] == 1.0 and np.all(s.amps[:-1] == 0.0)
    with pytest.raises(ValueError):
        coherent_fock_amplitudes(0.9, 0.9, 7)


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
        s2 = (2.42 - Lambda) / 0.84
        assert exact_branch_energy(Lambda) == _mean_field_energy(s2, 1.0, Lambda)


def test_cat_overlap_rejects_n_beyond_float():
    # 10**400 used to end in OverflowError when N met a float
    with pytest.raises(ValueError, match="n_total must be at most"):
        cat_overlap(2.0, 10**400)
