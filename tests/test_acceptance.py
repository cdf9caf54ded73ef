"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run pytest with -s to stream
them).  Criterion 4b pins the published conventional-junction witness floor
of 0.163 at N = 300; faithful recomputation gives ~0.1056 (the regression
value guarded in test_observables.py), so that single check is expected to
fail and is kept failing rather than loosened.
"""

import contextlib
import math
import time
import warnings

import numpy as np
import pytest

import sjj
from sjj import ModelKind
from oracles import (
    dense_from_tridiagonal,
    jacobi_eigh,
    random_balanced_state,
)

SJJ, BJJ = ModelKind.SJJ, ModelKind.BJJ
R2 = 1.0 / math.sqrt(2.0)


@contextlib.contextmanager
def criterion(num: str, label: str, budget_s: float | None = None):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {label} ({time.monotonic() - t0:.1f}s)")
        raise
    elapsed = time.monotonic() - t0
    print(f"[PASS] criterion {num}: {label} ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s budget"


def ground(kind, n_total, coupling):
    _, state = sjj.ground_state(sjj.build_hamiltonian(kind, n_total, coupling))
    return state


def closed_n2(kind, coupling):
    x = 4.0 * 0.79**2 if kind is SJJ else 16.0
    return np.sort([
        -coupling / 2.0,
        (-coupling - math.sqrt(coupling**2 + x)) / 4.0,
        (-coupling + math.sqrt(coupling**2 + x)) / 4.0,
    ])


def test_criterion_01_n2_closed_forms():
    with criterion("1", "N=2 closed-form eigenvalues over coupling in [0, 10]", 1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for kind in (SJJ, BJJ):
                for coupling in np.arange(0.0, 10.0 + 1e-9, 0.1):
                    spec = sjj.eigen_decompose(
                        sjj.build_hamiltonian(kind, 2, float(coupling))
                    )
                    assert np.max(np.abs(spec.energies - closed_n2(kind, coupling))) <= 1e-12


def test_criterion_02_dense_oracle_equivalence():
    with criterion("2", "dense Jacobi oracle, N <= 20, both models", 10.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for kind in (SJJ, BJJ):
                for n_total in range(1, 21):
                    for coupling in (0.0, 1.0, 2.0, 4.0):
                        h = sjj.build_hamiltonian(kind, n_total, coupling)
                        dense = dense_from_tridiagonal(h.diag, h.offdiag)
                        spec = sjj.eigen_decompose(h)
                        w_ref, v_ref = jacobi_eigh(dense)
                        assert np.max(np.abs(spec.energies - w_ref)) <= 1e-10
                        for w, v in ((spec.energies, spec.vectors), (w_ref, v_ref)):
                            resid = dense @ v - v * w
                            assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-10


def test_criterion_03_crossover_couplings():
    with criterion("3", "ground-state crossover couplings at N = 300", 120.0):
        sjj_c = sjj.crossover_coupling(SJJ, 300)
        assert 2.000 <= sjj_c <= 2.002
        bjj_c = sjj.crossover_coupling(BJJ, 300)
        assert 0.95 <= bjj_c <= 1.15


def test_criterion_04a_sjj_witness_minimum():
    with criterion("4a", "soliton-model witness minimum 0.31924 +- 0.005", 600.0):
        res = sjj.cj_scan(SJJ, 300, np.arange(1.8, 2.2 + 1e-9, 0.005))
        assert abs(res.c_j - 0.31924) <= 0.005


def test_criterion_04b_bjj_witness_minimum():
    # published value 0.163; faithful recomputation yields ~0.1056, so this
    # stays red deliberately (see module docstring)
    with criterion("4b", "conventional-model witness minimum 0.163 +- 0.01", 600.0):
        res = sjj.cj_scan(BJJ, 300, np.arange(0.8, 1.3 + 1e-9, 0.005))
        assert abs(res.c_j - 0.163) <= 0.01


def test_criterion_05_witness_fixed_points():
    with criterion("5", "witness fixed points for coherent and N00N states"):
        coh = sjj.coherent_fock_amplitudes(R2, R2, 300)
        assert abs(sjj.hz_criterion(coh, 1) - 0.5) <= 1e-10
        noon = sjj.noon_state(300)
        assert abs(sjj.hz_criterion(noon, 1) - 1.0) <= 1e-12
        assert abs(sjj.hz_criterion(noon, 300) - 0.5) <= 1e-12


def test_criterion_06_ground_state_distributions():
    with criterion("6", "ground-state distributions at N = 300", 60.0):
        p = ground(SJJ, 300, 2.0).probabilities
        assert int(np.argmax(p)) == 150

        p = ground(SJJ, 300, 2.001).probabilities
        assert p[0] > 0.2 and p[300] > 0.2
        assert p[1] > 1e-3 and p[299] > 1e-3      # visible satellites
        assert p[1] < p[0] and p[2] < p[1]        # decaying away from the edge
        assert abs(p[1] - p[299]) <= 1e-12

        p = ground(SJJ, 300, 4.0).probabilities
        assert p[0] + p[300] > 0.98


def test_criterion_07_mean_field():
    with criterion("7", "mean-field conservation, fixed points, overlap integral"):
        traj = sjj.integrate(sjj.MeanFieldState(0.6, 0.0), 4.0, 100.0, 1e-3)
        assert traj.energy_drift <= 1e-8
        assert np.min(traj.z) > 0.0  # self-trapped branch never crosses zero

        for Lambda in np.arange(0.0, 3.01, 0.05):
            for st in sjj.steady_states(float(Lambda)):
                dz, dth = sjj.rhs(sjj.MeanFieldState(st.z, st.theta), float(Lambda))
                assert math.hypot(dz, dth) <= 1e-12

        assert abs(sjj.overlap_integral(1.0) - math.pi / 4.0) <= 1e-8
        dev = max(
            abs(sjj.overlap_integral(float(z)) - (1.0 - 0.21 * z * z))
            for z in np.linspace(-1.0, 1.0, 81)
        )
        assert dev <= 0.01


def test_criterion_08_hartree_branches():
    with criterion("8", "variational branch energies and cat overlap bounds"):
        for Lambda in np.linspace(1.58, 2.42, 85):
            fit = 0.30 * Lambda**2 - 1.44 * Lambda + 0.74
            assert abs(fit - sjj.exact_branch_energy(float(Lambda))) <= 0.02
        assert sjj.cat_overlap(1.58, 300) == 0.0
        assert abs(sjj.cat_overlap(2.42, 300) - 1.0) <= 1e-13
        for Lambda in np.linspace(1.58, 2.41, 40):
            branches = {s.branch: s for s in sjj.stationary_solutions(float(Lambda))}
            assert branches["S+"].energy >= branches["S0"].energy


def test_criterion_09_loss_channel():
    with criterion("9", "loss-branch completeness, unbalanced N00N ratio, decay rate"):
        state = ground(SJJ, 300, 4.0)
        mix = sjj.loss_mixture(state, sjj.LossChannel(0.999, 0.999))
        assert abs(math.fsum(b.probability for b in mix) - 1.0) <= 1e-12

        amps = np.zeros(301, dtype=complex)
        amps[0] = amps[-1] = math.sqrt(0.5 - 1e-6)
        amps[1] = amps[-2] = 1e-3
        noonish = sjj.FockState(amps)
        out = sjj.conditional_state(noonish, 1, 1, sjj.LossChannel(0.999, 0.998))
        p = out.state.probabilities
        expect = (0.999 / 0.998) ** 298
        assert abs(p[0] / p[-1] - expect) <= 1e-10 * expect

        assert abs(sjj.gamma3(2.6e-28, 1e13) - 5.2e-2) <= 1e-4


def test_criterion_10_cross_formulation(rng):
    with criterion("10", "witness cross-formulation and Casimir identity"):
        for n_total in (2, 10, 50):
            j = n_total / 2.0
            for _ in range(100):
                s = sjj.FockState(random_balanced_state(rng, n_total))
                assert abs(sjj.hz_criterion(s, 1) - sjj.hz1_from_spins(s)) <= 1e-10
                e = sjj.spin_expectations(s)
                total = (
                    e.var_jx + e.jx**2 + e.var_jy + e.jy**2 + e.var_jz + e.jz**2
                )
                assert abs(total - j * (j + 1.0)) <= 1e-9


def test_criterion_11_physical_conversions():
    with criterion("11", "laboratory-unit conversions for the lithium set"):
        def trap(kappa_hz):
            return sjj.TrapParams(
                a_sc=-1.4e-9,
                omega_x=2.0 * math.pi * 70.0,
                omega_perp=2.0 * math.pi * 700.0,
                tunnel_rate=2.0 * math.pi * kappa_hz,
                n_atoms=300,
                mass=sjj.atomic_mass("li7"),
                a_perp=1.4e-6,
            )

        assert abs(sjj.coupling_Lambda(trap(77.0)) - 2.0) <= 0.05
        assert abs(sjj.coupling_lambda(trap(83.0)) - 1.0) <= 0.05
        tp = trap(77.0)
        lhs = sjj.coupling_Lambda(tp)
        rhs = sjj.wp_coefficient(tp) * sjj.coupling_lambda(tp) ** 2
        assert abs(lhs - rhs) <= 1e-12 * lhs
        u_nc = sjj.nonlinearity_u(tp) * sjj.critical_atom_number(tp)
        assert abs(u_nc - 2.0 * math.pi * 0.67) <= 1e-12
