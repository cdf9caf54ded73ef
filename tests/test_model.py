import math

import numpy as np
import pytest

from sjj import (
    FockState,
    ModelKind,
    TridiagonalHamiltonian,
    TwoModeParams,
    apply_hamiltonian,
    build_hamiltonian,
    eigenvalues,
    energy_gap,
)
from sjj import model

SJJ, BJJ = ModelKind.SJJ, ModelKind.BJJ

# hand evaluation of the SJJ off-diagonal at N=2: (1 - 0.21) * sqrt(2) / 4
OFF_SJJ_N2 = 0.79 * math.sqrt(2.0) / 4.0


def test_params_validation():
    with pytest.raises(ValueError):
        TwoModeParams(SJJ, 0, 1.0)
    with pytest.raises(ValueError):
        TwoModeParams(BJJ, 10, -0.5)
    for coupling in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="coupling must be finite"):
            TwoModeParams(BJJ, 10, coupling)
    TwoModeParams(BJJ, model._MAX_N, 1.0)
    TwoModeParams(BJJ, 10, 10**300)  # an int inside the float range is finite
    with pytest.raises(ValueError, match=f"n_total must be at most {model._MAX_N}"):
        TwoModeParams(SJJ, model._MAX_N + 1, 1.0)
    with pytest.warns(UserWarning) as record:
        TwoModeParams(SJJ, 10, 0.0)
    assert all(w.filename == __file__ for w in record)


def test_sjj_n2_coefficients():
    h = build_hamiltonian(TwoModeParams(SJJ, 2, 2.0))
    assert np.allclose(h.diag, [-1.0, 0.0, -1.0], atol=1e-15)
    assert np.allclose(h.offdiag, [-OFF_SJJ_N2, -OFF_SJJ_N2], atol=1e-15)
    assert abs(OFF_SJJ_N2 - 0.279307) < 1e-6


def test_bjj_n2_coefficients():
    for lam in (0.7, 3.0):
        h = build_hamiltonian(TwoModeParams(BJJ, 2, lam))
        assert np.allclose(h.offdiag, [-math.sqrt(2) / 2] * 2, atol=1e-15)


@pytest.mark.parametrize("kind", [SJJ, BJJ])
def test_zero_coupling_zero_diagonal(kind):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        h = build_hamiltonian(TwoModeParams(kind, 17, 0.0))
    assert np.all(h.diag == 0.0)


@pytest.mark.parametrize("kind", [SJJ, BJJ])
def test_mirror_symmetry_bit_exact(kind):
    # diag[n] == diag[N-n] and offdiag[n] == offdiag[N-1-n], floating-point
    # identical, for every N up to 400 and a spread of couplings
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n_total in range(1, 401):
            for coupling in (0.0, 0.5, 1.0, 2.0, 4.0):
                h = build_hamiltonian(TwoModeParams(kind, n_total, coupling))
                assert np.array_equal(h.diag, h.diag[::-1])
                assert np.array_equal(h.offdiag, h.offdiag[::-1])


@pytest.mark.parametrize("kind", [SJJ, BJJ])
def test_offdiag_coupling_independent(kind):
    ref = build_hamiltonian(TwoModeParams(kind, 37, 0.5)).offdiag
    for coupling in (1.0, 2.0, 4.0):
        h = build_hamiltonian(TwoModeParams(kind, 37, coupling))
        assert np.array_equal(h.offdiag, ref)


@pytest.mark.parametrize("kind", [SJJ, BJJ])
@pytest.mark.parametrize("n_total", [2, 3, 10, 101])
def test_offdiag_sign(kind, n_total):
    h = build_hamiltonian(TwoModeParams(kind, n_total, 1.5))
    assert np.all(h.offdiag < 0.0)


def test_sjj_n1_offdiag_vanishes():
    # both ladder terms carry a sqrt(0) factor at N=1
    h = build_hamiltonian(TwoModeParams(SJJ, 1, 1.0))
    assert h.offdiag[0] == 0.0
    h = build_hamiltonian(TwoModeParams(BJJ, 1, 1.0))
    assert h.offdiag[0] == -1.0


def test_apply_zero_state():
    h = build_hamiltonian(TwoModeParams(BJJ, 5, 1.0))
    out = apply_hamiltonian(h, np.zeros(6, dtype=complex))
    assert np.all(out == 0.0)


def test_apply_diag_only():
    params = TwoModeParams(BJJ, 4, 2.0)
    base = build_hamiltonian(params)
    h = TridiagonalHamiltonian(diag=base.diag, offdiag=np.zeros(4), params=params)
    amps = np.linspace(0.1, 0.5, 5).astype(complex)
    out = apply_hamiltonian(h, amps)
    assert np.allclose(out, base.diag * amps, atol=0.0)


def test_apply_matches_hand_value():
    h = build_hamiltonian(TwoModeParams(SJJ, 2, 2.0))
    out = apply_hamiltonian(h, np.array([1.0, 0.0, 0.0], dtype=complex))
    assert np.allclose(out, [-1.0, -OFF_SJJ_N2, 0.0], atol=1e-15)


def test_apply_length_mismatch():
    h = build_hamiltonian(TwoModeParams(SJJ, 4, 1.0))
    with pytest.raises(ValueError):
        apply_hamiltonian(h, np.zeros(4, dtype=complex))


def test_apply_accepts_fock_state(rng):
    h = build_hamiltonian(TwoModeParams(BJJ, 8, 1.0))
    amps = rng.normal(size=9) + 1j * rng.normal(size=9)
    amps /= np.linalg.norm(amps)
    s = FockState(amps)
    assert np.allclose(apply_hamiltonian(h, s), apply_hamiltonian(h, amps))


def test_fock_state_validation():
    with pytest.raises(ValueError):
        FockState(np.array([1.0, 1.0]))
    s = FockState(np.array([1.0, 0.0]))
    assert s.n_total == 1
    with pytest.raises(ValueError):
        s.amps[0] = 0.0  # amplitudes are read-only


@pytest.mark.parametrize("coupling", [10**400, -10**400], ids=["10^400", "-10^400"])
def test_params_int_coupling_beyond_float_range(coupling):
    # math.isfinite raises OverflowError on such an int; the documented
    # error is the ValueError
    with pytest.raises(ValueError, match="coupling must be finite"):
        TwoModeParams(SJJ, 10, coupling)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0),
                                 complex(0.0, math.inf)])
def test_fock_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="amplitudes not normalized"):
        FockState(np.array([bad, 1.0]))
    with pytest.raises(ValueError, match="amplitudes not normalized"):
        FockState(np.array([bad]))


def test_hamiltonian_shape_validation():
    params = TwoModeParams(BJJ, 3, 1.0)
    with pytest.raises(ValueError):
        TridiagonalHamiltonian(diag=np.zeros(3), offdiag=np.zeros(3), params=params)
    with pytest.raises(ValueError):
        TridiagonalHamiltonian(diag=np.zeros(4), offdiag=np.zeros(4), params=params)


def test_hamiltonian_arrays_cannot_be_changed_after_the_finite_check():
    diag, offdiag = np.zeros(4), -np.ones(3)
    h = TridiagonalHamiltonian(diag=diag, offdiag=offdiag, params=TwoModeParams(BJJ, 3, 1.0))
    gap = energy_gap(h)
    with pytest.raises(ValueError, match="read-only"):
        h.diag[1] = math.nan
    with pytest.raises(ValueError, match="read-only"):
        h.offdiag[0] = math.nan
    diag[1] = offdiag[0] = math.nan  # the caller's arrays were copied
    assert energy_gap(h) == gap
    assert np.all(np.isfinite(eigenvalues(h)))


def test_fock_state_leaves_the_callers_array_writeable():
    amps = np.array([1, 0, 0], dtype=complex)
    state = FockState(amps)
    amps[1] = 5
    assert list(state.amps) == [1, 0, 0]
    with pytest.raises(ValueError, match="read-only"):
        state.amps[1] = 5
