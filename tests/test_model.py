import math

import numpy as np
import pytest

from sjj import (
    FockState,
    MeanFieldState,
    ModelKind,
    TrapParams,
    TridiagonalHamiltonian,
    apply_hamiltonian,
    build_hamiltonian,
    cat_state,
    eigenvalues,
    energy_gap,
    energy_h,
    gamma3,
    ground,
    integrate,
    kappa_eff,
    lambda_eff,
    noon_state,
    one_body_decay,
    rhs,
    stationary_solutions,
    steady_states,
    three_body_decay,
)
from sjj import model

SJJ, BJJ = ModelKind.SJJ, ModelKind.BJJ

# hand evaluation of the SJJ off-diagonal at N=2: (1 - 0.21) * sqrt(2) / 4
OFF_SJJ_N2 = 0.79 * math.sqrt(2.0) / 4.0


def test_params_validation():
    with pytest.raises(ValueError):
        build_hamiltonian(SJJ, 0, 1.0)
    with pytest.raises(ValueError):
        build_hamiltonian(BJJ, 10, -0.5)
    for coupling in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="coupling must be finite"):
            build_hamiltonian(BJJ, 10, coupling)
    # a kind that is no ModelKind is rejected, not read as SJJ; no string is converted
    for kind in ("bjj", None):
        with pytest.raises(ValueError, match="kind must be a ModelKind"):
            build_hamiltonian(kind, 10, 1.0)
    build_hamiltonian(BJJ, 10, 10**300)  # an int inside the float range is finite
    with pytest.raises(ValueError, match=f"n_total must be at most {model._MAX_N}"):
        build_hamiltonian(SJJ, model._MAX_N + 1, 1.0)
    with pytest.warns(UserWarning) as record:
        build_hamiltonian(SJJ, 10, 0.0)
    assert all(w.filename == __file__ for w in record)


def test_sjj_n2_coefficients():
    h = build_hamiltonian(SJJ, 2, 2.0)
    assert np.allclose(h.diag, [-1.0, 0.0, -1.0], atol=1e-15)
    assert np.allclose(h.offdiag, [-OFF_SJJ_N2, -OFF_SJJ_N2], atol=1e-15)
    assert abs(OFF_SJJ_N2 - 0.279307) < 1e-6


def test_bjj_n2_coefficients():
    for lam in (0.7, 3.0):
        h = build_hamiltonian(BJJ, 2, lam)
        assert np.allclose(h.offdiag, [-math.sqrt(2) / 2] * 2, atol=1e-15)


@pytest.mark.parametrize("kind", [SJJ, BJJ])
def test_zero_coupling_zero_diagonal(kind):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        h = build_hamiltonian(kind, 17, 0.0)
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
                h = build_hamiltonian(kind, n_total, coupling)
                assert np.array_equal(h.diag, h.diag[::-1])
                assert np.array_equal(h.offdiag, h.offdiag[::-1])


@pytest.mark.parametrize("kind", [SJJ, BJJ])
def test_offdiag_coupling_independent(kind):
    ref = build_hamiltonian(kind, 37, 0.5).offdiag
    for coupling in (1.0, 2.0, 4.0):
        h = build_hamiltonian(kind, 37, coupling)
        assert np.array_equal(h.offdiag, ref)


@pytest.mark.parametrize("kind", [SJJ, BJJ])
@pytest.mark.parametrize("n_total", [2, 3, 10, 101])
def test_offdiag_sign(kind, n_total):
    h = build_hamiltonian(kind, n_total, 1.5)
    assert np.all(h.offdiag < 0.0)
    assert h.n_total == n_total


def test_sjj_n1_offdiag_vanishes():
    # both ladder terms carry a sqrt(0) factor at N=1
    h = build_hamiltonian(SJJ, 1, 1.0)
    assert h.offdiag[0] == 0.0
    h = build_hamiltonian(BJJ, 1, 1.0)
    assert h.offdiag[0] == -1.0


def test_apply_zero_state():
    h = build_hamiltonian(BJJ, 5, 1.0)
    out = apply_hamiltonian(h, np.zeros(6, dtype=complex))
    assert np.all(out == 0.0)


def test_apply_matches_hand_value():
    h = build_hamiltonian(SJJ, 2, 2.0)
    out = apply_hamiltonian(h, np.array([1.0, 0.0, 0.0], dtype=complex))
    assert np.allclose(out, [-1.0, -OFF_SJJ_N2, 0.0], atol=1e-15)


def test_apply_length_mismatch():
    h = build_hamiltonian(SJJ, 4, 1.0)
    with pytest.raises(ValueError):
        apply_hamiltonian(h, np.zeros(4, dtype=complex))


def test_apply_accepts_fock_state(rng):
    h = build_hamiltonian(BJJ, 8, 1.0)
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


@pytest.mark.parametrize("amps", [np.full((2, 2), 0.5), np.array(1.0)], ids=["2-D", "0-D"])
def test_fock_state_rejects_non_vector_amplitudes(amps):
    # a normalized 2-D array would read as N = 1 and break every observable
    with pytest.raises(ValueError, match="amplitudes must be 1-D"):
        FockState(amps)


@pytest.mark.parametrize("coupling", [10**400, -10**400], ids=["10^400", "-10^400"])
def test_params_int_coupling_beyond_float_range(coupling):
    # math.isfinite raises OverflowError on such an int; the documented
    # error is the ValueError
    with pytest.raises(ValueError, match="coupling must be finite"):
        build_hamiltonian(SJJ, 10, coupling)


_S = MeanFieldState(0.3, 0.4)
COUPLING_TAKERS = {
    "build_hamiltonian": lambda c: build_hamiltonian(BJJ, 10, c),
    "ground": lambda c: ground(SJJ, 10, c),
    "stationary_solutions": stationary_solutions,
    "cat_state": lambda c: cat_state(c, 10),
    "steady_states": steady_states,
    "lambda_eff": lambda c: lambda_eff(0.5, c),
    "rhs": lambda c: rhs(_S, c),
    "energy_h": lambda c: energy_h(_S, c),
    "integrate": lambda c: integrate(_S, c, 1.0),
}


@pytest.mark.parametrize("coupling", [-1.0, math.nan, math.inf, 10**400],
                         ids=["-1", "nan", "inf", "10^400"])
@pytest.mark.parametrize("call", COUPLING_TAKERS.values(), ids=COUPLING_TAKERS.keys())
def test_every_coupling_taker_checks_one_domain(call, coupling):
    # both junctions are attractive, so Lambda, lambda >= 0; the mean-field
    # flow used to take Lambda < 0, and all but build_hamiltonian raised
    # OverflowError on an int past the float range
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        call(coupling)


def test_coupling_message_names_an_int_too_long_to_print():
    # str() refuses an int of more than 4,300 digits, so the message names it
    with pytest.raises(ValueError, match="^Lambda must be finite and >= 0, got an int beyond"):
        stationary_solutions(10**5000)


_TRAP = dict(a_sc=1e-9, omega_x=1.0, omega_perp=10.0, tunnel_rate=1.0, n_atoms=5, mass=1e-26)
REAL_INPUT_TAKERS = {
    "MeanFieldState.theta": (lambda v: MeanFieldState(0.1, v), "theta must be finite"),
    "integrate.tau_max": (lambda v: integrate(_S, 1.0, v), "tau_max must be finite and >= 0"),
    "integrate.dtau": (lambda v: integrate(_S, 1.0, 1.0, v), "dtau must be finite and > 0"),
    "noon_state.phase": (lambda v: noon_state(4, phase=v), "phase must be finite"),
    "kappa_eff": (lambda v: kappa_eff(0.1, v), "kappa must be > 0 and finite"),
    "one_body_decay": (lambda v: one_body_decay(v, 1, 1), "all inputs must be >= 0 and finite"),
    "three_body_decay": (lambda v: three_body_decay(v, 1, 1, 1),
                         "all inputs must be >= 0 and finite"),
    "gamma3": (lambda v: gamma3(1, v), "l3 and rho must be >= 0 and finite"),
    "TrapParams.tunnel_rate": (lambda v: TrapParams(**{**_TRAP, "tunnel_rate": v}),
                               "tunnel_rate must be finite"),
}


@pytest.mark.parametrize("value", [10**400, 10**5000], ids=["10^400", "10^5000"])
@pytest.mark.parametrize("call, message", REAL_INPUT_TAKERS.values(), ids=REAL_INPUT_TAKERS.keys())
def test_int_beyond_float_range_is_not_finite(call, message, value):
    # each of these used to end in OverflowError: int too large to convert to float
    with pytest.raises(ValueError, match="^" + message):
        call(value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0),
                                 complex(0.0, math.inf)])
def test_fock_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="amplitudes not normalized"):
        FockState(np.array([bad, 1.0]))
    with pytest.raises(ValueError, match="amplitudes not normalized"):
        FockState(np.array([bad]))


def test_hamiltonian_shape_validation():
    # offdiag too long or too short, N = 0, a 2-D array, a scalar
    for diag, offdiag in [(np.zeros(4), -np.ones(4)), (np.zeros(4), -np.ones(2)),
                          (np.zeros(1), -np.ones(0)), (np.zeros((2, 2)), -np.ones(1)),
                          (np.zeros(2), -np.ones((1, 1))), (0.0, -np.ones(0))]:
        with pytest.raises(ValueError, match="must be 1-D, of lengths N [+] 1 >= 2 and N"):
            TridiagonalHamiltonian(diag=diag, offdiag=offdiag)


def test_hamiltonian_arrays_cannot_be_changed_after_the_finite_check():
    diag, offdiag = np.zeros(4), -np.ones(3)
    h = TridiagonalHamiltonian(diag=diag, offdiag=offdiag)
    gap = energy_gap(h)
    with pytest.raises(ValueError, match="read-only"):
        h.diag[1] = math.nan
    with pytest.raises(ValueError, match="read-only"):
        h.offdiag[0] = math.nan
    diag[1] = offdiag[0] = math.nan  # the caller's arrays were copied
    assert energy_gap(h) == gap
    assert np.all(np.isfinite(eigenvalues(h)))


def test_fock_state_log_probabilities_past_underflow():
    # |1e-170|^2 underflows to 0, so its log is taken as 2 log|A_n|
    s = FockState(np.array([1.0, 1e-170, 0.0]))
    assert s.probabilities[1] == 0.0
    assert list(s.log_probabilities) == [0.0, 2.0 * math.log(1e-170), -math.inf]


def test_fock_state_leaves_the_callers_array_writeable():
    amps = np.array([1, 0, 0], dtype=complex)
    state = FockState(amps)
    amps[1] = 5
    assert list(state.amps) == [1, 0, 0]
    with pytest.raises(ValueError, match="read-only"):
        state.amps[1] = 5



_MIRROR_DIAG = [0.3, -1.0, 0.2, -1.0, 0.3]
_MIRROR_OFF = [-0.4, -0.7, -0.7, -0.4]


def _hand(diag, offdiag):
    return lambda: TridiagonalHamiltonian(diag=np.array(diag), offdiag=np.array(offdiag))


def _built(kind, n_total):  # built only, never solved
    return lambda: build_hamiltonian(kind, n_total, 1.0)


@pytest.mark.parametrize("make, error", [
    (_hand([0.3, np.nextafter(-1.0, 0.0), 0.2, -1.0, 0.3], _MIRROR_OFF), "mirror symmetric"),
    (_hand(_MIRROR_DIAG, [-0.4, -0.2, -0.7, -0.3]), "mirror symmetric"),
    (_hand(_MIRROR_DIAG, [-0.4, 0.0, 0.0, -0.4]), "coupling must be < 0"),
    (_hand(_MIRROR_DIAG, [-0.4, 0.7, 0.7, -0.4]), "coupling must be < 0"),
    (_hand([0.5, 0.5], [0.25]), "coupling must be < 0"),
    # a NaN is reported as such, though it also breaks the mirror
    (_hand([0.3, math.nan, 0.2, -1.0, 0.3], _MIRROR_OFF), "must be finite"),
    (_hand(_MIRROR_DIAG, [-0.4, math.nan, -0.7, -0.4]), "must be finite"),
    (_hand(_MIRROR_DIAG, _MIRROR_OFF), None),
    (_hand([0.5, 0.5], [-1.0]), None),
    (_built(SJJ, 1), None),  # its one coupling is -0.0
    (_built(BJJ, 1), None),
    (_built(SJJ, model._MAX_N), None),
    (_built(BJJ, model._MAX_N), None),
], ids=["diag-one-ulp-off-mirror", "offdiag-off-mirror", "zero-coupling", "positive-coupling",
        "positive-coupling-n1", "nan-diag", "nan-offdiag", "hand-assembled-mirror",
        "negative-coupling-n1", "sjj-n1", "bjj-n1", "sjj-max-n", "bjj-max-n"])
def test_hamiltonian_is_a_mirror_chain_with_negative_couplings(make, error):
    if error is None:
        make()
    else:
        with pytest.raises(ValueError, match=error):
            make()
