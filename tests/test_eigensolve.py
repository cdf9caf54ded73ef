import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sjj import (
    FockState,
    ModelKind,
    TridiagonalHamiltonian,
    build_hamiltonian,
    eigen_decompose,
    eigenvalues,
    energy_gap,
    ground,
    ground_state,
    propagate,
)
from sjj import eigensolve
from oracles import (
    dense_from_tridiagonal,
    jacobi_eigh,
    mp_ground_log10_probs,
    mp_tridiagonal_level,
    rk4_schrodinger,
)

SJJ, BJJ = ModelKind.SJJ, ModelKind.BJJ
GROUND_SIZES = (1, 2, 3, 4, 5, 300, 301)
# below, at and past both crossovers (SJJ 2.0009925, BJJ ~1.03 at N = 300)
GROUND_COUPLINGS = (0.0, 0.5, 1.9, 2.0009925, 4.0)

# closed forms for N=2 in units kappa*N: the antisymmetric level sits at
# -c/2, the symmetric block gives (-c +- sqrt(c^2 + X))/4 with
# X = 32 * offdiag^2, i.e. X = 4*0.79^2 (SJJ) and X = 16 (BJJ)
X_SJJ = 4.0 * 0.79**2
X_BJJ = 16.0


def closed_n2(coupling: float, x: float) -> np.ndarray:
    mid = -coupling / 2.0
    lo = (-coupling - math.sqrt(coupling**2 + x)) / 4.0
    hi = (-coupling + math.sqrt(coupling**2 + x)) / 4.0
    return np.sort([mid, lo, hi])


def test_n2_sjj_closed_form():
    spec = eigen_decompose(build_hamiltonian(SJJ, 2, 2.0))
    assert np.allclose(spec.energies, closed_n2(2.0, X_SJJ), atol=1e-12)
    # the commonly quoted rounded values use X ~= 2.5 instead of 2.4964
    assert np.allclose(spec.energies, [-1.137377, -1.0, 0.137377], atol=5e-4)


def test_n2_bjj_zero_coupling():
    spec = eigen_decompose(build_hamiltonian(BJJ, 2, 0.0))
    assert np.allclose(spec.energies, [-1.0, 0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("kind", [SJJ, BJJ])
@pytest.mark.parametrize("coupling", [0.0, 1.0, 4.0])
def test_jacobi_oracle_small(kind, coupling):
    # full sweep over N <= 20 runs in the acceptance suite; spot checks here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n_total in (2, 7, 16):
            h = build_hamiltonian(kind, n_total, coupling)
            spec = eigen_decompose(h)
            w_ref, _ = jacobi_eigh(dense_from_tridiagonal(h.diag, h.offdiag))
            assert np.allclose(spec.energies, w_ref, atol=1e-10)


@pytest.mark.parametrize("coupling", [0.5, 2.0, 2.001, 4.0])
def test_spectrum_invariants_n300(coupling):
    h = build_hamiltonian(SJJ, 300, coupling)
    spec = eigen_decompose(h)
    dense = dense_from_tridiagonal(h.diag, h.offdiag)
    resid = dense @ spec.vectors - spec.vectors * spec.energies
    scale = np.maximum(1.0, np.abs(spec.energies))
    assert np.all(np.linalg.norm(resid, axis=0) <= 1e-10 * scale)
    gram = spec.vectors.T @ spec.vectors
    assert np.max(np.abs(gram - np.eye(301))) <= 1e-10
    assert np.all(np.diff(spec.energies) >= 0.0)


def test_sign_convention_and_determinism():
    h = build_hamiltonian(SJJ, 40, 2.5)
    a = eigen_decompose(h)
    b = eigen_decompose(h)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.vectors, b.vectors)
    for k in range(a.dimension):
        col = a.vectors[:, k]
        first = col[np.abs(col) > 1e-12][0]
        assert first > 0.0


@pytest.mark.parametrize("kind,coupling", [(SJJ, 2.001), (SJJ, 4.0), (BJJ, 1.5)])
def test_parity_of_eigenvectors(kind, coupling):
    # H commutes with the mirror n -> N-n, so after doublet handling every
    # eigenvector is symmetric or antisymmetric
    h = build_hamiltonian(kind, 120, coupling)
    spec = eigen_decompose(h)
    for k in range(spec.dimension):
        v = spec.vectors[:, k]
        dev = min(np.max(np.abs(v - v[::-1])), np.max(np.abs(v + v[::-1])))
        assert dev <= 1e-8


def test_ground_state_weak_coupling_unimodal():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        h = build_hamiltonian(SJJ, 300, 0.0)
    _, state = ground_state(h)
    p = state.probabilities
    assert np.argmax(p) == 150
    assert np.all(np.diff(p[:150]) > 0.0)  # rises monotonically to the center


def test_ground_state_strong_coupling_edges():
    _, state = ground_state(build_hamiltonian(SJJ, 300, 4.0))
    p = state.probabilities
    assert 0.45 <= p[0] <= 0.5
    assert 0.45 <= p[300] <= 0.5
    assert abs(p[0] - p[300]) < 1e-12
    # away from the edge satellites the occupation is negligible
    assert np.max(p[2:299]) < 1e-3


def test_ground_state_symmetry_and_positivity():
    for coupling in (0.5, 2.0, 2.001):
        _, state = ground_state(build_hamiltonian(SJJ, 300, coupling))
        p = state.probabilities
        assert np.max(np.abs(p - p[::-1])) <= 1e-8
        amps = state.amps.real
        sig = np.abs(amps) > 1e-13
        assert np.all(amps[sig] > 0.0)
        assert np.all(amps > -1e-12)


def _built(kind, n_total, coupling):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # SJJ at coupling 0
        return build_hamiltonian(kind, n_total, coupling)


@pytest.mark.parametrize("kind", [SJJ, BJJ])
@pytest.mark.parametrize("coupling", GROUND_COUPLINGS)
def test_ground_state_matches_full_solve(kind, coupling):
    for n_total in GROUND_SIZES:
        h = _built(kind, n_total, coupling)
        energy, state = ground_state(h)
        spec = eigen_decompose(h)
        assert abs(energy - spec.energies[0]) <= 1e-14
        assert np.max(np.abs(state.amps - spec.vectors[:, 0])) <= 1e-13


@pytest.mark.parametrize("kind", [SJJ, BJJ])
@pytest.mark.parametrize("coupling", GROUND_COUPLINGS)
def test_energy_gap_matches_full_solve(kind, coupling):
    for n_total in GROUND_SIZES:
        h = _built(kind, n_total, coupling)
        energies = eigen_decompose(h).energies
        assert abs(energy_gap(h) - (energies[1] - energies[0])) <= 1e-14


@pytest.mark.parametrize("kind", [SJJ, BJJ])
def test_ground_state_amplitudes_strictly_positive(kind):
    for n_total in (2, 3, 300, 301):
        for coupling in GROUND_COUPLINGS:
            _, state = ground_state(_built(kind, n_total, coupling))
            assert np.all(state.amps.imag == 0.0)
            assert np.all(state.amps.real > 0.0)


@pytest.mark.parametrize("kind,coupling", [(SJJ, 0.0), (SJJ, 0.5), (SJJ, 1.9), (BJJ, 0.0), (BJJ, 0.5)])
def test_ground_state_tails_match_extended_precision(kind, coupling):
    # below the crossover, where the oracle's edge recurrence is stable;
    # the smallest p_n here is ~1e-152
    for n_total in (5, 300, 301):
        h = _built(kind, n_total, coupling)
        ref = mp_ground_log10_probs(h.diag, h.offdiag)
        _, state = ground_state(h)
        assert np.max(np.abs(np.log10(state.probabilities) - ref)) <= 1e-10


def test_ground_state_rebuild_disagreement_raises(monkeypatch):
    sturm = eigensolve._sturm_eigenvalue

    def perturbed(*args, **kwargs):
        # E0 comes from Sturm bisection on the even block; the recurrence
        # then misses the eigenvector
        return sturm(*args, **kwargs) + 1e-9

    monkeypatch.setattr(eigensolve, "_sturm_eigenvalue", perturbed)
    with pytest.raises(eigensolve.EigensolveError, match="rebuilt ground vector"):
        ground_state(build_hamiltonian(SJJ, 40, 1.0))


def test_even_ground_vector_rejects_an_excited_energy():
    # at the second even level the recurrence changes sign; without the
    # guard the logs of the ratios would give a NaN vector
    h = build_hamiltonian(SJJ, 30, 1.0)
    even, _ = eigensolve._sectors(h)
    peak = eigensolve._twist_index(*even, eigensolve._sturm_eigenvalue(*even), 0.5)
    excited = float(eigensolve._tridiagonal(*even)[1])
    with pytest.raises(eigensolve.EigensolveError, match="nonpositive ratio"):
        eigensolve._even_ground_vector(h.diag, h.offdiag, excited, peak)


@pytest.mark.parametrize("kind", [SJJ, BJJ])
def test_ground_state_n1(kind):
    h = build_hamiltonian(kind, 1, 1.3)
    energy, state = ground_state(h)
    assert np.allclose(state.amps.real, [1 / math.sqrt(2)] * 2, atol=1e-12)
    assert abs(energy - (h.diag[0] - abs(h.offdiag[0]))) <= 1e-12


@pytest.mark.parametrize("kind", [SJJ, BJJ])
@pytest.mark.parametrize("coupling", [0.0, 1.3, 4.0])
def test_ground_state_n1_through_recurrence(kind, coupling, monkeypatch):
    # the even block of N = 1 is 1 x 1 and has no coupling to divide by, so
    # the general recurrence serves it (the SJJ coupling is -0.0)
    def full_solve(h):
        raise AssertionError("ground_state called eigen_decompose")

    monkeypatch.setattr(eigensolve, "eigen_decompose", full_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # SJJ at coupling 0
        h = build_hamiltonian(kind, 1, coupling)
    energy, state = ground_state(h)
    assert np.array_equal(state.amps, np.full(2, 1.0 / math.sqrt(2.0), dtype=complex))
    (even_diag, even_off), _ = eigensolve._sectors(h)
    assert even_off.size == 0
    assert energy == even_diag[0]


def test_propagate_zero_time(rng):
    h = build_hamiltonian(BJJ, 12, 1.0)
    amps = rng.normal(size=13) + 1j * rng.normal(size=13)
    s0 = FockState(amps / np.linalg.norm(amps))
    out = propagate(h, s0, 0.0)
    assert np.allclose(out.amps, s0.amps, atol=1e-12)


def test_propagate_eigenvector_global_phase():
    h = build_hamiltonian(SJJ, 9, 1.7)
    spec = eigen_decompose(h)
    k = 3
    s0 = FockState(spec.vectors[:, k].astype(complex))
    tau = 0.83
    out = propagate(h, s0, tau, spectrum=spec)
    phase = np.exp(-1j * spec.energies[k] * tau)
    assert np.allclose(out.amps, phase * s0.amps, atol=1e-12)
    assert np.allclose(out.probabilities, s0.probabilities, atol=1e-12)


def test_propagate_matches_rk4_oracle(rng):
    h = build_hamiltonian(SJJ, 20, 2.0)
    amps = rng.normal(size=21) + 1j * rng.normal(size=21)
    amps /= np.linalg.norm(amps)
    s0 = FockState(amps)
    tau = 0.37
    out = propagate(h, s0, tau)
    ref = rk4_schrodinger(h.diag, h.offdiag, amps, tau, 1e-5)
    assert np.max(np.abs(out.amps - ref)) <= 1e-6
    assert abs(np.linalg.norm(out.amps) - 1.0) <= 1e-10


def test_energy_gap_n2_closed_forms():
    h = build_hamiltonian(SJJ, 2, 2.0)
    ref = closed_n2(2.0, X_SJJ)
    assert abs(energy_gap(h) - (ref[1] - ref[0])) <= 1e-12
    assert abs(energy_gap(h) - 0.137377) <= 5e-4


def test_energy_gap_bjj_large_coupling():
    # exact: gap = 4/(lam + sqrt(lam^2 + 16)); the large-coupling asymptote
    # is therefore 2/lam
    lam = 100.0
    gap = energy_gap(build_hamiltonian(BJJ, 2, lam))
    assert abs(gap - 4.0 / (lam + math.sqrt(lam**2 + 16.0))) <= 1e-12
    assert abs(gap - 2.0 / lam) <= 0.01 * (2.0 / lam)


def test_energy_gap_degenerate_diag():
    # deep in the edge-doublet regime the ground pair is degenerate below
    # double precision: the odd level, bisected from the even one upward,
    # gives exactly 0
    for kind in (SJJ, BJJ):
        for n_total in (300, 301, 1000):
            for coupling in (4.0, 8.0):
                assert energy_gap(_built(kind, n_total, coupling)) == 0.0


def test_envelope_continuity():
    # extreme eigenvalues vs coupling: no jumps beyond 10x the local slope
    grid = np.arange(1.5, 2.5 + 1e-9, 0.01)
    lo, hi = [], []
    for coupling in grid:
        spec = eigen_decompose(build_hamiltonian(SJJ, 300, coupling))
        lo.append(spec.energies[0])
        hi.append(spec.energies[-1])
    step = grid[1] - grid[0]
    for curve in (np.array(lo), np.array(hi)):
        jump = np.abs(np.diff(curve))
        slope = np.abs(curve[2:] - curve[:-2]) / (2.0 * step)
        assert np.all(jump[1:-1] <= 10.0 * slope[:-1] * step + 1e-9)


EIGENVALUE_SIZES = (1, 2, 3, 4, 5, 6, 7, 300, 301)
# below and at the SJJ crossover, and deep in the edge-doublet regime
EIGENVALUE_COUPLINGS = (0.0, 2.0009925, 8.0)


@pytest.mark.parametrize("kind", [SJJ, BJJ])
@pytest.mark.parametrize("coupling", EIGENVALUE_COUPLINGS)
def test_eigenvalues_match_dense_and_full_solve(kind, coupling):
    for n_total in EIGENVALUE_SIZES:
        h = _built(kind, n_total, coupling)
        energies = eigenvalues(h)
        scale = np.maximum(1.0, np.abs(energies))
        dense = np.linalg.eigvalsh(dense_from_tridiagonal(h.diag, h.offdiag))
        assert np.all(np.abs(energies - dense) <= 1e-13 * scale)
        full = eigen_decompose(h).energies
        assert np.all(np.abs(energies - full) <= 1e-13 * scale)


def test_eigenvalues_ascending_and_read_only():
    energies = eigenvalues(build_hamiltonian(SJJ, 300, 8.0))
    assert np.all(np.diff(energies) >= 0.0)
    assert not energies.flags.writeable
    with pytest.raises(ValueError):
        energies[0] = 0.0


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([SJJ, BJJ]),
    n_total=st.integers(min_value=1, max_value=80),
    coupling=st.floats(min_value=0.0, max_value=10.0),
)
def test_eigenvalues_sector_union_equals_full_chain(kind, n_total, coupling):
    h = _built(kind, n_total, coupling)
    whole = scipy.linalg.eigvalsh_tridiagonal(h.diag, h.offdiag)
    energies = eigenvalues(h)
    assert np.all(np.abs(energies - whole) <= 1e-13 * np.maximum(1.0, np.abs(whole)))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([SJJ, BJJ]),
    n_total=st.integers(min_value=1, max_value=80),
    coupling=st.floats(min_value=0.0, max_value=10.0),
)
def test_eigen_decompose_sector_columns(kind, n_total, coupling):
    h = _built(kind, n_total, coupling)
    spec = eigen_decompose(h)
    for k in range(spec.dimension):
        v = spec.vectors[:, k]
        # bitwise even or odd, with the parity of level k alternating
        assert np.array_equal(v, (-1) ** k * v[::-1])
    scale = np.maximum(1.0, np.abs(spec.energies))
    dense = dense_from_tridiagonal(h.diag, h.offdiag)
    resid = dense @ spec.vectors - spec.vectors * spec.energies
    assert np.all(np.max(np.abs(resid), axis=0) <= 1e-10 * scale)
    gram = spec.vectors.T @ spec.vectors
    assert np.max(np.abs(gram - np.eye(spec.dimension))) <= 1e-12
    assert np.all(np.abs(spec.energies - eigenvalues(h)) <= 1e-13 * scale)


def test_eigen_decompose_ground_column_even_when_odd_level_computes_lower():
    # the ground pair is a doublet below double precision here, and the odd
    # block's lowest level computes ~1e-15 below the even block's: merging
    # the blocks by sorting on energy would put the odd vector in column 0
    h = build_hamiltonian(SJJ, 40, 2.7)
    even, odd = eigensolve._sectors(h)
    assert scipy.linalg.eigh_tridiagonal(*odd)[0][0] < scipy.linalg.eigh_tridiagonal(*even)[0][0]
    column = eigen_decompose(h).vectors[:, 0]
    assert np.array_equal(column, column[::-1])
    _, state = ground_state(h)
    assert np.max(np.abs(state.amps - column)) <= 1e-13


@pytest.mark.parametrize("kind, n_total, coupling, columns", [
    (SJJ, 50, 3.0, (0,)), (BJJ, 100, 2.5, (0, 2, 4, 6, 8)), (SJJ, 20, 12.0, (2,))])
def test_eigen_decompose_energies_in_parity_order(kind, n_total, coupling, columns):
    # level 2j is the j-th even level and 2j+1 the j-th odd one, bit for bit,
    # also where the odd member of a doublet computes below the even one, so
    # that sorting the levels would pair even column k with the odd level
    h = build_hamiltonian(kind, n_total, coupling)
    (even_e, _), (odd_e, _) = (scipy.linalg.eigh_tridiagonal(*block, lapack_driver="stevd")
                               for block in eigensolve._sectors(h))
    spec = eigen_decompose(h)
    assert np.array_equal(spec.energies[0::2], even_e)
    assert np.array_equal(spec.energies[1::2], odd_e)
    for k in columns:
        assert spec.energies[k + 1] < spec.energies[k]
        column = spec.vectors[:, k]
        assert np.array_equal(column, column[::-1])


STURM_SIZES = (1, 2, 3, 4, 5, 40, 300, 301, 1000)
STURM_COUPLINGS = (0.0, 0.5, 2.0009925, 4.0, 8.0)
ULP = np.finfo(float).eps


@pytest.mark.parametrize("kind", [SJJ, BJJ])
@pytest.mark.parametrize("coupling", STURM_COUPLINGS)
def test_sturm_levels_match_extended_precision(kind, coupling):
    for n_total in STURM_SIZES:
        # levels 0 and 1 of the whole chain are the lowest even and the
        # lowest odd level
        h = _built(kind, n_total, coupling)
        even, odd = eigensolve._sectors(h)
        energy, _ = ground_state(h)
        e0 = mp_tridiagonal_level(h.diag, h.offdiag, 0, near=energy)
        e1 = mp_tridiagonal_level(h.diag, h.offdiag, 1, near=energy + energy_gap(h))
        scale = 2.0 * ULP * max(1.0, abs(e0))
        assert abs(energy - e0) <= scale
        assert abs(eigensolve._sturm_eigenvalue(*even) - e0) <= scale
        assert abs(eigensolve._sturm_eigenvalue(*odd) - e1) <= scale
        assert abs(energy_gap(h) - (e1 - e0)) <= 2.0 * scale


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from([SJJ, BJJ]),
    n_total=st.integers(min_value=1, max_value=120),
    coupling=st.floats(min_value=0.0, max_value=12.0),
)
def test_energy_gap_nonnegative(kind, n_total, coupling):
    assert energy_gap(_built(kind, n_total, coupling)) >= 0.0


@pytest.mark.parametrize("kind", [SJJ, BJJ])
def test_twist_index_is_largest_ground_component(kind):
    # the twist lands on the largest Fock-basis amplitude of the lowest even
    # vector in the half n <= N/2, as the full solve gives it
    for n_total in (2, 3, 4, 5, 40, 101, 300, 301):
        for coupling in np.arange(0.0, 8.01, 0.25):
            h = _built(kind, n_total, float(coupling))
            energy, _ = ground_state(h)
            even, _ = eigensolve._sectors(h)
            centre_scale = 0.5 if n_total % 2 == 0 else 1.0
            twist = eigensolve._twist_index(*even, energy, centre_scale)
            column = eigen_decompose(h).vectors[:, 0]
            assert twist == int(np.argmax(column[: n_total // 2 + 1]))


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from([SJJ, BJJ]),
    n_total=st.integers(min_value=1, max_value=120),
    coupling=st.floats(min_value=0.0, max_value=10.0),
)
def test_ground_state_unit_even_positive(kind, n_total, coupling):
    _, state = ground_state(_built(kind, n_total, coupling))
    amps = state.amps.real
    assert np.all(state.amps.imag == 0.0)
    assert abs(math.fsum((amps * amps).tolist()) - 1.0) <= 1e-13
    assert np.array_equal(amps, amps[::-1])
    assert np.all(amps >= 0.0)
    # an amplitude reads 0 only where it underflows: next to amplitudes that
    # are close to the underflow themselves, as adjacent ones differ by a
    # bounded factor
    zero = np.flatnonzero(amps == 0.0)
    beside = np.concatenate((zero - 1, zero + 1))
    assert np.all(amps[beside[(beside >= 0) & (beside <= n_total)]] < 1e-290)


@pytest.mark.parametrize("kind", [SJJ, BJJ])
@pytest.mark.parametrize("n_total", [1, 2, 3, 4, 300, 301])
def test_ground_is_ground_state_of_built_chain(kind, n_total):
    # the one entry point is the composition, bit for bit
    for coupling in (0.0, 0.5, 2.0009925, 4.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # SJJ at coupling 0
            energy, state = ground(kind, n_total, coupling)
            ref_energy, ref = ground_state(build_hamiltonian(kind, n_total, coupling))
        assert energy == ref_energy
        assert np.array_equal(state.amps, ref.amps)


def _fock_columns(block_vectors, dim, parity):
    # row n of the Fock column of block vector v is v[n] / sqrt(2) for
    # n < N/2 and parity v[N-n] / sqrt(2) for n > N/2; the centre row
    # n = N/2 (N even) is v[N/2] in an even block and 0 in an odd one
    N = dim - 1
    out = np.zeros((dim, block_vectors.shape[1]))
    for n in range(dim):
        m = min(n, N - n)
        if 2 * n == N:
            out[n] = block_vectors[m] if m < len(block_vectors) else 0.0
        else:
            out[n] = (parity if n > m else 1.0) * (block_vectors[m] / math.sqrt(2.0))
    return out


def _assert_lapack_matches_scipy(h):
    # the levels and vectors are those of scipy's public wrappers on the
    # same blocks, bit for bit: the same LAPACK routines, called directly
    blocks = eigensolve._sectors(h)
    levels = np.sort(np.concatenate([
        scipy.linalg.eigvalsh_tridiagonal(*block, lapack_driver="sterf") for block in blocks]))
    assert np.array_equal(eigenvalues(h), levels)
    solved = [scipy.linalg.eigh_tridiagonal(*block, lapack_driver="stevd") for block in blocks]
    spec = eigen_decompose(h)
    (even_e, even_v), (odd_e, odd_v) = solved
    dim = len(h.diag)
    energies = np.empty(dim)
    energies[0::2], energies[1::2] = even_e, odd_e
    vectors = np.empty((dim, dim))
    vectors[:, 0::2] = _fock_columns(even_v, dim, 1.0)
    vectors[:, 1::2] = _fock_columns(odd_v, dim, -1.0)
    assert np.array_equal(spec.energies, energies)
    assert np.array_equal(spec.vectors, eigensolve._fix_signs(vectors))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([SJJ, BJJ]),
    n_total=st.integers(min_value=1, max_value=80),
    coupling=st.floats(min_value=0.0, max_value=10.0),
)
def test_lapack_routines_match_scipy_wrappers(kind, n_total, coupling):
    _assert_lapack_matches_scipy(_built(kind, n_total, coupling))


@pytest.mark.parametrize("kind", [SJJ, BJJ])
@pytest.mark.parametrize("n_total", [1, 2])
def test_lapack_routines_match_scipy_wrappers_on_1x1_blocks(kind, n_total):
    # N = 1 splits into two 1 x 1 blocks, N = 2 has a 1 x 1 odd block
    for coupling in (0.0, 0.5, 4.0):
        _assert_lapack_matches_scipy(_built(kind, n_total, coupling))


@pytest.mark.parametrize("routine, solve", [("dsterf", eigenvalues),
                                            ("dstevd", eigen_decompose)])
def test_lapack_info_raises_eigensolve_error(routine, solve, monkeypatch):
    lapack = eigensolve._lapack()
    call = getattr(lapack, routine)
    monkeypatch.setattr(lapack, routine, lambda *args, **kw: (*call(*args, **kw)[:-1], 1))
    with pytest.raises(eigensolve.EigensolveError, match=f"{routine} failed with info = 1"):
        solve(build_hamiltonian(BJJ, 10, 1.0))


@pytest.mark.parametrize("solve", [eigenvalues, eigen_decompose, ground_state, energy_gap])
@pytest.mark.parametrize("where, bad", [("diag", math.nan), ("offdiag", math.nan),
                                        ("diag", math.inf), ("offdiag", -math.inf)])
def test_non_finite_hamiltonian_rejected(solve, where, bad):
    # LAPACK sterf would return finite levels for a NaN entry
    h = build_hamiltonian(BJJ, 4, 1.0)
    entries = {"diag": h.diag.copy(), "offdiag": h.offdiag.copy()}
    entries[where][1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        solve(TridiagonalHamiltonian(**entries))
