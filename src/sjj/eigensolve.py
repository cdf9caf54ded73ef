"""Eigendecomposition and spectral time propagation of two-mode Hamiltonians.

The matrices are symmetric tridiagonal.  ``eigen_decompose`` gets the full
spectrum, vectors included, from the LAPACK solvers wrapped by scipy
(``eigh_tridiagonal``) and serves ``propagate`` and the loss channel;
``eigenvalues`` gets the energies alone from the root-free QR iteration
(LAPACK ``sterf``), splitting a mirror-symmetric chain exactly into its even
and odd sectors under n -> N-n first, so each solve is half the size;
``ground_state`` and ``energy_gap`` need only the two lowest levels and get
them from the selected-range solver (bisection plus inverse iteration,
LAPACK ``stebz``/``stein``), which costs O(N) instead of O(N^2).  Two
deterministic post-processing steps are applied to every computed pair:

* Near-degenerate doublets.  The built Hamiltonians commute with the mirror
  n -> N-n, so every eigenvector should carry definite parity.  Past the
  self-trapping crossover the two lowest levels (and further edge doublets)
  degenerate to machine precision and the raw solver returns arbitrary
  mixtures; consecutive levels closer than 1e-6 * max(1, |E|) are rotated
  back to an (even, odd) parity pair, even first, and isolated levels are
  projected onto their dominant parity.  This restores the symmetric ground
  state that exact arithmetic would give without disturbing residuals.

* Sign convention.  The first component of each eigenvector with magnitude
  above 1e-12 is made positive, so repeated runs are bit-comparable.

The ground vector of a mirror-symmetric chain with negative couplings (every
built Hamiltonian with N >= 2) is then rebuilt from its three-term
recurrence, run in the stable direction on each side of the peak: from the
edge n = 0 up to the peak, and from the centre, closed by the mirror
condition, down to the peak (a twisted factorisation; Fernando 1997, Dhillon
& Parlett 2004).  The ratios are accumulated as logarithms, so every
amplitude is accurate relative to its own size, down to the double-precision
underflow, and strictly positive above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import FockState, TridiagonalHamiltonian, apply_hamiltonian

__all__ = [
    "Spectrum",
    "EigensolveError",
    "eigen_decompose",
    "eigenvalues",
    "ground_state",
    "propagate",
    "energy_gap",
]

_PAIR_RTOL = 1e-6
_SIGN_FLOOR = 1e-12
# largest allowed difference between the rebuilt ground vector and the
# solver's; both are accurate to ~1e-14 in the bulk unless two even levels
# nearly cross, and then the rebuilt vector must pass a residual test instead
_REBUILD_ATOL = 1e-10
_REBUILD_RESIDUAL = 1e-12


class EigensolveError(RuntimeError):
    """Raised when the tridiagonal eigensolver fails to converge, or when the
    rebuilt ground vector disagrees with the solver's."""


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full eigendecomposition: ascending energies (units kappa*N) and
    orthonormal eigenvectors, column k belonging to energies[k]."""

    energies: np.ndarray
    vectors: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.energies)


def _parity_fix(energies: np.ndarray, vectors: np.ndarray) -> None:
    """Restore definite parity under the mirror n -> N-n.

    A doublet whose splitting is comparable to the backward error comes out
    of the raw solver as an arbitrary mixture of its even and odd members;
    consecutive levels closer than 1e-6 * max(1, |E|) are therefore rotated
    to an (even, odd) pair, even first.  The larger-norm candidate among
    v +- reverse(v) of either raw vector is always well conditioned because
    the pair spans exactly one even and one odd direction.  For a pair that
    is only mildly split the raw vectors are already nearly pure, so the
    rotation is a near-identity and residuals are untouched; for a truly
    degenerate pair the rotation cost is bounded by the splitting itself.

    Isolated levels are projected onto their dominant parity component,
    which strips the O(eps/gap) contamination left by finite splitting.
    """
    dim = len(energies)
    k = 0
    while k < dim:
        paired = False
        if k + 1 < dim:
            gap = energies[k + 1] - energies[k]
            if gap <= _PAIR_RTOL * max(1.0, abs(energies[k])):
                va, vb = vectors[:, k], vectors[:, k + 1]
                even = max((va + va[::-1], vb + vb[::-1]), key=np.linalg.norm)
                odd = max((va - va[::-1], vb - vb[::-1]), key=np.linalg.norm)
                # guard against an accidental same-parity coincidence
                if np.linalg.norm(even) > 1e-3 and np.linalg.norm(odd) > 1e-3:
                    even = even / np.linalg.norm(even)
                    odd = odd - even * (even @ odd)
                    odd = odd / np.linalg.norm(odd)
                    vectors[:, k] = even
                    vectors[:, k + 1] = odd
                    paired = True
        if paired:
            k += 2
            continue
        v = vectors[:, k]
        even = v + v[::-1]
        odd = v - v[::-1]
        keep = even if np.linalg.norm(even) >= np.linalg.norm(odd) else odd
        vectors[:, k] = keep / np.linalg.norm(keep)
        k += 1


def _is_mirror(h: TridiagonalHamiltonian) -> bool:
    # always true for built Hamiltonians, not for hand-assembled ones
    return bool(np.array_equal(h.diag, h.diag[::-1]) and np.array_equal(h.offdiag, h.offdiag[::-1]))


def _solve(
    h: TridiagonalHamiltonian, select_range: tuple[int, int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs, all of them or the index range ``select_range``, with
    parity and sign fixed."""
    select = {} if select_range is None else {"select": "i", "select_range": select_range}
    try:
        energies, vectors = scipy.linalg.eigh_tridiagonal(h.diag, h.offdiag, **select)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigensolveError(f"tridiagonal eigensolver did not converge: {exc}") from exc

    if _is_mirror(h):
        _parity_fix(energies, vectors)

    # deterministic sign: first significant component positive
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        sig = np.flatnonzero(np.abs(col) > _SIGN_FLOOR)
        if sig.size and col[sig[0]] < 0:
            vectors[:, k] = -col
    return energies, vectors


def _lowest_pair(h: TridiagonalHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    return _solve(h, (0, min(2, len(h.diag)) - 1))


def _even_ground_vector(
    diag: np.ndarray, offdiag: np.ndarray, energy: float, peak: int
) -> np.ndarray:
    """Normalized even ground vector of a mirror-symmetric chain with negative
    couplings, from the recurrence of H a = E a.

    Forward ratios a_{n+1}/a_n run from the edge n = 0 up to ``peak``,
    backward ratios a_{n-1}/a_n from the centre c = N//2 down to it, where
    the centre row closes with a_{c+1} = a_{c-1} (N even) or a_{c+1} = a_c
    (N odd).  Both runs go the way the amplitudes grow, which is the stable
    direction; the row at ``peak`` is the one left out (the twist).  All
    ratios are positive in exact arithmetic (Perron-Frobenius).
    """
    N = len(diag) - 1
    c = N // 2
    d = (energy - diag).tolist()
    b = offdiag.tolist()

    forward = []
    for n in range(peak):
        prev = b[n - 1] / forward[-1] if n else 0.0
        forward.append((d[n] - prev) / b[n])

    backward = []
    for n in range(c, peak, -1):
        if n < c:
            backward.append((d[n] - b[n] / backward[-1]) / b[n - 1])
        elif N % 2:
            backward.append((d[n] - b[n]) / b[n - 1])  # a_{c+1} = a_c
        else:
            backward.append(d[n] / (2.0 * b[n - 1]))  # a_{c+1} = a_{c-1}, b_c = b_{c-1}

    ratios = np.array(forward + backward)
    if not np.all(ratios > 0.0):
        raise EigensolveError("ground-vector recurrence produced a nonpositive ratio")
    log_fwd = np.concatenate(([0.0], np.cumsum(np.log(ratios[:peak]))))
    log_bwd = np.concatenate(([0.0], np.cumsum(np.log(ratios[peak:]))))[::-1]
    low = np.concatenate((log_fwd, log_bwd[1:] - log_bwd[0] + log_fwd[-1]))
    log_a = np.concatenate((low, low[: N + 1 - len(low)][::-1]))
    amps = np.exp(log_a - np.max(log_a))
    return amps / np.linalg.norm(amps)


def _check_rebuilt(
    h: TridiagonalHamiltonian, energy: float, rebuilt: np.ndarray, solved: np.ndarray
) -> None:
    """Raise EigensolveError unless the rebuilt ground vector agrees with the
    solver's to 1e-10 everywhere.

    Where two even levels nearly cross (the soliton junction's avoided
    crossing at the transition, e.g. N = 100 at coupling 2.0030709) every
    double-precision vector, the solver's included, is determined only to
    ~eps/gap, and the two can differ by up to ~1e-8.  There the rebuilt
    vector is accepted if its residual |H a - E a| stays below
    1e-12 max(1, |E|): a positive vector with that residual is the ground
    state to within the conditioning of the problem (Perron-Frobenius).
    """
    deviation = float(np.max(np.abs(rebuilt - solved)))
    if deviation <= _REBUILD_ATOL:
        return
    residual = float(np.max(np.abs(apply_hamiltonian(h, rebuilt) - energy * rebuilt)))
    if residual > _REBUILD_RESIDUAL * max(1.0, abs(energy)):
        raise EigensolveError(
            f"rebuilt ground vector differs from the solver's by {deviation:.3g}"
            f" with residual {residual:.3g}"
        )


def eigen_decompose(h: TridiagonalHamiltonian) -> Spectrum:
    """Full spectrum of a tridiagonal Hamiltonian, deterministic output."""
    energies, vectors = _solve(h)
    vectors.setflags(write=False)
    energies.setflags(write=False)
    return Spectrum(energies=energies, vectors=vectors)


def _eigvalsh(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    try:
        return scipy.linalg.eigvalsh_tridiagonal(diag, offdiag, lapack_driver="sterf")
    except scipy.linalg.LinAlgError as exc:
        raise EigensolveError(f"tridiagonal eigenvalue solver did not converge: {exc}") from exc


def eigenvalues(h: TridiagonalHamiltonian) -> np.ndarray:
    """All energies of a tridiagonal Hamiltonian, ascending and read-only.

    A mirror-symmetric chain (every built Hamiltonian) is split exactly into
    its even and odd sectors under n -> N-n, in the basis
    (|n> +- |N-n>)/sqrt(2), and each sector is solved on its own.  With
    centre c = N//2, for N even the even sector is rows 0..c with the last
    coupling scaled by sqrt(2) and the odd sector rows 0..c-1; for N odd both
    are rows 0..c, the coupling across the centre added to the last diagonal
    entry (even) or subtracted from it (odd).  Other matrices, and those
    below dimension 3, are solved whole.  The energies agree with
    ``eigen_decompose(h).energies`` to rounding.
    """
    diag, offdiag = h.diag, h.offdiag
    dim = len(diag)
    if dim < 3 or not _is_mirror(h):
        energies = _eigvalsh(diag, offdiag)
    else:
        c = (dim - 1) // 2
        if dim % 2:  # N even
            even_off = offdiag[:c].copy()
            even_off[-1] *= math.sqrt(2.0)
            even = _eigvalsh(diag[: c + 1], even_off)
            odd = _eigvalsh(diag[:c], offdiag[: c - 1])
        else:
            even_diag, odd_diag = diag[: c + 1].copy(), diag[: c + 1].copy()
            even_diag[-1] += offdiag[c]
            odd_diag[-1] -= offdiag[c]
            even = _eigvalsh(even_diag, offdiag[:c])
            odd = _eigvalsh(odd_diag, offdiag[:c])
        energies = np.sort(np.concatenate((even, odd)))
    energies.setflags(write=False)
    return energies


def ground_state(h: TridiagonalHamiltonian) -> tuple[float, FockState]:
    """Lowest eigenpair, from the two lowest levels only.

    For a mirror-symmetric Hamiltonian with negative couplings (every built
    one with N >= 2) the amplitudes are real, strictly positive wherever
    they do not underflow, and accurate relative to their own size in the
    exponentially small tails.  Hand-assembled matrices, which are not
    mirror symmetric, get the selected-pair solver's vector as it is.

    Raises EigensolveError if the rebuilt vector differs from the solver's
    by more than 1e-10 anywhere and is not an eigenvector to within its
    residual bound (see ``_check_rebuilt``).
    """
    energies, vectors = _lowest_pair(h)
    energy, vec = float(energies[0]), vectors[:, 0]
    if _is_mirror(h) and np.all(h.offdiag < 0.0):
        c = (len(vec) - 1) // 2
        rebuilt = _even_ground_vector(h.diag, h.offdiag, energy, int(np.argmax(vec[: c + 1])))
        _check_rebuilt(h, energy, rebuilt, vec)
        vec = rebuilt
    return energy, FockState(vec.astype(complex))


def propagate(
    h: TridiagonalHamiltonian,
    s0: FockState,
    tau: float,
    spectrum: Spectrum | None = None,
) -> FockState:
    """Evolve A(0) to A(tau) = sum_k (v_k . A(0)) exp(-i E_k tau) v_k.

    tau is dimensionless time (kappa N t).  Exact up to decomposition error,
    so the norm is preserved to ~1e-15.  Pass ``spectrum`` to reuse a
    decomposition across many times.
    """
    if spectrum is None:
        spectrum = eigen_decompose(h)
    coeffs = spectrum.vectors.T @ s0.amps
    amps = spectrum.vectors @ (np.exp(-1j * spectrum.energies * tau) * coeffs)
    return FockState(amps)


def energy_gap(h: TridiagonalHamiltonian) -> float:
    """Gap between the two lowest levels, energies[1] - energies[0] >= 0."""
    energies, _ = _lowest_pair(h)
    return float(energies[1] - energies[0])
