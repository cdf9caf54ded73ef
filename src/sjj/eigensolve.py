"""Eigendecomposition and spectral time propagation of two-mode Hamiltonians.

The matrices are symmetric tridiagonal and are solved by the LAPACK routines
wrapped by scipy.  ``eigen_decompose`` gets every level with its vector and
serves ``propagate`` and the loss channel; ``eigenvalues`` gets the energies
alone from the root-free QR iteration (``sterf``) and serves the spectrum
sweep; ``ground_state`` and ``energy_gap`` need only the lowest levels and
get them by bisection (``stebz``, plus inverse iteration ``stein`` for the
ground vector), which costs O(N) instead of O(N^2).

* Mirror symmetry.  Every built Hamiltonian commutes with the mirror
  n -> N-n and has couplings <= 0.  A centrosymmetric matrix splits exactly
  into an even and an odd block of about half the size in the basis
  (|n> +- |N-n>)/sqrt(2) (Cantoni & Butler 1976, Linear Algebra Appl. 13,
  275; ``_sectors``), and each block is solved on its own, so every vector
  is even or odd bit for bit however close its doublet partner lies.  Past
  the self-trapping crossover the edge doublets are degenerate below double
  precision, and a solver given the whole chain returns arbitrary mixtures
  of their members.  The levels of a chain whose couplings are all <= 0
  alternate in parity, even first (Sturm oscillation: level k changes sign
  k times), so the j-th even level is level 2j and the j-th odd level is
  level 2j+1.  Other matrices are solved whole.

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

_SIGN_FLOOR = 1e-12
# largest residual |H a - E a| / (sqrt(N+1) max(1, |E|)) of an accepted
# rebuilt ground vector: twisted at its largest component, the residual is
# at most sqrt(N+1) times the energy's error (Dhillon & Parlett 2004), and
# bisection gets the energy to a few ulps
_REBUILD_RESIDUAL = 1e-13


class EigensolveError(RuntimeError):
    """Raised when the tridiagonal eigensolver fails to converge, or when the
    rebuilt ground vector is not an eigenvector to within its residual bound."""


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full eigendecomposition: ascending energies (units kappa*N) and
    orthonormal eigenvectors, column k belonging to energies[k]."""

    energies: np.ndarray
    vectors: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.energies)


def _tridiagonal(solver, diag: np.ndarray, offdiag: np.ndarray, **options):
    """Call one of scipy's tridiagonal solvers, a failure as EigensolveError."""
    try:
        return solver(diag, offdiag, **options)
    except scipy.linalg.LinAlgError as exc:
        raise EigensolveError(f"tridiagonal eigensolver did not converge: {exc}") from exc


_Block = tuple[np.ndarray, np.ndarray]


def _sectors(h: TridiagonalHamiltonian) -> tuple[_Block, _Block] | None:
    """The (diag, offdiag) of the even and the odd block under n -> N-n, or
    None unless the chain is mirror symmetric with all couplings <= 0.

    With centre c = N//2, for N even the even block is rows 0..c with the
    last coupling scaled by sqrt(2) (row c is |c> itself) and the odd block
    rows 0..c-1; for N odd both are rows 0..c, the coupling across the centre
    added to the last diagonal entry (even) or subtracted from it (odd).
    """
    diag, offdiag = h.diag, h.offdiag
    if not (
        np.all(offdiag <= 0.0)
        and np.array_equal(diag, diag[::-1])
        and np.array_equal(offdiag, offdiag[::-1])
    ):
        return None
    c = (len(diag) - 1) // 2
    if len(diag) % 2:  # N even
        even_off = offdiag[:c].copy()
        even_off[-1] *= math.sqrt(2.0)
        return (diag[: c + 1], even_off), (diag[:c], offdiag[: c - 1])
    even_diag, odd_diag = diag[: c + 1].copy(), diag[: c + 1].copy()
    even_diag[-1] += offdiag[c]
    odd_diag[-1] -= offdiag[c]
    return (even_diag, offdiag[:c]), (odd_diag, offdiag[:c])


def _unfold(block_vectors: np.ndarray, dim: int, parity: float) -> np.ndarray:
    """Fock-basis columns (|n> + parity |N-n>)/sqrt(2) from block vectors;
    row c of an even block (N even) is the centre |c> itself."""
    pairs = dim // 2
    low = block_vectors[:pairs] / math.sqrt(2.0)
    out = np.zeros((dim, block_vectors.shape[1]))
    out[:pairs] = low
    out[dim - pairs :] = parity * low[::-1]
    if len(block_vectors) > pairs:
        out[pairs] = block_vectors[pairs]
    return out


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first component above 1e-12 of every (unit) column positive."""
    first = np.argmax(np.abs(vectors) > _SIGN_FLOOR, axis=0)
    return vectors * np.where(vectors[first, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)


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


def eigen_decompose(h: TridiagonalHamiltonian) -> Spectrum:
    """Full spectrum of a tridiagonal Hamiltonian, deterministic output.

    A chain that ``_sectors`` splits gets even vectors in columns 0, 2, 4, ...
    and odd vectors in columns 1, 3, 5, ..., each even or odd bit for bit;
    the energies are the sorted union of both blocks' levels.  Other
    matrices are solved whole.
    """
    sectors = _sectors(h)
    if sectors is None:
        energies, vectors = _tridiagonal(scipy.linalg.eigh_tridiagonal, h.diag, h.offdiag)
    else:
        (even_e, even_v), (odd_e, odd_v) = (
            _tridiagonal(scipy.linalg.eigh_tridiagonal, *block) for block in sectors
        )
        dim = len(h.diag)
        energies = np.sort(np.concatenate((even_e, odd_e)))
        vectors = np.empty((dim, dim))
        vectors[:, 0::2] = _unfold(even_v, dim, 1.0)
        vectors[:, 1::2] = _unfold(odd_v, dim, -1.0)
    vectors = _fix_signs(vectors)
    vectors.setflags(write=False)
    energies.setflags(write=False)
    return Spectrum(energies=energies, vectors=vectors)


def eigenvalues(h: TridiagonalHamiltonian) -> np.ndarray:
    """All energies of a tridiagonal Hamiltonian, ascending and read-only.

    A chain that ``_sectors`` splits (every built Hamiltonian) is solved one
    block at a time; other matrices are solved whole.  The energies agree
    with ``eigen_decompose(h).energies`` to rounding.
    """
    sectors = _sectors(h)
    blocks = [(h.diag, h.offdiag)] if sectors is None else sectors
    energies = np.sort(np.concatenate([
        _tridiagonal(scipy.linalg.eigvalsh_tridiagonal, *block, lapack_driver="sterf")
        for block in blocks
    ]))
    energies.setflags(write=False)
    return energies


def ground_state(h: TridiagonalHamiltonian) -> tuple[float, FockState]:
    """Lowest eigenpair.

    The energy comes from bisection on the whole chain, the vector from the
    even block of a chain that ``_sectors`` splits (every built Hamiltonian)
    and from the whole chain otherwise.  With all couplings < 0 (every built
    Hamiltonian with N >= 2) the even vector is then rebuilt from the
    recurrence, twisted at the peak of the block's vector, so the amplitudes
    are real, strictly positive wherever they do not underflow, and accurate
    relative to their own size in the exponentially small tails.

    The rebuilt vector is checked by its residual alone: raises
    EigensolveError if max |H a - E a| exceeds 1e-13 sqrt(N+1) max(1, |E|),
    as it does when E is not an eigenvalue to rounding.
    """
    # the bisection energy_gap runs, so both see the same E0 bit for bit
    energy = float(_tridiagonal(
        scipy.linalg.eigvalsh_tridiagonal, h.diag, h.offdiag, select="i", select_range=(0, 1)
    )[0])
    sectors = _sectors(h)
    block = (h.diag, h.offdiag) if sectors is None else sectors[0]
    _, vectors = _tridiagonal(
        scipy.linalg.eigh_tridiagonal, *block, select="i", select_range=(0, 0)
    )
    if sectors is not None:
        vectors = _unfold(vectors, len(h.diag), 1.0)
    vec = _fix_signs(vectors)[:, 0]
    if sectors is not None and np.all(h.offdiag < 0.0):
        c = (len(vec) - 1) // 2
        vec = _even_ground_vector(h.diag, h.offdiag, energy, int(np.argmax(vec[: c + 1])))
        residual = float(np.max(np.abs(apply_hamiltonian(h, vec) - energy * vec)))
        if residual > _REBUILD_RESIDUAL * math.sqrt(len(vec)) * max(1.0, abs(energy)):
            raise EigensolveError(f"rebuilt ground vector has residual {residual:.3g}")
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
    energies = _tridiagonal(
        scipy.linalg.eigvalsh_tridiagonal, h.diag, h.offdiag, select="i", select_range=(0, 1)
    )
    return float(energies[1] - energies[0])
