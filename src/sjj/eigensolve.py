"""Eigendecomposition and spectral time propagation of two-mode Hamiltonians.

The matrices are symmetric tridiagonal.  ``eigen_decompose`` gets every
level with its vector from LAPACK (through scipy) and serves ``propagate``;
``eigenvalues`` gets the energies alone from LAPACK's
root-free QR iteration (``sterf``) and serves the spectrum sweep.  scipy is
imported on the first of those calls only.  ``ground_state`` and
``energy_gap`` need only the lowest levels and get them in pure Python by
Sturm-count bisection (Barth, Martin & Wilkinson 1967, Numer. Math. 9, 386;
the algorithm inside LAPACK ``stebz``), which costs O(N) per step and needs
no LAPACK.  ``ground`` is ``ground_state`` of the model at (kind, N, coupling).

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
built Hamiltonian with N >= 2) is built from its three-term recurrence, run
in the stable direction on each side of a twist row: from the edge n = 0 up
to the twist, and from the centre, closed by the mirror condition, down to
it (a twisted factorisation; Fernando 1997, Dhillon & Parlett 2004).  The
twist is the row where the twisted factorisations of the even block just
below E0 have their smallest |gamma_k|, which is where the vector is
largest.  The ratios are accumulated as logarithms, so every amplitude is
accurate relative to its own size, down to the double-precision underflow,
and strictly positive above it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import (FockState, ModelKind, TridiagonalHamiltonian, TwoModeParams,
                    apply_hamiltonian, build_hamiltonian)

__all__ = [
    "Spectrum",
    "EigensolveError",
    "eigen_decompose",
    "eigenvalues",
    "ground_state",
    "ground",
    "propagate",
    "energy_gap",
]

_SIGN_FLOOR = 1e-12
# a zero pivot of a Sturm sequence becomes the smallest normal double times
# max(1, max b^2), so the next quotient b^2/q stays finite (LAPACK's pivmin)
_TINY = sys.float_info.min
# largest residual |H a - E a| / (sqrt(N+1) max(1, |E|)) of an accepted
# rebuilt ground vector: twisted at its largest component, the residual is
# at most sqrt(N+1) times the energy's error (Dhillon & Parlett 2004), and
# bisection gets the energy to a few ulps
_REBUILD_RESIDUAL = 1e-13
# relative distance below E0 at which the twist index is taken: far above
# the rounding of the pivots (~N eps), and below the gap to the next even
# level, which is smallest at an avoided crossing (2.4e-8 at SJJ N = 100,
# coupling 2.0030709)
_TWIST_SHIFT = 1e-10


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


def _tridiagonal(solver: str, diag: np.ndarray, offdiag: np.ndarray, **options):
    """Call the tridiagonal solver ``scipy.linalg.<solver>``, a failure as
    EigensolveError.  scipy is imported here, so only the callers that need
    LAPACK load it."""
    import scipy.linalg

    try:
        return getattr(scipy.linalg, solver)(diag, offdiag, **options)
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


def _sturm_eigenvalue(
    diag: np.ndarray, offdiag: np.ndarray, k: int, lo: float | None = None
) -> float:
    """Level k (0 = lowest) of a symmetric tridiagonal matrix by Sturm-count
    bisection down to adjacent floats: the largest float it finds with at
    most k levels below it.

    The count is the number of negative pivots of the LDL^T factorisation of
    the matrix minus x (Sylvester's law of inertia), and stops as soon as it
    exceeds k.  ``lo`` must have at most k levels below it; it defaults to
    the Gershgorin bound.  Pure Python over lists, O(N) per step.
    """
    d = diag.tolist()
    if not 0 <= k < len(d):
        raise ValueError(f"level {k} does not exist for dimension {len(d)}")
    b2 = [0.0] + (offdiag * offdiag).tolist()
    pivmin = _TINY * max(1.0, max(b2))
    radius = np.zeros(len(d))
    radius[1:] += np.abs(offdiag)
    radius[:-1] += np.abs(offdiag)
    bottom, top = float(np.min(diag - radius)), float(np.max(diag + radius))
    # covers the rounding of the bounds, a few ulps of the largest row sum
    pad = 4.0 * sys.float_info.epsilon * max(abs(bottom), abs(top)) + pivmin
    lo = bottom - pad if lo is None else lo
    hi = top + pad

    def above(x: float) -> bool:  # more than k levels below x
        left, q = k, 1.0
        for dj, bj2 in zip(d, b2):
            q = (dj - x) - bj2 / q
            if q <= 0.0:
                if q == 0.0:
                    q = pivmin
                elif left:
                    left -= 1
                else:
                    return True
        return False

    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if above(mid):
            hi = mid
        else:
            lo = mid


def _pivots(shifted: list[float], b2: list[float]) -> list[float]:
    """Pivots of the LDL^T factorisation of the tridiagonal with diagonal
    ``shifted`` and squared couplings ``b2``, which must be positive definite."""
    out, q = [], 1.0
    for dj, bj2 in zip(shifted, [0.0] + b2):
        q = dj - bj2 / q
        out.append(q)
    return out


def _twist_index(
    diag: np.ndarray, offdiag: np.ndarray, energy: float, centre_scale: float
) -> int:
    """Row of the largest component of the lowest eigenvector, ``energy``
    its eigenvalue, from the twisted factorisations of the block (Dhillon &
    Parlett 2004): gamma_k = D+_k + D-_k - (d_k - x) from one forward and one
    backward pivot sweep, where 1/gamma_k = ((T - x)^-1)_kk ~ v_k^2 / (E - x).

    x sits _TWIST_SHIFT max(1, |E|) below E: there T - x is positive
    definite, and gamma_k stands well clear of rounding, which at x = E
    itself would swamp it.  ``centre_scale`` weights the last row's gamma
    against the others: an even block of a chain with N even holds the
    centre amplitude as is and every other amplitude times sqrt(2), so 0.5
    picks the largest Fock-basis amplitude there.
    """
    x = energy - _TWIST_SHIFT * max(1.0, abs(energy))
    shifted = (diag - x).tolist()
    b2 = (offdiag * offdiag).tolist()
    forward = _pivots(shifted, b2)
    backward = _pivots(shifted[::-1], b2[::-1])[::-1]
    gamma = [f + b - s for f, b, s in zip(forward, backward, shifted)]
    gamma[-1] *= centre_scale
    return gamma.index(min(gamma))


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
        energies, vectors = _tridiagonal("eigh_tridiagonal", h.diag, h.offdiag)
    else:
        (even_e, even_v), (odd_e, odd_v) = (
            _tridiagonal("eigh_tridiagonal", *block) for block in sectors
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
        _tridiagonal("eigvalsh_tridiagonal", *block, lapack_driver="sterf")
        for block in blocks
    ]))
    energies.setflags(write=False)
    return energies


def ground_state(h: TridiagonalHamiltonian) -> tuple[float, FockState]:
    """Lowest eigenpair.

    The energy is the lowest level of the even block of a chain that
    ``_sectors`` splits (every built Hamiltonian), or of the whole chain
    otherwise, by Sturm-count bisection.  With all couplings < 0 (every
    built Hamiltonian with N >= 2) the vector is then built from the
    recurrence, twisted where the twisted factorisations of the even block
    put its largest component, so the amplitudes are real, strictly positive
    wherever they do not underflow, and accurate relative to their own size
    in the exponentially small tails.  SJJ at N = 1, whose only coupling is
    0, has a 1 x 1 even block with the vector [1]; other matrices
    (hand-assembled ones) get column 0 of ``eigen_decompose(h)``.

    The built vector is checked by its residual alone: raises
    EigensolveError if max |H a - E a| exceeds 1e-13 sqrt(N+1) max(1, |E|),
    as it does when E is not an eigenvalue to rounding.
    """
    sectors = _sectors(h)
    block = (h.diag, h.offdiag) if sectors is None else sectors[0]
    energy = _sturm_eigenvalue(*block, 0)
    dim = len(h.diag)
    if sectors is not None and np.all(h.offdiag < 0.0):
        peak = _twist_index(*block, energy, 0.5 if dim % 2 else 1.0)
        vec = _even_ground_vector(h.diag, h.offdiag, energy, peak)
        residual = float(np.max(np.abs(apply_hamiltonian(h, vec) - energy * vec)))
        if residual > _REBUILD_RESIDUAL * math.sqrt(dim) * max(1.0, abs(energy)):
            raise EigensolveError(f"rebuilt ground vector has residual {residual:.3g}")
    elif len(block[0]) == 1:  # N = 1: the even block is 1 x 1, its vector [1]
        vec = _unfold(np.ones((1, 1)), dim, 1.0)[:, 0]
    else:
        vec = eigen_decompose(h).vectors[:, 0]
    return energy, FockState(vec.astype(complex))


def ground(kind: ModelKind, n_total: int, coupling: float) -> tuple[float, FockState]:
    """Lowest eigenpair of the model Hamiltonian built at (kind, N, coupling)."""
    return ground_state(build_hamiltonian(TwoModeParams(kind, n_total, coupling)))


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
    """Gap between the two lowest levels of the whole chain, >= 0: level 1 is
    bisected from level 0 upward, so a degenerate pair gives exactly 0."""
    e0 = _sturm_eigenvalue(h.diag, h.offdiag, 0)
    return _sturm_eigenvalue(h.diag, h.offdiag, 1, lo=e0) - e0
