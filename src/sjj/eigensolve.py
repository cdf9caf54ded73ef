"""Eigendecomposition and spectral time propagation of two-mode Hamiltonians.

The matrices are symmetric tridiagonal.  ``eigen_decompose`` gets every
level with its vector from LAPACK's divide and conquer (``stevd``) and
serves ``propagate``; ``eigenvalues`` gets the energies alone from LAPACK's
root-free QR iteration (``sterf``) and serves the spectrum sweep.  Both
routines are called by name on scipy's compiled LAPACK module
``scipy.linalg._flapack``, loaded from its file on the first of those calls
(``_lapack``); nothing here imports ``scipy.linalg``.  ``ground_state`` and
``energy_gap`` need only the lowest levels and get them in pure Python by
Sturm-count bisection (Barth, Martin & Wilkinson 1967, Numer. Math. 9, 386;
the algorithm inside LAPACK ``stebz``), which costs O(N) per step and needs
no LAPACK.  ``ground`` is ``ground_state`` of the model at (kind, N, coupling).

* Mirror symmetry.  Every ``TridiagonalHamiltonian`` commutes with the
  mirror n -> N-n and has couplings < 0 (<= 0 at N = 1); its constructor
  checks both.  Such a chain splits exactly into an even and an odd block
  of about half the size in the basis (|n> +- |N-n>)/sqrt(2) (Cantoni &
  Butler 1976, Linear Algebra Appl. 13, 275; ``_sectors``).  Every level
  comes from a block, and so does every vector of ``eigen_decompose``;
  ``ground_state`` takes its energy and its twist row from the even block
  and its vector from the chain's own recurrence over rows 0..N//2, closed
  by the mirror condition (below).  So every vector is even or odd bit for
  bit however close its doublet partner lies.  Past the self-trapping
  crossover the edge doublets are degenerate below double precision, and a
  solver given the whole chain returns arbitrary mixtures of their
  members.  The levels of such a chain alternate in parity, even first
  (Sturm oscillation: level k changes sign k times), so the j-th even level
  is level 2j and the j-th odd level is level 2j+1.

* Sign convention.  The first component of each eigenvector with magnitude
  above 1e-12 is made positive, so repeated runs are bit-comparable.

The ground vector is built from its three-term recurrence, run in the
stable direction on each side of a twist row: from the edge n = 0 up to the
twist, and from the centre, closed by the mirror condition, down to it (a
twisted factorisation; Fernando 1997, Dhillon & Parlett 2004).  The
twist is the row where the twisted factorisations of the even block just
below E0 have their smallest |gamma_k|, which is where the vector is
largest.  The ratios are accumulated as logarithms, so every amplitude is
accurate relative to its own size, down to the double-precision underflow,
and strictly positive above it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _EXPORTS
from .model import (FockState, ModelKind, TridiagonalHamiltonian, _mirror_fill,
                    apply_hamiltonian, build_hamiltonian)

__all__ = list(_EXPORTS["eigensolve"])

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
    """Full eigendecomposition: energies (units kappa*N), level 2j the j-th
    even level and 2j+1 the j-th odd one (ascending but for an ulp inside a
    degenerate doublet), and orthonormal eigenvectors, column k belonging to
    energies[k]."""

    energies: np.ndarray
    vectors: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.energies)


_FLAPACK = "scipy.linalg._flapack"


def _lapack():
    """scipy's compiled LAPACK module, whose routines ``scipy.linalg.lapack``
    re-exports, loaded from its file in scipy's ``linalg`` directory.

    Importing ``scipy.linalg`` costs ~0.3 s, most of it numpy submodules
    that scipy's array-API shim pulls in; the extension alone loads in ~5 ms.
    ``find_spec`` on the top-level name locates scipy without importing it.
    The module is registered in ``sys.modules``, so a later ``import
    scipy.linalg`` reuses it.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        scipy_dir = os.path.dirname(importlib.util.find_spec("scipy").origin)
        spec = importlib.machinery.PathFinder.find_spec(
            _FLAPACK, [os.path.join(scipy_dir, "linalg")])
        module = importlib.util.module_from_spec(spec)
        sys.modules[_FLAPACK] = module
        spec.loader.exec_module(module)
    return module


def _tridiagonal(diag: np.ndarray, offdiag: np.ndarray, vectors: bool = False):
    """Levels of a symmetric tridiagonal from LAPACK ``dsterf``, or levels
    and vectors from ``dstevd``; a nonzero ``info`` raises EigensolveError.

    A 1 x 1 matrix is answered here: the ``dsterf`` wrapper rejects an empty
    off-diagonal.  The inputs must be finite (TridiagonalHamiltonian checks
    them): LAPACK does not, and returns finite levels for a NaN entry.
    """
    if len(diag) == 1:
        levels = diag.astype(float)
        return (levels, np.ones((1, 1))) if vectors else levels
    routine, options = ("dstevd", {"compute_v": 1}) if vectors else ("dsterf", {})
    *out, info = getattr(_lapack(), routine)(diag, offdiag, **options)
    if info:
        raise EigensolveError(f"LAPACK {routine} failed with info = {info}")
    return tuple(out) if vectors else out[0]


_Block = tuple[np.ndarray, np.ndarray]


def _sectors(h: TridiagonalHamiltonian) -> tuple[_Block, _Block]:
    """The (diag, offdiag) of the even and the odd block under n -> N-n.

    With centre c = N//2, for N even the even block is rows 0..c with the
    last coupling scaled by sqrt(2) (row c is |c> itself) and the odd block
    rows 0..c-1; for N odd both are rows 0..c, the coupling across the centre
    added to the last diagonal entry (even) or subtracted from it (odd).
    """
    diag, offdiag = h.diag, h.offdiag
    c = (len(diag) - 1) // 2
    if len(diag) % 2:  # N even
        even_off = offdiag[:c].copy()
        even_off[-1] *= math.sqrt(2.0)
        return (diag[: c + 1], even_off), (diag[:c], offdiag[: c - 1])
    even_diag, odd_diag = diag[: c + 1].copy(), diag[: c + 1].copy()
    even_diag[-1] += offdiag[c]
    odd_diag[-1] -= offdiag[c]
    return (even_diag, offdiag[:c]), (odd_diag, offdiag[:c])


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first component above 1e-12 of every (unit) column positive."""
    first = np.argmax(np.abs(vectors) > _SIGN_FLOOR, axis=0)
    return vectors * np.where(vectors[first, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)


def _sturm_eigenvalue(diag: np.ndarray, offdiag: np.ndarray, lo: float | None = None) -> float:
    """Lowest level of a symmetric tridiagonal matrix by Sturm-count
    bisection down to adjacent floats: the largest float it finds with no
    level below it.

    A level lies below x when the LDL^T factorisation of the matrix minus x
    has a negative pivot (Sylvester's law of inertia); the sweep stops at the
    first one.  ``lo`` must have no level below it; it defaults to the
    Gershgorin bound.  Pure Python over lists, O(N) per step.
    """
    d = diag.tolist()
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

    def above(x: float) -> bool:  # a level below x
        q = 1.0
        for dj, bj2 in zip(d, b2):
            q = (dj - x) - bj2 / q
            if q <= 0.0:
                if q < 0.0:
                    return True
                q = pivmin
        return False

    return _bisect(above, lo, hi)[0]


def _bisect(holds: Callable[[float], bool], lo: float, hi: float,
            tol: float = 0.0) -> tuple[float, float]:
    """Halve [lo, hi], keeping ``holds`` false at lo and true at hi, until
    hi - lo <= tol or lo and hi are adjacent floats; returns (lo, hi)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


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
    log_a = _mirror_fill(low, N + 1)
    amps = np.exp(log_a - np.max(log_a))
    return amps / np.linalg.norm(amps)


def eigen_decompose(h: TridiagonalHamiltonian) -> Spectrum:
    """Full spectrum of a tridiagonal Hamiltonian, deterministic output.

    Level 2j is the j-th level of the even block and level 2j+1 the j-th
    level of the odd block, so column k of the vectors, even or odd bit for
    bit, belongs to energies[k].  The energies ascend except where rounding
    puts the odd member of a degenerate doublet an ulp below the even one.
    """
    (even_e, even_v), (odd_e, odd_v) = (
        _tridiagonal(*block, vectors=True) for block in _sectors(h)
    )
    dim = len(h.diag)
    pairs = dim // 2
    # rows 0..N//2 of (|n> +- |N-n>)/sqrt(2); row c of an even block (N even)
    # is the centre |c> itself, where every odd vector is 0
    low = np.zeros(((dim + 1) // 2, dim))
    low[:pairs, 0::2] = even_v[:pairs] / math.sqrt(2.0)
    low[pairs:, 0::2] = even_v[pairs:]
    low[:pairs, 1::2] = odd_v / math.sqrt(2.0)
    vectors = _mirror_fill(low, dim)
    vectors[len(low):, 1::2] *= -1.0
    vectors = _fix_signs(vectors)
    energies = np.empty(dim)
    energies[0::2], energies[1::2] = even_e, odd_e
    vectors.setflags(write=False)
    energies.setflags(write=False)
    return Spectrum(energies=energies, vectors=vectors)


def eigenvalues(h: TridiagonalHamiltonian) -> np.ndarray:
    """All energies of a tridiagonal Hamiltonian, ascending and read-only.

    The chain is solved one block at a time; the energies agree with
    ``eigen_decompose(h).energies`` to rounding.
    """
    energies = np.sort(np.concatenate([_tridiagonal(*block) for block in _sectors(h)]))
    energies.setflags(write=False)
    return energies


def ground_state(h: TridiagonalHamiltonian) -> tuple[float, FockState]:
    """Lowest eigenpair.

    The energy is the lowest level of the even block, by Sturm-count
    bisection.  The vector is then built from the recurrence, twisted where
    the twisted factorisations of the even block put its largest component,
    so the amplitudes are real, strictly positive wherever they do not
    underflow, and accurate relative to their own size in the exponentially
    small tails.

    The built vector is checked by its residual alone: raises
    EigensolveError if max |H a - E a| exceeds 1e-13 sqrt(N+1) max(1, |E|),
    as it does when E is not an eigenvalue to rounding.
    """
    even, _ = _sectors(h)
    energy = _sturm_eigenvalue(*even)
    dim = len(h.diag)
    peak = _twist_index(*even, energy, 0.5 if dim % 2 else 1.0)
    vec = _even_ground_vector(h.diag, h.offdiag, energy, peak)
    residual = float(np.max(np.abs(apply_hamiltonian(h, vec) - energy * vec)))
    if residual > _REBUILD_RESIDUAL * math.sqrt(dim) * max(1.0, abs(energy)):
        raise EigensolveError(f"rebuilt ground vector has residual {residual:.3g}")
    return energy, FockState(vec)


def ground(kind: ModelKind, n_total: int, coupling: float) -> tuple[float, FockState]:
    """Lowest eigenpair of the model Hamiltonian built at (kind, N, coupling)."""
    return ground_state(build_hamiltonian(kind, n_total, coupling))


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
    """Gap between the two lowest levels, >= 0.  Level 0 is the lowest even
    level and level 1 the lowest odd one, bisected from level 0 upward, so a
    degenerate pair gives exactly 0."""
    even, odd = _sectors(h)
    e0 = _sturm_eigenvalue(*even)
    return _sturm_eigenvalue(*odd, lo=e0) - e0
