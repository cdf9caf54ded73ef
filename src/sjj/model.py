"""Two-mode Hamiltonians for coupled atomic condensates in the Fock basis.

Both junction models reduce to a real symmetric tridiagonal matrix acting on
the fixed-N basis |N-n, n> = |N-n>_a |n>_b, n = 0..N.  Energies are measured
in units of kappa*N everywhere in this package; conversions to laboratory
units live in :mod:`sjj.physical`.

Matrix elements (N particles, dimensionless coupling c):

    BJJ:  alpha_n = -(c/2) (2n/N - 1)^2
          beta_n  = -(1/N) sqrt((n+1)(N-n))

    SJJ:  alpha_n = -(c/2) (2n/N - 1)^2
          beta_n  = -(1/N^2) ( [1 - 0.21 (2n/N - 1)^2] (n+1) sqrt((N-n)(N-n-1))
                             + [1 - 0.21 (2(n+1)/N - 1)^2] (N-n) sqrt(n(n+1)) )

The 0.21 factor is the quadratic fit of the soliton overlap integral, see
:func:`sjj.meanfield.overlap_integral`; it is defined once, as
``_OVERLAP_FIT`` in the numpy-free :mod:`sjj.overlap_fit`, which also
derives the mean-field and Hartree constants from it.
Both coefficient sets are mirror symmetric under n -> N-n and have
couplings beta_n < 0 (beta_0 = -0.0 for SJJ at N = 1); the builder evaluates
the lower half and reflects it so the symmetry holds bit-exactly.
A model is named by (kind, N, coupling), the three arguments of
:func:`build_hamiltonian`.  ``TridiagonalHamiltonian`` holds only the two
coefficient arrays, with N = len(diag) - 1; when it is constructed it checks
their shapes and then both properties, so every eigensolver may split the
chain into its even and odd blocks.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .overlap_fit import _OVERLAP_FIT

__all__ = list(_EXPORTS["model"])


# largest particle number of a model: about 330 times the README's largest N
# (3000); an SJJ ground solve there takes ~3 s and ~180 MB
_MAX_N = 1_000_000


class ModelKind(enum.Enum):
    """Junction type: soliton (SJJ) or conventional bosonic (BJJ)."""

    SJJ = "sjj"
    BJJ = "bjj"


def _read_only(values, dtype) -> np.ndarray:
    """A read-only copy of values, so no caller can write into a value class."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TridiagonalHamiltonian:
    """Symmetric tridiagonal Hamiltonian in units of kappa*N.

    ``diag`` holds alpha_n (length N+1), ``offdiag`` holds beta_n (length N)
    coupling n and n+1; N is ``len(diag) - 1``.  Construction checks, in
    this order, that both arrays are 1-D with len(diag) >= 2 and
    len(offdiag) == len(diag) - 1, that every entry is finite (the LAPACK
    routines behind the eigensolvers do not check, and return finite levels
    for a NaN entry), that the chain is mirror symmetric, diag[n] ==
    diag[N-n] and offdiag[n] == offdiag[N-1-n] exactly, and that every
    coupling is < 0 (the one coupling of N = 1 may be 0, as the SJJ one is),
    and raises ValueError naming the first that fails.  Every eigensolver
    relies on this class of chain: it splits into an even and an odd block,
    and its levels alternate in parity, even first.  Both arrays are stored
    as read-only copies, so the checks cannot be undone afterwards.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        for name in ("diag", "offdiag"):
            object.__setattr__(self, name, _read_only(getattr(self, name), float))
        if not (self.diag.ndim == self.offdiag.ndim == 1 and len(self.diag) >= 2
                and len(self.offdiag) == len(self.diag) - 1):
            raise ValueError("diag and offdiag must be 1-D, of lengths N + 1 >= 2 and N")
        if not (np.isfinite(self.diag).all() and np.isfinite(self.offdiag).all()):
            raise ValueError("diag and offdiag must be finite")
        if not (np.array_equal(self.diag, self.diag[::-1])
                and np.array_equal(self.offdiag, self.offdiag[::-1])):
            raise ValueError("diag and offdiag must be mirror symmetric under n -> N-n")
        if not (np.all(self.offdiag < 0.0) or (self.n_total == 1 and self.offdiag[0] == 0.0)):
            raise ValueError("every coupling must be < 0 (at n_total = 1, <= 0)")

    @property
    def n_total(self) -> int:
        return len(self.diag) - 1


@dataclass(frozen=True, eq=False)
class FockState:
    """Normalized two-mode state: amps[n] multiplies |N-n>_a |n>_b, stored as
    a read-only copy.  amps must be 1-D (ValueError otherwise)."""

    amps: np.ndarray

    def __post_init__(self):
        amps = _read_only(self.amps, complex)
        if amps.ndim != 1:
            raise ValueError(f"amplitudes must be 1-D, got shape {amps.shape}")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        # written so that a NaN norm fails it too
        if not abs(norm2 - 1.0) <= 1e-12:
            raise ValueError(f"amplitudes not normalized: sum |A_n|^2 = {norm2!r}")
        object.__setattr__(self, "amps", amps)

    @property
    def n_total(self) -> int:
        return len(self.amps) - 1

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def _mirror_fill(low: np.ndarray, size: int) -> np.ndarray:
    """Assemble an array of ``size`` rows, mirror-symmetric along its first
    axis, from its lower rows (bit-exact); ``low`` is 1-D or 2-D."""
    out = np.empty((size, *low.shape[1:]))
    half = len(low)
    out[:half] = low
    out[half:] = low[: size - half][::-1]
    return out


def build_hamiltonian(kind: ModelKind, n_total: int, coupling: float) -> TridiagonalHamiltonian:
    """The tridiagonal coefficients of the model (kind, N, coupling).

    ``coupling`` is Lambda for SJJ and lambda for BJJ.  Before allocating,
    raises ValueError unless kind is a ModelKind (no string is converted),
    1 <= N <= _MAX_N and the coupling is finite and >= 0; an SJJ at coupling
    0, a formal limit (bright solitons need nonlinearity), warns.  Only the
    diagonal carries the coupling.  Lower-half evaluation plus reflection
    makes diag[n] == diag[N-n] and offdiag[n] == offdiag[N-1-n] exactly.
    """
    if not isinstance(kind, ModelKind):
        raise ValueError(f"kind must be a ModelKind, got {kind!r}")
    if n_total < 1:
        raise ValueError(f"n_total must be >= 1, got {n_total}")
    if n_total > _MAX_N:
        raise ValueError(f"n_total must be at most {_MAX_N}, got {n_total}")
    try:
        finite = math.isfinite(coupling)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"coupling must be finite, got {coupling}")
    if coupling < 0:
        raise ValueError(f"coupling must be >= 0, got {coupling}")
    if kind is ModelKind.SJJ and coupling == 0:
        warnings.warn("SJJ with coupling 0 is a formal limit: bright solitons "
                      "require nonzero nonlinearity", stacklevel=2)
    N = n_total

    n = np.arange(N // 2 + 1, dtype=float)
    x = 2.0 * n / N - 1.0
    diag = _mirror_fill(-(coupling / 2.0) * x * x, N + 1)

    j = np.arange((N - 1) // 2 + 1, dtype=float)
    if kind is ModelKind.BJJ:
        low = -np.sqrt((j + 1.0) * (N - j)) / N
    else:
        w1 = 1.0 - _OVERLAP_FIT * (2.0 * j / N - 1.0) ** 2
        w2 = 1.0 - _OVERLAP_FIT * (2.0 * (j + 1.0) / N - 1.0) ** 2
        t1 = w1 * (j + 1.0) * np.sqrt((N - j) * (N - j - 1.0))
        t2 = w2 * (N - j) * np.sqrt(j * (j + 1.0))
        low = -(t1 + t2) / N**2
    offdiag = _mirror_fill(low, N)

    return TridiagonalHamiltonian(diag=diag, offdiag=offdiag)


def apply_hamiltonian(h: TridiagonalHamiltonian, s: FockState | np.ndarray) -> np.ndarray:
    """Matrix-vector product H A in the Fock basis.

    out[n] = diag[n] A_n + offdiag[n] A_{n+1} + offdiag[n-1] A_{n-1},
    with out-of-range neighbors contributing zero.
    """
    amps = s.amps if isinstance(s, FockState) else np.asarray(s)
    if len(amps) != len(h.diag):
        raise ValueError(
            f"state has {len(amps)} amplitudes, Hamiltonian dimension is {len(h.diag)}"
        )
    out = h.diag * amps
    out[:-1] = out[:-1] + h.offdiag * amps[1:]
    out[1:] = out[1:] + h.offdiag * amps[:-1]
    return out
