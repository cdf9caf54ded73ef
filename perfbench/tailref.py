"""Extended-precision reference for ground-state tail probabilities.

The Hamiltonian is rebuilt here from the matrix elements documented in
``sjj.model`` (not from the package), in mpmath arithmetic:

    alpha_n = -(c/2) x_n^2,  x_n = 2n/N - 1
    BJJ: beta_n = -(1/N) sqrt((n+1)(N-n))
    SJJ: beta_n = -(1/N^2) ([1 - 0.21 x_n^2] (n+1) sqrt((N-n)(N-n-1))
                          + [1 - 0.21 x_{n+1}^2] (N-n) sqrt(n(n+1)))

E_0 comes from Sturm-sequence bisection, and the ground amplitudes from the
three-term recurrence H a = E_0 a started at the edge n = 0 and run to the
centre, then mirrored (the ground state is even under n -> N-n).  Below the
crossover the amplitudes grow from the edge to the centre, which is the
stable direction, so every amplitude is accurate relative to its own size.
``ground_log10_probs`` repeats the computation at a higher precision and
refuses a result that moved.
"""

from __future__ import annotations

import mpmath

# smallest normal double: CSV values below it are underflow, and reference
# values below it cannot be represented in the CSV either
LOG10_FLOOR = -307.6526555685888


def _hamiltonian(kind: str, n_total: int, coupling: float):
    N = mpmath.mpf(n_total)
    c = mpmath.mpf(coupling)
    x = [2 * mpmath.mpf(n) / N - 1 for n in range(n_total + 1)]
    diag = [-(c / 2) * xn * xn for xn in x]
    off = []
    for n in range(n_total):
        if kind == "bjj":
            off.append(-mpmath.sqrt((n + 1) * (N - n)) / N)
        else:
            w1 = 1 - mpmath.mpf("0.21") * x[n] ** 2
            w2 = 1 - mpmath.mpf("0.21") * x[n + 1] ** 2
            t1 = w1 * (n + 1) * mpmath.sqrt((N - n) * (N - n - 1))
            t2 = w2 * (N - n) * mpmath.sqrt(mpmath.mpf(n) * (n + 1))
            off.append(-(t1 + t2) / N**2)
    return diag, off


def _count_below(diag, off2, x) -> int:
    """Number of eigenvalues below x (Sturm count from the LDL^T pivots)."""
    count = 0
    d = diag[0] - x
    if d < 0:
        count += 1
    for k in range(1, len(diag)):
        if d == 0:
            d = mpmath.eps
        d = diag[k] - x - off2[k - 1] / d
        if d < 0:
            count += 1
    return count


def _ground_energy(diag, off):
    off2 = [b * b for b in off]
    radius = max(abs(b) for b in off) * 2
    lo = min(diag) - radius  # Gershgorin: no eigenvalue below lo
    hi = lo + radius
    while _count_below(diag, off2, hi) == 0:
        hi += radius
    eps = mpmath.mpf(2) ** (-mpmath.mp.prec + 8)
    while hi - lo > eps * (1 + abs(hi)):
        mid = (lo + hi) / 2
        if _count_below(diag, off2, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def _log10_probs(kind: str, n_total: int, coupling: float, dps: int) -> list[float]:
    with mpmath.workdps(dps):
        diag, off = _hamiltonian(kind, n_total, coupling)
        e0 = _ground_energy(diag, off)
        half = n_total // 2
        amps = [mpmath.mpf(1)]
        for n in range(half):
            prev = amps[n - 1] if n else 0
            prev_off = off[n - 1] if n else 0
            amps.append(((e0 - diag[n]) * amps[n] - prev_off * prev) / off[n])
        amps = amps + amps[: n_total + 1 - len(amps)][::-1]
        norm = mpmath.fsum(a * a for a in amps)
        return [float(2 * mpmath.log10(abs(a)) - mpmath.log10(norm)) for a in amps]


def ground_log10_probs(kind: str, n_total: int, coupling: float, dps: int = 60) -> list[float]:
    """log10 p_n of the ground state, checked for convergence in precision."""
    ref = _log10_probs(kind, n_total, coupling, dps)
    check = _log10_probs(kind, n_total, coupling, 2 * dps)
    moved = max(abs(a - b) for a, b in zip(ref, check))
    if moved > 1e-12:
        raise ArithmeticError(
            f"tail reference moved by {moved:.3g} dex between {dps} and {2 * dps} digits"
        )
    return check


def tail_error_dex(probs, ref_log10) -> float:
    """Largest |log10 p_n - log10 p_n^ref|, both floored at the double underflow."""
    worst = 0.0
    for p, r in zip(probs, ref_log10):
        got = mpmath.log10(p) if p > 0 else LOG10_FLOOR
        worst = max(worst, abs(max(float(got), LOG10_FLOOR) - max(r, LOG10_FLOOR)))
    return worst
