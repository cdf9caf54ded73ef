"""Independent reference implementations used only by the test suite.

Each oracle deliberately takes a different computational route from the
library code it checks: dense cyclic Jacobi rotations for the tridiagonal
eigensolver, extended-precision Sturm bisection and recurrence for the
ground-state tails, explicit fixed-step integration for the spectral propagator,
dense ladder-operator matrices for the moment-based witnesses, term-by-term
extended-precision products for the loss branches and the Hartree cat
states, and scipy's adaptive integrators for the mean-field flow and the
overlap quadrature.
"""

from __future__ import annotations

import numpy as np


def dense_from_tridiagonal(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    n = len(diag)
    a = np.zeros((n, n))
    a[np.arange(n), np.arange(n)] = diag
    a[np.arange(n - 1), np.arange(1, n)] = offdiag
    a[np.arange(1, n), np.arange(n - 1)] = offdiag
    return a


def jacobi_eigh(matrix: np.ndarray, tol: float = 1e-14, max_sweeps: int = 100):
    """Cyclic Jacobi diagonalization of a real symmetric matrix.

    Returns (eigenvalues ascending, eigenvector columns).  Classic Givens
    rotations, no shifts, no LAPACK: an independent route for checking the
    production eigensolver.
    """
    a = np.array(matrix, dtype=float)
    if not np.allclose(a, a.T, atol=0.0):
        raise ValueError("matrix must be symmetric")
    n = a.shape[0]
    v = np.eye(n)
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(max_sweeps):
        off = np.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp = a[:, p].copy()
                rq = a[:, q].copy()
                a[:, p] = c * rp - s * rq
                a[:, q] = s * rp + c * rq
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                a[p, q] = 0.0
                a[q, p] = 0.0
                rp = v[:, p].copy()
                rq = v[:, q].copy()
                v[:, p] = c * rp - s * rq
                v[:, q] = s * rp + c * rq
    else:
        raise RuntimeError("Jacobi sweeps did not converge")
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def rk4_schrodinger(
    diag: np.ndarray, offdiag: np.ndarray, amps0: np.ndarray, tau: float, dt: float
) -> np.ndarray:
    """Explicit 4th-order integration of i dA/dtau = H A on the tridiagonal H."""

    def deriv(y):
        out = diag * y
        out = out.astype(complex)
        out[:-1] += offdiag * y[1:]
        out[1:] += offdiag * y[:-1]
        return -1j * out

    steps = int(round(tau / dt))
    y = np.asarray(amps0, dtype=complex).copy()
    for _ in range(steps):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * dt * k1)
        k3 = deriv(y + 0.5 * dt * k2)
        k4 = deriv(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def dense_hz(amps: np.ndarray, m: int) -> float:
    """Order-m witness from explicitly built ladder-operator matrices.

    The two-mode product space is truncated at N + m quanta per mode so the
    raising power b^dag^m acts faithfully.  Practical for N <= ~10.
    """
    amps = np.asarray(amps, dtype=complex)
    N = len(amps) - 1
    d = N + m + 1
    low = np.zeros((d, d))
    low[np.arange(d - 1), np.arange(1, d)] = np.sqrt(np.arange(1.0, d))
    eye = np.eye(d)
    op_a = np.kron(low, eye)
    op_b = np.kron(eye, low)

    psi = np.zeros(d * d, dtype=complex)
    for n in range(N + 1):
        psi[(N - n) * d + n] = amps[n]

    am = np.linalg.matrix_power(op_a, m)
    bm = np.linalg.matrix_power(op_b, m)
    pop_op = am.conj().T @ am @ bm.conj().T @ bm
    coh_op = am @ bm.conj().T
    comm_op = am.conj().T @ am @ (bm @ bm.conj().T - bm.conj().T @ bm)

    pop = np.vdot(psi, pop_op @ psi).real
    coh = np.vdot(psi, coh_op @ psi)
    den = np.vdot(psi, comm_op @ psi).real
    if den == 0:
        raise ZeroDivisionError("witness denominator vanished")
    return float(1.0 + (pop - abs(coh) ** 2) / den)


def reference_flow(z0: float, theta0: float, Lambda: float, tau_max: float):
    """High-accuracy adaptive integration of the mean-field equations."""
    from scipy.integrate import solve_ivp

    def fun(_t, y):
        z, th = y
        return [
            (1.0 - z * z) * (1.0 - 0.21 * z * z) * np.sin(th),
            Lambda * z - 2.0 * z * (1.21 - 0.42 * z * z) * np.cos(th),
        ]

    sol = solve_ivp(
        fun, (0.0, tau_max), [z0, theta0], method="DOP853", rtol=1e-12, atol=1e-12
    )
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y[0, -1], sol.y[1, -1]


def random_state(rng: np.random.Generator, n_total: int) -> np.ndarray:
    """Haar-ish random normalized complex amplitudes."""
    amps = rng.normal(size=n_total + 1) + 1j * rng.normal(size=n_total + 1)
    return amps / np.linalg.norm(amps)


def random_balanced_state(rng: np.random.Generator, n_total: int) -> np.ndarray:
    """Random state with mirror-symmetric magnitudes (|A_n| = |A_{N-n}|),
    hence equal mode populations <N_a> = <N_b> = N/2.  This is the manifold
    on which the spin form of the first-order witness coincides with the
    moment form."""
    half = rng.uniform(0.2, 1.0, size=(n_total + 1) // 2 + 1)
    mags = np.empty(n_total + 1)
    k = len(half)
    mags[:k] = half
    mags[k:] = half[: n_total + 1 - k][::-1]
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_total + 1)
    amps = mags * np.exp(1j * phases)
    return amps / np.linalg.norm(amps)


def _mp_level(d, b, k: int, near: float | None = None):
    """Level k (0 = lowest) of the tridiagonal (d, b), given as mpf lists,
    by Sturm-count bisection at the current mpmath precision.  A guess
    ``near`` only narrows the starting bracket to near -+ 1e-12 max(1, |near|)
    if the counts there confirm that the level lies inside."""
    import mpmath

    b2 = [x * x for x in b]

    def count_below(x) -> int:  # stops once it exceeds k
        count, piv = 0, d[0] - x
        for j in range(len(d)):
            if j:
                piv = d[j] - x - b2[j - 1] / (piv or mpmath.eps)
            count += piv < 0
            if count > k:
                break
        return count

    radius = 2 * max((abs(x) for x in b), default=0)
    lo = min(d) - radius
    hi = max(d) + radius
    if near is not None:
        half = mpmath.mpf(1e-12) * max(1, abs(near))
        if count_below(near - half) <= k < count_below(near + half):
            lo, hi = near - half, near + half
    while hi - lo > mpmath.mpf(2) ** (8 - mpmath.mp.prec) * (1 + abs(hi)):
        mid = (lo + hi) / 2
        if count_below(mid) > k:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def mp_tridiagonal_level(
    diag: np.ndarray, offdiag: np.ndarray, k: int, near: float | None = None, dps: int = 24
) -> float:
    """Level k (0 = lowest) of the double-precision tridiagonal (diag,
    offdiag), exact to well below one ulp: Sturm bisection in mpmath on the
    matrix elements as given, no LAPACK.  ``near`` is an optional guess that
    speeds it up; it is checked by the counts, not trusted."""
    import mpmath

    with mpmath.workdps(dps):
        return float(_mp_level([mpmath.mpf(float(x)) for x in diag],
                               [mpmath.mpf(float(x)) for x in offdiag], k,
                               None if near is None else mpmath.mpf(near)))


def mp_ground_log10_probs(diag: np.ndarray, offdiag: np.ndarray, dps: int = 40) -> np.ndarray:
    """log10 p_n of the ground state of a mirror-symmetric chain, in mpmath.

    E_0 comes from Sturm-count bisection and the amplitudes from the
    three-term recurrence started at the edge n = 0 and run to the centre,
    then mirrored; no LAPACK.  The recurrence grows from the edge only while
    the distribution is unimodal, so this holds below the crossover.  The
    computation is repeated at twice the precision and refused if it moved.
    """
    import mpmath

    def log10_probs(prec_dps: int) -> np.ndarray:
        with mpmath.workdps(prec_dps):
            d = [mpmath.mpf(float(x)) for x in diag]
            b = [mpmath.mpf(float(x)) for x in offdiag]
            energy = _mp_level(d, b, 0)

            n_total = len(d) - 1
            amps = [mpmath.mpf(1)]
            for n in range(n_total // 2):
                prev = b[n - 1] * amps[n - 1] if n else 0
                amps.append(((energy - d[n]) * amps[n] - prev) / b[n])
            amps += amps[: n_total + 1 - len(amps)][::-1]
            log_norm = mpmath.log10(mpmath.fsum(a * a for a in amps))
            return np.array([float(2 * mpmath.log10(abs(a)) - log_norm) for a in amps])

    ref = log10_probs(dps)
    check = log10_probs(2 * dps)
    moved = float(np.max(np.abs(ref - check)))
    if moved > 1e-12:
        raise ArithmeticError(f"reference moved by {moved:.3g} dex between {dps} and {2 * dps} digits")
    return check


def mp_loss_rows(amps: np.ndarray, eta_a: float, eta_b: float, dps: int = 40) -> np.ndarray:
    """Traced loss rows rows[l_a, l_b, n] = |A_n|^2 C(N-n, l_a) eta_a^(N-n-l_a)
    (1-eta_a)^l_a C(n, l_b) eta_b^(n-l_b) (1-eta_b)^l_b, 0 where a loss count
    exceeds its mode's population.

    Every term is a direct product of exact binomials and powers in mpmath,
    no logarithms; summed over n they give the branch probabilities, and
    divided by those, the conditional states.  Dense, O(N^3): for N <= ~20.
    """
    import mpmath

    N = len(amps) - 1
    rows = np.zeros((N + 1, N + 1, N + 1))
    with mpmath.workdps(dps):
        ea, eb = mpmath.mpf(float(eta_a)), mpmath.mpf(float(eta_b))
        for n in range(N + 1):
            p = abs(mpmath.mpc(complex(amps[n]))) ** 2
            for la in range(N - n + 1):
                wa = mpmath.binomial(N - n, la) * ea ** (N - n - la) * (1 - ea) ** la
                for lb in range(n + 1):
                    wb = mpmath.binomial(n, lb) * eb ** (n - lb) * (1 - eb) ** lb
                    rows[la, lb, n] = float(p * wa * wb)
    return rows


def mp_cat_amplitudes(Lambda: float, n_total: int, sign: int, dps: int = 80) -> np.ndarray:
    """Amplitudes of the Hartree cat state |psi_+> + sign |psi_->, normalized.

    Term by term in mpmath, with no logarithms: S^2 = (2.42 - Lambda)/(2.42 - 1.58)
    from the double-precision window ends, alpha, beta = sqrt((1 -+ S)/2) and
    A_n = sqrt(C(N, n)) (alpha^(N-n) beta^n + sign beta^(N-n) alpha^n), divided
    by the root of the sum of squares.  The difference of the odd cat cancels
    to about log10(1/S) digits, far fewer than the 80 carried.
    """
    import mpmath

    from sjj.overlap_fit import _LAMBDA_HI, _LAMBDA_LO

    with mpmath.workdps(dps):
        hi, lo = mpmath.mpf(_LAMBDA_HI), mpmath.mpf(_LAMBDA_LO)
        s = mpmath.sqrt((hi - mpmath.mpf(Lambda)) / (hi - lo))
        alpha, beta = mpmath.sqrt((1 - s) / 2), mpmath.sqrt((1 + s) / 2)
        amps = [
            mpmath.sqrt(mpmath.binomial(n_total, n))
            * (alpha ** (n_total - n) * beta**n + sign * beta ** (n_total - n) * alpha**n)
            for n in range(n_total + 1)
        ]
        norm = mpmath.sqrt(mpmath.fsum(a * a for a in amps))
        return np.array([float(a / norm) for a in amps])
