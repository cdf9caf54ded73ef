"""Output checks for every CLI invocation, each by a route independent of sjj.

The Hamiltonian is rebuilt densely from the matrix elements documented in
``sjj.model``; ground states come from ``numpy.linalg.eigh`` of the even
(mirror-symmetric) sector, where the ground level is never part of a
near-degenerate doublet; spectra come from dense ``numpy.linalg.eigvalsh``
of the full matrix; the mean-field flow is re-integrated with scipy's DOP853
at tight tolerance.  A check returns None when the output is right and a
one-line reason when it is wrong.  References depend only on the inputs, so
each is computed once per benchmark run and reused for every repetition.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import gammaln

README_CROSSOVER_SJJ_300 = 2.0009925
ETA = 0.999  # CLI default transmissivity of both loss channels
PRINT_RTOL = 5e-12  # relative rounding of a float printed with 12 significant digits


def dense_hamiltonian(kind: str, n_total: int, coupling: float) -> np.ndarray:
    N = n_total
    n = np.arange(N + 1, dtype=float)
    x = 2.0 * n / N - 1.0
    j = np.arange(N, dtype=float)
    if kind == "bjj":
        off = -np.sqrt((j + 1.0) * (N - j)) / N
    else:
        xj, xj1 = 2.0 * j / N - 1.0, 2.0 * (j + 1.0) / N - 1.0
        off = -((1.0 - 0.21 * xj**2) * (j + 1.0) * np.sqrt((N - j) * (N - j - 1.0))
                + (1.0 - 0.21 * xj1**2) * (N - j) * np.sqrt(j * (j + 1.0))) / N**2
    return np.diag(-(coupling / 2.0) * x * x) + np.diag(off, 1) + np.diag(off, -1)


@functools.lru_cache(maxsize=None)
def even_ground(kind: str, n_total: int, coupling: float) -> tuple[float, np.ndarray]:
    """Ground energy and amplitudes from the even sector (N even).

    Basis e_k = (|k> + |N-k>)/sqrt 2 for k < N/2 and e_{N/2} = |N/2>; the
    ground state of these Hamiltonians is always even (its amplitudes are
    positive), so this is the global ground state.
    """
    if n_total % 2:
        raise ValueError("even-sector reference needs an even N")
    h = dense_hamiltonian(kind, n_total, coupling)
    half = n_total // 2
    even = h[: half + 1, : half + 1].copy()
    even[half - 1, half] = even[half, half - 1] = math.sqrt(2.0) * h[half - 1, half]
    energies, vectors = np.linalg.eigh(even)
    v = vectors[:, 0] * np.sign(vectors[np.argmax(np.abs(vectors[:, 0])), 0])
    amps = np.concatenate([v[:half] / math.sqrt(2.0), v[half:], v[:half][::-1] / math.sqrt(2.0)])
    return float(energies[0]), amps


@functools.lru_cache(maxsize=None)
def dense_energies(kind: str, n_total: int, coupling: float) -> np.ndarray:
    return np.linalg.eigvalsh(dense_hamiltonian(kind, n_total, coupling))


def _spin_moments(amps: np.ndarray) -> tuple[float, float]:
    """(<J_X>, var J_X + var J_Y) for real amplitudes, from dense operators."""
    N = len(amps) - 1
    n = np.arange(N, dtype=float)
    c = np.sqrt((n + 1.0) * (N - n)) / 2.0
    jx = np.diag(c, 1) + np.diag(c, -1)
    jy = (np.diag(c, -1) - np.diag(c, 1)) / 1j
    ex = float(amps @ jx @ amps)
    var = float(np.linalg.norm(jx @ amps) ** 2 - ex * ex + np.linalg.norm(jy @ amps) ** 2)
    return ex, var


def _hz1(amps: np.ndarray) -> float:
    """First-order witness 1 + (<Na Nb> - |<a b^dag>|^2) / <Na>."""
    N = len(amps) - 1
    n = np.arange(N + 1, dtype=float)
    p = amps**2
    na = float(p @ (N - n))
    coh = float(amps[1:] @ (amps[:-1] * np.sqrt((N - n[:-1]) * (n[:-1] + 1.0))))
    return 1.0 + (float(p @ ((N - n) * n)) - coh * coh) / na


def read_csv(path: str) -> tuple[dict, list[str], np.ndarray]:
    with open(path) as fh:
        comment = fh.readline()
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    config = json.loads(comment.split(" ", 3)[3])
    return config, header, data


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _grid(spec: str) -> np.ndarray:
    start, stop, step = (float(v) for v in spec.split(":"))
    return start + step * np.arange(int(math.floor((stop - start) / step + 1e-9)) + 1)


def check_spectrum(path: str) -> str | None:
    cfg, _, data = read_csv(path)
    kind, N, grid = cfg["model"], int(cfg["n"]), _grid(cfg["grid"])
    if data.shape != (len(grid) * (N + 1), 3):
        return f"spectrum has {data.shape[0]} rows, want {len(grid) * (N + 1)}"
    block = data.reshape(len(grid), N + 1, 3)
    if not np.allclose(block[:, 0, 0], grid, rtol=1e-11, atol=1e-11):
        return "spectrum couplings differ from the grid"
    if np.any(np.diff(block[:, :, 2], axis=1) < -1e-12):
        return "spectrum energies not ascending"
    for i in sorted({0, len(grid) // 2, len(grid) - 1}):
        ref = dense_energies(kind, N, float(grid[i]))
        err = float(np.max(np.abs(block[i, :, 2] - ref)))
        if err > 1e-9:
            return f"spectrum at coupling {grid[i]:.6g} off dense eigvalsh by {err:.3g}"
    return None


def check_ground(path: str) -> str | None:
    cfg, _, data = read_csv(path)
    N, coupling = int(cfg["n"]), float(cfg["coupling"])
    if data.shape != (N + 1, 3):
        return f"ground has {data.shape[0]} rows, want {N + 1}"
    prob, amp = data[:, 1], data[:, 2]
    if abs(prob.sum() - 1.0) > 1e-9:
        return f"ground probabilities sum to 1 {prob.sum() - 1.0:+.3g}"
    if not np.allclose(prob, amp * amp, rtol=1e-9, atol=1e-300):
        return "ground prob differs from amp^2"
    e_ref, amp_ref = even_ground(cfg["model"], N, coupling)
    energy = float(amp @ dense_hamiltonian(cfg["model"], N, coupling) @ amp) / float(amp @ amp)
    if abs(energy - e_ref) > 1e-9:
        return f"ground energy {energy!r} differs from dense {e_ref!r}"
    if np.max(np.abs(amp - amp_ref)) > 1e-9:
        return f"ground amplitudes off dense by {np.max(np.abs(amp - amp_ref)):.3g}"
    return None


def check_hz(path: str) -> str | None:
    cfg, _, data = read_csv(path)
    kind, N, grid = cfg["model"], int(cfg["n"]), _grid(cfg["grid"])
    couplings = data[:, 0]
    if np.any(np.diff(couplings) <= 0):
        return "hz couplings not strictly increasing"
    if not np.all(np.isin(np.round(grid, 9), np.round(couplings, 9))):
        return "hz output misses grid points"
    for i in sorted({0, int(np.argmin(data[:, 1])), len(data) - 1}):
        c, hz1, hzn, delta, jpar = data[i]
        _, amps = even_ground(kind, N, float(c))
        ex, var = _spin_moments(amps)
        want = (_hz1(amps), 1.0 - float(amps[-1] ** 2), var, abs(ex))
        for name, got, ref in zip(("hz1", "hzN", "delta_parallel", "j_parallel"),
                                  (hz1, hzn, delta, jpar), want):
            if not _close(got, ref, 1e-8):
                return f"hz {name} at coupling {c:.9g}: {got!r} vs dense {ref!r}"
    return None


def _bimodal(kind: str, N: int, coupling: float) -> bool:
    p = even_ground(kind, N, coupling)[1] ** 2
    return float(np.max(p)) > p[N // 2] * (1.0 + 1e-9)


def check_crossover(path: str) -> str | None:
    out = read_json(path)
    kind, N, c = out["config"]["model"], int(out["config"]["n"]), float(out["coupling_critical"])
    if kind == "sjj" and N == 300 and abs(c - README_CROSSOVER_SJJ_300) > 1e-7:
        return f"crossover {c!r} differs from the published {README_CROSSOVER_SJJ_300}"
    if _bimodal(kind, N, c - 1e-5) or not _bimodal(kind, N, c + 1e-5):
        return f"crossover {c!r} does not bracket the dense bimodality onset"
    return None


@functools.lru_cache(maxsize=None)
def branch_probabilities(kind: str, N: int, coupling: float) -> np.ndarray:
    """P[l_a, l_b] = sum_n p_n C(N-n, l_a) C(n, l_b) eta^(N-l_a-l_b) (1-eta)^(l_a+l_b)."""
    p = even_ground(kind, N, coupling)[1] ** 2
    n = np.arange(N + 1, dtype=float)
    l = np.arange(N + 1, dtype=float)
    with np.errstate(invalid="ignore"):
        log_c = gammaln(n[:, None] + 1) - gammaln(l[None, :] + 1) - gammaln(n[:, None] - l[None, :] + 1)
    w = np.where(l[None, :] <= n[:, None], np.exp(log_c + (n[:, None] - l[None, :]) * math.log(ETA)
                                                   + l[None, :] * math.log1p(-ETA)), 0.0)
    return np.einsum("n,na,nb->ab", p, w[::-1], w)


def check_losses(path: str) -> str | None:
    cfg, header, data = read_csv(path)
    kind, N, coupling = cfg["model"], int(cfg["n"]), float(cfg["coupling"])
    ref = branch_probabilities(kind, N, coupling)
    if header == ["n", "prob"]:  # one conditional branch
        la, lb = int(cfg["la"]), int(cfg["lb"])
        if abs(data[:, 1].sum() - 1.0) > 1e-9:
            return f"branch state sums to 1 {data[:, 1].sum() - 1.0:+.3g}"
        if not _close(float(cfg["branch_probability"]), float(ref[la, lb]), 1e-9):
            return f"branch probability {cfg['branch_probability']!r} vs dense {ref[la, lb]!r}"
        p = even_ground(kind, N, coupling)[1] ** 2
        n = np.arange(lb, N - la + 1)
        q = p[n] * np.exp(gammaln(N - n + 1) - gammaln(N - n - la + 1) + gammaln(n + 1) - gammaln(n - lb + 1))
        q /= q.sum()
        got = np.zeros_like(q)
        got[data[:, 0].astype(int) - lb] = data[:, 1]
        if np.max(np.abs(got - q)) > 1e-9:
            return f"branch state off dense by {np.max(np.abs(got - q)):.3g}"
        return None
    la, lb = data[:, 0].astype(int), data[:, 1].astype(int)
    got = np.zeros_like(ref)
    np.add.at(got, (la, lb), data[:, 3])
    present = got > 0
    # complete within 1e-12, plus the rounding of 12 significant digits per printed row
    if cfg["p_min"] == 0.0 and abs(data[:, 3].sum() - 1.0) > 1e-12 + PRINT_RTOL * data[:, 3].sum():
        return f"losses branches sum to 1 {data[:, 3].sum() - 1.0:+.3g}"
    if np.any(got[present] < cfg["p_min"] * (1 - 1e-9)):
        return "losses branch below p_min"
    if cfg["p_min"] > 0 and not np.array_equal(present, ref >= cfg["p_min"]):
        return "losses branch set differs from dense branch probabilities >= p_min"
    if cfg["p_min"] == 0.0 and not np.all(present[ref > 1e-9]):
        return "losses misses branches with dense probability above 1e-9"
    big = present & (ref > 1e-9)
    if np.max(np.abs(got[big] - ref[big]) / ref[big], initial=0.0) > 1e-8:
        return "losses branch probabilities off dense"
    return None


@functools.lru_cache(maxsize=None)
def _meanfield_reference(coupling: float, z0: float, theta0: float, tau_max: float) -> np.ndarray:
    def flow(_, y):
        z, th = y
        return [(1 - z * z) * (1 - 0.21 * z * z) * math.sin(th),
                coupling * z - 2 * z * (1.21 - 0.42 * z * z) * math.cos(th)]

    sol = solve_ivp(flow, (0.0, tau_max), [z0, theta0], method="DOP853", rtol=1e-12, atol=1e-12)
    return sol.y[:, -1]


def check_meanfield(path: str) -> str | None:
    cfg, _, data = read_csv(path)
    steps = int(round(cfg["tau_max"] / cfg["dtau"]))
    if data.shape != (steps + 1, 5):
        return f"meanfield has {data.shape[0]} rows, want {steps + 1}"
    drift = float(np.max(np.abs(data[:, 4])))
    if drift >= 1e-8:
        return f"meanfield energy drift {drift:.3g}"
    z_ref, th_ref = _meanfield_reference(cfg["coupling"], cfg["z0"], cfg["theta0"], cfg["tau_max"])
    if abs(data[-1, 1] - z_ref) > 1e-6 or abs(data[-1, 2] - th_ref) > 1e-6:
        return "meanfield end point differs from DOP853"
    return None


def check_hartree(path: str) -> str | None:
    out = read_json(path)
    lam = float(out["coupling"])
    energies = {b["branch"]: b["energy_kN"] for b in out["branches"]}
    if energies.get("S0") != -1.0:
        return "hartree S0 branch missing or not at energy -1"
    if 1.58 <= lam < 2.42:
        if not _close(energies["S+"], 0.30 * lam**2 - 1.44 * lam + 0.74, 1e-12):
            return "hartree S+ energy off the quadratic fit"
        s2 = (2.42 - lam) / 0.84
        if not _close(out["exact_branch_energy"], -(lam / 2) * s2 - (1 - 0.21 * s2) * (1 - s2), 1e-12):
            return "hartree exact branch energy off"
        x2 = (lam - 1.58) / 0.84
        if not _close(out["cat_overlap"], x2 ** (out["config"]["n"] / 2), 1e-9):
            return "hartree cat overlap off X^N"
    return None


def check_physical(path: str) -> str | None:
    out = read_json(path)
    if not _close(out["wp_lambda_squared"], out["Lambda"], 1e-9):
        return "physical bridge identity Lambda = wp lambda^2 broken"
    if not _close(out["u_n"], out["u"] * out["config"]["n"], 1e-12):
        return "physical u_n differs from u N"
    return None


CHECKS = {
    "spectrum": check_spectrum,
    "ground": check_ground,
    "hz": check_hz,
    "crossover": check_crossover,
    "losses": check_losses,
    "meanfield": check_meanfield,
    "hartree": check_hartree,
    "physical": check_physical,
}
