"""Command-line front end: parameter sweeps, state tables, and conversions.

Subcommands
-----------
spectrum    all eigenvalues over a coupling grid (CSV: coupling,k,energy)
ground      ground-state distribution (CSV: n,prob,amp)
hz          entanglement witnesses over a grid with automatic refinement
            around the first-order minimum (CSV: coupling,hz1,hzN,
            delta_parallel,j_parallel)
meanfield   fixed-step trajectory (CSV: tau,z,theta,h,drift)
losses      beam-splitter loss branches, traced (CSV: la,lb,n,prob) or a
            single conditional branch via --la/--lb (CSV: n,prob)
hartree     variational branches at one coupling (JSON)
crossover   critical coupling by bisection (JSON)
physical    laboratory-unit conversions (JSON)

Output is data only (CSV or JSON; no plotting).  Every CSV starts with a
'#' comment carrying the tool version and the fully resolved configuration;
floats are printed with 12 significant digits so identical configurations
produce byte-identical files.  A JSON config file (--config) supplies
defaults for any flag (keys are flag names with '-' replaced by '_');
explicit flags win over the config file, which wins over built-ins.  Sweeps
run on a thread pool sized by --threads (fallback: SJJ_THREADS, then the
available parallelism); a count that is not a positive integer is a usage
error, wherever it came from.  Results are assembled in grid order
regardless of completion order.  JSON payload keys are documented in
schemas/cli_output.schema.json.

Exit codes: 0 success, 2 usage error, 3 domain error or empty result,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import operator
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .eigensolve import EigensolveError, eigen_decompose, eigenvalues, ground_state
from .hartree import cat_overlap, exact_branch_energy, stationary_solutions
from .losses import (
    LossChannel,
    ZeroProbabilityBranchError,
    conditional_state,
    loss_mixture,
)
from .meanfield import MeanFieldIntegrationError, MeanFieldState, integrate
from .model import FockState, ModelKind, TwoModeParams, build_hamiltonian
from .observables import (
    UndefinedCriterionError,
    crossover_coupling,
    hz_criterion,
    planar_squeezing,
    refine_minimum,
)
from .physical import (
    TrapParams,
    atomic_mass,
    coupling_Lambda,
    coupling_lambda,
    critical_atom_number,
    nonlinearity_u,
    wp_coefficient,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NUMERICAL = 4

_DOMAIN_ERRORS = (ValueError, UndefinedCriterionError, ZeroProbabilityBranchError)
_NUMERICAL_ERRORS = (EigensolveError, MeanFieldIntegrationError, FloatingPointError)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise ValueError(f"grid must be start:stop:step, got {spec!r}") from None
    if step <= 0:
        raise ValueError(f"grid step must be > 0, got {step}")
    if start > stop:
        raise ValueError(f"grid start must be <= stop, got {spec!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


def _model_kind(name: str) -> ModelKind:
    return ModelKind(name.lower())


def _write_text(path: str | None, text: str) -> None:
    """Write atomically (temp file + rename) so failures leave no partial file."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sjj-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _echoable(resolved: dict) -> dict:
    # output path and worker count do not affect the computed numbers:
    # leaving them out keeps identical configurations byte-identical across
    # target files and thread counts
    return {k: v for k, v in resolved.items() if k not in ("output", "threads")}


def _comment(command: str, resolved: dict) -> str:
    payload = json.dumps({"command": command, **_echoable(resolved)}, sort_keys=True, default=str)
    return f"# sjj {__version__} {payload}"


def _emit_table(
    command: str,
    resolved: dict,
    columns: list[str],
    rows: list[tuple],
    path: str | None,
    fmt: str,
) -> None:
    if fmt == "csv":
        lines = [_comment(command, resolved), ",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
        _write_text(path, "\n".join(lines) + "\n")
    else:
        obj = {
            "tool": "sjj",
            "version": __version__,
            "command": command,
            "config": _echoable(resolved),
            "columns": columns,
            "rows": [
                [float(_fmt(v)) if isinstance(v, float) else v for v in row] for row in rows
            ],
        }
        _write_text(path, json.dumps(obj, sort_keys=True, default=str) + "\n")


def _emit_object(command: str, resolved: dict, payload: dict, path: str | None) -> None:
    obj = {
        "tool": "sjj",
        "version": __version__,
        "command": command,
        "config": _echoable(resolved),
        **payload,
    }
    _write_text(path, json.dumps(obj, sort_keys=True, default=str) + "\n")


def _thread_count(value, source: str, parser: argparse.ArgumentParser) -> int:
    """A worker count: a positive integer, else a usage error naming its source."""
    try:
        count = int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        count = 0
    if isinstance(value, bool) or count < 1:
        parser.error(f"{source} must be a positive integer, got {value!r}")
    return count


def _parallel_map(fn, items, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------- commands


def _cmd_spectrum(resolved: dict) -> None:
    kind = _model_kind(resolved["model"])
    n = int(resolved["n"])
    grid = _parse_grid(resolved["grid"])

    def point(coupling: float) -> np.ndarray:
        return eigenvalues(build_hamiltonian(TwoModeParams(kind, n, float(coupling))))

    spectra = _parallel_map(point, list(grid), resolved["threads"])
    rows = [
        (float(c), k, float(e))
        for c, energies in zip(grid, spectra)
        for k, e in enumerate(energies)
    ]
    _emit_table("spectrum", resolved, ["coupling", "k", "energy"], rows,
                resolved["output"], resolved["format"])


def _cmd_ground(resolved: dict) -> None:
    kind = _model_kind(resolved["model"])
    params = TwoModeParams(kind, int(resolved["n"]), float(resolved["coupling"]))
    _, state = ground_state(build_hamiltonian(params))
    amps = state.amps.real
    rows = [(k, float(p), float(a)) for k, (p, a) in enumerate(zip(state.probabilities, amps))]
    _emit_table("ground", resolved, ["n", "prob", "amp"], rows,
                resolved["output"], resolved["format"])


def _hz_row(kind: ModelKind, n: int, coupling: float) -> tuple:
    _, state = ground_state(build_hamiltonian(TwoModeParams(kind, n, coupling)))
    sq = planar_squeezing(state)
    return (
        coupling,
        hz_criterion(state, 1),
        hz_criterion(state, n),
        sq.delta_parallel,
        sq.j_parallel,
    )


def _cmd_hz(resolved: dict) -> None:
    kind = _model_kind(resolved["model"])
    n = int(resolved["n"])
    grid = _parse_grid(resolved["grid"])
    threads = resolved["threads"]

    # couplings are keyed at 1e-12 resolution so refinement levels cannot
    # produce near-duplicate rows that collide at the printed precision
    keys = [round(float(c), 12) for c in grid]
    rows = dict(zip(keys, _parallel_map(lambda c: _hz_row(kind, n, c), keys, threads)))

    if resolved["refine"]:
        def hz1_cached(coupling: float) -> float:
            c = round(coupling, 12)
            if c not in rows:
                rows[c] = _hz_row(kind, n, c)
            return rows[c][1]

        refine_minimum(hz1_cached, grid, refine_to=float(resolved["refine_to"]))

    ordered = [rows[c] for c in sorted(rows)]
    _emit_table("hz", resolved, ["coupling", "hz1", "hzN", "delta_parallel", "j_parallel"],
                ordered, resolved["output"], resolved["format"])


def _cmd_meanfield(resolved: dict) -> None:
    s0 = MeanFieldState(z=float(resolved["z0"]), theta=float(resolved["theta0"]))
    traj = integrate(
        s0,
        Lambda=float(resolved["coupling"]),
        tau_max=float(resolved["tau_max"]),
        dtau=float(resolved["dtau"]),
    )
    h0 = traj.energies[0]
    rows = [
        (float(t), float(z), float(th), float(h), float(h - h0))
        for t, z, th, h in zip(traj.times, traj.z, traj.theta, traj.energies)
    ]
    _emit_table("meanfield", resolved, ["tau", "z", "theta", "h", "drift"], rows,
                resolved["output"], resolved["format"])


def _cmd_losses(resolved: dict) -> None:
    kind = _model_kind(resolved["model"])
    params = TwoModeParams(kind, int(resolved["n"]), float(resolved["coupling"]))
    # full solve, not ground_state: exact tails would multiply the rows printed below
    state = FockState(eigen_decompose(build_hamiltonian(params)).vectors[:, 0].astype(complex))
    ch = LossChannel(eta_a=float(resolved["eta_a"]), eta_b=float(resolved["eta_b"]))

    la, lb = resolved["la"], resolved["lb"]
    if (la is None) != (lb is None):
        raise ValueError("--la and --lb must be given together")
    if la is not None:
        branch = conditional_state(state, int(la), int(lb), ch)
        probs = branch.state.probabilities
        rows = [
            (k + int(lb), float(p))
            for k, p in enumerate(probs)
            if p > 0.0
        ]
        resolved = {**resolved, "branch_probability": float(branch.probability)}
        _emit_table("losses", resolved, ["n", "prob"], rows,
                    resolved["output"], resolved["format"])
        return

    branches = loss_mixture(state, ch, p_min=float(resolved["p_min"]))
    rows = []
    for br in branches:
        for k, p in enumerate(br.state.probabilities):
            joint = br.probability * float(p)
            if joint > 0.0:
                rows.append((br.l_a, br.l_b, k + br.l_b, joint))
    _emit_table("losses", resolved, ["la", "lb", "n", "prob"], rows,
                resolved["output"], resolved["format"])


def _cmd_hartree(resolved: dict) -> None:
    coupling = float(resolved["coupling"])
    branches = [
        {
            "branch": sol.branch,
            "s": sol.s,
            "alpha": sol.alpha,
            "beta": sol.beta,
            "theta": sol.theta,
            "energy_kN": sol.energy,
        }
        for sol in stationary_solutions(coupling)
    ]
    payload: dict = {"coupling": coupling, "branches": branches}
    if 1.58 <= coupling <= 2.42:
        payload["exact_branch_energy"] = exact_branch_energy(coupling)
        if resolved.get("n") is not None:
            payload["cat_overlap"] = cat_overlap(coupling, int(resolved["n"]))
    _emit_object("hartree", resolved, payload, resolved["output"])


def _cmd_crossover(resolved: dict) -> None:
    kind = _model_kind(resolved["model"])
    value = crossover_coupling(
        kind,
        int(resolved["n"]),
        criterion=resolved["criterion"],
        tol=float(resolved["tol"]),
    )
    _emit_object("crossover", resolved, {"coupling_critical": value}, resolved["output"])


def _cmd_physical(resolved: dict) -> None:
    mass = float(resolved["mass"]) if resolved.get("mass") is not None else atomic_mass(resolved["species"])
    tp = TrapParams(
        a_sc=float(resolved["a_sc"]),
        omega_x=float(resolved["omega_x"]),
        omega_perp=float(resolved["omega_perp"]),
        tunnel_rate=2.0 * math.pi * float(resolved["kappa_hz"]),
        n_atoms=int(resolved["n"]),
        mass=mass,
        a_perp=float(resolved["a_perp"]) if resolved.get("a_perp") is not None else None,
    )
    u = nonlinearity_u(tp)
    lam = coupling_lambda(tp)
    Lam = coupling_Lambda(tp)
    wp = wp_coefficient(tp) if tp.nu > 0 else None
    payload = {
        "species": resolved.get("species"),
        "mass_kg": mass,
        "a_perp": tp.a_perp_eff,
        "nu": tp.nu,
        "kappa": tp.kappa,
        "u": u,
        "u_n": u * tp.n_atoms,
        "lambda": lam,
        "Lambda": Lam,
        "n_critical": critical_atom_number(tp),
        "u_n_critical": u * critical_atom_number(tp),
        "wp": wp,
        "wp_lambda_squared": wp * lam * lam if wp is not None else None,
    }
    _emit_object("physical", resolved, payload, resolved["output"])


# ------------------------------------------------------------ arg plumbing

_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "ground": _cmd_ground,
    "hz": _cmd_hz,
    "meanfield": _cmd_meanfield,
    "losses": _cmd_losses,
    "hartree": _cmd_hartree,
    "crossover": _cmd_crossover,
    "physical": _cmd_physical,
}

_DEFAULTS: dict[str, dict] = {
    "spectrum": {"model": None, "n": None, "grid": None, "output": None,
                 "format": "csv", "threads": None},
    "ground": {"model": None, "n": None, "coupling": None, "output": None,
               "format": "csv"},
    "hz": {"model": None, "n": None, "grid": None, "refine": True,
           "refine_to": 1e-5, "output": None, "format": "csv", "threads": None},
    "meanfield": {"coupling": None, "z0": 0.0, "theta0": 0.0, "tau_max": 100.0,
                  "dtau": 1e-3, "output": None, "format": "csv"},
    "losses": {"model": None, "n": None, "coupling": None, "la": None, "lb": None,
               "eta_a": 0.999, "eta_b": 0.999, "p_min": 0.0, "output": None,
               "format": "csv"},
    "hartree": {"coupling": None, "n": None, "output": None},
    "crossover": {"model": None, "n": None, "criterion": "bimodal", "tol": 1e-7,
                  "output": None},
    "physical": {"species": "li7", "mass": None, "a_perp": None, "a_sc": None,
                 "omega_x": None, "omega_perp": None, "kappa_hz": None, "n": None,
                 "output": None},
}

_REQUIRED: dict[str, tuple[str, ...]] = {
    "spectrum": ("model", "n", "grid"),
    "ground": ("model", "n", "coupling"),
    "hz": ("model", "n", "grid"),
    "meanfield": ("coupling",),
    "losses": ("model", "n", "coupling"),
    "hartree": ("coupling",),
    "crossover": ("model", "n"),
    "physical": ("a_sc", "omega_x", "omega_perp", "kappa_hz", "n"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sjj",
        description="Two-mode soliton/bosonic Josephson junction calculations.",
    )
    parser.add_argument("--version", action="version", version=f"sjj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, model=False, n=False, coupling=False, grid=False,
                   threads=False, fmt=True):
        if model:
            p.add_argument("--model", choices=["sjj", "bjj"])
        if n:
            p.add_argument("--n", type=int)
        if coupling:
            p.add_argument("--coupling", type=float)
        if grid:
            p.add_argument("--grid", help="coupling grid start:stop:step (inclusive)")
        if threads:
            p.add_argument("--threads", type=int)
        if fmt:
            p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("-o", "--output", help="output path (default: stdout)")
        p.add_argument("--config", help="JSON file with flag defaults")

    p = sub.add_parser("spectrum", help="eigenvalues over a coupling grid")
    add_common(p, model=True, n=True, grid=True, threads=True)

    p = sub.add_parser("ground", help="ground-state distribution")
    add_common(p, model=True, n=True, coupling=True)

    p = sub.add_parser("hz", help="entanglement witnesses over a grid")
    add_common(p, model=True, n=True, grid=True, threads=True)
    p.add_argument("--refine", dest="refine", action="store_true", default=None)
    p.add_argument("--no-refine", dest="refine", action="store_false", default=None)
    p.add_argument("--refine-to", type=float, help="refinement step floor (default 1e-5)")

    p = sub.add_parser("meanfield", help="fixed-step mean-field trajectory")
    add_common(p, coupling=True)
    p.add_argument("--z0", type=float)
    p.add_argument("--theta0", type=float)
    p.add_argument("--tau-max", type=float)
    p.add_argument("--dtau", type=float)

    p = sub.add_parser("losses", help="beam-splitter loss branches")
    add_common(p, model=True, n=True, coupling=True)
    p.add_argument("--la", type=int, help="detected losses in channel a (with --lb)")
    p.add_argument("--lb", type=int, help="detected losses in channel b (with --la)")
    p.add_argument("--eta-a", type=float)
    p.add_argument("--eta-b", type=float)
    p.add_argument("--p-min", type=float, help="truncate traced branches below this probability")

    p = sub.add_parser("hartree", help="variational branches at one coupling")
    add_common(p, coupling=True, n=True, fmt=False)

    p = sub.add_parser("crossover", help="critical coupling by bisection")
    add_common(p, model=True, n=True, fmt=False)
    p.add_argument("--criterion", choices=["bimodal", "edge", "hz_jump"])
    p.add_argument("--tol", type=float)

    p = sub.add_parser("physical", help="laboratory-unit conversions")
    add_common(p, n=True, fmt=False)
    p.add_argument("--species", choices=["li7", "rb87"])
    p.add_argument("--mass", type=float, help="particle mass in kg (overrides species)")
    p.add_argument("--a-perp", type=float, help="transverse length in m (overrides mass-derived)")
    p.add_argument("--a-sc", type=float, help="scattering length in m")
    p.add_argument("--omega-x", type=float, help="axial trap frequency, rad/s")
    p.add_argument("--omega-perp", type=float, help="radial trap frequency, rad/s")
    p.add_argument("--kappa-hz", type=float, help="|K|/2pi in Hz")

    return parser


def _resolve(command: str, args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    resolved = dict(_DEFAULTS[command])
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file {config_path}: {exc}")
        if not isinstance(file_cfg, dict):
            parser.error(f"config file {config_path} must hold a JSON object")
        for key, value in file_cfg.items():
            if key in resolved:
                resolved[key] = value
    for key in resolved:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            resolved[key] = cli_value
    missing = [k for k in _REQUIRED[command] if resolved.get(k) is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        parser.error(f"missing required option(s): {flags}")
    # malformed grids and enum values are usage errors (exit 2), wherever
    # they came from
    if resolved.get("grid") is not None:
        try:
            _parse_grid(str(resolved["grid"]))
        except ValueError as exc:
            parser.error(str(exc))
    if resolved.get("model") is not None and str(resolved["model"]).lower() not in ("sjj", "bjj"):
        parser.error(f"model must be sjj or bjj, got {resolved['model']!r}")
    if resolved.get("format") not in (None, "csv", "json"):
        parser.error(f"format must be csv or json, got {resolved['format']!r}")
    if "threads" in resolved:
        if getattr(args, "threads", None) is not None:
            value, source = args.threads, "--threads"
        elif resolved["threads"] is not None:
            value, source = resolved["threads"], f"'threads' in config file {config_path}"
        else:
            value, source = os.environ.get("SJJ_THREADS") or os.cpu_count() or 1, "SJJ_THREADS"
        resolved["threads"] = _thread_count(value, source, parser)
    return resolved


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        resolved = _resolve(command, args, parser)
        _COMMANDS[command](resolved)
    except _NUMERICAL_ERRORS as exc:
        print(f"sjj {command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _DOMAIN_ERRORS as exc:
        print(f"sjj {command}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
