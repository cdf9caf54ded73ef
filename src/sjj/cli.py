"""Command-line front end: parameter sweeps, state tables, and conversions.

Subcommands
-----------
spectrum    all eigenvalues over a coupling grid (CSV: coupling,k,energy)
ground      ground-state distribution (CSV: n,prob,amp)
hz          entanglement witnesses over a grid with automatic refinement
            around the first-order minimum (CSV: coupling,hz1,hzN,
            delta_parallel,j_parallel)
meanfield   fixed-step trajectory (CSV: tau,z,theta,h,drift)
losses      beam-splitter loss branches of the ground state, traced (CSV:
            la,lb,n,prob; rows below 1e-100 are not printed) or a single
            conditional branch via --la/--lb (CSV: n,prob, every nonzero row)
hartree     variational branches at one coupling (JSON)
crossover   critical coupling by bisection (JSON)
physical    laboratory-unit conversions (JSON)

Output is data only (CSV or JSON; no plotting).  Every CSV starts with a
'#' comment carrying the tool version and the fully resolved configuration;
floats are printed with 12 significant digits so identical configurations
produce byte-identical files.  A JSON config file (--config) supplies
defaults for any flag (keys are flag names with '-' replaced by '_');
explicit flags win over the config file, which wins over built-ins.  A
config value gets the checks of its flag (type, choices), so a bad one is a
usage error naming the key and the file.  Every flag is declared once, in
_SPEC.  A --grid may have at most 100,000 points (_MAX_GRID_POINTS); a
larger one is a usage error.  Sweeps evaluate their grid points in order on
one thread; --threads (and config 'threads') is still accepted and must be a
positive integer, but has no effect.  The traced `losses` table leaves out
rows whose joint probability is below _ROW_FLOOR = 1e-100 (not a flag):
they carry 5.7e-98 together at the README configuration, and --p-min still
selects whole branches by their probability.  JSON payload keys are
documented in schemas/cli_output.schema.json.

Tables are formatted and written _CHUNK_ROWS rows at a time, to stdout or
to a temp file beside the -o target that is renamed onto it at the end, so
the writer's memory does not grow with the row count and a failed run,
also one that fails mid-table, leaves no partial file.  The bytes are those
of the whole document rendered at once.

The module imports the standard library only; each command imports the
sjj modules it calls, and numpy with them, when it runs.  So --version,
hartree and physical start without numpy (hartree reads its window from
sjj.overlap_fit), and only spectrum loads scipy.  A non-finite input that
the library rejects is a domain error like any other.

Exit codes: 0 success, 2 usage error, 3 domain error or empty result,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import __version__

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NUMERICAL = 4

# UndefinedCriterionError and ZeroProbabilityBranchError are ValueErrors
_DOMAIN_ERRORS = (ValueError,)


def _numerical_errors() -> tuple[type[Exception], ...]:
    """The numerical failures, imported only when an exception gets past the
    domain errors in main: a command that never loads the solvers does not
    load them to succeed or to report a domain error."""
    from .eigensolve import EigensolveError
    from .meanfield import MeanFieldIntegrationError

    return (EigensolveError, MeanFieldIntegrationError, FloatingPointError)


# about 500 times the largest grid in the README or the benchmark (201 points)
_MAX_GRID_POINTS = 100_000


def _parse_grid(spec: str) -> np.ndarray:
    import numpy as np

    try:
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise ValueError(f"grid must be start:stop:step, got {spec!r}") from None
    if step <= 0:
        raise ValueError(f"grid step must be > 0, got {step}")
    if start > stop:
        raise ValueError(f"grid start must be <= stop, got {spec!r}")
    span = (stop - start) / step + 1e-9
    if not span < _MAX_GRID_POINTS:  # also catches an infinite or NaN span
        raise ValueError(f"grid must have at most {_MAX_GRID_POINTS} points, got {spec!r}")
    return start + step * np.arange(int(math.floor(span)) + 1)


def _write_text(path: str | None, chunks: Iterable[str]) -> None:
    """Write the chunks in order to stdout, or atomically to `path` (a temp
    file in its directory, renamed at the end) so that a failure, also one
    raised while the chunks are produced, leaves no partial file."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sjj-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _echoable(resolved: dict) -> dict:
    # the output path does not affect the computed numbers and threads has
    # no effect: leaving them out keeps identical configurations
    # byte-identical across target files and thread counts
    return {k: v for k, v in resolved.items() if k not in ("output", "threads")}


def _comment(command: str, resolved: dict) -> str:
    payload = json.dumps({"command": command, **_echoable(resolved)}, sort_keys=True, default=str)
    return f"# sjj {__version__} {payload}"


# rows formatted at a time: a 5-column chunk's .tolist() lists and text take
# 1.5 MB (CSV) to 3.7 MB (JSON) whatever the row count, where the whole
# document set the peak RSS of the 10^5-row `meanfield` (77 MB, 36 MB
# chunked); a 10^5 x 5 CSV formats in 0.17 s at this size, 0.21-0.24 s at
# 2^10 or 2^14 rows or in one piece
_CHUNK_ROWS = 1 << 12


def _chunks(columns: Sequence[np.ndarray], render: Callable[[list[list]], str],
            sep: str) -> Iterator[str]:
    """render() of each chunk of rows, given as its columns' .tolist()
    slices; chunks after the first are preceded by `sep`."""
    rows = len(columns[0])
    for start in range(0, rows, _CHUNK_ROWS):
        chunk = [col[start : start + _CHUNK_ROWS].tolist() for col in columns]
        yield (sep if start else "") + render(chunk)


def _document(command: str, resolved: dict, payload: dict) -> dict:
    return {
        "tool": "sjj",
        "version": __version__,
        "command": command,
        "config": _echoable(resolved),
        **payload,
    }


def _emit_table(command: str, resolved: dict, names: list[str],
                columns: Sequence[np.ndarray]) -> None:
    """Write a table given as 1-D numpy columns, formatted a chunk of rows at
    a time.  A float column prints as %.12g (in JSON, the float that string
    reads back as), an integer column as %d."""
    floats = [col.dtype.kind == "f" for col in columns]
    if resolved["format"] == "csv":
        line = ",".join("%.12g" if f else "%d" for f in floats) + "\n"
        head, sep, tail = f"{_comment(command, resolved)}\n{','.join(names)}\n", "", ""

        def render(chunk: list[list]) -> str:
            return "".join([line % row for row in zip(*chunk)])
    else:
        whole = _document(command, resolved, {"columns": names, "rows": []})
        # only the key renders as '"rows": []': a quote inside a string is escaped
        head, _, tail = json.dumps(whole, sort_keys=True, default=str).partition('"rows": []')
        head, sep, tail = head + '"rows": [', ", ", "]" + tail + "\n"

        def render(chunk: list[list]) -> str:
            chunk = [[float("%.12g" % v) for v in col] if f else col
                     for col, f in zip(chunk, floats)]
            return json.dumps(list(zip(*chunk)))[1:-1]

    _write_text(resolved["output"], itertools.chain([head], _chunks(columns, render, sep), [tail]))


def _emit_object(command: str, resolved: dict, payload: dict) -> None:
    obj = _document(command, resolved, payload)
    _write_text(resolved["output"], [json.dumps(obj, sort_keys=True, default=str) + "\n"])


# ---------------------------------------------------------------- commands


def _cmd_spectrum(resolved: dict) -> None:
    import numpy as np

    from .eigensolve import eigenvalues
    from .model import ModelKind, TwoModeParams, build_hamiltonian

    kind = ModelKind(resolved["model"])
    n = int(resolved["n"])
    grid = _parse_grid(resolved["grid"])
    energies = [eigenvalues(build_hamiltonian(TwoModeParams(kind, n, float(c)))) for c in grid]
    _emit_table("spectrum", resolved, ["coupling", "k", "energy"], [
        np.repeat(grid, n + 1),
        np.tile(np.arange(n + 1), len(grid)),
        np.concatenate(energies),
    ])


def _cmd_ground(resolved: dict) -> None:
    import numpy as np

    from .eigensolve import ground
    from .model import ModelKind

    _, state = ground(ModelKind(resolved["model"]), int(resolved["n"]), float(resolved["coupling"]))
    _emit_table("ground", resolved, ["n", "prob", "amp"], [
        np.arange(state.n_total + 1),
        state.probabilities,
        state.amps.real,
    ])


def _cmd_hz(resolved: dict) -> None:
    import numpy as np

    from .eigensolve import ground
    from .model import ModelKind
    from .observables import hz_criterion, planar_squeezing, refine_minimum

    kind = ModelKind(resolved["model"])
    n = int(resolved["n"])
    grid = _parse_grid(resolved["grid"])

    # couplings are keyed at 1e-12 resolution so refinement levels cannot
    # produce near-duplicate rows that collide at the printed precision
    rows: dict[float, tuple] = {}

    def hz1_cached(coupling: float) -> float:
        c = round(coupling, 12)
        if c not in rows:
            _, state = ground(kind, n, c)
            sq = planar_squeezing(state)
            rows[c] = (c, hz_criterion(state, 1), hz_criterion(state, n),
                       sq.delta_parallel, sq.j_parallel)
        return rows[c][1]

    # checks refine_to and the grid, then scans it; an infinite floor refines nothing
    refine_minimum(hz1_cached, grid,
                   refine_to=float(resolved["refine_to"]) if resolved["refine"] else math.inf)

    _emit_table("hz", resolved, ["coupling", "hz1", "hzN", "delta_parallel", "j_parallel"],
                list(np.array([rows[c] for c in sorted(rows)]).T))


def _cmd_meanfield(resolved: dict) -> None:
    from .meanfield import MeanFieldState, integrate

    s0 = MeanFieldState(z=float(resolved["z0"]), theta=float(resolved["theta0"]))
    traj = integrate(
        s0,
        Lambda=float(resolved["coupling"]),
        tau_max=float(resolved["tau_max"]),
        dtau=float(resolved["dtau"]),
    )
    _emit_table("meanfield", resolved, ["tau", "z", "theta", "h", "drift"], [
        traj.times,
        traj.z,
        traj.theta,
        traj.energies,
        traj.energies - traj.energies[0],
    ])


# traced rows below this joint probability are not printed: at the README
# configuration (SJJ, N = 300, coupling 4) all of them together carry
# 5.7e-98, far below the 1e-12 to which the printed rows sum to 1
_ROW_FLOOR = 1e-100


def _cmd_losses(resolved: dict) -> None:
    import numpy as np

    from .eigensolve import ground
    from .losses import LossChannel, conditional_state, traced_mixture
    from .model import ModelKind

    la, lb = resolved["la"], resolved["lb"]
    if (la is None) != (lb is None):
        raise _UsageError("--la and --lb must be given together")
    _, state = ground(ModelKind(resolved["model"]), int(resolved["n"]), float(resolved["coupling"]))
    ch = LossChannel(eta_a=float(resolved["eta_a"]), eta_b=float(resolved["eta_b"]))

    if la is not None:
        branch = conditional_state(state, int(la), int(lb), ch)
        probs = branch.state.probabilities
        nonzero = np.flatnonzero(probs > 0.0)
        resolved = {**resolved, "branch_probability": float(branch.probability)}
        _emit_table("losses", resolved, ["n", "prob"],
                    [nonzero + int(lb), probs[nonzero]])
        return

    rows = traced_mixture(state, ch, p_min=float(resolved["p_min"]), row_min=_ROW_FLOOR)
    _emit_table("losses", resolved, ["la", "lb", "n", "prob"], rows)


def _cmd_hartree(resolved: dict) -> None:
    from .hartree import cat_overlap, exact_branch_energy, stationary_solutions
    from .overlap_fit import _LAMBDA_HI, _LAMBDA_LO

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
    if _LAMBDA_LO <= coupling <= _LAMBDA_HI:
        payload["exact_branch_energy"] = exact_branch_energy(coupling)
        if resolved.get("n") is not None:
            payload["cat_overlap"] = cat_overlap(coupling, int(resolved["n"]))
    _emit_object("hartree", resolved, payload)


def _cmd_crossover(resolved: dict) -> None:
    from .model import ModelKind
    from .observables import crossover_coupling

    kind = ModelKind(resolved["model"])
    value = crossover_coupling(
        kind,
        int(resolved["n"]),
        criterion=resolved["criterion"],
        tol=float(resolved["tol"]),
    )
    _emit_object("crossover", resolved, {"coupling_critical": value})


def _cmd_physical(resolved: dict) -> None:
    from .physical import (
        TrapParams,
        atomic_mass,
        coupling_Lambda,
        coupling_lambda,
        critical_atom_number,
        nonlinearity_u,
        wp_coefficient,
    )

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
    _emit_object("physical", resolved, payload)


# ------------------------------------------------------------ arg plumbing


class _Flag(NamedTuple):
    """One flag of one command.  A bool type declares a --name/--no-name pair;
    a required flag has no built-in default.  `positive` is for counts."""

    type: type = str
    default: object = None
    choices: tuple[str, ...] | None = None
    help: str | None = None
    required: bool = False
    positive: bool = False


class _Command(NamedTuple):
    run: Callable[[dict], None]
    help: str
    flags: dict[str, _Flag]


_MODEL = _Flag(choices=("sjj", "bjj"), required=True)
_N = _Flag(int, required=True)
_COUPLING = _Flag(float, required=True)
_GRID = _Flag(help=f"coupling grid start:stop:step (inclusive, at most {_MAX_GRID_POINTS} points)",
              required=True)
_FORMAT = _Flag(default="csv", choices=("csv", "json"))
_THREADS = _Flag(int, help="accepted for compatibility, no effect: sweeps run serially",
                 positive=True)
_OUTPUT = _Flag(help="output path (default: stdout)")

_SPEC = {
    "spectrum": _Command(_cmd_spectrum, "eigenvalues over a coupling grid", {
        "model": _MODEL, "n": _N, "grid": _GRID, "format": _FORMAT, "threads": _THREADS}),
    "ground": _Command(_cmd_ground, "ground-state distribution", {
        "model": _MODEL, "n": _N, "coupling": _COUPLING, "format": _FORMAT}),
    "hz": _Command(_cmd_hz, "entanglement witnesses over a grid", {
        "model": _MODEL, "n": _N, "grid": _GRID, "format": _FORMAT, "threads": _THREADS,
        "refine": _Flag(bool, True),
        "refine_to": _Flag(float, 1e-5, help="refinement step floor (default 1e-5)")}),
    "meanfield": _Command(_cmd_meanfield, "fixed-step mean-field trajectory", {
        "coupling": _COUPLING, "format": _FORMAT, "z0": _Flag(float, 0.0),
        "theta0": _Flag(float, 0.0), "tau_max": _Flag(float, 100.0), "dtau": _Flag(float, 1e-3)}),
    "losses": _Command(_cmd_losses, "beam-splitter loss branches", {
        "model": _MODEL, "n": _N, "coupling": _COUPLING, "format": _FORMAT,
        "la": _Flag(int, help="detected losses in channel a (with --lb)"),
        "lb": _Flag(int, help="detected losses in channel b (with --la)"),
        "eta_a": _Flag(float, 0.999), "eta_b": _Flag(float, 0.999),
        "p_min": _Flag(float, 0.0, help="truncate traced branches below this probability")}),
    "hartree": _Command(_cmd_hartree, "variational branches at one coupling", {
        "coupling": _COUPLING, "n": _Flag(int)}),
    "crossover": _Command(_cmd_crossover, "critical coupling by bisection", {
        "model": _MODEL, "n": _N, "tol": _Flag(float, 1e-7),
        "criterion": _Flag(str, "bimodal", ("bimodal", "edge", "hz_jump"))}),
    "physical": _Command(_cmd_physical, "laboratory-unit conversions", {
        "n": _N, "species": _Flag(str, "li7", ("li7", "rb87")),
        "mass": _Flag(float, help="particle mass in kg (overrides species)"),
        "a_perp": _Flag(float, help="transverse length in m (overrides mass-derived)"),
        "a_sc": _Flag(float, help="scattering length in m", required=True),
        "omega_x": _Flag(float, help="axial trap frequency, rad/s", required=True),
        "omega_perp": _Flag(float, help="radial trap frequency, rad/s", required=True),
        "kappa_hz": _Flag(float, help="|K|/2pi in Hz", required=True)}),
}


def _flags(command: str) -> dict[str, _Flag]:
    return {**_SPEC[command].flags, "output": _OUTPUT}


def _option(key: str) -> str:
    return "--" + key.replace("_", "-")


class _UsageError(Exception):
    """A bad command line or config file: exit 2 with the parser's usage line."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sjj",
        description="Two-mode soliton/bosonic Josephson junction calculations.",
    )
    parser.add_argument("--version", action="version", version=f"sjj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _SPEC.items():
        p = sub.add_parser(command, help=spec.help)
        for key, flag in _flags(command).items():
            names = [_option(key)] if key != "output" else ["-o", "--output"]
            if flag.type is bool:
                p.add_argument(*names, action=argparse.BooleanOptionalAction, help=flag.help)
            else:
                p.add_argument(*names, type=flag.type, choices=flag.choices, help=flag.help)
        p.add_argument("--config", help="JSON file with flag defaults")
    return parser


def _accepts(flag: _Flag, value) -> bool:
    """Whether `value` is one the flag admits: true/false for a switch, else a
    JSON value of the flag's type or a string that parses as one."""
    if flag.type is bool or isinstance(value, bool):
        return flag.type is bool and isinstance(value, bool)
    if isinstance(value, str):
        try:
            value = flag.type(value)
        except ValueError:
            return False
    if not isinstance(value, (int, float) if flag.type is float else flag.type):
        return False
    return (flag.choices is None or value in flag.choices) and not (flag.positive and value < 1)


def _expected(flag: _Flag) -> str:
    if flag.choices:
        return "one of " + ", ".join(flag.choices)
    if flag.positive:
        return "a positive integer"
    names = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}
    return names[flag.type]


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """Built-in defaults, overridden by the config file, overridden by flags;
    every value the file or a flag supplies is checked against its flag."""
    flags = _flags(command)
    resolved = {key: flag.default for key, flag in flags.items()}
    supplied = []
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise _UsageError(f"config file {args.config} must hold a JSON object")
        supplied += [(key, value, f"'{key}' in config file {args.config}")
                     for key, value in file_cfg.items() if key in flags and value is not None]
    supplied += [(key, getattr(args, key), _option(key))
                 for key in flags if getattr(args, key) is not None]
    for key, value, source in supplied:
        if not _accepts(flags[key], value):
            raise _UsageError(f"{source} must be {_expected(flags[key])}, got {value!r}")
        resolved[key] = value
    missing = [_option(k) for k, flag in flags.items() if flag.required and resolved[k] is None]
    if missing:
        raise _UsageError(f"missing required option(s): {', '.join(missing)}")
    if "grid" in resolved:
        try:
            _parse_grid(resolved["grid"])
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    return resolved


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        resolved = _resolve(command, args)
        _SPEC[command].run(resolved)
    except _UsageError as exc:
        parser.error(str(exc))
    except _DOMAIN_ERRORS as exc:
        print(f"sjj {command}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except _numerical_errors() as exc:
        print(f"sjj {command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
