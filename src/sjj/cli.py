"""Command-line front end: parameter sweeps, state tables, and conversions.

Subcommands
-----------
spectrum    all eigenvalues over a coupling grid (CSV: coupling,k,energy)
ground      ground-state distribution (CSV: n,prob,amp)
hz          entanglement witnesses over a grid, refined around the
            first-order minimum; each coupling solved once, at its printed
            value (CSV: coupling,hz1,hzN,delta_parallel,j_parallel)
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
explicit flags win over the config file, which wins over built-ins.  Every
flag is declared once, in _SPEC.  argparse hands flag values over as
strings; _resolve alone types and checks each value, so it echoes alike
from a flag or the file, and one it does not admit (type, choices; an
integer for a number flag must convert to a float) gets one usage error
naming the flag, or the key and the file, as does a config key that is no
flag of any command.  A --grid (start:stop:step, at most
100,000 points: _MAX_GRID_POINTS) is read once, before any solve; a bad one
is a usage error.  Sweeps evaluate their grid points in order on one
thread; spectrum and hz still parse a --threads N, unlisted in --help and
never read.  A negative number in e-notation takes the --flag=value form
(--z0=-5e-1): argparse reads a separate -5e-1 as an option, where it reads
-0.5 as a number.  The traced `losses` table leaves out
rows whose joint probability is below _ROW_FLOOR = 1e-100 (not a flag):
they carry 5.7e-98 together at the README configuration, and --p-min still
selects whole branches by their probability.  JSON payload keys are
documented in schemas/cli_output.schema.json.

Tables are formatted and written _CHUNK_ROWS rows at a time, to stdout or
to a temp file beside the -o target, so the writer's memory does not grow
with the row count.  Once the temp file is complete, an existing target is
removed and the temp file renamed into place: a failed run, also one that
fails mid-table, leaves no partial file and an existing target untouched.
The target briefly does not exist between the removal and the rename, so
the switch is not atomic; a rename onto an existing file would be, but on
ext4 it waits for the new data to be flushed (auto_da_alloc), 50-100 ms
per file.  Nothing calls fsync, so no write is crash-durable.  The bytes are
those of the whole document rendered at once.  spectrum hands its rows
over one grid point at a time, so it holds one grid point's N+1 levels at
once; hz, meanfield and losses still build their whole table before
writing it, bounded by _MAX_GRID_POINTS, meanfield's _MAX_STEPS and losses'
_MAX_TABLE.  The first grid point is solved before the header is written,
so an error there leaves the output empty; on stdout, a numerical failure
at a later grid point leaves the rows already printed (exit 4), while -o
still leaves no file.

The module imports the standard library only; each command imports the
sjj modules it calls, and numpy with them, when it runs.  So --version,
hartree and physical start without numpy (hartree reads its window from
sjj.overlap_fit), and only spectrum loads LAPACK, from scipy's compiled
scipy.linalg._flapack; nothing in sjj imports scipy.linalg.  A non-finite
input that the library rejects is a domain error like any other.  JSON
output (RFC 8259) never holds NaN or Infinity: a non-finite value to be
written, also one echoed from the configuration, is a domain error naming
its key.

Exit codes: 0 success, 2 usage error (the command's usage, then 'sjj
<command>: error: ...'), 3 domain error or a --la/--lb branch of probability
0, 4 numerical failure, 141 stdout closed by its reader (128 + SIGPIPE, as a
shell reports for coreutils; nothing is printed).  A traced losses table that
no branch reaches exits 0 with no row.  A UserWarning that a command raises
(SJJ at coupling 0) is printed once per distinct message as 'sjj <command>:
warning: <message>', without the source path and line a Python warning quotes,
so stderr does not depend on where sjj is installed.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import sys
import tempfile
import warnings
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import __version__

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NUMERICAL = 4
EXIT_BROKEN_PIPE = 141

# UndefinedCriterionError and ZeroProbabilityBranchError are ValueErrors
_DOMAIN_ERRORS = (ValueError,)


class _UsageError(ValueError):
    """A bad command line or config file: exit 2 with its command's usage line."""


def _numerical_errors() -> tuple[type[Exception], ...]:
    """The numerical failures, imported only when an exception gets past the
    domain errors in main: a command that never loads the solvers does not
    load them to succeed or to report a domain error."""
    from .eigensolve import EigensolveError
    from .meanfield import MeanFieldIntegrationError

    return (EigensolveError, MeanFieldIntegrationError)


# about 500 times the largest grid in the README or the benchmark (201 points)
_MAX_GRID_POINTS = 100_000


def _parse_grid(spec: str) -> np.ndarray:
    import numpy as np

    try:
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise _UsageError(f"grid must be start:stop:step, got {spec!r}") from None
    if not 0 < step < math.inf:  # an infinite step would make the points inf * 0
        raise _UsageError(f"grid step must be finite and > 0, got {step}")
    if start > stop:
        raise _UsageError(f"grid start must be <= stop, got {spec!r}")
    span = (stop - start) / step + 1e-9
    if not span < _MAX_GRID_POINTS:  # also catches an infinite or NaN span
        raise _UsageError(f"grid must have at most {_MAX_GRID_POINTS} points, got {spec!r}")
    grid = start + step * np.arange(int(math.floor(span)) + 1)
    if np.any(np.diff(grid) <= 0):  # a step below the float spacing of its points
        raise _UsageError(f"grid points must strictly increase, got {spec!r}")
    return grid


def _write_text(path: str | None, chunks: Iterable[str]) -> None:
    """Write the chunks in order to stdout, or to `path` through a temp file
    in its directory.  Only once the temp file is complete is an existing
    `path` removed and the temp file renamed into place, so a failure, also
    one raised while the chunks are produced, leaves no partial file and an
    existing `path` untouched.  Between the removal and the rename `path`
    does not exist: the switch is not atomic.  The rename never replaces a
    file, because ext4 (auto_da_alloc) flushes the new data before a rename
    onto an existing file returns, 50-100 ms per file.
    Nothing calls fsync, so the file is not crash-durable on any file
    system.  A path that cannot be written is a usage error.

    An unbuffered stdout (PYTHONUNBUFFERED, python -u) is a write-through
    text layer over the raw file, which drops what a short write leaves,
    as a pipe write does when its reader closes; its chunks are written
    to the raw file until every byte is taken, so a closed pipe still
    raises BrokenPipeError."""
    if path is None:
        raw = getattr(sys.stdout, "buffer", None)
        if not isinstance(raw, io.RawIOBase):  # buffered, or in memory
            sys.stdout.writelines(chunks)
            return
        sys.stdout.flush()
        for chunk in chunks:
            data = memoryview(chunk.encode(sys.stdout.encoding, sys.stdout.errors))
            while data:
                data = data[raw.write(data):]
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sjj-", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        try:  # a rename onto an existing file makes ext4 flush the new data first
            os.unlink(path)
        except FileNotFoundError:
            pass
        os.rename(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # a missing directory, a directory as target
            raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def _echoable(resolved: dict) -> dict:
    # the output path does not affect the computed numbers: leaving it out
    # keeps identical configurations byte-identical across target files
    return {k: v for k, v in resolved.items() if k != "output"}


def _non_finite_key(obj, key: str = "") -> str | None:
    """Dotted key of the first NaN or infinity in a JSON document, in sorted
    key order, or None."""
    if isinstance(obj, dict):
        children = [(f"{key}.{k}" if key else k, v) for k, v in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        children = [(key, v) for v in obj]
    else:
        return key if isinstance(obj, float) and not math.isfinite(obj) else None
    return next(filter(None, (_non_finite_key(v, k) for k, v in children)), None)


def _json(obj, keyed=None) -> str:
    """JSON text of `obj`.  JSON (RFC 8259) has no NaN or Infinity, so a
    non-finite float is a ValueError naming its key in `keyed` (default
    `obj`), the only ValueError json.dumps raises for these documents."""
    try:
        return json.dumps(obj, sort_keys=True, default=str, allow_nan=False)
    except ValueError:
        key = _non_finite_key(obj if keyed is None else keyed)
        raise ValueError(f"{key} must be finite: JSON holds no NaN or Infinity") from None


def _comment(command: str, resolved: dict) -> str:
    return f"# sjj {__version__} {_json({'command': command, **_echoable(resolved)})}"


# rows formatted at a time: a 5-column chunk's .tolist() lists and text take
# 1.5 MB (CSV) to 3.7 MB (JSON) whatever the row count, where the whole
# document set the peak RSS of the 10^5-row `meanfield` (77 MB, 36 MB
# chunked); a 10^5 x 5 CSV formats in 0.17 s at this size, 0.21-0.24 s at
# 2^10 or 2^14 rows or in one piece
_CHUNK_ROWS = 1 << 12


def _chunks(blocks: Iterable[Sequence[np.ndarray]], render: Callable[[list[list]], str],
            sep: str) -> Iterator[str]:
    """render() of each chunk of rows of each block, given as its columns'
    .tolist() slices; every chunk after the first is preceded by `sep`, and
    an empty block renders nothing."""
    lead = ""
    for columns in blocks:
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = [col[start : start + _CHUNK_ROWS].tolist() for col in columns]
            yield lead + render(chunk)
            lead = sep


def _document(command: str, resolved: dict, payload: dict) -> dict:
    return {
        "tool": "sjj",
        "version": __version__,
        "command": command,
        "config": _echoable(resolved),
        **payload,
    }


def _emit_table(command: str, resolved: dict, names: list[str],
                blocks: Iterable[Sequence[np.ndarray]]) -> None:
    """Write a table given as a non-empty iterable of row blocks, each a list
    of 1-D numpy columns, formatted a chunk of rows at a time.  The first
    block is made before anything is written, so an error in making it
    leaves the output empty.  Its dtypes set every block's format: a float
    column prints as %.12g (in JSON, the float that string reads back as),
    an integer column as %d."""
    blocks = iter(blocks)
    first = next(blocks)
    floats = [col.dtype.kind == "f" for col in first]
    if resolved["format"] == "csv":
        line = ",".join("%.12g" if f else "%d" for f in floats) + "\n"
        head, sep, tail = f"{_comment(command, resolved)}\n{','.join(names)}\n", "", ""

        def render(chunk: list[list]) -> str:
            return "".join([line % row for row in zip(*chunk)])
    else:
        whole = _document(command, resolved, {"columns": names, "rows": []})
        # only the key renders as '"rows": []': a quote inside a string is escaped
        head, _, tail = _json(whole).partition('"rows": []')
        head, sep, tail = head + '"rows": [', ", ", "]" + tail + "\n"

        def render(chunk: list[list]) -> str:
            chunk = [[float("%.12g" % v) for v in col] if f else col
                     for col, f in zip(chunk, floats)]
            return _json(list(zip(*chunk)), dict(zip(names, chunk)))[1:-1]

    rows = _chunks(itertools.chain([first], blocks), render, sep)
    _write_text(resolved["output"], itertools.chain([head], rows, [tail]))


def _emit_object(command: str, resolved: dict, payload: dict) -> None:
    obj = _document(command, resolved, payload)
    _write_text(resolved["output"], [_json(obj) + "\n"])


# ---------------------------------------------------------------- commands


def _cmd_spectrum(resolved: dict) -> None:
    import numpy as np

    from .eigensolve import eigenvalues
    from .model import ModelKind, build_hamiltonian

    grid = _parse_grid(resolved["grid"])
    kind = ModelKind(resolved["model"])
    n = resolved["n"]
    k = np.arange(n + 1)

    def blocks() -> Iterator[list[np.ndarray]]:
        for c in grid:  # solved first: a bad n is the model's domain error
            energies = eigenvalues(build_hamiltonian(kind, n, float(c)))
            yield [np.full(n + 1, c), k, energies]

    _emit_table("spectrum", resolved, ["coupling", "k", "energy"], blocks())


def _cmd_ground(resolved: dict) -> None:
    import numpy as np

    from .eigensolve import ground
    from .model import ModelKind

    _, state = ground(ModelKind(resolved["model"]), resolved["n"], resolved["coupling"])
    _emit_table("ground", resolved, ["n", "prob", "amp"], [[
        np.arange(state.n_total + 1),
        state.probabilities,
        state.amps.real,
    ]])


def _cmd_hz(resolved: dict) -> None:
    import numpy as np

    from .eigensolve import ground
    from .model import ModelKind
    from .observables import hz_criterion, planar_squeezing, refine_minimum

    grid = _parse_grid(resolved["grid"])
    kind = ModelKind(resolved["model"])
    n = resolved["n"]

    rows: dict[float, tuple] = {}

    def hz1(coupling: float) -> float:
        _, state = ground(kind, n, coupling)
        sq = planar_squeezing(state)
        rows[coupling] = (coupling, hz_criterion(state, 1), hz_criterion(state, n),
                          sq.delta_parallel, sq.j_parallel)
        return rows[coupling][1]

    # checks refine_to and the grid first; an infinite floor refines nothing
    refine_minimum(hz1, grid, refine_to=resolved["refine_to"] if resolved["refine"] else math.inf)

    _emit_table("hz", resolved, ["coupling", "hz1", "hzN", "delta_parallel", "j_parallel"],
                [list(np.array([rows[c] for c in sorted(rows)]).T)])


def _cmd_meanfield(resolved: dict) -> None:
    from .meanfield import MeanFieldState, integrate

    s0 = MeanFieldState(z=resolved["z0"], theta=resolved["theta0"])
    traj = integrate(s0, Lambda=resolved["coupling"], tau_max=resolved["tau_max"],
                     dtau=resolved["dtau"])
    _emit_table("meanfield", resolved, ["tau", "z", "theta", "h", "drift"], [[
        traj.times,
        traj.z,
        traj.theta,
        traj.energies,
        traj.energies - traj.energies[0],
    ]])


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
    _, state = ground(ModelKind(resolved["model"]), resolved["n"], resolved["coupling"])
    ch = LossChannel(eta_a=resolved["eta_a"], eta_b=resolved["eta_b"])

    if la is not None:
        branch = conditional_state(state, la, lb, ch)
        probs = branch.state.probabilities
        nonzero = np.flatnonzero(probs > 0.0)
        resolved = {**resolved, "branch_probability": float(branch.probability)}
        _emit_table("losses", resolved, ["n", "prob"],
                    [[nonzero + lb, probs[nonzero]]])
        return

    rows = traced_mixture(state, ch, p_min=resolved["p_min"], row_min=_ROW_FLOOR)
    _emit_table("losses", resolved, ["la", "lb", "n", "prob"], [rows])


def _cmd_hartree(resolved: dict) -> None:
    from .hartree import cat_overlap, exact_branch_energy, stationary_solutions
    from .overlap_fit import _LAMBDA_HI, _LAMBDA_LO

    coupling = resolved["coupling"]
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
        if resolved["n"] is not None:
            payload["cat_overlap"] = cat_overlap(coupling, resolved["n"])
    _emit_object("hartree", resolved, payload)


def _cmd_crossover(resolved: dict) -> None:
    from .model import ModelKind
    from .observables import crossover_coupling

    value = crossover_coupling(ModelKind(resolved["model"]), resolved["n"],
                               criterion=resolved["criterion"], tol=resolved["tol"])
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

    mass = resolved["mass"] if resolved["mass"] is not None else atomic_mass(resolved["species"])
    tp = TrapParams(
        a_sc=resolved["a_sc"],
        omega_x=resolved["omega_x"],
        omega_perp=resolved["omega_perp"],
        tunnel_rate=2.0 * math.pi * resolved["kappa_hz"],
        n_atoms=resolved["n"],
        mass=mass,
        a_perp=resolved["a_perp"],
    )
    u = nonlinearity_u(tp)
    lam = coupling_lambda(tp)
    Lam = coupling_Lambda(tp)
    wp = wp_coefficient(tp) if tp.nu > 0 else None
    n_critical = critical_atom_number(tp)
    payload = {
        "species": resolved["species"],
        "mass_kg": mass,
        "a_perp": tp.a_perp_eff,
        "nu": tp.nu,
        "kappa": tp.kappa,
        "u": u,
        "u_n": u * tp.n_atoms,
        "lambda": lam,
        "Lambda": Lam,
        "n_critical": n_critical,
        "u_n_critical": u * n_critical,
        "wp": wp,
        "wp_lambda_squared": wp * lam * lam if wp is not None else None,
    }
    _emit_object("physical", resolved, payload)


# ------------------------------------------------------------ arg plumbing


class _Flag(NamedTuple):
    """One flag of one command.  A bool type declares a --name/--no-name pair;
    a required flag has no built-in default."""

    type: type = str
    default: object = None
    choices: tuple[str, ...] | None = None
    help: str | None = None
    required: bool = False


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
_OUTPUT = _Flag(help="output path (default: stdout)")

_SPEC = {
    "spectrum": _Command(_cmd_spectrum, "eigenvalues over a coupling grid", {
        "model": _MODEL, "n": _N, "grid": _GRID, "format": _FORMAT}),
    "ground": _Command(_cmd_ground, "ground-state distribution", {
        "model": _MODEL, "n": _N, "coupling": _COUPLING, "format": _FORMAT}),
    "hz": _Command(_cmd_hz, "entanglement witnesses over a grid", {
        "model": _MODEL, "n": _N, "grid": _GRID, "format": _FORMAT,
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
            else:  # the string goes to _resolve, which types and checks every value
                metavar = "{" + ",".join(flag.choices) + "}" if flag.choices else None
                p.add_argument(*names, metavar=metavar, help=flag.help)
        if command in ("spectrum", "hz"):  # parse-only, for existing command lines
            p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON file with flag defaults")
        p.set_defaults(error=p.error)  # usage errors read like argparse's own for the command
    return parser


def _typed(flag: _Flag, value):
    """`value` converted to the flag's type, or ValueError if the flag does
    not admit it: true/false for a switch, else a JSON value of the flag's
    type (an integer for a number) or a string that parses as one."""
    admitted = (int, float) if flag.type is float else (flag.type,)
    if (flag.type is bool) != isinstance(value, bool) or not isinstance(value, (str, *admitted)):
        raise ValueError
    try:
        value = flag.type(value)
    except OverflowError:  # an integer beyond the float range is no number
        raise ValueError from None
    if flag.choices is not None and value not in flag.choices:
        raise ValueError
    return value


def _expected(flag: _Flag) -> str:
    if flag.choices:
        return "one of " + ", ".join(flag.choices)
    names = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}
    return names[flag.type]


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """Built-in defaults, overridden by the config file, overridden by flags;
    every value the file or a flag supplies is stored as its flag's type.  A
    file key that no command has a flag for is an error."""
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
        for key in file_cfg:
            if not any(key in _flags(other) for other in _SPEC):
                raise _UsageError(f"'{key}' in config file {args.config} is no flag of any command")
        supplied += [(key, value, f"'{key}' in config file {args.config}")
                     for key, value in file_cfg.items() if key in flags and value is not None]
    supplied += [(key, getattr(args, key), _option(key))
                 for key in flags if getattr(args, key) is not None]
    for key, value, source in supplied:
        try:
            resolved[key] = _typed(flags[key], value)
        except ValueError:
            raise _UsageError(f"{source} must be {_expected(flags[key])}, got {value!r}") from None
    missing = [_option(k) for k, flag in flags.items() if flag.required and resolved[k] is None]
    if missing:
        raise _UsageError(f"missing required option(s): {', '.join(missing)}")
    return resolved


def _warning_printer(command: str) -> Callable:
    """A warnings.showwarning that prints each distinct UserWarning message
    once as 'sjj <command>: warning: <message>' and passes any other
    category to the current one.  The warning filters still apply first."""
    show, seen = warnings.showwarning, set()

    def showwarning(message, category, filename, lineno, file=None, line=None):
        if not issubclass(category, UserWarning):
            show(message, category, filename, lineno, file, line)
        elif str(message) not in seen:
            seen.add(str(message))
            print(f"sjj {command}: warning: {message}", file=sys.stderr)

    return showwarning


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    try:
        resolved = _resolve(command, args)
        with warnings.catch_warnings():
            warnings.showwarning = _warning_printer(command)
            _SPEC[command].run(resolved)
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull so
        # the flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _UsageError as exc:
        args.error(str(exc))
    except _DOMAIN_ERRORS as exc:
        print(f"sjj {command}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except _numerical_errors() as exc:
        print(f"sjj {command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
