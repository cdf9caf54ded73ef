"""Benchmark of the sjj command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ground_sweep --seed 1 --seconds 25 --trace 0

With ``--trace 0`` one client runs the workload's ``python -m sjj.cli``
invocations one after another (a closed loop), pass after pass, until the
passes have taken ``--seconds``; every output is checked after its pass,
outside the timed region.  With ``--trace 1`` the same invocations run
in-process through ``sjj.cli.main``, alternating untraced and traced passes,
and the per-layer metrics come from the traced ones.  Human-readable lines
come first; the last line of standard output is the JSON result.  A record
of the run (inputs, environment, per-pass figures, output sha256) is written
under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# fixed before numpy is imported, here and in every child
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import tailref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 2  # set-up samples before each pass
CHILD_TIMEOUT_S = 120
COMMAND_TIMES = ("hz_s", "crossover_s", "ground_s", "spectrum_s", "losses_s", "meanfield_s")


class Failures:
    """Invocations attempted and failed (non-zero exit or a failed check)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def record(self, invocation: workloads.Invocation, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed.append(f"{invocation.command} {' '.join(invocation.args)}: {problem}")


def _sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check(invocation: workloads.Invocation, directory: str) -> str | None:
    try:
        return checks.CHECKS[invocation.command](os.path.join(directory, invocation.output))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _child_env(root: str) -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env.pop("SJJ_THREADS", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """Runs ``python <args>`` children through ``launcher.py``, one at a time."""

    def __init__(self, directory: str, env: dict[str, str]) -> None:
        self.directory, self.env = directory, env
        here = os.path.dirname(os.path.abspath(__file__))
        self._proc = subprocess.Popen([sys.executable, os.path.join(here, "launcher.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, args: list[str]) -> dict:
        """wall_s, cpu_s, maxrss_mb and exit code of one child; its stdout in "out"."""
        stdout = os.path.join(self.directory, "child.out")
        request = {"argv": [sys.executable, *args], "env": self.env, "stdout": stdout,
                   "stderr": os.path.join(self.directory, "child.err"),
                   "timeout": CHILD_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("child launcher ended unexpectedly")
        with open(stdout) as fh:
            return {**json.loads(reply), "out": fh.read()}

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=CHILD_TIMEOUT_S)


def _setup_time(launcher: Launcher, repeats: int) -> list[float]:
    """Wall times of ``python -m sjj.cli --version``."""
    times = []
    for _ in range(repeats):
        child = launcher.run(["-m", "sjj.cli", "--version"])
        if child["code"] != 0:
            raise RuntimeError("sjj.cli --version failed")
        times.append(child["wall_s"])
    return times


def _tail_error(probe: workloads.Invocation, directory: str) -> float:
    cfg, _, data = checks.read_csv(os.path.join(directory, probe.output))
    ref = tailref.ground_log10_probs(cfg["model"], int(cfg["n"]), float(cfg["coupling"]))
    return tailref.tail_error_dex(data[:, 1], ref)


def timed_run(invocations, probe, seconds, directory, launcher, failures, record) -> dict:
    _setup_time(launcher, 1)  # warm-up: byte-code and page caches
    setup = []
    passes = []
    measured = 0.0
    while measured < seconds or not passes:
        # set-up samples spread over the run, so one busy moment cannot set the median
        setup += _setup_time(launcher, SETUP_REPEATS)
        per_command = {name: 0.0 for name in COMMAND_TIMES}
        start = time.perf_counter()
        children = [launcher.run(["-m", "sjj.cli", *inv.argv(directory)]) for inv in invocations]
        pass_wall = time.perf_counter() - start
        measured += pass_wall
        for inv, child in zip(invocations, children):
            if f"{inv.command}_s" in per_command:
                per_command[f"{inv.command}_s"] += child["wall_s"]
            problem = f"exit code {child['code']}" if child["code"] != 0 else _check(inv, directory)
            failures.record(inv, problem)
        passes.append({"wall_s": pass_wall, "cpu_s": sum(c["cpu_s"] for c in children),
                       "peak_rss_mb": max(c["maxrss_mb"] for c in children), **per_command,
                       "sha256": [_sha256(os.path.join(directory, inv.output)) for inv in invocations]})

    child = launcher.run(["-m", "sjj.cli", *probe.argv(directory)])
    problem = f"exit code {child['code']}" if child["code"] != 0 else _check(probe, directory)
    failures.record(probe, problem)
    tail = _tail_error(probe, directory) if problem is None else float("nan")

    record["passes"] = passes
    record["setup_s"] = setup
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median([p["wall_s"] for p in passes]),
        "cpu_s": statistics.median([p["cpu_s"] for p in passes]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
        "tail_err_dex": tail,
    }
    detail = {name: statistics.median([p[name] for p in passes]) for name in COMMAND_TIMES}
    detail["fail_rate"] = len(failures.failed) / failures.attempted
    record["detail"] = detail
    return metrics


def _import_time(launcher: Launcher) -> float:
    code = "import time; t = time.perf_counter(); import sjj.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(3):
        child = launcher.run(["-c", code])
        if child["code"] != 0:
            raise RuntimeError("import sjj.cli failed")
        times.append(float(child["out"]))
    return statistics.median(times)


def _output_size(path: str) -> tuple[int, int]:
    """(data rows, bytes) of one output: CSV lines after the header, or 1 for JSON."""
    with open(path, "rb") as fh:
        body = fh.read()
    if path.endswith(".json"):
        return 1, len(body)
    return body.count(b"\n") - 2, len(body)


def _in_process(cli, invocation: workloads.Invocation, directory: str):
    try:
        return cli.main(invocation.argv(directory))
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code


def _in_process_pass(cli, invocations, directory, failures) -> tuple[float, float, int, int]:
    """Wall, process CPU, rows and bytes of one in-process pass."""
    cpu0 = time.process_time()
    start = time.perf_counter()
    codes = [_in_process(cli, inv, directory) for inv in invocations]
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    rows = size = 0
    for inv, code in zip(invocations, codes):
        problem = f"exit code {code}" if code != 0 else _check(inv, directory)
        failures.record(inv, problem)
        if problem is None:
            r, b = _output_size(os.path.join(directory, inv.output))
            rows, size = rows + r, size + b
    return wall, cpu, rows, size


def traced_run(invocations, probe, seconds, directory, launcher, failures, record,
               spans_path) -> dict:
    import_s = _import_time(launcher)
    sys.path.insert(0, launcher.env["PYTHONPATH"].split(os.pathsep)[0])
    import sjj.cli as cli

    tracer = tracing.Tracer()
    _in_process_pass(cli, invocations, directory, failures)  # warm-up: first calls, allocator
    untraced, traced, per_pass = [], [], []
    measured = 0.0
    while measured < seconds or not traced:
        # alternate which side goes first, so warm-up favours neither
        for with_spans in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if with_spans:
                tracer.reset()
                tracer.install()
                try:
                    wall, cpu, rows, size = _in_process_pass(cli, invocations, directory, failures)
                finally:
                    tracer.uninstall()
                metrics = tracing.layer_metrics(tracer.spans, workloads.THREADS)
                metrics.update({"cli.rows_out": rows, "cli.bytes_out": size, "proc.cpu_s": cpu})
                per_pass.append(metrics)
                traced.append(wall)
            else:
                wall, *_ = _in_process_pass(cli, invocations, directory, failures)
                untraced.append(wall)
            measured += wall
    tracer.write(spans_path)

    code = _in_process(cli, probe, directory)
    problem = f"exit code {code}" if code != 0 else _check(probe, directory)
    failures.record(probe, problem)

    metrics = {name: statistics.median([m[name] for m in per_pass]) for name in per_pass[0]}
    metrics["proc.import_s"] = import_s
    # each traced pass ran next to an untraced one: pairing cancels slow drifts of the machine
    metrics["trace.overhead_s"] = statistics.median([t - u for t, u in zip(traced, untraced)])
    record["passes"] = {"untraced_wall_s": untraced, "traced_wall_s": traced}
    return metrics


def _environment(root: str) -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    head = os.path.join(root, ".git", "HEAD")
    commit = None
    if os.path.isfile(head):
        with open(head) as fh:
            commit = fh.read().strip()
        path = os.path.join(root, ".git", *commit[5:].split("/"))
        if commit.startswith("ref: ") and os.path.isfile(path):
            with open(path) as fh:
                commit = fh.read().strip()
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_env": BLAS_ENV,
        "sjj_threads": workloads.THREADS,
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sjj", "cli.py")):
        print("perfbench: no sjj package under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    invocations, probe = workloads.build(args.workload, args.seed)
    env = _child_env(root)
    failures = Failures()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment(root),
              "invocations": [[inv.command, *inv.args] for inv in invocations],
              "tail_probe": [probe.command, *probe.args]}

    directory = tempfile.mkdtemp(prefix=f"{stem}-", dir=out_dir)
    launcher = Launcher(directory, env)
    try:
        if args.trace:
            metrics = traced_run(invocations, probe, args.seconds, directory, launcher, failures,
                                 record, os.path.join(out_dir, f"{stem}-spans.jsonl"))
        else:
            metrics = timed_run(invocations, probe, args.seconds, directory, launcher, failures,
                                record)
    finally:
        launcher.close()
        shutil.rmtree(directory, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    record.update(metrics=metrics, attempted=failures.attempted, failures=failures.failed)
    with open(os.path.join(out_dir, f"{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    for name, value in record.get("detail", {}).items():
        print(f"{name:40s} {value:>16.6g} {'ratio' if name == 'fail_rate' else 's'}")
    for problem in failures.failed:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not failures.failed,
        "attempted": failures.attempted,
        "failed": len(failures.failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
