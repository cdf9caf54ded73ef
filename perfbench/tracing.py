"""In-process span tracing of the sjj layers, installed from outside the package.

``Tracer.install`` wraps each public function named in ``TRACED`` and rebinds
every name in every loaded ``sjj`` module that refers to the original (for
example ``sjj.cli.ground_state``, ``sjj.observables.ground_state`` and the
``eigen_decompose`` that ``sjj.eigensolve.ground_state`` looks up), so calls
made inside the package are traced as well.  ``uninstall`` restores every
binding.  Each span records name, start, end, parent and thread; a
per-thread stack gives the parent, and a span opened on a thread-pool worker
with nothing open on that thread takes the innermost span open on the main
thread as its parent.  Spans stay in memory until the caller writes them.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass

TRACED = {
    "sjj.model": ["build_hamiltonian"],
    "sjj.eigensolve": ["eigen_decompose", "ground_state"],
    "sjj.observables": ["hz_criterion", "planar_squeezing", "spin_expectations",
                        "refine_minimum", "crossover_coupling"],
    "sjj.losses": ["loss_mixture", "conditional_state"],
    "sjj.meanfield": ["integrate"],
    "sjj.hartree": ["stationary_solutions", "exact_branch_energy", "cat_overlap"],
    "sjj.physical": ["atomic_mass", "nonlinearity_u", "coupling_lambda", "coupling_Lambda",
                     "wp_coefficient", "critical_atom_number"],
    "sjj.cli": ["main"],
}


def layer_names() -> list[str]:
    return [f"{mod.split('.')[1]}.{fn}" for mod, fns in TRACED.items() for fn in fns]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    cpu: float = 0.0  # CPU time of its own thread during the span
    work: int = 0


# work done by one call, read off its result so that results are not kept:
# span name -> (metric, count)
WORK = {
    "eigensolve.eigen_decompose": ("eigensolve.computed_bytes",
                                   lambda spec: spec.energies.nbytes + spec.vectors.nbytes),
    "observables.refine_minimum": ("observables.refine_minimum.evals", lambda res: len(res[2])),
    "losses.loss_mixture": ("losses.branches_out", len),
    "losses.conditional_state": ("losses.branches_out", lambda branch: 1),
    "meanfield.integrate": ("meanfield.steps", lambda traj: len(traj.times) - 1),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._bindings: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        spans, stack_of, main_stack, lock = self.spans, self._stack, self._main_stack, self._lock
        work = WORK.get(name, (None, None))[1]

        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                # a pool worker: the main thread is blocked inside its caller
                parent = main_stack[-1] if main_stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, threading.get_ident())
            cpu0 = time.thread_time()
            with lock:
                spans.append(span)
                stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    span.work = work(result)
                return result
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - cpu0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in TRACED]
        loaded = [m for name, m in sys.modules.items() if name == "sjj" or name.startswith("sjj.")]
        for module in modules:
            for fn_name in TRACED[module.__name__]:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{module.__name__[4:]}.{fn_name}", original)
                for target in loaded:
                    for attr, value in list(vars(target).items()):
                        if value is original:
                            self._bindings.append((target, attr, original))
                            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._bindings):
            setattr(target, attr, original)
        self._bindings.clear()

    def reset(self) -> None:
        self.spans.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "thread": s.thread}) + "\n")


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def layer_metrics(spans: list[Span], pool_threads: int) -> dict[str, float]:
    """Per-function calls, self and total time, and the derived layer counts.

    Self time is a span's duration minus the part of it covered by its
    children (on any thread).  ``cli.pool_util`` is the CPU time the pool
    worker threads spent inside traced calls over pool_threads times the span
    from the first worker span's start to the last one's end, summed over
    invocations; a worker waiting for the interpreter lock is not busy.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)

    out: dict[str, float] = {}
    for name in layer_names():
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.total_s"] = 0.0
    for i, s in enumerate(spans):
        kids = [(spans[k].start, spans[k].end) for k in children.get(i, [])]
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.total_s"] += s.end - s.start
        out[f"{s.name}.self_s"] += (s.end - s.start) - _union_length(kids, s.start, s.end)
    out["cli.self_s"] = out.pop("cli.main.self_s")

    for metric, _ in WORK.values():
        out[metric] = 0
    busy = capacity = 0.0
    for i, s in enumerate(spans):
        # branches written out: those loss_mixture returns, and single ones the CLI asks for
        nested = s.name == "losses.conditional_state" and spans[s.parent].name != "cli.main"
        if s.name in WORK and not nested:
            out[WORK[s.name][0]] += s.work
        if s.name == "cli.main":
            pool = [spans[k] for k in children.get(i, []) if spans[k].thread != s.thread]
            if pool:
                busy += sum(w.cpu for w in pool)
                capacity += pool_threads * (max(w.end for w in pool) - min(w.start for w in pool))
    out["cli.pool_util"] = busy / capacity if capacity else 0.0
    return out
