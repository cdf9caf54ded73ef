"""Workload definitions: the CLI invocations of one pass, made from a seed.

The seed varies values only (grid offsets, couplings, z0, trap frequency),
never sizes: N, grid lengths and step counts are fixed, so the work a pass
does is the same for every seed.  The ``losses`` invocations keep the README
coupling 4 for every seed, because the ground-state tails are currently
solver noise and the number of non-underflowing loss branches jumps with
any change of coupling (6655 at 3.99997, 6734 at 4.0).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

# sweeps pass an explicit pool size no larger than the machine's processors
THREADS = max(1, min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class Invocation:
    command: str  # sjj subcommand, which names its check
    args: tuple[str, ...]  # arguments after the subcommand, without -o
    output: str  # output file name

    def argv(self, directory: str) -> list[str]:
        return [self.command, *self.args, "-o", os.path.join(directory, self.output)]


def _f(x: float) -> str:
    return f"{x:.6f}"


def ground_sweep(rng: random.Random) -> list[Invocation]:
    g = rng.uniform(0.0, 0.001)
    c = 2.0009925 + rng.uniform(-1e-4, 1e-4)
    return [
        Invocation("hz", ("--model", "sjj", "--n", "300", "--grid",
                          f"{_f(1.9 + g)}:{_f(2.1 + g)}:0.001", "--threads", str(THREADS)), "hz.csv"),
        Invocation("crossover", ("--model", "sjj", "--n", "300"), "crossover_sjj.json"),
        Invocation("crossover", ("--model", "bjj", "--n", "1000"), "crossover_bjj.json"),
        Invocation("ground", ("--model", "sjj", "--n", "300", "--coupling", _f(c)), "ground_300.csv"),
        Invocation("ground", ("--model", "sjj", "--n", "3000", "--coupling", _f(c)), "ground_3000.csv"),
    ]


def spectrum_sweep(rng: random.Random) -> list[Invocation]:
    g1 = rng.uniform(0.0, 0.05)
    g2 = rng.uniform(0.0, 0.1)
    return [
        Invocation("spectrum", ("--model", "sjj", "--n", "300", "--grid",
                                f"{_f(g1)}:{_f(8 + g1)}:0.05", "--threads", str(THREADS)),
                   "spectrum_sjj.csv"),
        Invocation("spectrum", ("--model", "bjj", "--n", "1000", "--grid",
                                f"{_f(g2)}:{_f(2 + g2)}:0.1", "--threads", str(THREADS)),
                   "spectrum_bjj.csv"),
    ]


def bulk_output(rng: random.Random) -> list[Invocation]:
    z0 = 0.6 + rng.uniform(-0.05, 0.05)
    lam = 2.0 + rng.uniform(-0.1, 0.1)
    kappa_hz = 77.0 + rng.uniform(-1.0, 1.0)
    loss = ("--model", "sjj", "--n", "300", "--coupling", "4")
    return [
        Invocation("losses", loss, "losses_full.csv"),
        Invocation("losses", (*loss, "--p-min", "1e-6"), "losses_pmin.csv"),
        Invocation("losses", (*loss, "--la", "1", "--lb", "0"), "losses_branch.csv"),
        Invocation("meanfield", ("--coupling", "4", "--z0", _f(z0), "--theta0", "0",
                                 "--tau-max", "100", "--dtau", "1e-3"), "meanfield.csv"),
        Invocation("hartree", ("--coupling", _f(lam), "--n", "300"), "hartree.json"),
        Invocation("physical", ("--species", "li7", "--a-sc", "1.4e-9", "--omega-x", "439.8",
                                "--omega-perp", "4398.2", "--kappa-hz", _f(kappa_hz), "--n", "300",
                                "--a-perp", "1.4e-6"), "physical.json"),
    ]


WORKLOADS = {
    "ground_sweep": ground_sweep,
    "spectrum_sweep": spectrum_sweep,
    "bulk_output": bulk_output,
}


def build(workload: str, seed: int) -> tuple[list[Invocation], Invocation]:
    """The invocations of one pass, and the untimed tail-accuracy probe.

    The probe is an N = 300 SJJ ground state at weak coupling, where the
    exact tails fall to ~1e-137 and so show any solver noise; it runs once
    per benchmark run on every workload, outside the timed passes.
    """
    rng = random.Random(f"{workload}:{seed}")
    passes = WORKLOADS[workload](rng)
    probe_coupling = 0.5 + rng.uniform(-0.02, 0.02)
    probe = Invocation("ground", ("--model", "sjj", "--n", "300", "--coupling", _f(probe_coupling)),
                       "tail_probe.csv")
    return passes, probe
