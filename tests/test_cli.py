import contextlib
import io
import json
import math
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sjj import __version__, cli, eigensolve, ground_state, losses
from sjj.cli import _MAX_GRID_POINTS, _parse_grid, main
from test_readme_outputs import COMMANDS as README_COMMANDS


def run(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["-o", str(out)])
    return rc, out


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# sjj ")
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    data = np.array([[float(v) for v in row] for row in rows])
    return columns, data


def test_spectrum_deterministic_and_json(tmp_path):
    argv = ["spectrum", "--model", "bjj", "--n", "12", "--grid", "0:2:0.5"]
    rc1, f1 = run(tmp_path, "a.csv", argv)
    rc2, f2 = run(tmp_path, "b.csv", argv)
    assert rc1 == rc2 == 0
    assert f1.read_bytes() == f2.read_bytes()
    cols, data = read_csv(f1)
    assert cols == ["coupling", "k", "energy"]
    assert data.shape == (5 * 13, 3)
    # grid-major ordering, k ascending within each grid point
    assert np.all(np.diff(data[:13, 1]) == 1.0)

    rc3, f3 = run(tmp_path, "c.json", argv + ["--format", "json"])
    obj = json.loads(f3.read_text())
    assert obj["tool"] == "sjj" and obj["command"] == "spectrum"
    assert obj["columns"] == ["coupling", "k", "energy"]
    assert len(obj["rows"]) == 5 * 13


@pytest.mark.parametrize("command", ["spectrum", "hz"])
def test_spectrum_threads_identical(command, tmp_path, capsys):
    # --threads N is parsed for existing command lines, never read, and
    # unlisted in --help
    argv = [command, "--model", "sjj", "--n", "40", "--grid", "0:3:0.25"]
    _, f0 = run(tmp_path, "t0.csv", argv)
    for threads in ("2", "0", "-3"):
        _, f = run(tmp_path, "t.csv", argv + ["--threads", threads])
        assert f.read_bytes() == f0.read_bytes(), threads
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "--threads" not in capsys.readouterr().out


def test_spectrum_envelope(tmp_path):
    rc, f = run(tmp_path, "sweep.csv",
                ["spectrum", "--model", "sjj", "--n", "300", "--grid", "0:8:0.05"])
    assert rc == 0
    _, data = read_csv(f)
    assert data.shape == (161 * 301, 3)
    at4 = data[np.isclose(data[:, 0], 4.0)]
    assert at4[:, 2].min() < -1.0  # spectrum floor below the balanced branch


def test_ground_distributions(tmp_path):
    _, f = run(tmp_path, "g2.csv",
               ["ground", "--model", "sjj", "--n", "300", "--coupling", "2"])
    _, data = read_csv(f)
    assert data.shape == (301, 3)
    assert int(data[np.argmax(data[:, 1]), 0]) == 150

    _, f = run(tmp_path, "g4.csv",
               ["ground", "--model", "sjj", "--n", "300", "--coupling", "4"])
    _, data = read_csv(f)
    assert 0.45 <= data[0, 1] <= 0.5 and 0.45 <= data[-1, 1] <= 0.5

    _, f = run(tmp_path, "gb.csv",
               ["ground", "--model", "bjj", "--n", "300", "--coupling", "4"])
    _, data = read_csv(f)
    peak = int(np.argmax(data[:, 1]))
    assert peak not in (0, 300)  # interior two-peak structure, not edge-pinned
    assert data[peak, 1] > data[0, 1]


def test_hz_refinement(tmp_path):
    rc, f = run(tmp_path, "hz.csv",
                ["hz", "--model", "sjj", "--n", "50", "--grid", "1.9:2.1:0.05"])
    assert rc == 0
    cols, data = read_csv(f)
    assert cols == ["coupling", "hz1", "hzN", "delta_parallel", "j_parallel"]
    assert data.shape[0] > 5  # refinement added rows beyond the coarse grid
    assert np.all(np.diff(data[:, 0]) > 0.0)
    rc, f2 = run(tmp_path, "hz2.csv",
                 ["hz", "--model", "sjj", "--n", "50", "--grid", "1.9:2.1:0.05",
                  "--no-refine"])
    _, coarse = read_csv(f2)
    assert coarse.shape[0] == 5
    assert data[:, 1].min() <= coarse[:, 1].min()


def test_hz_refinement_to_zero_prints_each_coupling_once(tmp_path):
    # the refinement keys each coupling at the printed resolution, so the
    # levels below it add no row that prints as an earlier one
    rc, f = run(tmp_path, "hz.csv", ["hz", "--model", "sjj", "--n", "10", "--grid",
                                     "1.9:2.1:0.01", "--refine-to", "0"])
    assert rc == 0
    _, data = read_csv(f)
    assert np.all(np.diff(data[:, 0]) > 0.0)


def test_meanfield_fixed_point(tmp_path):
    z0 = repr(math.sqrt(0.5))
    rc, f = run(tmp_path, "mf.csv",
                ["meanfield", "--coupling", "2", "--z0", z0, "--theta0", "0",
                 "--tau-max", "1.0", "--dtau", "0.001"])
    assert rc == 0
    cols, data = read_csv(f)
    assert cols == ["tau", "z", "theta", "h", "drift"]
    assert data.shape == (1001, 5)
    assert np.max(np.abs(data[:, 1] - math.sqrt(0.5))) <= 1e-8
    assert np.max(np.abs(data[:, 4])) <= 1e-10


def test_meanfield_negative_e_notation_as_flag_equals_value(tmp_path):
    # argparse reads a separate -5e-1 as an option; --z0=-5e-1 is the number
    argv = ["meanfield", "--coupling", "4", "--tau-max", "1"]
    _, spaced = run(tmp_path, "spaced.csv", [*argv, "--z0", "-0.5"])
    _, joined = run(tmp_path, "joined.csv", [*argv, "--z0=-5e-1"])
    assert joined.read_bytes() == spaced.read_bytes()


def test_meanfield_single_row(tmp_path):
    _, f = run(tmp_path, "mf0.csv",
               ["meanfield", "--coupling", "3", "--z0", "0.2", "--tau-max", "0"])
    _, data = read_csv(f)
    assert data.shape == (1, 5)


def test_losses_traced_complete(tmp_path):
    rc, f = run(tmp_path, "mix.csv",
                ["losses", "--model", "sjj", "--n", "40", "--coupling", "4"])
    assert rc == 0
    cols, data = read_csv(f)
    assert cols == ["la", "lb", "n", "prob"]
    assert abs(math.fsum(data[:, 3]) - 1.0) <= 1e-12


def test_losses_single_branch(tmp_path):
    rc, f = run(tmp_path, "b10.csv",
                ["losses", "--model", "sjj", "--n", "300", "--coupling", "4",
                 "--la", "1", "--lb", "0"])
    assert rc == 0
    cols, data = read_csv(f)
    assert cols == ["n", "prob"]
    assert int(data[np.argmax(data[:, 1]), 0]) == 0
    meta = json.loads(f.read_text().splitlines()[0].split(" ", 3)[3])
    assert 0.0 < meta["branch_probability"] < 1.0


def test_losses_unbalanced_branch_ratio(tmp_path):
    rc, f = run(tmp_path, "b11.csv",
                ["losses", "--model", "sjj", "--n", "300", "--coupling", "4",
                 "--la", "1", "--lb", "1", "--eta-a", "0.999", "--eta-b", "0.998"])
    assert rc == 0
    _, data = read_csv(f)
    assert int(data[0, 0]) == 1 and int(data[-1, 0]) == 299
    expect = (0.999 / 0.998) ** 298
    assert abs(data[0, 1] / data[-1, 1] - expect) <= 1e-9 * expect


def test_losses_readme_mixture_mirror_pairs_identical(tmp_path):
    # SJJ ground state (mirror symmetric) at eta_a = eta_b: row (la, lb, n)
    # and its mirror (lb, la, N - n) are equal in exact arithmetic, and the
    # printed rows are equal byte for byte
    rc, f = run(tmp_path, "full.csv", ["losses", "--model", "sjj", "--n", "300", "--coupling", "4"])
    assert rc == 0
    rows = [line.split(",") for line in f.read_text().splitlines()[2:]]
    printed = {(int(a), int(b), int(n)): p for a, b, n, p in rows}
    assert len(printed) == len(rows) > 40_000
    differing = [key for key, p in printed.items()
                 if printed.get((key[1], key[0], 300 - key[2])) != p]
    assert differing == []
    probs = [float(p) for *_, p in rows]
    assert min(probs) >= 1e-100
    # complete within 1e-12, plus the rounding of each row to 12 significant digits
    assert abs(math.fsum(probs) - 1.0) <= 1e-12 + 5e-12


def test_losses_branch_floor_changes_no_byte(tmp_path, monkeypatch):
    # the scan skips the branches that cannot reach the printed floor; a
    # scan that evaluates every branch writes the same bytes
    readme = ["losses", "--model", "sjj", "--n", "300", "--coupling", "4"]
    commands = [readme, [*readme, "--p-min", "1e-6"], [*readme, "--la", "1", "--lb", "0"],
                [*readme, "--format", "json"],
                ["losses", "--model", "bjj", "--n", "150", "--coupling", "2",
                 "--eta-a", "0.8", "--eta-b", "0.9", "--p-min", "1e-9"]]
    skipping = [run(tmp_path, f"skip{i}", argv) for i, argv in enumerate(commands)]
    # every loss count tabulated, as with no floor
    monkeypatch.setattr(losses, "_reach", lambda n_total, eta, floor: n_total + 1)
    for i, argv in enumerate(commands):
        rc, f = run(tmp_path, f"all{i}", argv)
        assert rc == skipping[i][0] == 0
        assert f.read_bytes() == skipping[i][1].read_bytes(), argv


@pytest.mark.parametrize("model", ["sjj", "bjj"])
@pytest.mark.parametrize("n_total", [1, 2, 3])
def test_losses_few_particles(model, n_total, tmp_path):
    base = ["losses", "--model", model, "--n", str(n_total), "--coupling", "4",
            "--eta-a", "0.9", "--eta-b", "0.8"]
    rc, f = run(tmp_path, "mix.csv", base)
    assert rc == 0
    _, data = read_csv(f)
    assert abs(math.fsum(data[:, 3]) - 1.0) <= 1e-12
    assert np.all(data[:, 3] > 0.0)
    assert np.all(data[:, 0] + data[:, 1] <= n_total)
    rc, f = run(tmp_path, "branch.csv", base + ["--la", "1", "--lb", "0"])
    assert rc == 0
    _, data = read_csv(f)
    assert abs(math.fsum(data[:, 1]) - 1.0) <= 1e-12
    assert np.all((0 <= data[:, 0]) & (data[:, 0] <= n_total - 1))


def test_losses_unit_transmission_keeps_only_no_loss_rows(tmp_path):
    rc, f = run(tmp_path, "mix.csv", ["losses", "--model", "sjj", "--n", "20", "--coupling", "4",
                                      "--eta-a", "1", "--eta-b", "1"])
    assert rc == 0
    _, data = read_csv(f)
    assert np.all(data[:, :2] == 0.0)
    assert np.array_equal(data[:, 2], np.arange(21))


@pytest.mark.parametrize("counts", [("2", "2"), ("4", "0"), ("-1", "0"), ("0", "-2")])
def test_losses_impossible_counts_exit3(counts, tmp_path, capsys):
    out = tmp_path / "bad.csv"
    rc = main(["losses", "--model", "sjj", "--n", "3", "--coupling", "4",
               "--la", counts[0], "--lb", counts[1], "-o", str(out)])
    assert rc == 3
    assert "sjj losses:" in capsys.readouterr().err
    assert not out.exists()


def test_losses_nan_p_min_exit3(tmp_path, capsys):
    out = tmp_path / "nan.csv"
    rc = main(["losses", "--model", "sjj", "--n", "10", "--coupling", "2", "--p-min", "nan",
               "-o", str(out)])
    assert rc == 3
    assert "sjj losses: p_min must be >= 0, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_meanfield_numerical_failure_exit4(tmp_path):
    out = tmp_path / "blow.csv"
    rc = main(["meanfield", "--coupling", "0", "--z0", "0.97",
               "--theta0", "1.5707963", "--tau-max", "400", "--dtau", "2.0",
               "-o", str(out)])
    assert rc == 4
    assert not out.exists()


def test_spectrum_solver_failure_exit4(tmp_path, monkeypatch, capsys):
    sterf, calls = eigensolve._lapack().dsterf, []

    def fail(diag, offdiag):
        calls.append(None)
        if len(calls) == failing_call:
            return np.zeros(len(diag)), 1  # LAPACK's info > 0: no convergence
        return sterf(diag, offdiag)

    monkeypatch.setattr(eigensolve._lapack(), "dsterf", fail)
    argv = ["spectrum", "--model", "sjj", "--n", "10", "--grid", "1:2:0.5"]
    out = tmp_path / "fail.csv"
    # each grid point solves its even and its odd block: the first call
    # fails the first grid point, the fourth the second one, mid-sweep
    for failing_call in (1, 4):
        calls.clear()
        assert main(argv + ["-o", str(out)]) == 4
        assert "numerical failure: LAPACK dsterf failed with info = 1" in capsys.readouterr().err
        assert not out.exists()
        # on stdout the grid points solved before the failure stay printed
        calls.clear()
        assert main(argv) == 4
        lines = capsys.readouterr().out.splitlines()
        solved = (failing_call - 1) // 2
        assert len(lines) == (2 + 11 * solved if solved else 0)
        assert all(line.startswith("1,") for line in lines[2:])


def test_spectrum_domain_error_prints_nothing(capsys):
    # the first grid point is solved before the header is printed
    assert main(["spectrum", "--model", "sjj", "--n", "0", "--grid", "0:1:0.5"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("sjj spectrum: ")


@pytest.mark.parametrize("command", ["meanfield", "hartree"])
def test_negative_coupling_is_domain_error(command, capsys):
    # meanfield used to print a trajectory at Lambda = -1 where hartree exited 3
    assert main([command, "--coupling", "-1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"sjj {command}: Lambda must be finite and >= 0, got -1.0"]


def test_losses_zero_probability_exit3(tmp_path, capsys):
    # the empty results: a single branch of probability 0 exits 3 ...
    out = tmp_path / "z.csv"
    rc = main(["losses", "--model", "sjj", "--n", "20", "--coupling", "4",
               "--la", "1", "--lb", "0", "--eta-a", "1.0", "--eta-b", "1.0",
               "-o", str(out)])
    assert rc == 3
    assert "has zero probability" in capsys.readouterr().err
    assert not out.exists()  # no partial output on failure
    # ... while a traced table that no branch reaches exits 0 with no row
    rc, f = run(tmp_path, "none.csv", ["losses", "--model", "sjj", "--n", "10",
                                       "--coupling", "2", "--p-min", "2"])
    assert rc == 0
    comment, header = f.read_text().splitlines()
    assert comment.startswith("# sjj ") and header == "la,lb,n,prob"


def test_hartree_json(tmp_path):
    rc, f = run(tmp_path, "h.json", ["hartree", "--coupling", "2", "--n", "300"])
    assert rc == 0
    obj = json.loads(f.read_text())
    by_branch = {b["branch"]: b for b in obj["branches"]}
    assert abs(by_branch["S+"]["s"] - 0.707107) <= 1e-6
    assert abs(by_branch["S-"]["s"] + 0.707107) <= 1e-6
    assert obj["exact_branch_energy"] == pytest.approx(-0.9475, abs=1e-12)
    assert obj["cat_overlap"] == pytest.approx(2.0**-150, rel=1e-9)


def test_crossover_json(tmp_path):
    rc, f = run(tmp_path, "c.json", ["crossover", "--model", "sjj", "--n", "50"])
    assert rc == 0
    obj = json.loads(f.read_text())
    assert 1.9 <= obj["coupling_critical"] <= 2.1


def test_physical_json(tmp_path):
    rc, f = run(tmp_path, "p.json",
                ["physical", "--species", "li7", "--a-sc", "1.4e-9",
                 "--omega-x", "439.8", "--omega-perp", "4398.2",
                 "--kappa-hz", "77", "--n", "300", "--a-perp", "1.4e-6"])
    assert rc == 0
    obj = json.loads(f.read_text())
    assert abs(obj["Lambda"] - 2.019) <= 0.01
    assert abs(obj["u_n"] - 1.885) <= 0.01
    assert abs(obj["wp_lambda_squared"] - obj["Lambda"]) <= 1e-12


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--model", "sjj", "--n", "4", "--grid", "5:1:0.1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--model", "nope", "--n", "4", "--grid", "0:1:0.1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["ground", "--model", "sjj"])  # missing required options
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["crossover", "--model", "sjj", "--n", "50", "--criterion", "bogus"])
    assert exc.value.code == 2
    # an infinite step gave the one point 0 + inf * 0 = nan
    for grid in ("1:2", "0:1:0", "0:0:inf"):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--model", "sjj", "--n", "4", "--grid", grid])
        assert exc.value.code == 2


def test_grid_point_bound():
    assert len(_parse_grid(f"0:{_MAX_GRID_POINTS - 1}:1")) == _MAX_GRID_POINTS
    for spec in (f"0:{_MAX_GRID_POINTS}:1", "0:1:1e-9", "0:1:1e-300", "0:inf:1", "nan:1:1"):
        with pytest.raises(ValueError, match="at most"):
            _parse_grid(spec)


def test_oversized_grid_is_usage_error(capsys):
    # rejected from the point count, before the grid is allocated
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--model", "sjj", "--n", "4", "--grid", "0:1:1e-9"])
    assert exc.value.code == 2
    assert f"at most {_MAX_GRID_POINTS} points" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "hz"])
def test_grid_points_that_do_not_increase_are_usage_error(command, capsys):
    # a step of 1 is below the float spacing 2 at 1e16: the points repeat,
    # spectrum printed two coupling blocks twice and hz exited 3
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", "sjj", "--n", "4", "--grid", "1e16:1.0000000000000004e16:1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "grid points must strictly increase" in err


def test_hz_refinement_stays_in_the_double_range(tmp_path):
    # the first bracket around either point is 2e308 wide: the refinement
    # used to warn from numpy and then solve at coupling inf (exit 3)
    done = subprocess.run(
        [sys.executable, "-m", "sjj.cli", "hz", "--model", "bjj", "--n", "3",
         "--grid", "0:1.5e308:1e308"],
        capture_output=True, text=True, env=_child_env(), timeout=300,
    )
    assert (done.returncode, done.stderr) == (0, "")
    rows = done.stdout.splitlines()[2:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, 1e308]


@pytest.mark.parametrize("args", [
    ["crossover", "--model", "sjj", "--n", "4", "--tol", "-1"],
    ["hz", "--model", "sjj", "--n", "4", "--grid", "0.5:1:0.5", "--refine-to", "-1"],
])
def test_negative_tolerance_is_domain_error(args, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*args, "-o", str(out)]) == 3
    assert "must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("refine_to", ["-1", "nan"])
def test_hz_bad_refine_to_rejected_before_any_solve(refine_to, tmp_path, monkeypatch, capsys):
    calls = []

    def counting(h):
        calls.append(h)
        return ground_state(h)

    # the handler imports ground_state from sjj.eigensolve when it runs
    monkeypatch.setattr(eigensolve, "ground_state", counting)
    out = tmp_path / "hz.csv"
    argv = ["hz", "--model", "sjj", "--n", "300", "--grid", "1.9:2.1:0.001",
            "--refine-to", refine_to, "-o", str(out)]
    assert main(argv) == 3
    assert "refine_to must be >= 0" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_hz_negative_grid_rejected_before_any_solve(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(eigensolve, "ground_state", lambda h: calls.append(h) or ground_state(h))
    out = tmp_path / "hz.csv"
    assert main(["hz", "--model", "sjj", "--n", "4", "--grid=-0.5:0.5:0.5", "-o", str(out)]) == 3
    assert "grid must be >= 0" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_hz_order_n_where_probabilities_underflow(tmp_path):
    # |A_0|^2 underflows to 0 at N = 800; the order-N witness stays defined
    rc, f = run(tmp_path, "hz.csv", ["hz", "--model", "sjj", "--n", "800", "--grid",
                                     "0.5:0.6:0.1", "--no-refine"])
    assert rc == 0
    _, data = read_csv(f)
    assert np.array_equal(data[:, 2], [1.0, 1.0])


_NO_SCIPY_SCRIPT = """
import sys
from sjj.cli import main
commands = [
    ["ground", "--model", "sjj", "--n", "40", "--coupling", "2"],
    ["ground", "--model", "sjj", "--n", "1", "--coupling", "4"],
    ["losses", "--model", "sjj", "--n", "1", "--coupling", "4"],
    ["hz", "--model", "sjj", "--n", "40", "--grid", "1.9:2.1:0.1"],
    ["crossover", "--model", "bjj", "--n", "40"],
    ["meanfield", "--coupling", "4", "--z0", "0.6", "--tau-max", "1"],
    ["losses", "--model", "sjj", "--n", "10", "--coupling", "2"],
    ["losses", "--model", "sjj", "--n", "10", "--coupling", "2", "--p-min", "1e-3"],
    ["losses", "--model", "sjj", "--n", "10", "--coupling", "2", "--la", "1", "--lb", "0"],
    ["hartree", "--coupling", "2", "--n", "40"],
    ["physical", "--species", "li7", "--a-sc", "1.4e-9", "--omega-x", "439.8",
     "--omega-perp", "4398.2", "--kappa-hz", "77", "--n", "300", "--a-perp", "1.4e-6"],
]
try:
    main(["--version"])
except SystemExit as exc:
    assert exc.code == 0
for argv in commands:
    assert main(argv + ["-o", sys.argv[1]]) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
assert main(["spectrum", "--model", "sjj", "--n", "10", "--grid", "1:2:0.5", "-o", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
from sjj import eigensolve
import scipy.linalg
print(scipy.linalg.lapack.dsterf is eigensolve._lapack().dsterf)
"""


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this sjj."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}


def _printed_lines(script: str, tmp_path) -> list[str]:
    """The lines a script prints, run in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out")],
        capture_output=True, text=True, env=_child_env(), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_ground_commands_never_import_scipy(tmp_path):
    # spectrum loads LAPACK from its extension alone, not scipy.linalg (and
    # with it scipy._lib), and a later import of scipy.linalg shares it
    assert _printed_lines(_NO_SCIPY_SCRIPT, tmp_path) == [
        f"sjj {__version__}", "[]", "['scipy.linalg._flapack']", "True"]


_NO_NUMPY_SCRIPT = """
import sys
from sjj.cli import main
physical = ["physical", "--a-sc", "1.4e-9", "--omega-x", "439.8", "--omega-perp", "4398.2",
            "--kappa-hz", "77"]
commands = [
    (["hartree", "--coupling", "2", "--n", "300"], 0),
    (["hartree", "--coupling", "3"], 0),
    (["hartree", "--coupling", "1", "--n", "300"], 0),
    ([*physical, "--species", "li7", "--n", "300", "--a-perp", "1.4e-6"], 0),
    ([*physical, "--species", "li7", "--n", "300"], 0),
    ([*physical, "--species", "rb87", "--n", "300", "--a-perp", "1.4e-6"], 0),
    ([*physical, "--species", "rb87", "--n", "300"], 0),
    (["hartree", "--coupling", "-1"], 3),
    ([*physical, "--n", "0"], 3),
    # mass * omega_perp, kappa = tunnel_rate / omega_perp and nu = omega_x /
    # omega_perp underflow to 0
    (["physical", "--a-sc", "1.4e-9", "--omega-x", "439.8", "--omega-perp", "1e-300",
      "--kappa-hz", "77", "--n", "300"], 3),
    (["physical", "--a-sc", "1.4e-9", "--omega-x", "439.8", "--omega-perp", "4398.2",
      "--kappa-hz", "5e-324", "--n", "300"], 3),
    (["physical", "--a-sc", "1.4e-9", "--omega-x", "5e-324", "--omega-perp", "4398.2",
      "--kappa-hz", "77", "--n", "300", "--a-perp", "1.4e-6"], 3),
    # hbar / (mass * omega_perp) underflows to 0
    (["physical", "--a-sc", "1.4e-9", "--omega-x", "439.8", "--omega-perp", "1e100",
      "--kappa-hz", "77", "--n", "300", "--mass", "1e200"], 3),
]
try:
    main(["--version"])
except SystemExit as exc:
    assert exc.code == 0
for argv, code in commands:
    assert main(argv + ["-o", sys.argv[1]]) == code, argv
print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")))
assert main(["ground", "--model", "sjj", "--n", "10", "--coupling", "2", "-o", sys.argv[1]]) == 0
print("numpy" in sys.modules)
"""


def test_scalar_commands_never_import_numpy(tmp_path):
    assert _printed_lines(_NO_NUMPY_SCRIPT, tmp_path) == [f"sjj {__version__}", "[]", "True"]


def test_warning_stderr_independent_of_install_path(tmp_path):
    # the SJJ coupling-0 warning names no source path or line
    stderr = []
    for copy in ("a", "a-much-longer-directory-name"):
        shutil.copytree(Path(cli.__file__).parent, tmp_path / copy / "sjj",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "-m", "sjj.cli", "spectrum", "--model", "sjj", "--n", "4",
             "--grid", "0:1:0.5", "-o", str(tmp_path / f"{copy}.csv")],
            capture_output=True, cwd=tmp_path, timeout=300,
            env={**os.environ, "PYTHONPATH": str(tmp_path / copy)},
        )
        assert done.returncode == 0, done.stderr
        stderr.append(done.stderr)
    assert stderr[0] == stderr[1] == (
        b"sjj spectrum: warning: SJJ with coupling 0 is a formal limit: "
        b"bright solitons require nonzero nonlinearity\n")


def test_user_warnings_printed_once_other_warnings_untouched(tmp_path, monkeypatch, capsys):
    solve = eigensolve.eigenvalues

    def warn_and_solve(h):
        warnings.warn("the same note", UserWarning)
        return solve(h)

    monkeypatch.setattr(eigensolve, "eigenvalues", warn_and_solve)
    argv = ["spectrum", "--model", "bjj", "--n", "4", "--grid", "0:1:0.5",
            "-o", str(tmp_path / "s.csv")]
    assert main(argv) == 0
    assert capsys.readouterr().err == "sjj spectrum: warning: the same note\n"

    def future_and_solve(h):
        warnings.warn("a later change", FutureWarning)
        return solve(h)

    # any other category reaches the showwarning that was in place
    monkeypatch.setattr(eigensolve, "eigenvalues", future_and_solve)
    with pytest.warns(FutureWarning, match="a later change"):
        assert main(argv) == 0
    assert "sjj spectrum: warning" not in capsys.readouterr().err

    def overflow_and_solve(h):
        np.exp(np.float64(1e3))
        return solve(h)

    # the suite turns RuntimeWarning into an error, inside main too
    monkeypatch.setattr(eigensolve, "eigenvalues", overflow_and_solve)
    with pytest.raises(RuntimeWarning):
        main(argv)


@pytest.mark.parametrize("args", [
    ["meanfield", "--coupling", "4", "--tau-max", "inf"],
    ["meanfield", "--coupling", "4", "--dtau", "inf"],
    ["meanfield", "--coupling", "inf", "--z0", "0.5"],
    ["meanfield", "--coupling", "4", "--theta0", "nan"],
    ["hartree", "--coupling", "nan"],
    ["hartree", "--coupling", "inf"],
    ["physical", "--a-sc", "1.4e-9", "--omega-x", "nan", "--omega-perp", "4398.2",
     "--kappa-hz", "77", "--n", "300"],
    ["ground", "--model", "sjj", "--n", "10", "--coupling", "inf"],
    ["ground", "--model", "bjj", "--n", "10", "--coupling", "nan"],
    ["losses", "--model", "sjj", "--n", "10", "--coupling", "inf"],
    ["losses", "--model", "sjj", "--n", "10", "--coupling", "nan"],
])
def test_non_finite_input_is_domain_error(args, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*args, "-o", str(out)]) == 3
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_config_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "sjj", "n": 10, "coupling": 2.0}))
    out = tmp_path / "g.csv"
    rc = main(["ground", "--config", str(cfg), "--coupling", "1.0", "-o", str(out)])
    assert rc == 0
    meta = json.loads(out.read_text().splitlines()[0].split(" ", 3)[3])
    assert meta["coupling"] == 1.0  # flag beats config file
    assert meta["n"] == 10          # config beats built-in default


@pytest.mark.parametrize("value", ["x", 0, -2, 1.5, True])
def test_bad_config_threads_is_usage_error(value, tmp_path, capsys):
    # threads is no flag of any command; spectrum and hz only parse --threads
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": value}))
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--model", "bjj", "--n", "4", "--grid", "0:1:0.5",
              "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"'threads' in config file {cfg} is no flag of any command" in err


GROUND = ["ground", "--model", "sjj", "--n", "10", "--coupling", "1"]
HZ = ["hz", "--model", "sjj", "--n", "10", "--grid", "1.9:2.1:0.1"]
PHYSICAL = ["physical", "--a-sc", "1.4e-9", "--omega-x", "439.8", "--omega-perp", "4398.2",
            "--kappa-hz", "77", "--n", "300"]


BAD_CONFIG = {
    "n_fraction": (["ground"], {"model": "sjj", "n": 10.7, "coupling": 1}, "n"),
    "n_text": (["ground"], {"model": "sjj", "n": "abc", "coupling": 1}, "n"),
    "model_case": (["ground"], {"model": "SJJ", "n": 10, "coupling": 1}, "model"),
    "coupling_bool": (GROUND, {"coupling": True}, "coupling"),
    "format_choice": (GROUND, {"format": "xml"}, "format"),
    "output_number": (GROUND, {"output": 5}, "output"),
    "refine_text": (HZ, {"refine": "no"}, "refine"),
    "refine_to_list": (HZ, {"refine_to": [1e-3]}, "refine_to"),
    "grid_number": (HZ, {"grid": 1.5}, "grid"),
    "criterion_choice": (["crossover", "--model", "sjj", "--n", "10"], {"criterion": "bogus"},
                         "criterion"),
    "species_choice": (PHYSICAL, {"species": "na23"}, "species"),
    "la_fraction": (["losses", "--model", "sjj", "--n", "10", "--coupling", "4"],
                    {"la": 0.5, "lb": 0}, "la"),
    "coupling_int_beyond_float": (["meanfield"], {"coupling": 10**400}, "coupling"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG))
def test_bad_config_value_is_usage_error(case, tmp_path, capsys):
    argv, cfg, key = BAD_CONFIG[case]
    # a config value gets the type and choices checks of its flag
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(path), "-o", str(out)])
    assert exc.value.code == 2
    assert f"'{key}' in config file {path} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("n", "1.5"), ("model", "SJJ"), ("coupling", "abc"),
                                        ("format", "xml")])
def test_bad_value_reads_alike_from_a_flag_and_the_config(key, value, tmp_path, capsys):
    # argparse hands flag values over as strings: _resolve alone types and checks them
    good = {"model": "sjj", "n": "10", "coupling": "1"}
    others = [a for k, v in good.items() if k != key for a in (cli._option(k), v)]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    errors = []
    for extra, source in [([cli._option(key), value], cli._option(key)),
                          (["--config", str(path)], f"'{key}' in config file {path}")]:
        with pytest.raises(SystemExit) as exc:
            main(["ground", *others, *extra])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: sjj ground ")  # the command's usage, as argparse's own
        last = err.splitlines()[-1]
        assert last.startswith(f"sjj ground: error: {source} must be ")
        errors.append(last.replace(source, "<source>"))
    assert errors[0] == errors[1]


def test_flag_choices_are_the_library_sets():
    from sjj import ModelKind, observables, physical

    library = {"model": {kind.value for kind in ModelKind},
               "species": set(physical.SPECIES_MASS_U),
               "criterion": set(observables._CROSSOVER_PREDICATES),
               "format": {"csv", "json"}}
    for command in cli._SPEC:
        for key, flag in cli._flags(command).items():
            assert (flag.choices is None) == (key not in library), (command, key)
            if flag.choices is not None:
                assert set(flag.choices) == library[key], (command, key)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_invocations_parse(seed, tmp_path):
    # every command line perfbench/workloads.py builds (the passes and the
    # tail probe) must still parse and resolve; nothing is run
    path = Path(cli.__file__).parents[2] / "perfbench" / "workloads.py"
    workloads = runpy.run_path(str(path))
    for workload in workloads["WORKLOADS"]:
        passes, probe = workloads["build"](workload, seed)
        for invocation in [*passes, probe]:
            args = cli._build_parser().parse_args(invocation.argv(str(tmp_path)))
            resolved = cli._resolve(args.command, args)
            assert resolved["output"] == str(tmp_path / invocation.output)
            if "grid" in resolved:
                _parse_grid(resolved["grid"])


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config file"),
    ('{"n": 10', "cannot read config file"),
    ('[{"n": 10}]', "must hold a JSON object"),
], ids=["missing", "malformed", "list"])
def test_unusable_config_file_is_usage_error(text, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(GROUND + ["--config", str(path)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [GROUND, ["hartree", "--coupling", "2", "--n", "40"]],
                         ids=["table", "object"])
@pytest.mark.parametrize("target", ["a directory", "a missing directory"])
def test_unwritable_output_is_usage_error(argv, target, tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    path = str(tmp_path / "sub") if target == "a directory" else str(tmp_path / "no" / "x.csv")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-o", path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {path}: " in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["sub"]  # no .sjj-*.tmp left


def test_valid_config_values_echo_as_given(tmp_path):
    # each value echoes as its flag's type, as the same run given as flags does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "bjj", "n": "6", "grid": "0:1:0.5", "refine": False,
                               "refine_to": 1}))
    rc, f = run(tmp_path, "hz.csv", ["hz", "--config", str(cfg)])
    assert rc == 0
    comment = f.read_text().splitlines()[0]
    meta = json.loads(comment.split(" ", 3)[3])
    assert meta == {"command": "hz", "model": "bjj", "n": 6, "grid": "0:1:0.5",
                    "refine": False, "refine_to": 1.0, "format": "csv"}
    assert type(meta["refine_to"]) is float
    assert len(f.read_text().splitlines()) == 2 + 3  # no refinement rows
    rc, flags = run(tmp_path, "flags.csv", ["hz", "--model", "bjj", "--n", "6", "--grid", "0:1:0.5",
                                            "--no-refine", "--refine-to", "1", "--threads", "3"])
    assert rc == 0
    assert flags.read_text().splitlines()[0] == comment


def _json_or_text(text: str):
    """The JSON value a flag's text reads as (300, 4, 1e-3), else the text."""
    try:
        return json.loads(text)
    except ValueError:
        return text


TABLES = ("spectrum", "ground", "hz", "meanfield", "losses")
FLAG_FORMS = [[*argv[:argv.index("-o")], *argv[argv.index("-o") + 2:]] for argv in README_COMMANDS]
FLAG_FORMS += [[*argv, "--format", "json"] for argv in FLAG_FORMS if argv[0] in TABLES]


@pytest.mark.parametrize("argv", FLAG_FORMS, ids=" ".join)
def test_config_file_writes_the_bytes_of_the_flags(argv, tmp_path):
    # the same values from a config file, as JSON values and as the flag
    # texts, resolve to the same typed configuration and write the same bytes
    pairs = dict(zip(argv[1::2], argv[2::2]))
    assert len(argv) % 2 == 1 and all(option.startswith("--") for option in pairs)
    rc, expected = run(tmp_path, "flags", argv)
    assert rc == 0
    for form, decode in (("json", _json_or_text), ("text", str)):
        cfg = tmp_path / f"{form}.json"
        cfg.write_text(json.dumps({option[2:].replace("-", "_"): decode(text)
                                   for option, text in pairs.items()}))
        rc, out = run(tmp_path, form, [argv[0], "--config", str(cfg)])
        assert rc == 0, form
        assert out.read_bytes() == expected.read_bytes(), form


@pytest.mark.parametrize("argv, cfg, key", [
    (["hz", "--model", "sjj", "--n", "4", "--grid", "0.5:1:0.5"], {"refine_to": "inf"},
     "refine_to"),
    (["crossover", "--model", "sjj", "--n", "10"], {"tol": "inf"}, "config.tol"),
])
def test_non_finite_config_value_is_domain_error(argv, cfg, key, tmp_path, capsys):
    # a config "inf" is the float its flag reads, so it fails as --refine-to inf does
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(path), "-o", str(out)]) == 3
    assert f"sjj {argv[0]}: {key} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_config_key_of_no_command_is_usage_error(tmp_path, capsys):
    # a misspelt key would otherwise leave the default tau_max and dtau in place
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tau_mx": 1, "dtua": 0.5}))
    out = tmp_path / "mf.csv"
    with pytest.raises(SystemExit) as exc:
        main(["meanfield", "--coupling", "4", "--config", str(path), "-o", str(out)])
    assert exc.value.code == 2
    assert f"'tau_mx' in config file {path} is no flag of any command" in capsys.readouterr().err
    assert not out.exists()


def test_config_key_of_another_command_is_accepted(tmp_path):
    # one file may serve several commands; each reads its own flags
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "sjj", "n": 10, "coupling": 1, "grid": "0:1:0.5",
                                "tau_max": 3, "criterion": "edge"}))
    rc, out = run(tmp_path, "g.csv", ["ground", "--config", str(path)])
    assert rc == 0
    _, expected = run(tmp_path, "flags.csv", GROUND)
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("half", [["--la", "1"], ["--lb", "0"]])
def test_losses_half_pair_is_usage_error(half, tmp_path, capsys):
    out = tmp_path / "half.csv"
    with pytest.raises(SystemExit) as exc:
        main(["losses", "--model", "sjj", "--n", "10", "--coupling", "4", *half,
              "-o", str(out)])
    assert exc.value.code == 2
    assert "--la and --lb must be given together" in capsys.readouterr().err
    assert not out.exists()


def test_stdout_output(capsys):
    rc = main(["ground", "--model", "bjj", "--n", "4", "--coupling", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# sjj ")
    assert lines[1] == "n,prob,amp"
    assert len(lines) == 2 + 5


@pytest.mark.parametrize("argv", [GROUND, ["meanfield", "--coupling", "4", "--tau-max", "10"]],
                         ids=["ground", "meanfield"])
def test_stdout_in_memory_and_unbuffered(argv, tmp_path):
    # an in-memory stdout and a write-through one over a raw file both get
    # the bytes -o writes, also over several 4,096-row chunks
    _, expected = run(tmp_path, "o.csv", argv)
    memory = io.StringIO()
    with contextlib.redirect_stdout(memory):
        assert main(argv) == 0
    with open(tmp_path / "raw.csv", "wb", buffering=0) as raw:
        with contextlib.redirect_stdout(io.TextIOWrapper(raw, write_through=True)):
            assert main(argv) == 0
        raw_bytes = (tmp_path / "raw.csv").read_bytes()
    assert memory.getvalue().encode() == raw_bytes == expected.read_bytes()


def test_closed_stdout_pipe_exits_141_silently():
    # about 120 KB of rows, more than a 64 KiB pipe buffer holds
    with subprocess.Popen(
        [sys.executable, "-m", "sjj.cli", "ground", "--model", "sjj", "--n", "3000",
         "--coupling", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    ) as child:
        assert child.stdout.readline().startswith(b"# sjj ")
        child.stdout.close()
        err = child.stderr.read()
    # one assertion, so that a failure shows both
    assert (child.returncode, err) == (cli.EXIT_BROKEN_PIPE, b"") == (141, b"")


def test_closed_stdout_pipe_mid_write_exits_141_unbuffered():
    # with PYTHONUNBUFFERED set, stdout is a write-through text layer over
    # the raw pipe; once the child is blocked in its one ~116 KB write,
    # closing the reader makes that write return a short count, and only a
    # retry of the rest meets the closed pipe.  The child is blocked once
    # the pipe holds more than its capacity less one page: every page is
    # then taken, and the page the readline left part-read is not refilled
    import fcntl
    import struct
    import termios
    import time

    with subprocess.Popen(
        [sys.executable, "-m", "sjj.cli", "ground", "--model", "sjj", "--n", "3000",
         "--coupling", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**_child_env(), "PYTHONUNBUFFERED": "1"},
    ) as child:
        assert child.stdout.readline().startswith(b"# sjj ")
        fd = child.stdout.fileno()
        full = fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ) - os.sysconf("SC_PAGE_SIZE")
        deadline = time.monotonic() + 60.0
        while (queued := struct.unpack("i", fcntl.ioctl(fd, termios.FIONREAD, b"\0" * 4))[0]) \
                <= full and time.monotonic() < deadline:
            time.sleep(0.005)
        assert queued > full
        child.stdout.close()
        err = child.stderr.read()
    assert (child.returncode, err) == (cli.EXIT_BROKEN_PIPE, b"") == (141, b"")


def test_float_formatting(tmp_path):
    _, f = run(tmp_path, "fmt.csv",
               ["ground", "--model", "bjj", "--n", "2", "--coupling", "0"])
    _, data = read_csv(f)
    # 12 significant digits: sqrt(1/2) amplitude prints as 0.707106781187
    text = f.read_text()
    assert "0.707106781187" in text


def _table_columns(rows):
    rng = np.random.default_rng(rows)
    return [np.arange(rows), rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows),
            np.arange(rows, dtype=np.int32) * -3, rng.random(rows)]


def _whole_document(fmt, resolved, names, columns):
    """The table rendered in one piece from Python lists, as the writer did
    before it streamed."""
    cols = [col.tolist() for col in columns]
    floats = [col.dtype.kind == "f" for col in columns]
    if fmt == "csv":
        meta = json.dumps({"command": "test", **resolved}, sort_keys=True)
        lines = [f"# sjj {cli.__version__} {meta}", ",".join(names)]
        lines += [",".join(f"{v:.12g}" if f else str(v) for v, f in zip(row, floats))
                  for row in zip(*cols)]
        return "\n".join(lines) + "\n"
    cols = [[float(f"{v:.12g}") for v in col] if f else col for col, f in zip(cols, floats)]
    obj = {"tool": "sjj", "version": cli.__version__, "command": "test", "config": resolved,
           "columns": names, "rows": [list(row) for row in zip(*cols)]}
    return json.dumps(obj, sort_keys=True) + "\n"


def _blocks(columns, split):
    """The rows of `columns` as row blocks: `split` rows a block (an empty
    table is one empty block), in one block, or in one block with an empty
    block inserted first, in the middle or last."""
    if isinstance(split, int):
        return [[col[start : start + split] for col in columns]
                for start in range(0, max(len(columns[0]), 1), split)]
    empty, half = [col[:0] for col in columns], len(columns[0]) // 2
    return {"one block": [columns],
            "empty first": [empty, columns],
            "empty middle": [[col[:half] for col in columns], empty,
                             [col[half:] for col in columns]],
            "empty last": [columns, empty]}[split]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [0, 1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1])
def test_streamed_table_equals_whole_document(fmt, rows, tmp_path):
    names = ["i", "x", "j", "y"]
    columns = _table_columns(rows)
    out = tmp_path / f"table.{fmt}"
    whole = _whole_document(fmt, {"format": fmt}, names, columns)
    for split in ("one block", 1, cli._CHUNK_ROWS + 1, "empty first", "empty middle",
                  "empty last"):
        cli._emit_table("test", {"format": fmt, "output": str(out)}, names,
                        _blocks(columns, split))
        assert out.read_text() == whole, split
    if fmt == "json":
        parsed = json.loads(out.read_text())["rows"]
        assert len(parsed) == rows
        # integer columns stay JSON integers, never strings or floats
        assert all(type(row[0]) is int and type(row[2]) is int for row in parsed)
        assert all(type(row[1]) is float and type(row[3]) is float for row in parsed)


def test_failure_mid_stream_leaves_no_partial_file(tmp_path, monkeypatch):
    streamed = cli._chunks
    seen = []

    def failing(*args):
        chunks = streamed(*args)
        yield next(chunks)
        seen.extend(tmp_path.glob(".sjj-*.tmp"))  # the first chunk went to the temp file
        raise RuntimeError("formatting failed")

    monkeypatch.setattr(cli, "_chunks", failing)
    out = tmp_path / "mf.csv"
    with pytest.raises(RuntimeError, match="formatting failed"):
        main(["meanfield", "--coupling", "2", "--z0", "0.3", "--tau-max", "10", "-o", str(out)])
    assert len(seen) == 1
    assert not out.exists()
    assert list(tmp_path.glob(".sjj-*.tmp")) == []


def test_failure_over_an_existing_target_leaves_it_untouched(tmp_path, monkeypatch):
    out = tmp_path / "out.csv"
    out.write_bytes(b"old bytes\n")
    argv = ["meanfield", "--coupling", "2", "--z0", "0.3", "--tau-max", "10", "-o", str(out)]
    streamed = cli._chunks

    def failing(*args):
        chunks = streamed(*args)
        yield next(chunks)
        raise RuntimeError("formatting failed")

    monkeypatch.setattr(cli, "_chunks", failing)
    with pytest.raises(RuntimeError, match="formatting failed"):
        main(argv)
    assert out.read_bytes() == b"old bytes\n"
    assert list(tmp_path.glob(".sjj-*.tmp")) == []
    monkeypatch.setattr(cli, "_chunks", streamed)
    assert main(argv) == 0  # a successful rerun writes its own bytes over the old file
    fresh = tmp_path / "fresh.csv"
    assert main(argv[:-1] + [str(fresh)]) == 0
    assert out.read_bytes() == fresh.read_bytes() != b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "out.csv"]


@pytest.mark.parametrize("argv", [["hartree", "--coupling", "2", "--n", "10"],
                                  ["ground", "--model", "sjj", "--n", "10", "--coupling", "2"]],
                         ids=["object", "table"])
def test_output_is_never_renamed_onto_an_existing_file(argv, tmp_path, monkeypatch):
    # on ext4 a rename onto an existing file waits until the new data is
    # flushed, ~60 ms per file; so the old target is removed first
    out = tmp_path / "out.txt"
    out.write_text("old\n")
    destinations = []

    def spy(real):
        def call(src, dst, *args, **kwargs):
            destinations.append((dst, os.path.lexists(dst)))
            return real(src, dst, *args, **kwargs)
        return call

    monkeypatch.setattr(cli.os, "rename", spy(os.rename))
    monkeypatch.setattr(cli.os, "replace", spy(os.replace))
    assert main(argv + ["-o", str(out)]) == 0
    assert destinations == [(str(out), False)]
    assert out.read_text() != "old\n"


def test_table_memory_does_not_grow_with_rows(tmp_path):
    rng = np.random.default_rng(0)
    columns = [np.arange(100_000)] + [rng.normal(size=100_000) for _ in range(4)]
    resolved = {"format": "csv", "output": str(tmp_path / "big.csv")}
    tracemalloc.start()
    try:
        cli._emit_table("test", resolved, ["n", "a", "b", "c", "d"], [columns])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole document took 22 MB before its .tolist() lists were counted
    assert peak < 6e6
    assert len((tmp_path / "big.csv").read_text().splitlines()) == 2 + 100_000


def test_spectrum_memory_does_not_grow_with_grid(tmp_path):
    # loads the solver modules and LAPACK before the measured run
    assert main(["spectrum", "--model", "sjj", "--n", "100", "--grid", "1:2:0.5",
                 "-o", str(tmp_path / "warm.csv")]) == 0
    out = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        rc = main(["spectrum", "--model", "sjj", "--n", "100", "--grid", "0.01:10:0.005",
                   "-o", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    # 1,999 grid points of 101 levels; the whole sweep, held until it was
    # written, peaked at 7.5 MB
    assert peak < 2e6
    assert len(out.read_text().splitlines()) == 2 + 1999 * 101


SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schemas" / "cli_output.schema.json").read_text()
)

JSON_COMMANDS = {
    "spectrum": ["spectrum", "--model", "sjj", "--n", "6", "--grid", "0.5:2.5:1",
                 "--format", "json"],
    "ground": ["ground", "--model", "bjj", "--n", "6", "--coupling", "1", "--format", "json"],
    "hz": ["hz", "--model", "sjj", "--n", "10", "--grid", "1.9:2.1:0.1", "--no-refine",
           "--format", "json"],
    "meanfield": ["meanfield", "--coupling", "2", "--z0", "0.3", "--tau-max", "0.01",
                  "--format", "json"],
    "losses": ["losses", "--model", "sjj", "--n", "10", "--coupling", "4", "--p-min", "1e-6",
               "--format", "json"],
    "losses_branch": ["losses", "--model", "sjj", "--n", "10", "--coupling", "4",
                      "--la", "1", "--lb", "0", "--format", "json"],
    "hartree": ["hartree", "--coupling", "2", "--n", "30"],
    "crossover": ["crossover", "--model", "sjj", "--n", "20", "--tol", "1e-4"],
    "physical": ["physical", "--species", "li7", "--a-sc", "1.4e-9", "--omega-x", "439.8",
                 "--omega-perp", "4398.2", "--kappa-hz", "77", "--n", "300"],
}


def test_schema_is_valid():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


@pytest.mark.parametrize("name", sorted(JSON_COMMANDS))
def test_json_output_matches_schema(name, tmp_path):
    argv = JSON_COMMANDS[name]
    rc, f = run(tmp_path, f"{name}.json", argv)
    assert rc == 0
    obj = json.loads(f.read_text())
    jsonschema.validate(obj, SCHEMA, cls=jsonschema.Draft202012Validator)
    assert obj["command"] == argv[0]


@pytest.mark.parametrize("name", sorted(JSON_COMMANDS))
def test_schema_rejects_missing_payload(name, tmp_path):
    rc, f = run(tmp_path, f"{name}.json", JSON_COMMANDS[name])
    assert rc == 0
    obj = json.loads(f.read_text())
    bare = {key: obj[key] for key in ("tool", "version", "command", "config")}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bare, SCHEMA, cls=jsonschema.Draft202012Validator)


def test_branch_probability_documented_where_written(tmp_path):
    _, f = run(tmp_path, "branch.json", JSON_COMMANDS["losses_branch"])
    obj = json.loads(f.read_text())
    assert 0.0 < obj["config"]["branch_probability"] < 1.0
    assert "branch_probability" in SCHEMA["properties"]["config"]["properties"]
    assert "branch_probability" not in SCHEMA["properties"]


def test_hz_no_refine_scans_grid_only(tmp_path):
    # --no-refine is an infinite step floor, so a floor that refinement
    # would reject is never read
    rc, f = run(tmp_path, "hz.csv", ["hz", "--model", "sjj", "--n", "20", "--grid",
                                     "1.9:2.1:0.05", "--no-refine", "--refine-to", "-1"])
    assert rc == 0
    _, data = read_csv(f)
    assert np.array_equal(data[:, 0], _parse_grid("1.9:2.1:0.05"))


_HUGE_N = "1" + "0" * 400


@pytest.mark.parametrize("args, message", [
    (["meanfield", "--coupling", "4", "--tau-max", "1e10"], "at most 20000000 steps"),
    (["meanfield", "--coupling", "4", "--tau-max", "1e300", "--dtau", "1e-10"],
     "at most 20000000 steps"),
    (["physical", "--a-sc", "1.4e-9", "--omega-x", "439.8", "--omega-perp", "4398.2",
      "--kappa-hz", "77", "--n", _HUGE_N], "n_atoms must be at most"),
    (["hartree", "--coupling", "2", "--n", _HUGE_N], "n_total must be at most"),
    (["ground", "--model", "sjj", "--n", "100000000000", "--coupling", "2"],
     "n_total must be at most 1000000"),
])
def test_oversized_input_is_domain_error(args, message, tmp_path, capsys):
    # each used to end in a traceback: numpy's MemoryError for 10^13 steps,
    # OverflowError for the ratio or the integer N
    out = tmp_path / "out"
    assert main([*args, "-o", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, key", [
    (["physical", "--a-sc", "1.4e-9", "--omega-x", "439.8", "--omega-perp", "4398.2",
      "--kappa-hz", "77", "--n", "1" + "0" * 160], "Lambda"),
    (["hz", "--model", "sjj", "--n", "4", "--grid", "0.5:1:0.5", "--refine-to", "inf"],
     "refine_to"),
    (["hz", "--model", "sjj", "--n", "4", "--grid", "0.5:1:0.5", "--refine-to", "inf",
      "--format", "json"], "config.refine_to"),
    (["crossover", "--model", "sjj", "--n", "10", "--tol", "inf"], "config.tol"),
])
def test_non_finite_output_is_domain_error(args, key, tmp_path, capsys):
    # JSON (RFC 8259) has no NaN or Infinity: these used to exit 0 and write
    # one, in the document or in the CSV comment line
    out = tmp_path / "out"
    assert main([*args, "-o", str(out)]) == 3
    assert f"sjj {args[0]}: {key} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_table_value_names_its_column():
    with pytest.raises(ValueError, match="^hz1 must be finite"):
        cli._json([(1.0, math.inf)], {"coupling": [1.0], "hz1": [math.inf]})
    assert cli._non_finite_key({"a": [1.0, {"b": (2, math.nan)}]}) == "a.b"
    assert cli._non_finite_key({"a": [1.0, 2]}) is None


# edge values for every numeric flag, with each flag's README values added
EDGE_VALUES = ("0", "-0.0", "1", "-1", "5e-324", "1e-300", "1e300", "1e308", "-1e308",
               "inf", "-inf", "nan")
README_VALUES: dict[str, set[str]] = {}
for _argv in README_COMMANDS:
    for _flag, _value in zip(_argv, _argv[1:]):
        if _flag.startswith("--"):
            README_VALUES.setdefault(_flag[2:].replace("-", "_"), set()).add(_value)


def _flag_argument(key: str, flag: cli._Flag):
    """One command-line argument for the flag, as --flag=value so that a
    value with a leading minus reaches the flag."""
    option = cli._option(key)
    if flag.type is bool:
        return st.sampled_from([option, "--no-" + option[2:]])
    if key == "grid":
        edges = st.tuples(*[st.sampled_from(EDGE_VALUES)] * 3).map(":".join)
        values = st.sampled_from(sorted(README_VALUES[key])) | edges
    elif flag.choices:
        values = st.sampled_from([*flag.choices, "none"])
    elif flag.type is int:  # N <= 12, and text that is no integer
        values = st.integers(-2, 12).map(str) | st.sampled_from(EDGE_VALUES)
    else:  # as often a README value as an edge value, where the README has one
        values = st.sampled_from(EDGE_VALUES)
        if key in README_VALUES:
            values = st.sampled_from(sorted(README_VALUES[key])) | values
    return values.map(lambda value: f"{option}={value}")


def _finite(text: str) -> float:
    value = float(text)
    assert math.isfinite(value), text
    return value


def _assert_valid_output(path: Path) -> None:
    text = path.read_text()
    if not text.startswith("#"):  # JSON: a table or an object
        obj = json.loads(text, parse_constant=_finite)
        jsonschema.validate(obj, SCHEMA, cls=jsonschema.Draft202012Validator)
        command, couplings = obj["command"], [row[0] for row in obj.get("rows", [])]
    else:
        comment, header, *rows = text.splitlines()
        assert comment.startswith("# sjj ")
        command = json.loads(comment.split(" ", 3)[3], parse_constant=_finite)["command"]
        width = len(header.split(","))
        for row in rows:
            fields = row.split(",")
            assert len(fields) == width, row
            for field in fields:
                _finite(field)
        couplings = [float(row.split(",")[0]) for row in rows]
    if command == "hz":  # each coupling solved and printed once
        assert all(a < b for a, b in zip(couplings, couplings[1:])), couplings


@st.composite
def _command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(cli._SPEC)))
    argv = [command]
    for key, flag in cli._SPEC[command].flags.items():
        if flag.required or draw(st.booleans()):
            argv.append(draw(_flag_argument(key, flag)))
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_command_lines())
# the refinement bracket around either point is 2e308 wide
@example(argv=["hz", "--model=sjj", "--n=1", "--grid=0:1e308:1e308"])
def test_edge_inputs_give_a_documented_exit_code(argv):
    # every command on N <= 12 and edge values, in process: exit 0, 2, 3 or
    # 4, never an exception out of main; a failed run leaves no -o file, a
    # run that succeeds writes a table that parses or JSON the schema admits
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # SJJ at coupling 0
            try:
                code = main([*argv, "-o", str(out)])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        if code == 0:
            _assert_valid_output(out)
        else:
            assert os.listdir(tmp) == [], argv
