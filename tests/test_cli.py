import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.linalg

from sjj import cli, eigensolve, ground_state, losses
from sjj.cli import _MAX_GRID_POINTS, _parse_grid, main


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
def test_spectrum_threads_identical(command, tmp_path):
    argv = [command, "--model", "sjj", "--n", "40", "--grid", "0:3:0.25"]
    _, f1 = run(tmp_path, "t1.csv", argv + ["--threads", "1"])
    _, f2 = run(tmp_path, "t2.csv", argv + ["--threads", "4"])
    assert f1.read_bytes() == f2.read_bytes()


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
    scan = losses._scan
    monkeypatch.setattr(losses, "_scan", lambda k, row_min, floor=0.0: scan(k, row_min))
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


def test_meanfield_numerical_failure_exit4(tmp_path):
    out = tmp_path / "blow.csv"
    rc = main(["meanfield", "--coupling", "0", "--z0", "0.97",
               "--theta0", "1.5707963", "--tau-max", "400", "--dtau", "2.0",
               "-o", str(out)])
    assert rc == 4
    assert not out.exists()


def test_spectrum_solver_failure_exit4(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", fail)
    out = tmp_path / "fail.csv"
    rc = main(["spectrum", "--model", "sjj", "--n", "10", "--grid", "1:2:0.5",
               "-o", str(out)])
    assert rc == 4
    assert not out.exists()


def test_losses_zero_probability_exit3(tmp_path):
    out = tmp_path / "z.csv"
    rc = main(["losses", "--model", "sjj", "--n", "20", "--coupling", "4",
               "--la", "1", "--lb", "0", "--eta-a", "1.0", "--eta-b", "1.0",
               "-o", str(out)])
    assert rc == 3
    assert not out.exists()  # no partial output on failure


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
print("scipy" in sys.modules)
"""


def _last_two_lines(script: str, tmp_path) -> list[str]:
    """The last two lines a script prints, run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split("\n")[-3:-1]


def test_ground_commands_never_import_scipy(tmp_path):
    loaded_by_other_commands, loaded_after_spectrum = _last_two_lines(_NO_SCIPY_SCRIPT, tmp_path)
    assert loaded_by_other_commands == "[]"
    assert loaded_after_spectrum == "True"


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
    loaded_by_scalar_commands, loaded_after_ground = _last_two_lines(_NO_NUMPY_SCRIPT, tmp_path)
    assert loaded_by_scalar_commands == "[]"
    assert loaded_after_ground == "True"


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


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_nonpositive_threads_flag_is_usage_error(threads, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--model", "bjj", "--n", "4", "--grid", "0:1:0.5",
              "--threads", threads])
    assert exc.value.code == 2
    assert f"--threads must be a positive integer, got {threads}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["x", 0, -2, 1.5, True])
def test_bad_config_threads_is_usage_error(value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": value}))
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--model", "bjj", "--n", "4", "--grid", "0:1:0.5",
              "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"'threads' in config file {cfg} must be a positive integer" in err


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


def test_valid_config_values_echo_as_given(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "bjj", "n": "6", "grid": "0:1:0.5", "refine": False,
                               "refine_to": 1, "threads": 3}))
    rc, f = run(tmp_path, "hz.csv", ["hz", "--config", str(cfg)])
    assert rc == 0
    meta = json.loads(f.read_text().splitlines()[0].split(" ", 3)[3])
    assert meta == {"command": "hz", "model": "bjj", "n": "6", "grid": "0:1:0.5",
                    "refine": False, "refine_to": 1, "format": "csv"}
    assert len(f.read_text().splitlines()) == 2 + 3  # no refinement rows


@pytest.mark.parametrize("half", [["--la", "1"], ["--lb", "0"]])
def test_losses_half_pair_is_usage_error(half, tmp_path, capsys):
    out = tmp_path / "half.csv"
    with pytest.raises(SystemExit) as exc:
        main(["losses", "--model", "sjj", "--n", "10", "--coupling", "4", *half,
              "-o", str(out)])
    assert exc.value.code == 2
    assert "--la and --lb must be given together" in capsys.readouterr().err
    assert not out.exists()


def test_threads_flag_beats_bad_env(tmp_path, monkeypatch):
    # the environment is a fallback only: an explicit flag never reads it
    monkeypatch.setenv("SJJ_THREADS", "abc")
    rc, _ = run(tmp_path, "f.csv", ["spectrum", "--model", "bjj", "--n", "4",
                                    "--grid", "0:1:0.5", "--threads", "2"])
    assert rc == 0
    rc, _ = run(tmp_path, "g.csv", ["ground", "--model", "bjj", "--n", "4",
                                    "--coupling", "1"])
    assert rc == 0  # commands without a thread pool ignore it


def test_env_threads(tmp_path, monkeypatch):
    argv = ["spectrum", "--model", "bjj", "--n", "30", "--grid", "0:2:0.5"]
    _, f1 = run(tmp_path, "e1.csv", argv)
    monkeypatch.setenv("SJJ_THREADS", "3")
    _, f2 = run(tmp_path, "e2.csv", argv)
    assert f1.read_bytes() == f2.read_bytes()


def test_stdout_output(capsys):
    rc = main(["ground", "--model", "bjj", "--n", "4", "--coupling", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# sjj ")
    assert lines[1] == "n,prob,amp"
    assert len(lines) == 2 + 5


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [0, 1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1])
def test_streamed_table_equals_whole_document(fmt, rows, tmp_path):
    names = ["i", "x", "j", "y"]
    columns = _table_columns(rows)
    out = tmp_path / f"table.{fmt}"
    cli._emit_table("test", {"format": fmt, "output": str(out)}, names, columns)
    assert out.read_text() == _whole_document(fmt, {"format": fmt}, names, columns)
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


def test_table_memory_does_not_grow_with_rows(tmp_path):
    rng = np.random.default_rng(0)
    columns = [np.arange(100_000)] + [rng.normal(size=100_000) for _ in range(4)]
    resolved = {"format": "csv", "output": str(tmp_path / "big.csv")}
    tracemalloc.start()
    try:
        cli._emit_table("test", resolved, ["n", "a", "b", "c", "d"], columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole document took 22 MB before its .tolist() lists were counted
    assert peak < 6e6
    assert len((tmp_path / "big.csv").read_text().splitlines()) == 2 + 100_000


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
