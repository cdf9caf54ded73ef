import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.linalg

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
