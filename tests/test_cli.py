"""Command-line interface: configs, outputs, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from ermakov import analytic, cli, output
from ermakov.core import PhysicalParams


def _write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _free_config(tmp_path, **extra):
    payload = {
        "model": "conservative",
        "params": {"omega0": 0.0},
        "initial": {"sigma": 1.0},
        "t_span": [0.0, 2.0],
        "samples": 21,
    }
    payload.update(extra)
    return _write_config(tmp_path, payload)


def test_simulate_free_particle(tmp_path, capsys):
    cfg = _free_config(tmp_path)
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "trajectory.csv").read_text(encoding="ascii")
    lines = text.splitlines()
    assert lines[0] == "t,sigma,sigma_dot,energy"
    assert len(lines) == 22
    header, data = output.read_csv(tmp_path / "trajectory.csv")
    assert header == ["t", "sigma", "sigma_dot", "energy"]
    assert data[-1, 1] == pytest.approx(math.sqrt(2.0), rel=1e-8)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stop_reason"] == "completed"
    assert summary["rows"] == 21
    assert summary["sigma_final"] == data[-1, 1]
    assert "wrote" in capsys.readouterr().out


def test_simulate_is_byte_identical_across_runs(tmp_path):
    cfg = _free_config(tmp_path)
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        rc = cli.main(["simulate", "--config", cfg, "--out",
                       str(tmp_path / sub), "--quiet"])
        assert rc == 0
    first = (tmp_path / "a" / "trajectory.csv").read_bytes()
    second = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert first == second


def test_simulate_holds_ground_state(tmp_path):
    sigma_g = math.sqrt(0.5)
    cfg = _write_config(tmp_path, {
        "model": "conservative",
        "initial": {"sigma": sigma_g},
        "t_span": [0.0, 5.0],
        "samples": 51,
    })
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    _, data = output.read_csv(tmp_path / "trajectory.csv")
    assert np.max(np.abs(data[:, 1] / sigma_g - 1.0)) < 1e-8
    # conserved energy column
    assert np.max(np.abs(data[:, 3] / data[0, 3] - 1.0)) < 1e-8


def test_simulate_runaway_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "model": "radiative-naive",
        "params": {"r": 0.01},
        "initial": {"sigma": 1.0, "sigma_dot": 0.0, "sigma_ddot": 0.6},
        "t_span": [0.0, 5.0],
        "samples": 11,
    })
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stop_reason"] == "runaway_detected"
    assert summary["t_reached"] < 5.0


def test_simulate_svg_output(tmp_path):
    cfg = _free_config(tmp_path,
                       output={"csv": "w.csv", "svg": "w.svg",
                               "summary": "w.json"})
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    svg = (tmp_path / "w.svg").read_text(encoding="ascii")
    assert svg.startswith("<svg") and "polyline" in svg


def test_equilibrium_values_and_stdout(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"params": {"beta": 2.0}})
    rc = cli.main(["equilibrium", "--config", cfg, "--out",
                   str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sigma_ground = " in out and "sigma_coth = " in out
    _, data = output.read_csv(tmp_path / "equilibrium.csv")
    p = PhysicalParams(beta=2.0)
    assert data[0, 0] == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert data[0, 1] == pytest.approx(
        math.sqrt(analytic.equilibrium_coth(p)), rel=1e-15)
    assert data[0, 2] == pytest.approx(
        math.sqrt(analytic.equilibrium_high_temperature(p)), rel=1e-15)


def test_thermal_rows_are_time_major(tmp_path):
    cfg = _write_config(tmp_path, {
        "variant": "beta-derivative",
        "params": {"b": 80.0},
        "grid": {"beta_min": 0.8, "beta_max": 2.4, "beta_count": 5},
        "t_span": [0.0, 0.5],
        "samples": 3,
    })
    rc = cli.main(["thermal", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    text = (tmp_path / "thermal.csv").read_text(encoding="ascii")
    assert text.splitlines()[0] == "t,beta,sigma,sigma_dot"
    _, data = output.read_csv(tmp_path / "thermal.csv")
    assert data.shape == (15, 4)
    assert np.all(np.diff(data[:, 0]) >= 0.0)
    betas = data[:5, 1]
    assert np.allclose(betas, np.linspace(0.8, 2.4, 5), rtol=1e-12)
    # every time block repeats the same beta column
    assert np.array_equal(data[5:10, 1], betas)


def test_sweep_two_parameters_lexicographic(tmp_path):
    cfg = _write_config(tmp_path, {
        "task": "equilibrium",
        "sweep": {"params.beta": [4.0, 1.0],
                  "params.omega0": [2.0, 0.5, 1.0]},
    })
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    header, data = output.read_csv(tmp_path / "sweep.csv")
    assert header[:2] == ["params.beta", "params.omega0"]
    assert data.shape == (6, 5)
    assert list(data[:, 0]) == [1.0, 1.0, 1.0, 4.0, 4.0, 4.0]
    assert list(data[:, 1]) == [0.5, 1.0, 2.0] * 2
    for row in data:
        p = PhysicalParams(beta=row[0], omega0=row[1])
        assert row[3] == pytest.approx(
            math.sqrt(analytic.equilibrium_coth(p)), rel=1e-14)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["points"] == 6 and summary["rows"] == 6


def test_sweep_simulate_prepends_swept_column(tmp_path):
    cfg = _write_config(tmp_path, {
        "task": "simulate",
        "model": "conservative",
        "params": {"omega0": 0.0},
        "initial": {"sigma": 1.0},
        "t_span": [0.0, 1.0],
        "samples": 5,
        "sweep": {"initial.sigma": [1.0, 2.0]},
    })
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    header, data = output.read_csv(tmp_path / "sweep.csv")
    assert header == ["initial.sigma", "t", "sigma", "sigma_dot", "energy"]
    assert data.shape == (10, 5)
    assert list(data[:, 0]) == [1.0] * 5 + [2.0] * 5
    assert data[0, 2] == 1.0 and data[5, 2] == 2.0


def test_sweep_jobs_deterministic(tmp_path):
    cfg = _write_config(tmp_path, {
        "task": "equilibrium",
        "sweep": {"params.beta": [0.5, 1.0, 2.0, 4.0, 8.0]},
    })
    for sub, jobs in (("serial", "1"), ("parallel", "4")):
        (tmp_path / sub).mkdir()
        rc = cli.main(["sweep", "--config", cfg, "--jobs", jobs,
                       "--out", str(tmp_path / sub), "--quiet"])
        assert rc == 0
    assert (tmp_path / "serial" / "sweep.csv").read_bytes() \
        == (tmp_path / "parallel" / "sweep.csv").read_bytes()


@pytest.mark.parametrize("command", ["sweep", "verify"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_1(tmp_path, capsys, command, jobs):
    cfg = _write_config(tmp_path, {
        "task": "equilibrium",
        "sweep": {"params.beta": [1.0, 2.0]},
    })
    argv = (["sweep", "--config", cfg] if command == "sweep"
            else ["verify", "free-particle"])
    rc = cli.main(argv + ["--jobs", jobs, "--out", str(tmp_path),
                          "--quiet"])
    assert rc == 1
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()
    assert not (tmp_path / "verify_report.json").exists()


def test_simulate_overflowing_initial_rate_exits_2(tmp_path):
    # The first-step heuristic used to divide by a zero probe step here.
    cfg = _write_config(tmp_path, {
        "model": "conservative",
        "initial": {"sigma": 1.0, "sigma_dot": 1e308},
        "t_span": [0.0, 1.0],
        "samples": 3,
    })
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path),
                       "--quiet"])
    assert rc == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stop_reason"] == "step_underflow"
    assert summary["t_reached"] == 0.0


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = _free_config(tmp_path, integrator={"rel_tol_x": 1e-8})
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown key: integrator.rel_tol_x" in capsys.readouterr().err


def test_unknown_model_exits_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"model": "nope",
                                   "initial": {"sigma": 1.0},
                                   "t_span": [0.0, 1.0]})
    rc = cli.main(["simulate", "--config", cfg])
    assert rc == 1
    assert "model must be one of" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", str(tmp_path / "absent.json")])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_json_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    rc = cli.main(["simulate", "--config", str(path)])
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_marker_temperature_model_exits_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "model": "high-temperature",
        "params": {"b": 1.0},
        "initial": {"sigma": 1.0},
        "t_span": [0.0, 1.0],
    })
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "finite beta" in capsys.readouterr().err


def test_bad_command_line_exits_1(capsys):
    assert cli.main(["simulate"]) == 1
    assert cli.main(["no-such-command"]) == 1
    capsys.readouterr()


def test_verify_fast_suites_exit_0(tmp_path, capsys):
    rc = cli.main(["verify", "free-particle", "energy", "--out",
                   str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS free-spreading-match" in out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True
    assert len(report["checks"]) == 5


def test_verify_loosened_tolerance_exits_3(tmp_path, capsys):
    rc = cli.main(["verify", "pinney", "--rel-tol", "0.01", "--out",
                   str(tmp_path)])
    assert rc == 3
    assert "FAIL pinney-oracle-sweep" in capsys.readouterr().out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is False


def test_verify_unknown_suite_exits_1(tmp_path, capsys):
    rc = cli.main(["verify", "nope", "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown suite" in capsys.readouterr().err


def test_plot_rerenders_csv(tmp_path):
    cfg = _free_config(tmp_path)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == 0
    rc = cli.main(["plot", str(tmp_path / "trajectory.csv"), "--out",
                   str(tmp_path), "--quiet"])
    assert rc == 0
    svg = (tmp_path / "trajectory.svg").read_text(encoding="ascii")
    assert svg.startswith("<svg") and svg.count("<polyline") >= 3


def test_quiet_suppresses_stdout(tmp_path, capsys):
    cfg = _free_config(tmp_path)
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    assert capsys.readouterr().out == ""
