"""Command-line interface: configs, outputs, exit codes, determinism."""

import json
import math
from xml.dom import minidom

import numpy as np
import pytest

from ermakov import analytic, cli, integrators, output, verification
from ermakov.core import PhysicalParams, State
from ermakov.integrators import StopReason
from ermakov.models import ModelVariant


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
    payload = {
        "variant": "beta-derivative",
        "params": {"b": 80.0},
        "grid": {"beta_min": 0.8, "beta_max": 2.4, "beta_count": 5},
        "t_span": [0.0, 0.5],
        "samples": 3,
    }
    cfg = _write_config(tmp_path, payload)
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
    # the first block is the start profile at rest, node by node
    start = cli._initial_profile(cli._parse_thermal(payload))
    assert np.array_equal(data[:5, 2], start)
    assert np.array_equal(data[:5, 3], np.zeros(5))


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
    summary = json.loads((tmp_path / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["stop_reason"] == "step_underflow"
    assert summary["t_reached"] == 0.0
    assert summary["energy_final"] == "inf"
    # The run never left its start node, which is written once.
    assert summary["rows"] == 1
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[1:] == ["0,1,1e+308,inf"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_energy_beyond_float_range_is_inf(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": "dissipative",
        "params": {"natural": {"friction": 0.5}},
        "initial": {"sigma": 1.0, "sigma_dot": 1e300},
        "t_span": [0.0, 1.0],
        "samples": 5,
    })
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    _, data = output.read_csv(tmp_path / "trajectory.csv")
    assert data.shape == (5, 4)
    assert np.all(np.isfinite(data[:, :3]))
    assert np.all(data[:, 3] == math.inf)


def test_span_below_float_spacing_exits_2_with_a_summary(tmp_path):
    # At t = 2**52 floats are 1 apart, far coarser than the first step:
    # the driver used to accept a million steps that left t unchanged,
    # and the chart of that run then raised before the summary.
    cfg = _write_config(tmp_path, {
        "model": "conservative",
        "initial": {"sigma": 1.0},
        "t_span": [2.0**52, 2.0**52 + 64.0],
        "samples": 5,
        "output": {"svg": "w.svg"},
    })
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stop_reason"] == "step_underflow"
    assert summary["t_reached"] == 2.0**52
    assert summary["steps_accepted"] == 0
    assert summary["rows"] == 1 and summary["svg"] is None
    assert not (tmp_path / "w.svg").exists()


def test_overdamped_width_at_float_max_ends_like_second_order(tmp_path):
    # The overdamped rhs passed a Python float to the models, where
    # sigma ** 3 raised OverflowError; numpy scalars give inf instead.
    params = PhysicalParams(b=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        _, first = integrators.integrate_overdamped(
            ModelVariant.OVERDAMPED_DISSIPATIVE, 1e308, (0.0, 1.0), params)
        _, second = integrators.integrate(
            ModelVariant.DISSIPATIVE, State(1e308, 0.0), (0.0, 1.0),
            params)
    assert first is second is StopReason.STEP_UNDERFLOW
    for model in ("overdamped-dissipative", "dissipative"):
        cfg = _write_config(tmp_path, {
            "model": model, "params": {"b": 1},
            "initial": {"sigma": 1e308}, "t_span": [0, 1]})
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["simulate", "--config", cfg, "--out",
                           str(tmp_path), "--quiet"])
        assert rc == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["stop_reason"] == "step_underflow"


def test_equilibrium_out_of_float_range_exits_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "params": {"beta": 1e300, "omega0": 1e300}})
    rc = cli.main(["equilibrium", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "omega0 must be at most 1e+150" in capsys.readouterr().err
    # Inside the parameter range the closed forms raise ValueError where
    # their value leaves the float range.
    with pytest.raises(ValueError, match="float range"):
        analytic.equilibrium_high_temperature(
            PhysicalParams(beta=1e300, omega0=1e150))
    with pytest.raises(ValueError, match="float range"):
        analytic.equilibrium_coth(PhysicalParams(beta=5e-324))
    cfg = _write_config(tmp_path, {"params": {"beta": 5e-324}})
    rc = cli.main(["equilibrium", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "equilibrium_coth leaves the float range" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_write_json_spells_non_finite_floats_as_strings(tmp_path):
    payload = {"a": math.inf, "b": [1.5, -math.inf, (np.float64("nan"),)],
               "c": {"d": 2.0, "e": None, "f": "inf"}}
    output.write_json(tmp_path / "s.json", payload)
    got = json.loads((tmp_path / "s.json").read_text(),
                     parse_constant=_reject_constant)
    assert got == {"a": "inf", "b": [1.5, "-inf", ["nan"]],
                   "c": {"d": 2.0, "e": None, "f": "inf"}}
    finite = {"x": [0.1, 2, (3.0, -4.5)], "y": {"z": 1e-300}, "s": "t"}
    output.write_json(tmp_path / "f.json", finite)
    assert (tmp_path / "f.json").read_text() == json.dumps(
        finite, indent=2, sort_keys=True) + "\n"


def test_thermal_run_stopped_at_start_writes_each_node_once(tmp_path):
    cfg = _write_config(tmp_path, {
        "variant": "integral-form",
        "params": {"b": 80.0},
        "grid": {"beta_min": 0.8, "beta_max": 2.4, "beta_count": 5},
        "profile": {"kind": "constant", "value": 0.3},
        "t_span": [0.0, 5.0],
        "samples": 7,
        "integrator": {"h_min": 1.0},
        "output": {"svg": "thermal.svg"},
    })
    rc = cli.main(["thermal", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["steps_accepted"] == 0
    assert summary["rows"] == 5
    assert summary["svg"] is None
    _, data = output.read_csv(tmp_path / "thermal.csv")
    assert data.shape == (5, 4)
    assert np.all(data[:, 0] == 0.0)
    assert np.array_equal(data[:, 1], np.linspace(0.8, 2.4, 5))
    assert not (tmp_path / "thermal.svg").exists()


def _file_profile_config(tmp_path, text):
    """A thermal config on 11 nodes whose start widths file holds
    ``text``."""
    widths = tmp_path / "widths.txt"
    widths.write_text(text, encoding="ascii")
    return _write_config(tmp_path, {
        "variant": "integral-form",
        "params": {"natural": {"temperature": 1.0}},
        "grid": {"beta_min": 0.5, "beta_max": 3.0, "beta_count": 11},
        "profile": {"kind": "file", "path": str(widths)},
        "t_span": [0.0, 1.0],
        "samples": 5,
    })


def test_thermal_run_starts_from_a_widths_file(tmp_path):
    widths = np.linspace(0.9, 1.4, 11) + 1e-3 * np.sin(np.arange(11.0))
    cfg = _file_profile_config(
        tmp_path, "\n".join(repr(float(w)) for w in widths) + "\n")
    rc = cli.main(["thermal", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    _, data = output.read_csv(tmp_path / "thermal.csv")
    assert data.shape == (55, 4)
    # the first time block is the file's widths, at rest
    assert np.all(data[:11, 0] == 0.0)
    assert np.array_equal(data[:11, 2], widths)
    assert np.array_equal(data[:11, 3], np.zeros(11))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["profile"] == "file"


@pytest.mark.parametrize("text, message", [
    ("1.0\n" * 10, "profile.path holds 10 widths, grid has 11 nodes"),
    ("sigma\n" + "1.0\n" * 11,
     "profile.path: could not convert string to float: 'sigma'"),
    (",".join(["1.0"] * 11) + "\n", "profile.path: could not convert"),
    ("1.0\n" * 10 + "0.0\n",
     "profile.path widths must be positive and finite"),
], ids=["count", "header", "commas", "zero"])
def test_bad_widths_file_exits_1(tmp_path, capsys, text, message):
    cfg = _file_profile_config(tmp_path, text)
    rc = cli.main(["thermal", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "thermal.csv").exists()


@pytest.mark.parametrize("profile, message", [
    ({"kind": "constant", "value": math.inf}, "profile.value"),
    ({"kind": "scaled-coth", "factor": math.inf}, "profile.factor"),
    (None, "profile.path widths"),
], ids=["constant", "scaled-coth", "file"])
def test_non_finite_profile_exits_1(tmp_path, capsys, profile, message):
    # Python's json reads and writes Infinity; a widths file may hold inf.
    cfg = _file_profile_config(tmp_path, "1.0\n" * 10 + "inf\n")
    if profile is not None:
        payload = json.loads((tmp_path / "run.json").read_text())
        cfg = _write_config(tmp_path, dict(payload, profile=profile))
    rc = cli.main(["thermal", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 1
    assert (f"config error: {message} must be positive and finite"
            in capsys.readouterr().err)
    assert not (tmp_path / "thermal.csv").exists()


def test_out_naming_a_file_is_an_io_error(tmp_path, capsys):
    cfg = _free_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="ascii")
    rc = cli.main(["simulate", "--config", cfg, "--out", str(taken)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert taken.read_text(encoding="ascii") == "not a directory"


@pytest.mark.parametrize("command, payload, message", [
    ("simulate", {"model": "conservative", "initial": {"sigma": 1.0},
                  "t_span": [0.0, 1.0], "samples": 1_000_001},
     "samples must be at most 1000000"),
    ("thermal", {"variant": "integral-form",
                 "grid": {"beta_min": 0.5, "beta_max": 2.0,
                          "beta_count": 11},
                 "t_span": [0.0, 1.0], "samples": 100_000},
     "samples x grid.beta_count (the CSV rows) must be at most 1000000"),
])
def test_samples_bound_exits_1(tmp_path, capsys, command, payload,
                               message):
    cfg = _write_config(tmp_path, payload)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]


def test_step_budget_is_the_default_max_steps():
    assert cli._MAX_STEPS == 100_000
    assert cli._parse_integrator(None).max_steps == cli._MAX_STEPS
    assert cli._parse_integrator({"rel_tol": 1e-8}).max_steps \
        == cli._MAX_STEPS
    assert cli._parse_integrator({"max_steps": 7}).max_steps == 7


def test_max_steps_above_the_budget_exits_1(tmp_path, capsys):
    cfg = _free_config(tmp_path, integrator={"max_steps": 100_001})
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "integrator.max_steps must be at most 100000" \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]


def test_run_at_the_step_budget_exits_2_with_a_summary(tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(cli, "_MAX_STEPS", 20)
    cfg = _write_config(tmp_path, {
        "model": "conservative",
        "initial": {"sigma": 2.56},
        "t_span": [0.0, 1e7],
        "samples": 5,
    })
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stop_reason"] == "max_steps"
    assert summary["steps_accepted"] == 20
    assert 0.0 < summary["t_reached"] < 1e7
    assert summary["rows"] == 5


@pytest.mark.parametrize("sweep, message", [
    # 1,200 points of 1,000 rows each: rejected before any point runs.
    ({"initial.sigma": [1.0 + i / 40 for i in range(40)],
      "initial.sigma_dot": [i / 30 for i in range(30)]},
     "the sweep's points would write 1200000 rows; at most 1000000"),
    ({"initial.sigma": [1.0 + i / 1001 for i in range(1001)],
      "initial.sigma_dot": [i / 1000 for i in range(1000)]},
     "a sweep may have at most 1000000 points"),
])
def test_sweep_total_rows_bound_exits_1(tmp_path, capsys, monkeypatch,
                                        sweep, message):
    def no_run(parsed):
        raise AssertionError("a point ran")

    monkeypatch.setitem(cli._TASKS, "simulate", (
        cli._parse_simulate, no_run, cli._TRAJECTORY_HEADER, None))
    cfg = _write_config(tmp_path, {
        "task": "simulate", "model": "conservative",
        "initial": {"sigma": 1.0}, "t_span": [0.0, 1.0], "samples": 1000,
        "sweep": sweep})
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]


def test_sweep_step_budget_bounds_explicit_max_steps(tmp_path, capsys,
                                                     monkeypatch):
    # 11 points of 100,000 steps each would exceed the 1,000,000-step
    # sweep budget: rejected before any point runs.
    def no_run(parsed):
        raise AssertionError("a point ran")

    monkeypatch.setitem(cli._TASKS, "simulate", (
        cli._parse_simulate, no_run, cli._TRAJECTORY_HEADER, None))
    cfg = _write_config(tmp_path, {
        "task": "simulate", "model": "conservative",
        "initial": {"sigma": 1.0}, "t_span": [0.0, 1.0], "samples": 5,
        "integrator": {"max_steps": 100_000},
        "sweep": {"initial.sigma": [1.0 + i / 10 for i in range(11)]}})
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert ("the sweep's integrator.max_steps sum to 1100000; at most "
            "1000000" in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]


def test_sweep_points_share_the_step_budget(tmp_path, monkeypatch):
    assert cli._MAX_SWEEP_STEPS == 1_000_000
    monkeypatch.setattr(cli, "_MAX_SWEEP_STEPS", 41)
    budgets = []

    def run(parsed):
        budgets.append(parsed["integrator"].max_steps)
        return cli._run_trajectory(parsed)

    monkeypatch.setitem(cli._TASKS, "simulate", (
        cli._parse_simulate, run, cli._TRAJECTORY_HEADER, None))
    cfg = _write_config(tmp_path, {
        "task": "simulate", "model": "conservative",
        "initial": {"sigma": 2.56}, "t_span": [0.0, 1e7], "samples": 5,
        "sweep": {"initial.sigma": [2.0, 2.56]}})
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stop_reasons"] == ["max_steps", "max_steps"]
    assert summary["rows"] == 10
    assert budgets == [20, 20]


def _sweep_config(tmp_path, sweep):
    return _write_config(tmp_path, {
        "task": "simulate", "model": "conservative",
        "initial": {"sigma": 1.3}, "t_span": [0.0, 5.0], "samples": 4,
        "sweep": sweep})


def test_sweep_over_samples_keeps_integers(tmp_path):
    cfg = _sweep_config(tmp_path, {"samples": [5, 3]})
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    header, data = output.read_csv(tmp_path / "sweep.csv")
    assert header[0] == "samples"
    assert list(data[:, 0]) == [3.0] * 3 + [5.0] * 5
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["rows"] == 8
    # The summary keeps its swept values floats, as for a float grid.
    assert summary["swept"] == {"samples": [3.0, 5.0]}
    assert all(type(v) is float for v in summary["swept"]["samples"])


def test_sweep_over_max_steps_counts_toward_the_budget(tmp_path, capsys,
                                                       monkeypatch):
    budgets = []

    def run(parsed):
        budgets.append(parsed["integrator"].max_steps)
        return cli._run_trajectory(parsed)

    monkeypatch.setitem(cli._TASKS, "simulate", (
        cli._parse_simulate, run, cli._TRAJECTORY_HEADER, None))
    cfg = _sweep_config(tmp_path, {"integrator.max_steps": [20, 10]})
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 2
    assert budgets == [10, 20]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stop_reasons"] == ["max_steps", "max_steps"]
    assert summary["swept"] == {"integrator.max_steps": [10.0, 20.0]}
    assert all(type(v) is float
               for v in summary["swept"]["integrator.max_steps"])

    monkeypatch.setattr(cli, "_MAX_SWEEP_STEPS", 29)
    (tmp_path / "summary.json").unlink()
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert ("the sweep's integrator.max_steps sum to 30; at most 29"
            in capsys.readouterr().err)
    assert budgets == [10, 20]
    assert not (tmp_path / "summary.json").exists()


def test_sweep_value_beyond_float_range_exits_1(tmp_path, capsys):
    cfg = _sweep_config(tmp_path, {"samples": [3, 10**400]})
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert ("config error: sweep.samples must be a finite number"
            in capsys.readouterr().err)


def test_thermal_grid_size_bound_exits_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "variant": "integral-form",
        "grid": {"beta_min": 0.5, "beta_max": 4.0, "beta_count": 2001},
        "t_span": [0.0, 1.0], "samples": 2,
        "integrator": {"scheme": "implicit-a-stable"}})
    rc = cli.main(["thermal", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "grid.beta_count must be at most 2000" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = _free_config(tmp_path, integrator={"rel_tol_x": 1e-8})
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown key: integrator.rel_tol_x" in capsys.readouterr().err


@pytest.mark.parametrize("value", [10**400, -10**400],
                         ids=["1e400", "-1e400"])
def test_integer_beyond_float_range_exits_1(tmp_path, capsys, value):
    cfg = _write_config(tmp_path, {"model": "conservative",
                                   "initial": {"sigma": value},
                                   "t_span": [0.0, 1.0]})
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert ("config error: initial.sigma must be a finite number"
            in capsys.readouterr().err)


@pytest.mark.parametrize("model, initial, key", [
    ("conservative", {"sigma": math.inf}, "sigma"),
    ("conservative", {"sigma": math.nan}, "sigma"),
    ("conservative", {"sigma": 1.0, "sigma_dot": math.inf}, "sigma_dot"),
    ("radiative-naive", {"sigma": 1.0, "sigma_ddot": math.nan},
     "sigma_ddot"),
    ("overdamped-dissipative", {"sigma": math.inf}, "sigma"),
], ids=["inf-sigma", "nan-sigma", "inf-rate", "nan-acceleration",
        "overdamped-inf-sigma"])
def test_non_finite_start_exits_1(tmp_path, capsys, model, initial, key):
    # Python's json reads Infinity and NaN.
    cfg = _write_config(tmp_path, {"model": model,
                                   "params": {"b": 1.0, "r": 0.01},
                                   "initial": initial,
                                   "t_span": [0.0, 1.0]})
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert (f"config error: initial.{key} must be a finite number"
            in capsys.readouterr().err)
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("natural, message", [
    ({"friction": math.inf}, "b must be non-negative and finite"),
    ({"temperature": -1.0}, "beta must be positive"),
], ids=["inf-friction", "negative-temperature"])
def test_bad_natural_params_exit_1(tmp_path, capsys, natural, message):
    cfg = _free_config(tmp_path, params={"natural": natural})
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert (f"config error: params.natural: {message}"
            in capsys.readouterr().err)


def test_unknown_model_exits_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"model": "nope",
                                   "initial": {"sigma": 1.0},
                                   "t_span": [0.0, 1.0]})
    rc = cli.main(["simulate", "--config", cfg])
    assert rc == 1
    assert "model must be one of" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload, key", [
    ("simulate", {"model": [1], "initial": {"sigma": 1.0},
                  "t_span": [0.0, 1.0]}, "model"),
    ("thermal", {"variant": {}, "grid": {"beta_min": 0.5, "beta_max": 2.0,
                                         "beta_count": 5},
                 "t_span": [0.0, 1.0]}, "variant"),
    ("simulate", {"model": "conservative", "initial": {"sigma": 1.0},
                  "t_span": [0.0, 1.0], "integrator": {"scheme": [0]}},
     "integrator.scheme"),
    ("sweep", {"task": {"simulate": 1}, "sweep": {"initial.sigma": [1.0]}},
     "task"),
])
def test_name_of_the_wrong_type_names_its_key(tmp_path, capsys, command,
                                              payload, key):
    cfg = _write_config(tmp_path, payload)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert f"config error: {key} must be one of" in capsys.readouterr().err


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


def test_verify_prints_bounds_and_bands(tmp_path, capsys, monkeypatch):
    def probe_suite(rel_tol):
        return [verification._run_check("one-sided", 1e-3,
                                        lambda: (5e-4, "")),
                verification._run_check("banded", (1.8, 2.2),
                                        lambda: (2.5, "order 2.5"))]

    monkeypatch.setitem(verification._SUITES, "probe", probe_suite)
    rc = cli.main(["verify", "probe", "--out", str(tmp_path)])
    assert rc == 3
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [
        "PASS one-sided: measured 5.000e-04, bound 1.000e-03",
        "FAIL banded: measured 2.500e+00, band [1.800e+00, 2.200e+00] "
        "(order 2.5)"]
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert [(c["lower"], c["tolerance"]) for c in report["checks"]] == [
        (None, 1e-3), (1.8, 2.2)]


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


def test_plot_escapes_chart_text(tmp_path):
    # The file name becomes the title and the header the axis and series
    # labels: XML markup characters in them stay text.
    table = tmp_path / "r&d.csv"
    table.write_text("x,a<b&c\n0,1\n1,2\n", encoding="ascii")
    rc = cli.main(["plot", str(table), "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    svg = minidom.parse(str(tmp_path / "r&d.svg"))
    texts = {node.firstChild.data
             for node in svg.getElementsByTagName("text")}
    assert {"r&d", "x", "a<b&c"} <= texts


def test_plot_writes_non_ascii_text_as_character_references(tmp_path):
    table = tmp_path / "\u00e9.csv"
    table.write_text("x,a\n0,1\n1,2\n", encoding="ascii")
    rc = cli.main(["plot", str(table), "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    data = (tmp_path / "\u00e9.svg").read_bytes()
    assert data.isascii() and b">&#233;</text>" in data
    texts = {node.firstChild.data for node in
             minidom.parseString(data).getElementsByTagName("text")}
    assert "\u00e9" in texts


def test_plot_of_a_non_ascii_header_names_the_file(tmp_path, capsys):
    table = tmp_path / "mu.csv"
    table.write_text("x,\u00b5\n0,1\n1,2\n", encoding="utf-8")
    rc = cli.main(["plot", str(table), "--out", str(tmp_path), "--quiet"])
    assert rc == 1
    assert f"{table} is not ASCII" in capsys.readouterr().err
    assert not (tmp_path / "mu.svg").exists()


def test_plot_leaves_no_file_when_its_write_fails(tmp_path, monkeypatch,
                                                  capsys):
    table = tmp_path / "t.csv"
    table.write_text("x,a\n0,1\n1,2\n", encoding="ascii")

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:10])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(output, "open",
                        lambda path, mode: FullDisk(open(path, mode)),
                        raising=False)
    rc = cli.main(["plot", str(table), "--out", str(tmp_path), "--quiet"])
    assert rc == 1
    assert "No space left on device" in capsys.readouterr().err
    assert not (tmp_path / "t.svg").exists()


def test_quiet_suppresses_stdout(tmp_path, capsys):
    cfg = _free_config(tmp_path)
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    assert capsys.readouterr().out == ""
