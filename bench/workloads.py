"""The benchmark's workloads: inputs from a seed, tasks, and their gates.

One client runs tasks back to back (a closed loop).  An iteration is a
fixed batch of tasks; iteration ``i`` draws its inputs from
``default_rng((seed, i))``, so the same seed and index always give the
same inputs however many iterations a run gets through.  ermakov
receives only the generated inputs.  Every call into ermakov goes
through a module attribute, so the traced run's wrappers see it.
"""

import json
import math
import shutil
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ermakov import (analytic, cli, integrators, madelung, models, output,
                     thermal, verification)
from ermakov.core import PhysicalParams, State, make_natural_params
from ermakov.integrators import IntegratorConfig, Scheme
from ermakov.models import ModelVariant
from ermakov.thermal import BetaGrid, ThermalField, ThermalVariant

import gates

MODULES = {
    "models": models, "integrators": integrators, "analytic": analytic,
    "thermal": thermal, "madelung": madelung, "verification": verification,
    "cli": cli, "output": output,
}


class TaskResult(NamedTuple):
    kind: str
    seconds: float
    failures: list


class Workload:
    """Base: subclasses define ``warm_up`` and ``tasks(index)``."""

    name = ""
    trace_iterations = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, index))

    def iteration(self, index: int, tracer=None) -> list:
        """Run iteration ``index``; one TaskResult per task."""
        return [self._run(kind, timed, check, tracer)
                for kind, timed, check in self.tasks(index)]

    @staticmethod
    def _run(kind, timed, check, tracer) -> TaskResult:
        if tracer is not None:
            tracer.task += 1
            tracer.kind = kind
        t0 = time.perf_counter()
        try:
            out = timed()
            seconds = time.perf_counter() - t0
            failures = [f for f in check(out) if f]
        except Exception as exc:  # a crashed task is a failed task
            seconds = time.perf_counter() - t0
            failures = [f"raised {exc!r}"]
        if tracer is not None:
            failures += filter(None, [gates.rhs_crosscheck(
                tracer.rhs_mismatches(tracer.task))])
        return TaskResult(kind, seconds, failures)

    def close(self) -> None:
        pass


def _checked(failures):
    """Task whose check runs inside the timed part."""
    return failures


# ------------------------------------------------ explicit-cli: oracle part

class ExplicitOracle(Workload):
    """DP54 at rtol 1e-12 on seeded starts, checked against closed forms.

    Per iteration: 8 conservative starts drawn as a Latin hypercube over
    sigma0 in [0.1, 10] and sigma_dot0 in [-2, 2] (the pinney suite's
    ranges), each run over one width period [0, pi] and sampled at 50
    seeded times against ``analytic.pinney_solution``; plus 2 lightly
    damped starts (b in [0.05, 0.2]) whose node energies must not rise.
    """

    T_END = math.pi
    CONSERVATIVE = 8
    DISSIPATIVE = 2
    SAMPLES = 48

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.config = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15)

    def warm_up(self):
        for failures in (self._conservative(1.0, 0.5, np.array([0.0, 0.5]),
                                            0.5),
                         self._dissipative(2.0, 0.0, 0.1, 0.5)):
            if any(failures):
                raise RuntimeError(f"warm-up failed: {failures}")

    def tasks(self, index):
        rng = self.rng(index)
        n, m = self.CONSERVATIVE, self.DISSIPATIVE
        sig = 0.1 + 9.9 * (np.arange(n) + rng.random(n)) / n
        vel = -2.0 + 4.0 * (rng.permutation(n) + rng.random(n)) / n
        out = []
        for s0, v0 in zip(sig.tolist(), vel.tolist()):
            ts = np.sort(np.concatenate((
                [0.0, self.T_END], rng.uniform(0.0, self.T_END,
                                               self.SAMPLES))))
            out.append(("conservative",
                        lambda s0=s0, v0=v0, ts=ts: self._conservative(
                            s0, v0, ts, self.T_END), _checked))
        for k in range(m):
            s0 = 0.1 + 9.9 * (k + rng.random()) / m
            v0 = rng.uniform(-2.0, 2.0)
            b = rng.uniform(0.05, 0.2)
            out.append(("dissipative",
                        lambda s0=s0, v0=v0, b=b: self._dissipative(
                            s0, v0, b, self.T_END), _checked))
        return out

    def _conservative(self, s0, v0, ts, t_end):
        params = PhysicalParams()
        traj, reason = integrators.integrate(
            ModelVariant.CONSERVATIVE, State(s0, v0), (0.0, t_end), params,
            self.config)
        got = traj.sample(ts)[:, 0]
        ref = np.array([analytic.pinney_solution(t, s0, v0, params).sigma
                        for t in ts.tolist()])
        return [gates.stop_reason(reason),
                gates.oracle(got, ref, gates.ORACLE_BOUND)]

    def _dissipative(self, s0, v0, b, t_end):
        params = PhysicalParams(b=b)
        traj, reason = integrators.integrate(
            ModelVariant.DISSIPATIVE, State(s0, v0), (0.0, t_end), params,
            self.config)
        energy = gates.energies(traj.states, params.m, params.omega0,
                                params.hbar)
        return [gates.stop_reason(reason),
                gates.energy_nonincreasing(energy)]


# -------------------------------------------------------- implicit-field

class ImplicitField(Workload):
    """TR-BDF2 on thermal fields, at the thermal suite's settings.

    Per iteration: the slope-form hold (71 nodes on [0.5, 4], friction
    80, rtol 1e-9, t in [0, 10]) and a damped integral-form relaxation
    (36 nodes, friction 10, start at a seeded factor in [1.15, 1.25]
    times the coth profile, rtol 1e-8, t in [0, 60]).
    """

    name = "implicit-field"
    HOLD = (71, 10.0)
    RELAX = (36, 60.0)

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.hold_params = make_natural_params(80.0, 1.0, 0.0)
        self.relax_params = make_natural_params(10.0, 1.0, 0.0)

    def warm_up(self):
        for reason in (self._hold(11, 0.005)[0],
                       self._relax(11, 0.02, 1.2)[0]):
            if gates.stop_reason(reason):
                raise RuntimeError(f"warm-up stopped: {reason.value}")

    def tasks(self, index):
        factor = self.rng(index).uniform(1.15, 1.25)
        return [("hold", lambda: self._hold(*self.HOLD), self._check_hold),
                ("relax", lambda: self._relax(*self.RELAX, factor),
                 self._check_relax)]

    def _hold(self, count, t_end):
        grid = BetaGrid.from_range(0.5, 4.0, count)
        field0 = thermal.equilibrium_profile_coth(grid, self.hold_params)
        config = IntegratorConfig(scheme=Scheme.TRBDF2, rel_tol=1e-9,
                                  abs_tol=1e-12)
        traj, reason = thermal.integrate_thermal(
            ThermalVariant.BETA_DERIVATIVE, field0, (0.0, t_end),
            self.hold_params, config)
        return reason, traj.sigma, field0.sigma

    def _relax(self, count, t_end, factor):
        grid = BetaGrid.from_range(0.5, 4.0, count)
        target = thermal.equilibrium_profile_coth(grid, self.relax_params)
        field0 = ThermalField(grid=grid, sigma=factor * target.sigma,
                              sigma_dot=np.zeros(grid.count))
        config = IntegratorConfig(scheme=Scheme.TRBDF2, rel_tol=1e-8,
                                  abs_tol=1e-11)
        traj, reason = thermal.integrate_thermal(
            ThermalVariant.INTEGRAL_FORM, field0, (0.0, t_end),
            self.relax_params, config)
        return reason, traj.sigma[-1], target.sigma

    @staticmethod
    def _check_hold(out):
        reason, sigma, sigma0 = out
        return [gates.stop_reason(reason), gates.hold_drift(sigma, sigma0)]

    @staticmethod
    def _check_relax(out):
        reason, sigma_end, target = out
        return [gates.stop_reason(reason),
                gates.relaxation(sigma_end, target)]


# ------------------------------------------ explicit-cli: command-line part

class CliOutput(Workload):
    """In-process ``cli.main`` on seed-generated configs in a temp dir.

    The configs are drawn once per run, so every iteration must write
    byte-identical files.  A task is one ``cli.main`` call; its output
    checks run after the timed call.
    """

    SIM_SAMPLES = 20001
    OD_SAMPLES = 5001
    THERMAL = (71, 501)
    SWEEP = (6, 6, 201)
    SUITES = ("free-particle", "thermal-limits", "madelung")

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = np.random.default_rng(seed)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=work_dir))
        self.sim_start = (rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0))
        friction = rng.uniform(3.0, 8.0)
        od_sigma = rng.uniform(0.1, 0.5)
        factor = rng.uniform(1.02, 1.08)
        nx, ny, sweep_samples = self.SWEEP
        sweep_sigma = np.sort(rng.uniform(0.5, 2.5, nx)).tolist()
        sweep_vel = np.sort(rng.uniform(-1.0, 1.0, ny)).tolist()
        self.sim_rows = np.sort(rng.choice(self.SIM_SAMPLES, 64,
                                           replace=False))
        self.sweep_rows = np.sort(rng.choice(nx * ny * sweep_samples, 64,
                                             replace=False))
        loose = {"rel_tol": 1e-6, "abs_tol": 1e-9}
        nodes, samples = self.THERMAL
        self.configs = {
            "sim": {"model": "conservative",
                    "initial": {"sigma": self.sim_start[0],
                                "sigma_dot": self.sim_start[1]},
                    "t_span": [0.0, 20.0], "samples": self.SIM_SAMPLES,
                    "integrator": loose,
                    "output": {"csv": "sim.csv", "summary": "sim.json"}},
            "od": {"model": "overdamped-dissipative",
                   "params": {"natural": {"friction": friction}},
                   "initial": {"sigma": od_sigma}, "t_span": [0.0, 10.0],
                   "samples": self.OD_SAMPLES,
                   "integrator": {"rel_tol": 1e-8, "abs_tol": 1e-11},
                   "output": {"csv": "od.csv", "summary": "od.json"}},
            "thermal": {"variant": "integral-form",
                        "params": {"natural": {"temperature": 1.0}},
                        "grid": {"beta_min": 0.5, "beta_max": 4.0,
                                 "beta_count": nodes},
                        "profile": {"kind": "scaled-coth", "factor": factor},
                        "t_span": [0.0, 2.0], "samples": samples,
                        "integrator": dict(loose,
                                           scheme="explicit-adaptive"),
                        "output": {"csv": "thermal.csv",
                                   "summary": "thermal.json"}},
            "sweep": {"task": "simulate", "model": "conservative",
                      "initial": {"sigma": 1.0, "sigma_dot": 0.0},
                      "t_span": [0.0, 5.0], "samples": sweep_samples,
                      "integrator": loose,
                      "sweep": {"initial.sigma": sweep_sigma,
                                "initial.sigma_dot": sweep_vel},
                      "output": {"csv": "sweep.csv",
                                 "summary": "sweep.json"}},
        }
        self.reference = {}
        self.commands = self._commands(self.dir, self.configs, self.SUITES)

    def _commands(self, out, configs, suites):
        paths = {}
        for key, cfg in configs.items():
            paths[key] = out / f"{key}.config.json"
            paths[key].write_text(json.dumps(cfg), encoding="ascii")
        common = ["--out", str(out), "--quiet"]
        commands = [
            ("simulate", ["simulate", "--config", str(paths["sim"])],
             self._check_sim),
            ("simulate-overdamped", ["simulate", "--config",
                                     str(paths["od"])], self._check_od),
            ("thermal", ["thermal", "--config", str(paths["thermal"])],
             self._check_thermal),
            ("sweep", ["sweep", "--config", str(paths["sweep"]),
                       "--jobs", "2"], self._check_sweep),
            ("plot", ["plot", str(out / "thermal.csv")], self._check_plot),
            ("verify", ["verify", *suites], self._check_verify),
        ]
        return [(kind, argv + common, check)
                for kind, argv, check in commands]

    def warm_up(self):
        warm = self.dir / "warm"
        warm.mkdir()
        small = json.loads(json.dumps(self.configs))
        small["sim"]["samples"] = small["od"]["samples"] = 101
        small["thermal"]["grid"]["beta_count"] = 11
        small["thermal"]["samples"] = 11
        small["sweep"]["sweep"] = {"initial.sigma": [1.0, 1.5],
                                   "initial.sigma_dot": [0.0, 0.5]}
        for _, argv, _ in self._commands(warm, small, ("free-particle",)):
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"warm-up {argv[0]} exited {code}")

    def tasks(self, index):
        return [(kind, lambda argv=argv: cli.main(argv), check)
                for kind, argv, check in self.commands]

    def _csv(self, name, code, rows):
        data = (self.dir / name).read_bytes()
        return data, [gates.exit_code(code),
                      gates.count("rows", data.count(b"\n") - 1, rows),
                      gates.identical(name, data, self.reference)]

    @staticmethod
    def _pinney_rows(data, rows, start_time_width):
        """Widths of the chosen CSV rows against the closed form.

        ``start_time_width`` maps a row's fields to (sigma0, sigma_dot0,
        t, sigma).
        """
        lines = data.split(b"\n")
        got, ref = [], []
        params = PhysicalParams()
        for row in rows.tolist():
            fields = [float(x) for x in lines[1 + row].split(b",")]
            s0, v0, t, sigma = start_time_width(fields)
            got.append(sigma)
            ref.append(analytic.pinney_solution(t, s0, v0, params).sigma)
        return gates.oracle(np.array(got), np.array(ref),
                            gates.LOOSE_ORACLE_BOUND)

    def _check_sim(self, code):
        data, failures = self._csv("sim.csv", code, self.SIM_SAMPLES)
        s0, v0 = self.sim_start
        return failures + [self._pinney_rows(
            data, self.sim_rows, lambda f: (s0, v0, f[0], f[1]))]

    def _check_od(self, code):
        return self._csv("od.csv", code, self.OD_SAMPLES)[1]

    def _check_thermal(self, code):
        nodes, samples = self.THERMAL
        return self._csv("thermal.csv", code, nodes * samples)[1]

    def _check_sweep(self, code):
        nx, ny, samples = self.SWEEP
        data, failures = self._csv("sweep.csv", code, nx * ny * samples)
        return failures + [self._pinney_rows(data, self.sweep_rows,
                                             lambda f: f[:4])]

    def _check_plot(self, code):
        data = (self.dir / "thermal.svg").read_bytes()
        return [gates.exit_code(code),
                gates.count("polylines", data.count(b"<polyline"), 3),
                gates.identical("thermal.svg", data, self.reference)]

    def _check_verify(self, code):
        report = json.loads((self.dir / "verify_report.json").read_text())
        return [gates.exit_code(code), gates.report_passed(report)]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------- explicit-cli

class ExplicitCli(Workload):
    """The explicit path and the command line, one after the other.

    Per iteration: the tasks of an ``ExplicitOracle`` iteration, then
    the six ``cli.main`` calls of ``CliOutput``.  Neither part runs
    TR-BDF2, so ``implicit-field`` stays the only workload of the
    implicit path; every other layer is exercised here.
    """

    name = "explicit-cli"
    trace_iterations = 2

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.parts = (ExplicitOracle(seed, work_dir),
                      CliOutput(seed, work_dir))

    def warm_up(self):
        for part in self.parts:
            part.warm_up()

    def tasks(self, index):
        return [task for part in self.parts for task in part.tasks(index)]

    def close(self):
        for part in self.parts:
            part.close()


WORKLOADS = {cls.name: cls for cls in (ExplicitCli, ImplicitField)}
