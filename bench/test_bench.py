"""Tests of the benchmark itself: span arithmetic, percentiles, gates.

    python3 -m pytest -q bench
"""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gates  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ermakov import analytic, integrators  # noqa: E402
from ermakov.core import PhysicalParams, State  # noqa: E402
from ermakov.integrators import StopReason  # noqa: E402
from ermakov.models import ModelVariant  # noqa: E402


# ------------------------------------------------------------ span arithmetic

def test_self_time_subtracts_direct_children_only():
    # 0 [0,10] -> 1 [1,4] -> 2 [2,3];  0 -> 3 [5,9];  4 [2,8] on a
    # second thread, a root of its own.
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 2.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 8.0])
    assert spans.self_times(parent, start, end).tolist() == \
        [3.0, 2.0, 1.0, 4.0, 6.0]


def test_union_length_merges_overlaps():
    start = np.array([5.0, 0.0, 1.0, 1.5])
    end = np.array([6.0, 2.0, 3.0, 2.0])
    assert spans.union_length(start, end) == 4.0


def test_worker_thread_spans_are_roots_with_the_task_id():
    tracer = spans.Tracer()
    tracer.install(workloads.MODULES)
    try:
        tracer.task = 7
        params = PhysicalParams()

        def one(s0):
            return integrators.integrate(ModelVariant.CONSERVATIVE,
                                         State(s0, 0.0), (0.0, 0.5), params)

        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(one, (0.8, 1.2)))
    finally:
        tracer.uninstall()
    table = tracer.table()
    names = np.array(tracer.names)[table["name"]]
    roots = table["parent"][names == "integrators.integrate"]
    assert roots.tolist() == [-1, -1]
    assert set(table["task"].tolist()) == {7}
    children = table["parent"][names == "models.acceleration"]
    assert np.all(np.isin(names[children], ["integrators.integrate"]))
    m = spans.layer_metrics(tracer)
    assert m["models.rhs_calls"] == sum(t.n_rhs for t, _ in results)
    assert m["integrators.runs"] == 2
    assert tracer.rhs_mismatches(7) == []


def test_uninstall_restores_every_entry_point():
    before = (integrators.integrate, integrators.Trajectory.sample,
              dict(workloads.verification._SUITES))
    tracer = spans.Tracer()
    tracer.install(workloads.MODULES)
    assert integrators.integrate is not before[0]
    tracer.uninstall()
    assert (integrators.integrate, integrators.Trajectory.sample,
            dict(workloads.verification._SUITES)) == before


def test_rhs_crosscheck_trips_on_a_miscounted_run(monkeypatch):
    real = integrators.integrate

    def overcounted(*args, **kwargs):
        traj, reason = real(*args, **kwargs)
        return dataclasses.replace(traj, n_rhs=traj.n_rhs + 1), reason

    monkeypatch.setattr(integrators, "integrate", overcounted)
    tracer = spans.Tracer()
    tracer.install(workloads.MODULES)
    try:
        result = workloads.Workload._run(
            "conservative",
            lambda: integrators.integrate(ModelVariant.CONSERVATIVE,
                                          State(1.0, 0.0), (0.0, 0.5),
                                          PhysicalParams()),
            lambda out: [], tracer)
    finally:
        tracer.uninstall()
    assert result.failures and "n_rhs" in result.failures[0]


# ---------------------------------------------------------------- percentiles

def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90
    assert run.percentile([3.0], 0.9) == 3.0


@pytest.mark.parametrize("n, expected", [(100, 0.9), (160, 0.9375),
                                         (20, 0.5), (10, 0.0), (0, 0.0)])
def test_supported_percentile_leaves_ten_samples_beyond(n, expected):
    q = run.supported_percentile(n)
    assert q == expected
    if n:
        assert n - np.ceil(q * n) >= 10 or q == 0.0


# ---------------------------------------------------------------------- gates

def test_shifted_oracle_value_fails_the_task(monkeypatch):
    real = analytic.pinney_solution

    def shifted(t, s0, v0, params):
        st = real(t, s0, v0, params)
        return State(st.sigma * (1.0 + 1e-7), st.sigma_dot)

    w = workloads.ExplicitOracle(1, None)
    ts = np.linspace(0.0, 0.5, 5)
    assert not any(w._conservative(1.0, 0.3, ts, 0.5))
    monkeypatch.setattr(analytic, "pinney_solution", shifted)
    failures = [f for f in w._conservative(1.0, 0.3, ts, 0.5) if f]
    assert failures and failures[0].startswith("oracle error")


def test_energy_gate_trips_on_a_rise():
    falling = np.array([2.0, 1.9, 1.9, 1.5])
    assert gates.energy_nonincreasing(falling) is None
    assert gates.energy_nonincreasing(falling + [0, 0, 1e-6, 0]) is not None


def test_thermal_gates_trip_beyond_their_bounds():
    sigma0 = np.ones(5)
    hold = (StopReason.COMPLETED, np.ones((3, 5)), sigma0)
    assert workloads.ImplicitField._check_hold(hold) == [None, None]
    drifted = (StopReason.COMPLETED, np.full((3, 5), 1.04), sigma0)
    assert workloads.ImplicitField._check_hold(drifted)[1] is not None
    stopped = (StopReason.STEP_UNDERFLOW, np.ones(5), np.ones(5))
    assert workloads.ImplicitField._check_relax(stopped)[0] is not None
    far = (StopReason.COMPLETED, np.full(5, 1.008), np.ones(5))
    assert workloads.ImplicitField._check_relax(far)[1] is not None


def test_flipped_csv_byte_fails_the_cli_task(tmp_path):
    w = workloads.CliOutput(3, tmp_path)
    try:
        kind, timed, check = w.tasks(0)[0]
        assert kind == "simulate"
        assert w._run(kind, timed, check, None).failures == []
        path = w.dir / "sim.csv"
        data = bytearray(path.read_bytes())
        digit = data.index(b"5", len(data) // 2)
        data[digit] = ord("4")
        path.write_bytes(bytes(data))
        failures = w._run(kind, lambda: 0, check, None).failures
        assert "sim.csv bytes differ from the first iteration" in failures
        assert w._run(kind, lambda: 1, check, None).failures[0] == \
            "exit code 1"
    finally:
        w.close()


def test_explicit_cli_runs_the_oracle_then_the_command_line_part(tmp_path):
    w = workloads.ExplicitCli(3, tmp_path)
    try:
        kinds = [kind for kind, _, _ in w.tasks(0)]
    finally:
        w.close()
    assert kinds == ["conservative"] * 8 + ["dissipative"] * 2 + [
        "simulate", "simulate-overdamped", "thermal", "sweep", "plot",
        "verify"]
    assert list(tmp_path.iterdir()) == []


def test_count_and_report_gates():
    assert gates.count("rows", 10, 10) is None
    assert gates.count("rows", 9, 10) == "9 rows, expected 10"
    good = {"passed": True, "checks": [{"name": "a", "passed": True}]}
    bad = {"passed": False, "checks": [{"name": "a", "passed": False}]}
    assert gates.report_passed(good) is None
    assert "a" in gates.report_passed(bad)
    assert gates.stop_reason(StopReason.MAX_STEPS) is not None
