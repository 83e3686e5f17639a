"""Verification harness behaviour: reporting, overrides, crash capture."""

import math

import pytest

from ermakov import integrators, models, verification
from ermakov.integrators import StopReason


def test_suite_names_are_stable():
    assert verification.suite_names() == (
        "free-particle", "pinney", "energy", "overdamped",
        "thermal-equilibrium", "thermal-limits", "radiative", "madelung")


def test_argument_validation():
    with pytest.raises(ValueError, match="unknown suite"):
        verification.run_suites("pinneyy")
    with pytest.raises(ValueError, match="unknown suite"):
        verification.run_suites(["free-particle", "nope"])
    with pytest.raises(ValueError, match="rel_tol"):
        verification.run_suites("free-particle", rel_tol=1.5)
    with pytest.raises(ValueError, match="rel_tol"):
        verification.run_suites("free-particle", rel_tol=0.0)


def test_fast_suites_pass_and_report_shape():
    report = verification.run_suites(["free-particle", "energy"])
    assert report.passed
    assert report.failed_names == ()
    assert [r.name for r in report.results[:2]] == [
        "free-spreading-match", "free-spreading-rate-match"]
    payload = report.to_dict()
    assert payload["passed"] is True
    assert len(payload["checks"]) == len(report.results)
    first = payload["checks"][0]
    assert set(first) == {"name", "passed", "measured", "lower",
                          "tolerance", "detail"}
    assert first["lower"] is None
    assert first["measured"] <= first["tolerance"]


def test_loose_integration_override_fails_tight_bounds():
    report = verification.run_suites("pinney", rel_tol=1e-2)
    assert not report.passed
    assert "pinney-oracle-sweep" in report.failed_names


def test_crashing_check_is_captured_not_raised(monkeypatch):
    def boom(t, sigma0, params):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr("ermakov.analytic.free_spreading", boom)
    report = verification.run_suites("free-particle")
    assert not report.passed
    assert len(report.results) == 2
    for res in report.results:
        assert not res.passed
        assert math.isnan(res.measured)
        assert res.detail.startswith("raised")
        assert (res.lower, res.tolerance) == (None, 1e-8)


def test_detects_wrong_model_acceleration(monkeypatch):
    def skewed(sigma, params):
        return 1.02 * (-params.omega0 ** 2 * sigma
                       + params.hbar ** 2
                       / (4.0 * params.m ** 2 * sigma ** 3))

    monkeypatch.setattr(models, "conservative_acceleration", skewed)
    report = verification.run_suites("free-particle")
    assert not report.passed


def test_electron_scale_check_uses_physical_constants():
    report = verification.run_suites("radiative")
    names = [r.name for r in report.results]
    assert "electron-memory-time" in names
    res = report.results[names.index("electron-memory-time")]
    assert res.passed
    assert 6.2e-24 < res.measured < 6.3e-24


def _judge(bound, fn):
    return verification._run_check("probe", bound, fn)


def test_pass_rule_for_bounds_and_bands():
    inside = _judge((1.0, 2.0), lambda: (1.5, "inside"))
    assert inside.passed and (inside.lower, inside.tolerance) == (1.0, 2.0)
    assert _judge((1.0, 2.0), lambda: (1.0, "")).passed
    assert _judge((1.0, 2.0), lambda: (2.0, "")).passed
    assert _judge(2.0, lambda: (-5.0, "")).passed
    for bound, value in (((1.0, 2.0), 0.999), ((1.0, 2.0), 2.001),
                         (2.0, 2.001), ((1.0, 2.0), math.nan),
                         (2.0, math.nan), (2.0, math.inf)):
        res = _judge(bound, lambda value=value: (value, "d"))
        assert not res.passed, (bound, value)
        assert res.detail == "d"
    assert _judge(2.0, lambda: (1.0, "")).lower is None


def test_stopped_run_reads_inf_with_declared_bound():
    traj = object()
    assert verification._finished((traj, StopReason.COMPLETED)) is traj
    res = _judge((1.0, 2.0), lambda: verification._finished(
        (traj, StopReason.MAX_STEPS)))
    assert not res.passed
    assert res.measured == math.inf
    assert res.detail == "stopped: max_steps"
    assert (res.lower, res.tolerance) == (1.0, 2.0)
    # The runaway check needs the runaway stop; completing is a stop too.
    res = _judge(1.0, lambda: (verification._finished(
        (traj, StopReason.COMPLETED), StopReason.RUNAWAY_DETECTED), ""))
    assert (res.passed, res.measured, res.detail) == (
        False, math.inf, "stopped: completed")


def test_crash_reads_nan_with_declared_bound():
    def boom():
        raise RuntimeError("synthetic fault")

    res = _judge((1.0, 2.0), boom)
    assert not res.passed
    assert math.isnan(res.measured)
    assert res.detail.startswith("raised RuntimeError")
    assert (res.lower, res.tolerance) == (1.0, 2.0)


def test_suite_reports_a_stopped_run(monkeypatch):
    real = integrators.integrate

    def capped(*args, **kwargs):
        traj, _ = real(*args, **kwargs)
        return traj, StopReason.MAX_STEPS

    monkeypatch.setattr(integrators, "integrate", capped)
    report = verification.run_suites("free-particle")
    assert report.failed_names == ("free-spreading-match",
                                   "free-spreading-rate-match")
    for res in report.results:
        assert res.measured == math.inf
        assert res.detail == "stopped: max_steps"
        assert (res.lower, res.tolerance) == (None, 1e-8)
