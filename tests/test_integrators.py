"""Adaptive driver: accuracy, dense output, guards, stop reasons."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from ermakov import analytic, core, integrators
from ermakov.core import PhysicalParams, State, State3
from ermakov.integrators import IntegratorConfig, Scheme, StopReason
from ermakov.models import ModelVariant


def _pinney_errors(rel_tol, t_end=10.0):
    params = PhysicalParams()
    cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-3)
    traj, reason = integrators.integrate(
        ModelVariant.CONSERVATIVE, State(2.0, 0.0), (0.0, t_end),
        params, cfg)
    assert reason is StopReason.COMPLETED
    ts = np.linspace(0.0, t_end, 157)
    got = traj.sample(ts)[:, 0]
    ref = np.array([analytic.pinney_solution(t, 2.0, 0.0, params).sigma
                    for t in ts])
    return float(np.max(np.abs(got - ref) / ref)), traj


def test_accuracy_against_closed_form():
    err, _ = _pinney_errors(1e-10)
    assert err < 1e-8


def test_error_scales_with_tolerance():
    loose, _ = _pinney_errors(1e-5)
    tight, _ = _pinney_errors(1e-11)
    assert tight < loose / 100.0


def test_dense_output_is_node_exact():
    _, traj = _pinney_errors(1e-9)
    idx = [1, len(traj.times) // 2, len(traj.times) - 1]
    got = traj.sample(traj.times[idx])
    assert np.array_equal(got, traj.states[idx])


def test_sample_rejects_out_of_range():
    _, traj = _pinney_errors(1e-9, t_end=2.0)
    with pytest.raises(ValueError, match="within"):
        traj.sample([-0.1])
    with pytest.raises(ValueError, match="within"):
        traj.sample([2.0000001])
    with pytest.raises(ValueError, match="within"):
        traj.sample([1.0, math.nan])


def _dense_grid(traj, count):
    """A uniform grid over the run, every node time, both end points."""
    lo, hi = traj.times[0], traj.times[-1]
    return np.concatenate((np.linspace(lo, hi, count), traj.times,
                           [lo, hi], traj.times[1:] - 1e-3 * np.diff(
                               traj.times)))


@pytest.mark.parametrize("variant", [ModelVariant.CONSERVATIVE,
                                     ModelVariant.DISSIPATIVE,
                                     ModelVariant.RADIATIVE_NAIVE])
def test_sample_matches_scalar_reference_bitwise(variant, scalar_sample):
    params = PhysicalParams(b=0.5, r=0.01)
    traj, _ = integrators.integrate(variant, State(1.3, 0.4), (0.0, 4.0),
                                    params, IntegratorConfig(rel_tol=1e-8))
    ts = _dense_grid(traj, 2001)
    assert np.array_equal(traj.sample(ts), scalar_sample(traj, ts))
    assert np.array_equal(traj.sample(traj.times), traj.states)


def test_first_order_sample_matches_scalar_reference_bitwise(scalar_sample):
    params = PhysicalParams(b=10.0)
    traj, reason = integrators.integrate_overdamped(
        ModelVariant.OVERDAMPED_DISSIPATIVE, 0.3, (0.0, 3.0), params, None)
    assert reason is StopReason.COMPLETED
    ts = _dense_grid(traj, 501)
    assert np.array_equal(traj.sample(ts), scalar_sample(traj, ts))


def test_single_node_run_samples_only_its_node():
    # The first attempt fails at a coarse step floor: one node, no steps.
    cfg = IntegratorConfig(rel_tol=1e-12, h_min=1.0, h_max=1.0)
    traj, reason = integrators.integrate(
        ModelVariant.CONSERVATIVE, State(2.0, 0.3), (0.0, 10.0),
        PhysicalParams(), cfg)
    assert reason is StopReason.STEP_UNDERFLOW
    assert traj.times.tolist() == [0.0]
    assert traj.dense_coefficients.shape == (0, 5, 2)
    assert np.array_equal(traj.sample([0.0, 0.0]),
                          np.vstack([traj.states, traj.states]))
    assert traj.sample([]).shape == (0, 2)
    for t in (-1e-12, 1e-12, 10.0):
        with pytest.raises(ValueError, match="within"):
            traj.sample(t)


@settings(max_examples=25, deadline=None)
@given(sigma0=strategies.floats(0.2, 5.0),
       rate0=strategies.floats(-2.0, 2.0),
       t_end=strategies.floats(0.1, 8.0))
def test_conservative_run_properties(sigma0, rate0, t_end):
    params = PhysicalParams()
    traj, reason = integrators.integrate(
        ModelVariant.CONSERVATIVE, State(sigma0, rate0), (0.0, t_end),
        params, IntegratorConfig(rel_tol=1e-8))
    assert reason is StopReason.COMPLETED
    assert np.all(np.diff(traj.times) > 0.0)
    assert traj.times[-1] == t_end
    assert np.array_equal(traj.sample(traj.times), traj.states)
    assert np.array_equal(traj.energy, [core.energy(row, params)
                                        for row in traj.states])
    assert np.allclose(traj.energy, [core.energy(State(s, sd), params)
                                     for s, sd in traj.states],
                       rtol=1e-15, atol=0.0)


def test_trajectory_energy_matches_functional():
    _, traj = _pinney_errors(1e-9, t_end=3.0)
    expected = [core.energy(State(s, sd), traj.params)
                for s, sd in traj.states]
    assert np.allclose(traj.energy, expected, rtol=1e-15)


def test_state_at_returns_plain_state():
    _, traj = _pinney_errors(1e-9, t_end=3.0)
    st = traj.state_at(1.234)
    assert isinstance(st, State) and not isinstance(st, State3)


def test_h_init_bounds_first_step():
    params = PhysicalParams()
    cfg = IntegratorConfig(h_init=1e-3)
    traj, _ = integrators.integrate(ModelVariant.CONSERVATIVE,
                                    State(1.0, 0.0), (0.0, 1.0), params, cfg)
    assert traj.step_sizes[0] == 0.0
    assert traj.step_sizes[1] <= 1e-3 * (1.0 + 1e-12)


def test_times_strictly_increasing_and_end_exact():
    _, traj = _pinney_errors(1e-9, t_end=7.0)
    assert np.all(np.diff(traj.times) > 0.0)
    assert traj.times[-1] == 7.0


def test_sigma_guard_stops_shrinking_width():
    # free packet moving inward dips below a deliberately high floor
    params = PhysicalParams(omega0=0.0)
    cfg = IntegratorConfig(sigma_min_guard=0.9)
    traj, reason = integrators.integrate(
        ModelVariant.CONSERVATIVE, State(1.0, -0.5), (0.0, 4.0),
        params, cfg)
    assert reason is StopReason.SIGMA_GUARD_HIT
    assert traj.times[-1] < 4.0
    assert np.all(traj.sigma > 0.9)


def test_max_steps_stop():
    cfg = IntegratorConfig(max_steps=3)
    traj, reason = integrators.integrate(
        ModelVariant.CONSERVATIVE, State(2.0, 0.0), (0.0, 50.0),
        PhysicalParams(), cfg)
    assert reason is StopReason.MAX_STEPS
    assert traj.n_accepted == 3


def test_step_underflow_when_floor_is_too_coarse():
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, h_init=0.5,
                           h_min=0.5)
    _, reason = integrators.integrate(
        ModelVariant.CONSERVATIVE, State(2.0, 0.0), (0.0, 10.0),
        PhysicalParams(), cfg)
    assert reason is StopReason.STEP_UNDERFLOW


def test_runaway_detected_for_perturbed_third_order_run():
    params = PhysicalParams(r=0.01)
    base = -1.0 + 0.25  # conservative acceleration at sigma = 1
    initial = State3(1.0, 0.0, base + 0.1)
    traj, reason = integrators.integrate(
        ModelVariant.RADIATIVE_NAIVE, initial, (0.0, 5.0), params, None)
    assert reason is StopReason.RUNAWAY_DETECTED
    assert traj.times[-1] < 1.0


def test_third_order_on_shell_short_run_completes():
    params = PhysicalParams(r=0.01)
    traj, reason = integrators.integrate(
        ModelVariant.RADIATIVE_NAIVE, State(1.0, 0.0), (0.0, 0.1),
        params, None)
    assert reason is StopReason.COMPLETED
    st = traj.state_at(0.08)
    assert isinstance(st, State3)
    # ...but the structural instability surfaces on longer horizons
    _, reason = integrators.integrate(
        ModelVariant.RADIATIVE_NAIVE, State(1.0, 0.0), (0.0, 5.0),
        params, None)
    assert reason is StopReason.RUNAWAY_DETECTED


def test_implicit_scheme_matches_explicit():
    params = PhysicalParams(b=0.5)
    span = (0.0, 5.0)
    cfg_e = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)
    cfg_i = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13,
                             scheme=Scheme.TRBDF2)
    te, _ = integrators.integrate(ModelVariant.DISSIPATIVE,
                                  State(2.0, 0.0), span, params, cfg_e)
    ti, _ = integrators.integrate(ModelVariant.DISSIPATIVE,
                                  State(2.0, 0.0), span, params, cfg_i)
    ts = np.linspace(0.0, 5.0, 101)
    assert np.max(np.abs(te.sample(ts)[:, 0] - ti.sample(ts)[:, 0])) < 1e-6


def _singular_solver(y, f0, dh):
    return lambda g: np.linalg.solve(np.zeros((g.size, g.size)), g)


def _nan_solver(y, f0, dh):
    return lambda g: np.full_like(g, np.nan)


def _inf_solver(y, f0, dh):
    return lambda g: np.full_like(g, np.inf)


def _unfactorable_solver(y, f0, dh):
    raise np.linalg.LinAlgError("Singular matrix")


def _nan_inverse_solver(y, f0, dh):
    # A NaN Jacobian entry, as an overflowed width gives.  LAPACK either
    # rejects the matrix or returns a NaN inverse; both are bad steps.
    minv = np.linalg.inv(np.array([[np.nan, 1.0], [1.0, 1.0]]))
    return lambda g: minv @ g


@pytest.mark.parametrize("newton_solver",
                         [_singular_solver, _nan_solver, _inf_solver,
                          _unfactorable_solver, _nan_inverse_solver])
def test_failed_newton_solves_end_in_step_underflow(newton_solver):
    # A singular or non-finite solve, or a matrix the solver cannot
    # factor, is a bad step: halve, then stop at the step floor, never
    # raise.  An infinite Newton update must not pass for a width
    # crossing the floor (SIGMA_GUARD_HIT).
    def rhs(y):
        return np.array([y[1], -y[0]])

    cfg = IntegratorConfig(scheme=Scheme.TRBDF2, h_init=0.1, h_min=1e-3)
    fields, reason = integrators._drive(rhs, np.array([1.0, 0.0]),
                                        (0.0, 1.0), cfg,
                                        newton_solver=newton_solver)
    assert reason is StopReason.STEP_UNDERFLOW
    assert fields["n_accepted"] == 0
    assert fields["n_rejected"] > 0


def test_stiff_friction_warns_on_explicit_scheme():
    params = PhysicalParams(b=50.0)
    with pytest.warns(RuntimeWarning, match="friction"):
        integrators.integrate(ModelVariant.DISSIPATIVE, State(1.0, 0.0),
                              (0.0, 1e-3), params, None)


def test_overdamped_run_and_first_order_sampling():
    params = PhysicalParams(b=10.0)
    seed = analytic.overdamped_relaxation(0.05, params)
    traj, reason = integrators.integrate_overdamped(
        ModelVariant.OVERDAMPED_DISSIPATIVE, seed.sigma, (0.05, 3.0),
        params, IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13))
    assert reason is StopReason.COMPLETED
    ts = np.linspace(0.05, 3.0, 60)
    got = traj.sample(ts)
    ref = np.array([analytic.overdamped_relaxation(t, params).sigma
                    for t in ts])
    assert np.max(np.abs(got[:, 0] - ref) / ref) < 1e-7
    # the second column is the model velocity at the sampled width
    from ermakov import models
    vel = models.overdamped_velocity(float(got[7, 0]), params,
                                     ModelVariant.OVERDAMPED_DISSIPATIVE)
    assert got[7, 1] == pytest.approx(vel, rel=1e-14)


def test_routing_and_initial_state_validation():
    params = PhysicalParams()
    with pytest.raises(ValueError, match="integrate_overdamped"):
        integrators.integrate(ModelVariant.OVERDAMPED_DISSIPATIVE,
                              State(1.0, 0.0), (0.0, 1.0),
                              params.with_(b=1.0), None)
    with pytest.raises(ValueError, match="first-order"):
        integrators.integrate_overdamped(ModelVariant.CONSERVATIVE, 1.0,
                                         (0.0, 1.0), params, None)
    with pytest.raises(ValueError, match="b > 0"):
        integrators.integrate_overdamped(
            ModelVariant.OVERDAMPED_DISSIPATIVE, 1.0, (0.0, 1.0),
            params, None)
    with pytest.raises(ValueError, match="two-component"):
        integrators.integrate(ModelVariant.CONSERVATIVE,
                              State3(1.0, 0.0, 0.0), (0.0, 1.0),
                              params, None)
    with pytest.raises(ValueError, match="r > 0"):
        integrators.integrate(ModelVariant.RADIATIVE_NAIVE,
                              State(1.0, 0.0), (0.0, 1.0), params, None)
    with pytest.raises(ValueError, match="finite beta"):
        integrators.integrate(ModelVariant.HIGH_TEMPERATURE,
                              State(1.0, 0.0), (0.0, 1.0),
                              params.with_(b=1.0), None)
    with pytest.raises(ValueError, match="t_end"):
        integrators.integrate(ModelVariant.CONSERVATIVE, State(1.0, 0.0),
                              (1.0, 1.0), params, None)
    with pytest.raises(ValueError, match="sigma_min_guard"):
        integrators.integrate(ModelVariant.CONSERVATIVE,
                              State(1e-13, 0.0), (0.0, 1.0), params, None)


def test_config_validation():
    with pytest.raises(TypeError):
        IntegratorConfig(scheme="dopri54")
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=-1e-9)
    with pytest.raises(ValueError):
        IntegratorConfig(h_min=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h_min=2.0, h_max=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h_init=1e-20)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)
    with pytest.raises(ValueError):
        IntegratorConfig(sigma_min_guard=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(runaway_ratio=1.0)


def test_overflowing_initial_rate_starts_at_the_step_floor():
    # f0 overflows the error scale, so the first-step heuristic has no
    # usable estimate; it falls back to h_min instead of dividing by 0.
    params = PhysicalParams()
    cfg = IntegratorConfig()
    y0 = np.array([1.0, 1e308])
    f0 = np.array([1e308, -0.75])
    with np.errstate(over="ignore"):
        h = integrators._initial_step(lambda y: f0, y0, f0, 1.0, 5, cfg, 1)
    assert h == cfg.h_min
    # A probe that lands on a non-finite derivative does the same.
    y0 = np.array([1.0, 0.0])
    f0 = np.array([0.0, -0.75])
    h = integrators._initial_step(lambda y: np.array([0.0, math.nan]), y0,
                                  f0, 1.0, 5, cfg, 1)
    assert h == cfg.h_min
    with np.errstate(over="ignore", invalid="ignore"):
        _, reason = integrators.integrate(ModelVariant.CONSERVATIVE,
                                          State(1.0, 1e308), (0.0, 1.0),
                                          params, cfg)
    assert reason is StopReason.STEP_UNDERFLOW


def test_module_level_sample_wrapper():
    _, traj = _pinney_errors(1e-9, t_end=2.0)
    ts = np.array([0.5, 1.5])
    assert np.array_equal(integrators.sample(traj, ts), traj.sample(ts))
