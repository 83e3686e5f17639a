"""Adaptive driver: accuracy, dense output, guards, stop reasons."""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from ermakov import analytic, core, integrators, models, thermal
from ermakov.core import PhysicalParams, State, State3
from ermakov.integrators import IntegratorConfig, Scheme, StopReason
from ermakov.models import ModelVariant
from ermakov.thermal import BetaGrid, ThermalField, ThermalVariant


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


def _runaway_triggers(traj, params, ratio):
    """Per accepted node, whether the ratio and the window triggers hold,
    recomputed from the nodes with ``integrate``'s scale and floor."""
    sigma0, accel0 = traj.states[0, 0], traj.states[0, 2]
    scale = max(abs(accel0), params.omega0 ** 2 * sigma0 + params.hbar ** 2
                / (4.0 * params.m ** 2 * sigma0 ** 3))
    window = params.r / params.m
    accel = np.abs(traj.states[:, 2])
    by_ratio, by_window = [], []
    for i in range(1, traj.times.size):
        by_ratio.append(accel[i] >= ratio * scale)
        edge = traj.times[i] - window
        base = np.flatnonzero(traj.times[:i + 1] <= edge)
        by_window.append(base.size > 0 and accel[i] >= ratio * max(
            accel[base[-1]], 1e-3 * scale))
    return by_ratio, by_window


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("ratio, trigger", [
    (1.5, "window"), (5.0, "window"), (50.0, "window"), (1e6, "ratio")])
def test_runaway_stops_on_the_first_node_where_a_trigger_holds(
        scheme, ratio, trigger):
    # The window's base is the last node at or before t - r/m; a base
    # read one node off moves the stop or the trigger that fires.
    params = core.make_natural_params(epsilon=0.01)
    traj, reason = integrators.integrate(
        ModelVariant.RADIATIVE_NAIVE, State(1.0, 0.1), (0.0, 3.0), params,
        IntegratorConfig(scheme=scheme, runaway_ratio=ratio))
    assert reason is StopReason.RUNAWAY_DETECTED
    by_ratio, by_window = _runaway_triggers(traj, params, ratio)
    fired = [r or w for r, w in zip(by_ratio, by_window)]
    assert fired.index(True) == len(fired) - 1
    assert by_ratio[-1] == (trigger == "ratio")
    assert by_window[-1] == (trigger == "window")


def test_runaway_window_below_the_float_spacing_is_the_last_node():
    # Once t - r/m rounds to t, the window's base is the node just
    # accepted, so the window trigger cannot hold and the run goes on.
    params = PhysicalParams(r=1e-20)
    traj, reason = integrators.integrate(
        ModelVariant.RADIATIVE_NAIVE, State(1.0, 0.1), (0.0, 1.0), params,
        IntegratorConfig(scheme=Scheme.TRBDF2, max_steps=300))
    assert reason is StopReason.MAX_STEPS
    assert traj.times[-1] - params.r / params.m == traj.times[-1]


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


def _field_run(variant, count):
    params = PhysicalParams(beta=2.0, b=10.0)
    grid = BetaGrid.from_range(0.5, 4.0, count)
    start = ThermalField.at_rest(
        grid, 1.1 * thermal.equilibrium_profile_coth(grid, params).sigma)

    def run(cfg, span):
        traj, reason = thermal.integrate_thermal(variant, start, span,
                                                 params, cfg)
        assert reason is StopReason.COMPLETED
        return traj, count
    return run


def _width_run(b):
    params = PhysicalParams(b=b)

    def run(cfg, span):
        with warnings.catch_warnings():
            # DP54 at strong friction warns that it crawls.
            warnings.filterwarnings("ignore", "friction dominates",
                                    RuntimeWarning)
            traj, reason = integrators.integrate(
                ModelVariant.DISSIPATIVE, State(2.0, 0.0), span, params, cfg)
        assert reason is StopReason.COMPLETED
        return traj, 1
    return run


# Worst relative width error of TR-BDF2 at rel_tol (abs_tol = 1e-3
# rel_tol) against DP54 at rel 1e-13, over 41 dense samples, as measured
# with Newton stopped on the step norm alone: (run, t_end, {rel_tol:
# error}).
_TIGHT_REFERENCE_CASES = {
    "slope-71": (_field_run(ThermalVariant.BETA_DERIVATIVE, 71), 0.5,
                 {1e-9: 5.020e-10, 1e-7: 1.074e-8}),
    "integral-36": (_field_run(ThermalVariant.INTEGRAL_FORM, 36), 1.0,
                    {1e-9: 4.027e-10, 1e-7: 8.630e-9}),
    "width-b0.5": (_width_run(0.5), 2.0,
                   {1e-9: 1.109e-6, 1e-7: 2.421e-5}),
    "width-b100": (_width_run(100.0), 1.0,
                   {1e-9: 1.557e-9, 1e-7: 4.173e-9}),
}


def _trbdf2_errors(name):
    run, t_end, measured = _TIGHT_REFERENCE_CASES[name]
    ts = np.linspace(0.0, t_end, 41)
    ref, n = run(IntegratorConfig(rel_tol=1e-13, abs_tol=1e-16),
                 (0.0, t_end))
    want = ref.sample(ts)[:, :n]
    errors = {}
    for rel_tol in measured:
        traj, _ = run(IntegratorConfig(scheme=Scheme.TRBDF2, rel_tol=rel_tol,
                                       abs_tol=1e-3 * rel_tol), (0.0, t_end))
        got = traj.sample(ts)[:, :n]
        errors[rel_tol] = float(np.max(np.abs(got - want) / want))
    return errors


@pytest.mark.parametrize("name", sorted(_TIGHT_REFERENCE_CASES))
def test_trbdf2_error_against_a_tight_reference(name):
    # A change to the implicit scheme or its Newton solve may move the
    # true error by at most half again.  The widths, thermal fields
    # included, are the first n columns of the state.
    measured = _TIGHT_REFERENCE_CASES[name][2]
    for rel_tol, err in _trbdf2_errors(name).items():
        assert err <= 1.5 * measured[rel_tol], (rel_tol, err)


def _newton_distances(monkeypatch, run):
    """Run ``run()`` and return, per converged Newton solve, the scaled
    RMS distance of the accepted iterate from the same solve iterated to
    convergence with the same frozen matrix."""
    newton = integrators._newton
    distances = []

    def checked(rhs, solve, target, z0, dh, scale, nguard, state):
        z = newton(rhs, solve, target, z0, dh, scale, nguard, state)
        # Iterate until the update stops shrinking: rounding then
        # dominates it.
        converged, prev = z, math.inf
        for _ in range(50):
            dz = solve(converged - dh * rhs(converged) - target)
            dn = integrators._rms(dz / scale)
            if not dn < prev:
                break
            converged, prev = converged - dz, dn
        assert prev < 1e-3
        distances.append(integrators._rms((z - converged) / scale))
        return z

    with monkeypatch.context() as patched:
        patched.setattr(integrators, "_newton", checked)
        traj = run()
    return traj, np.array(distances)


def _hold_71():
    params = PhysicalParams(beta=2.0, b=80.0)
    grid = BetaGrid.from_range(0.5, 4.0, 71)
    traj, reason = thermal.integrate_thermal(
        ThermalVariant.BETA_DERIVATIVE,
        thermal.equilibrium_profile_coth(grid, params), (0.0, 10.0), params,
        IntegratorConfig(scheme=Scheme.TRBDF2, rel_tol=1e-9, abs_tol=1e-12))
    assert reason is StopReason.COMPLETED
    return traj


def _relax_36():
    params = PhysicalParams(beta=1.0, b=10.0)
    grid = BetaGrid.from_range(0.5, 4.0, 36)
    start = ThermalField.at_rest(
        grid, 1.2 * thermal.equilibrium_profile_coth(grid, params).sigma)
    traj, reason = thermal.integrate_thermal(
        ThermalVariant.INTEGRAL_FORM, start, (0.0, 60.0), params,
        IntegratorConfig(scheme=Scheme.TRBDF2, rel_tol=1e-8, abs_tol=1e-11))
    assert reason is StopReason.COMPLETED
    return traj


def _width_b100():
    cfg = IntegratorConfig(scheme=Scheme.TRBDF2, rel_tol=1e-9, abs_tol=1e-12)
    return _width_run(100.0)(cfg, (0.0, 1.0))[0]


def test_accepted_newton_iterates_lie_near_convergence(monkeypatch):
    # The 71-node hold, the 36-node relax and the width at friction 100:
    # nearly every solve stops after one iteration on the run's
    # contraction rate, each from the last step's interpolant and within
    # the tolerance 0.03 of its converged solution.
    for run in (_hold_71, _relax_36, _width_b100):
        traj, distances = _newton_distances(monkeypatch, run)
        assert distances.size == 2 * (traj.n_accepted + traj.n_rejected)
        assert distances.max() <= 0.03, run.__name__


def _same_run(alone, after):
    for key in ("times", "states", "step_sizes", "error_estimates",
                "dense_coefficients"):
        assert getattr(alone, key).tobytes() == getattr(after, key).tobytes()
    assert (alone.n_accepted, alone.n_rejected, alone.n_rhs) == (
        after.n_accepted, after.n_rejected, after.n_rhs)


def _field_11():
    return _field_run(ThermalVariant.INTEGRAL_FORM, 11)(
        IntegratorConfig(scheme=Scheme.TRBDF2, rel_tol=1e-8, abs_tol=1e-11),
        (0.0, 2.0))[0]


def test_newton_rate_estimate_belongs_to_its_run():
    # Each run starts from eta = 1, with no matrix and no step history: a
    # run after another is the run alone, node for node and coefficient
    # for coefficient.
    alone = _width_b100()
    field_alone = _field_11()
    _width_run(0.5)(IntegratorConfig(scheme=Scheme.TRBDF2, rel_tol=1e-9,
                                     abs_tol=1e-12), (0.0, 0.5))
    _same_run(alone, _width_b100())
    _same_run(field_alone, _field_11())
    _same_run(alone, _width_b100())


def _oscillator(y):
    return np.array([y[1], -y[0]])


def _oscillator_solver(y, f0, dh):
    mat = np.eye(2) - dh * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return lambda g: np.linalg.solve(mat, g)


def _counted_attempt(newton_solver):
    """A bound TR-BDF2 attempt on the oscillator with a fresh run and its
    own node record, ``accept(h, out)`` that records an attempt's step
    as ``_drive`` does, and the list of dh its ``newton_solver`` calls
    were made at."""
    calls = []
    times, states, dense = [0.0], [np.array([1.0, 0.5])], []

    def counted(y, f0, dh):
        calls.append(dh)
        return newton_solver(y, f0, dh)

    def accept(h, out):
        times.append(times[-1] + h)
        states.append(out[0])
        dense.append(out[3])

    attempt = partial(integrators._trbdf2_attempt, _oscillator, nguard=1,
                      abs_tol=1e-12, rel_tol=1e-9, newton_solver=counted,
                      run=integrators._Trbdf2Run(),
                      nodes=(times, states, dense))
    return attempt, accept, calls, states


def test_trbdf2_reuses_its_matrix_at_an_unchanged_dh():
    # An attempt at the dh of the last factorisation reuses it; one at a
    # new dh, as a retry after a rejection always has, factors afresh.
    attempt, accept, calls, states = _counted_attempt(_oscillator_solver)
    first = attempt(states[0], _oscillator(states[0]), 0.01)
    assert len(calls) == 1
    accept(0.01, first)
    second = attempt(first[0], first[1], 0.01)
    assert len(calls) == 1
    accept(0.01, second)
    attempt(second[0], second[1], 0.02)
    assert len(calls) == 2
    # That one is rejected: its retry, from the same node at a smaller h.
    attempt(second[0], second[1], 0.005)
    assert calls == [integrators._TB_D * h for h in (0.01, 0.02, 0.005)]


def test_trbdf2_factors_afresh_after_a_late_failure():
    # A solve that fails after its matrix was made, as
    # ``_late_failing_solver``'s do, halves the step: the retry from the
    # same accepted node calls the solver again, at its new dh.
    failing = [False]

    def solver(y, f0, dh):
        solve = _oscillator_solver(y, f0, dh)

        def checked(g):
            if failing[0]:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(g)
        return checked

    attempt, accept, calls, states = _counted_attempt(solver)
    first = attempt(states[0], _oscillator(states[0]), 0.01)
    accept(0.01, first)
    failing[0] = True
    with pytest.raises(np.linalg.LinAlgError):
        attempt(first[0], first[1], 0.01)
    assert len(calls) == 1
    failing[0] = False
    attempt(first[0], first[1], 0.005)
    assert len(calls) == 2
    # In the driver every attempt with ``_late_failing_solver`` fails, so
    # each one factors afresh.
    calls.clear()

    def counted(y, f0, dh):
        calls.append(dh)
        return _late_failing_solver(y, f0, dh)

    cfg = IntegratorConfig(scheme=Scheme.TRBDF2, h_init=0.1, h_min=1e-3)
    fields, _ = integrators._drive(_oscillator, np.array([1.0, 0.0]),
                                   (0.0, 1.0), cfg, newton_solver=counted)
    assert len(calls) == fields["n_rejected"] + 1


def _off_equilibrium_field(variant):
    params = PhysicalParams(beta=1.0, b=1.0)
    grid = BetaGrid.from_range(0.5, 4.0, 11)
    start = ThermalField.at_rest(
        grid, 0.5 * thermal.equilibrium_profile_coth(grid, params).sigma)
    traj, reason = thermal.integrate_thermal(
        variant, start, (0.0, 2.0), params,
        IntegratorConfig(scheme=Scheme.TRBDF2, rel_tol=1e-6, abs_tol=1e-9))
    assert reason is StopReason.COMPLETED
    return traj.n_rejected


def _radiative_window():
    traj, reason = integrators.integrate(
        ModelVariant.RADIATIVE_NAIVE, State(1.0, 0.1), (0.0, 2.0),
        PhysicalParams(r=0.01),
        IntegratorConfig(scheme=Scheme.TRBDF2, runaway_ratio=50.0))
    assert reason is StopReason.RUNAWAY_DETECTED
    return traj.n_rejected


# TR-BDF2 runs with rejected or failed attempts, each returning its
# driver's count of them.  The radiative run, which stops on the
# window trigger, has none.
_RETRY_RUNS = {
    "width-b0.5": lambda: _width_run(0.5)(
        IntegratorConfig(scheme=Scheme.TRBDF2, rel_tol=1e-8, abs_tol=1e-11),
        (0.0, 20.0))[0].n_rejected,
    "late-failure": lambda: integrators._drive(
        _oscillator, np.array([1.0, 0.0]), (0.0, 1.0),
        IntegratorConfig(scheme=Scheme.TRBDF2, h_init=0.1, h_min=1e-3),
        newton_solver=_late_failing_solver)[0]["n_rejected"],
    "radiative-window": _radiative_window,
    "field-slope": partial(_off_equilibrium_field,
                           ThermalVariant.BETA_DERIVATIVE),
    "field-integral": partial(_off_equilibrium_field,
                              ThermalVariant.INTEGRAL_FORM),
}


@pytest.mark.parametrize("name", sorted(_RETRY_RUNS))
def test_trbdf2_retries_at_a_smaller_dh(monkeypatch, name):
    # An attempt the driver did not accept leaves its node record as it
    # was, and the next attempt has a strictly smaller dh, so that
    # factoring on each new dh also factors every retry.
    kernel = integrators._trbdf2_attempt
    seen = []  # per attempt: (dh, accepted nodes at its start)

    def attempt(rhs, y, f0, h, **kwargs):
        dh, count = integrators._TB_D * h, len(kwargs["nodes"][0])
        if seen and seen[-1][1] == count:
            # Fail here: a retry at the same h would repeat itself.
            assert dh < seen[-1][0], (len(seen), dh, seen[-1][0])
        seen.append((dh, count))
        return kernel(rhs, y, f0, h, **kwargs)

    monkeypatch.setattr(integrators, "_trbdf2_attempt", attempt)
    rejected = _RETRY_RUNS[name]()
    retries = sum(a[1] == b[1] for a, b in zip(seen, seen[1:]))
    assert retries == rejected
    assert rejected > 0 or name == "radiative-window"


@pytest.mark.parametrize("theta, refresh", [(0.5, False), (2.0, True)])
def test_slow_newton_contraction_drops_the_matrix(theta, refresh):
    # z - dh f(z) = target with f(z) = -z and dh = 1, solved with the
    # matrix of f(z) = -lam z: each update shrinks the error by
    # theta = 1 - 2 / (1 + lam).  A theta above _TB_REFRESH drops the
    # run's matrix, so that the next attempt factors afresh.
    theta *= integrators._TB_REFRESH
    lam = 2.0 / (1.0 - theta) - 1.0
    run = integrators._Trbdf2Run()
    run.solve = kept = object()
    z = integrators._newton(lambda z: -z, lambda g: g / (1.0 + lam),
                            np.array([1.0]), np.array([1.0]), 1.0,
                            np.array([1e-3]), 1, run)
    assert abs(z[0] - 0.5) < 1e-4
    assert run.eta == pytest.approx(theta / (1.0 - theta))
    assert run.solve is (None if refresh else kept)


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


def _late_failing_solver(y, f0, dh):
    # Two solves succeed, then every later solve of the attempt raises:
    # the failure reaches the later Newton iterations and the error filter.
    exact = _oscillator_solver(y, f0, dh)
    calls = []

    def solve(g):
        calls.append(None)
        if len(calls) > 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return exact(g)
    return solve


@pytest.mark.parametrize("newton_solver",
                         [_singular_solver, _nan_solver, _inf_solver,
                          _unfactorable_solver, _nan_inverse_solver,
                          _late_failing_solver])
def test_failed_newton_solves_end_in_step_underflow(newton_solver):
    # A singular or non-finite solve, or a matrix the solver cannot
    # factor, is a bad step: halve, then stop at the step floor, never
    # raise.  An infinite Newton update must not pass for a width
    # crossing the floor (SIGMA_GUARD_HIT).
    cfg = IntegratorConfig(scheme=Scheme.TRBDF2, h_init=0.1, h_min=1e-3)
    fields, reason = integrators._drive(_oscillator, np.array([1.0, 0.0]),
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


@pytest.mark.parametrize("variant", list(ModelVariant),
                         ids=lambda v: v.value)
def test_first_order_exactly_for_the_overdamped_variants(variant):
    params = PhysicalParams(b=2.0, beta=2.0, r=0.01)
    if variant in models.OVERDAMPED_VARIANTS:
        traj, _ = integrators.integrate_overdamped(variant, 1.0, (0.0, 0.1),
                                                   params)
    else:
        traj, _ = integrators.integrate(variant, State(1.0, 0.0),
                                        (0.0, 0.1), params)
    assert traj.first_order is (variant in (
        ModelVariant.OVERDAMPED_DISSIPATIVE,
        ModelVariant.OVERDAMPED_HIGH_TEMPERATURE))


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


_NAN_STARTS = {
    "integrate": lambda: integrators.integrate(
        ModelVariant.CONSERVATIVE, State(math.nan, 0.0), (0.0, 1.0),
        PhysicalParams()),
    "integrate_overdamped": lambda: integrators.integrate_overdamped(
        ModelVariant.OVERDAMPED_DISSIPATIVE, math.nan, (0.0, 1.0),
        PhysicalParams(b=1.0)),
    "integrate_thermal": lambda: thermal.integrate_thermal(
        ThermalVariant.INTEGRAL_FORM,
        ThermalField.at_rest(BetaGrid.from_range(0.5, 2.0, 6),
                             [1.0, 1.0, math.nan, 1.0, 1.0, 1.0]),
        (0.0, 1.0), PhysicalParams()),
}


@pytest.mark.parametrize("entry", sorted(_NAN_STARTS))
def test_nan_start_width_names_the_guard(entry):
    # A NaN width is not above the guard, whichever entry point takes it.
    with pytest.raises(ValueError, match="sigma_min_guard"):
        _NAN_STARTS[entry]()


@pytest.mark.parametrize("t_span", [None, (0.0,), (0.0, "1"), 1.0,
                                    (0, 10 ** 400)])
def test_malformed_t_span_is_a_value_error(t_span):
    field = ThermalField.at_rest(BetaGrid.from_range(0.5, 2.0, 6), 1.0)
    runs = (
        lambda: integrators.integrate(ModelVariant.CONSERVATIVE,
                                      State(1.0, 0.0), t_span,
                                      PhysicalParams()),
        lambda: integrators.integrate_overdamped(
            ModelVariant.OVERDAMPED_DISSIPATIVE, 1.0, t_span,
            PhysicalParams(b=1.0)),
        lambda: thermal.integrate_thermal(ThermalVariant.INTEGRAL_FORM,
                                          field, t_span, PhysicalParams()),
    )
    for run in runs:
        with pytest.raises(ValueError, match="t_span"):
            run()


def test_non_numeric_initial_state_is_a_value_error():
    params = PhysicalParams(b=1.0, r=0.01)
    span = (0.0, 1.0)
    with pytest.raises(ValueError, match="initial"):
        integrators.integrate(ModelVariant.CONSERVATIVE, State("1", 0.0),
                              span, params)
    with pytest.raises(ValueError, match="initial"):
        integrators.integrate(ModelVariant.RADIATIVE_NAIVE,
                              State3(1.0, 0.0, None), span, params)
    with pytest.raises(ValueError, match="initial"):
        integrators.integrate(ModelVariant.CONSERVATIVE, (1.0, 0.0), span,
                              params)
    with pytest.raises(ValueError, match="sigma0"):
        integrators.integrate_overdamped(
            ModelVariant.OVERDAMPED_DISSIPATIVE, "1", span, params)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_underflowing_start_raises_without_a_warning():
    # sigma^3 underflows to 0, so the quantum pressure at the start is
    # not finite; the run refuses it before any warning.
    with pytest.raises(ValueError, match="not finite"):
        integrators.integrate(ModelVariant.CONSERVATIVE,
                              State(1e-300, 0.0), (0.0, 1.0),
                              PhysicalParams(),
                              IntegratorConfig(sigma_min_guard=1e-310))


@pytest.mark.parametrize("variant, name", [
    (ModelVariant.DISSIPATIVE, "acceleration"),
    (ModelVariant.RADIATIVE_NAIVE, "radiative_jerk")])
def test_models_get_the_stage_row_not_a_state(monkeypatch, variant, name):
    real = getattr(models, name)
    kinds = []

    def spy(*args):
        kinds.append(type(args[-2]))
        return real(*args)

    monkeypatch.setattr(models, name, spy)
    traj, _ = integrators.integrate(variant, State(1.3, 0.4), (0.0, 2.0),
                                    PhysicalParams(b=0.3, r=0.01))
    assert len(kinds) == traj.n_rhs
    assert not any(issubclass(kind, State) for kind in kinds)


_WIDTH_PARAMS = PhysicalParams(b=0.3, beta=2.0, r=0.01)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma0", [1.3, 1e150])
@pytest.mark.parametrize("variant", models.SECOND_ORDER_VARIANTS,
                         ids=lambda variant: variant.value)
def test_each_width_stage_calls_acceleration_once(monkeypatch, variant,
                                                  sigma0):
    # models.acceleration stays the one counted rhs entry of two-float
    # runs, and gets rows.  At width 1e150 every stage overflows on
    # Python floats and is counted again on its numpy-scalar retry.
    real = models.acceleration
    kinds = []

    def spy(*args):
        kinds.append(type(args[1]))
        return real(*args)

    monkeypatch.setattr(models, "acceleration", spy)
    traj, reason = integrators.integrate(variant, State(sigma0, 0.4),
                                         (0.0, 1.0), _WIDTH_PARAMS)
    assert reason is StopReason.COMPLETED
    assert len(kinds) == traj.n_rhs
    assert not any(issubclass(kind, State) for kind in kinds)
    assert list in kinds
    assert (kinds.count(np.ndarray) > traj.n_accepted) == (sigma0 > 1e100)


@pytest.mark.parametrize("variant", models.SECOND_ORDER_VARIANTS,
                         ids=lambda variant: variant.value)
def test_replaced_conservative_acceleration_reaches_every_stage(
        monkeypatch, variant):
    # integrate reads the model functions from the module at run time,
    # never at import, so a replaced formula reaches every stage.
    def end_state():
        traj, _ = integrators.integrate(variant, State(1.3, 0.4),
                                        (0.0, 2.0), _WIDTH_PARAMS)
        return traj

    before = end_state()
    real = models.conservative_acceleration
    calls = [0]

    def skewed(sigma, params):
        calls[0] += 1
        return 1.01 * real(sigma, params)

    monkeypatch.setattr(models, "conservative_acceleration", skewed)
    after = end_state()
    assert calls[0] == after.n_rhs
    assert after.states[-1].tobytes() != before.states[-1].tobytes()


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
