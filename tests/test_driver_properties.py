"""Driver invariants over random starts of every scalar width model.

Each property holds for any correct adaptive driver, whatever its
internal arithmetic: node times strictly increase and end exactly at
``t_end`` on COMPLETED, from any start time, node spacings equal the
recorded step sizes, ``sample`` returns the nodes exactly, ``n_rhs``
equals the model calls the run makes, and damped runs never gain energy
between nodes by more than a slack tied to the tolerance.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from ermakov import core, integrators, models
from ermakov.core import PhysicalParams, State
from ermakov.integrators import IntegratorConfig, StopReason
from ermakov.models import ModelVariant, OVERDAMPED_VARIANTS

_REL_TOL = 1e-9
# Largest relative energy rise allowed between neighbouring nodes of a
# damped run: ten times the relative tolerance, fixed before measuring.
# An accepted step's local error is at most about rel_tol per component,
# so its energy moves by a few rel_tol at most.
_ENERGY_SLACK = 10.0 * _REL_TOL

_PARAMS = {
    ModelVariant.CONSERVATIVE: PhysicalParams(),
    ModelVariant.DISSIPATIVE: PhysicalParams(b=0.4),
    ModelVariant.HIGH_TEMPERATURE: PhysicalParams(b=0.4, beta=2.0),
    ModelVariant.RADIATIVE_NAIVE: PhysicalParams(r=0.01),
    ModelVariant.RADIATIVE_REDUCED: PhysicalParams(r=0.05),
    ModelVariant.OVERDAMPED_DISSIPATIVE: PhysicalParams(b=5.0),
    ModelVariant.OVERDAMPED_HIGH_TEMPERATURE: PhysicalParams(b=5.0,
                                                             beta=2.0),
}
# The module attributes a run calls its model through, one per rhs
# evaluation (overdamped runs also fill each node's rate column).
_ENTRY_POINTS = ("acceleration", "radiative_jerk", "overdamped_velocity")


def _counted_run(monkeypatch, variant, sigma0, rate0, t_span):
    calls = [0]
    for name in _ENTRY_POINTS:
        real = getattr(models, name)

        def wrapper(*args, _real=real, **kwargs):
            calls[0] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(models, name, wrapper)
    params = _PARAMS[variant]
    cfg = IntegratorConfig(rel_tol=_REL_TOL, abs_tol=1e-12,
                           max_steps=5000)
    if variant in OVERDAMPED_VARIANTS:
        traj, reason = integrators.integrate_overdamped(
            variant, sigma0, t_span, params, cfg)
        calls[0] -= traj.times.size
    else:
        traj, reason = integrators.integrate(
            variant, State(sigma0, rate0), t_span, params, cfg)
    return traj, reason, calls[0]


@pytest.mark.parametrize("variant", list(_PARAMS), ids=lambda v: v.value)
@settings(max_examples=12, deadline=None)
@given(sigma0=strategies.floats(0.3, 3.0),
       rate0=strategies.floats(-1.0, 1.0),
       t_end=strategies.floats(0.05, 6.0))
# A subnormal negative rate: the first-step heuristic used to overflow
# dividing by it, leaking a RuntimeWarning.
@example(sigma0=1.0, rate0=-5e-324, t_end=1.0)
def test_driver_invariants(variant, sigma0, rate0, t_end):
    with pytest.MonkeyPatch.context() as monkeypatch:
        traj, reason, model_calls = _counted_run(monkeypatch, variant,
                                                 sigma0, rate0, (0.0, t_end))
    assert reason in (StopReason.COMPLETED, StopReason.RUNAWAY_DETECTED)
    if variant is not ModelVariant.RADIATIVE_NAIVE:
        assert reason is StopReason.COMPLETED
    assert np.all(np.diff(traj.times) > 0.0)
    assert traj.times[0] == 0.0
    if reason is StopReason.COMPLETED:
        assert traj.times[-1] == t_end
    assert traj.n_accepted == traj.times.size - 1
    assert np.array_equal(traj.sample(traj.times), traj.states)
    assert traj.n_rhs == model_calls


@pytest.mark.parametrize("variant", list(_PARAMS), ids=lambda v: v.value)
@settings(max_examples=12, deadline=None)
@given(sigma0=strategies.floats(0.3, 3.0),
       rate0=strategies.floats(-1.0, 1.0),
       t0=strategies.floats(-2.0**40, 2.0**40),
       length=strategies.floats(0.05, 6.0))
# Far from zero the spacing of floats (1 at 2**52) exceeds the steps the
# tolerance asks for, so no step can advance t.
@example(sigma0=1.0, rate0=0.0, t0=2.0**52, length=64.0)
# At 1e9 t + h rounds; the state must be integrated over the step the
# node spacing really is.
@example(sigma0=1.3, rate0=0.4, t0=1e9, length=5.0)
def test_times_strictly_increase_from_any_start(variant, sigma0, rate0, t0,
                                                length):
    t_end = t0 + length
    with pytest.MonkeyPatch.context() as monkeypatch:
        traj, reason, model_calls = _counted_run(monkeypatch, variant,
                                                 sigma0, rate0, (t0, t_end))
    assert reason in (StopReason.COMPLETED, StopReason.RUNAWAY_DETECTED,
                      StopReason.STEP_UNDERFLOW)
    assert np.all(np.diff(traj.times) > 0.0)
    assert np.array_equal(np.diff(traj.times), traj.step_sizes[1:])
    assert traj.times[0] == t0
    if reason is StopReason.COMPLETED:
        assert traj.times[-1] == t_end
    assert traj.n_accepted == traj.times.size - 1
    assert traj.n_rhs == model_calls


@pytest.mark.parametrize("variant", [ModelVariant.DISSIPATIVE,
                                     ModelVariant.RADIATIVE_REDUCED],
                         ids=lambda v: v.value)
@settings(max_examples=12, deadline=None)
@given(sigma0=strategies.floats(0.3, 3.0),
       rate0=strategies.floats(-1.0, 1.0),
       t_end=strategies.floats(0.05, 6.0))
def test_damped_node_energy_never_rises(variant, sigma0, rate0, t_end):
    params = _PARAMS[variant]
    traj, reason = integrators.integrate(
        variant, State(sigma0, rate0), (0.0, t_end), params,
        IntegratorConfig(rel_tol=_REL_TOL, abs_tol=1e-12))
    assert reason is StopReason.COMPLETED
    energy = core.energy(traj.states, params)
    assert np.all(energy[1:] <= energy[:-1] * (1.0 + _ENERGY_SLACK))
