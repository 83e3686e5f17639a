"""Public entry points end cleanly on any input: a value, a ValueError or
a StopReason, never another exception and never a RuntimeWarning.

Covers ``core.energy`` on states and rows (Python ints up to 10**400,
floats up to +-1e308, subnormals), ``integrate`` and
``integrate_overdamped`` on capped runs (at most 2,000 steps over spans
of at most 10), and ``integrate_thermal`` and
``thermal.stationary_profile`` on 5-11-node grids on both schemes, and
the closed forms of ``analytic`` with ``core.ground_state_sigma``.  A
run's result is sampled between its nodes and, for width
models, its node energies are taken.  Each example records its outcome
as a Hypothesis event; ``--hypothesis-show-statistics`` shows the share
of runs against early ValueErrors.  An off-line hunt runs a copy of this
file with larger ``max_examples``.
"""

import math
import sys
import warnings
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ermakov import analytic, core, integrators, thermal
from ermakov.core import PhysicalParams, State, State3
from ermakov.integrators import IntegratorConfig, Scheme, StopReason
from ermakov.models import ModelVariant, OVERDAMPED_VARIANTS
from ermakov.thermal import BetaGrid, ThermalField, ThermalVariant

_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1e-150, 1e150,
             1e300, 1e308, -1e308, sys.float_info.max, 10**400, -10**400)
# Any finite float (subnormals included), an int up to 10**400 or an
# extreme, for the state entries.
_ANY = st.one_of(st.floats(-1e308, 1e308), st.sampled_from(_EXTREMES),
                 st.integers(-10**400, 10**400))


def _mostly(typical, rare):
    """``typical`` in about three draws of four, ``rare`` in the rest."""
    return st.sampled_from((False, False, False, True)).flatmap(
        lambda pick_rare: rare if pick_rare else typical)


_WIDTH = _mostly(st.floats(0.05, 5.0), _ANY)
_RATE = _mostly(st.floats(-2.0, 2.0), _ANY)


def _params(extreme):
    """Physical parameters in their usual ranges; with ``extreme``, each
    one may also be 1e-150 or the 1e150 cap."""
    def value(lo, hi):
        if not extreme:
            return st.floats(lo, hi)
        return _mostly(st.floats(lo, hi), st.sampled_from((1e-150, 1e150)))
    return st.builds(PhysicalParams, m=value(0.2, 5.0),
                     omega0=value(0.0, 3.0), hbar=value(0.2, 5.0),
                     b=value(0.0, 50.0),
                     beta=_mostly(st.floats(0.1, 10.0),
                                  st.just(core.ZERO_TEMPERATURE)),
                     r=value(0.0, 0.1))


_PARAMS = _mostly(_params(False), _params(True))
_CONFIG = st.builds(IntegratorConfig, scheme=st.sampled_from(list(Scheme)),
                    rel_tol=st.floats(1e-10, 1e-3),
                    abs_tol=st.floats(1e-13, 1e-6),
                    max_steps=st.integers(1, 2000))
_SPAN = st.tuples(st.floats(-1e3, 1e3),
                  _mostly(st.floats(1e-3, 10.0), st.floats(-1.0, 0.0))).map(
    lambda pair: (pair[0], pair[0] + pair[1]))

_ENDS = settings(max_examples=50, deadline=3000)


@contextmanager
def _clean():
    """RuntimeWarning as an error, but for the friction advice that
    ``integrate`` gives on purpose."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "friction dominates",
                                RuntimeWarning)
        yield


def _check_run(traj, reason, t_span):
    assert isinstance(reason, StopReason)
    event(reason.value)
    times = traj.times
    assert times[0] == t_span[0] and np.all(np.diff(times) > 0.0)
    assert traj.n_accepted == times.size - 1
    assert np.array_equal(traj.step_sizes[1:], np.diff(times))
    mids = 0.5 * (times[1:] + times[:-1])
    assert traj.sample(mids).shape == (mids.size, traj.states.shape[1])


def _exact_energy(sigma, rate, params):
    """``core.energy`` in rational arithmetic, rounded once."""
    s, v = Fraction(sigma), Fraction(rate)
    m, w, hbar = (Fraction(x) for x in (params.m, params.omega0,
                                        params.hbar))
    return float(m * v * v / 2 + m * w * w * s * s / 2
                 + hbar * hbar / (8 * m * s * s))


# Finite energies that a product leaving the float range lost to inf or
# to 0; each must match its exact value.
_FINITE_ENERGIES = {(1.0, 1e200, PhysicalParams(m=1e-300)),
                    (1e200, 0.0, PhysicalParams(m=1e-300, omega0=1e-20))}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=1000)
@given(sigma=_ANY, rate=_ANY, params=_PARAMS)
@example(sigma=10**400, rate=0.0, params=PhysicalParams())
@example(sigma=1.0, rate=-10**400, params=PhysicalParams())
# hbar^2 and 8 m s^2 underflow to 0: the energy is 1/8, not 0 / 0.
@example(sigma=1e-170, rate=0.0, params=PhysicalParams(hbar=1e-170))
# 0.5 m underflows to 0 and meets sd^2 = inf: the energy, about 2.5e322
# from its quantum term alone, is beyond the float range, not 0 * inf.
@example(sigma=1.0, rate=1e200, params=PhysicalParams(m=5e-324))
# sd^2 overflows: the energy is 1 / (8 m) = 1.25e299, not inf.
@example(sigma=1.0, rate=1e200, params=PhysicalParams(m=1e-300))
# 0.5 m omega0^2 underflows to 0: the energy is its trap term, 5e59.
@example(sigma=1e200, rate=0.0, params=PhysicalParams(m=1e-300,
                                                      omega0=1e-20))
def test_energy_ends_in_a_value(sigma, rate, params):
    try:
        value = core.energy(State(sigma, rate), params)
    except ValueError:
        assert not sigma > 0.0
    else:
        assert isinstance(value, float) and not np.isnan(value)
        assert value >= 0.0
    rows = core.energy([[sigma, rate], [1.0, 0.0]], params)
    assert rows.shape == (2,) and not np.isnan(rows).any()
    assert np.all(rows >= 0.0)
    if (sigma, rate, params) in _FINITE_ENERGIES:
        exact = _exact_energy(sigma, rate, params)
        assert value == pytest.approx(exact, rel=1e-14, abs=0.0)
        assert rows[0] == pytest.approx(exact, rel=1e-14, abs=0.0)


# Times for the closed forms: any finite float or an extreme, ints too.
_TIME = _mostly(st.floats(-20.0, 20.0), _ANY)


def _check_value(value):
    """A closed form's result: finite floats, or the overdamped forms'
    singular start State(0, inf)."""
    if value == State(0.0, math.inf):
        return
    parts = ((value.sigma, value.sigma_dot) if isinstance(value, State)
             else (value,))
    assert all(isinstance(part, float) and math.isfinite(part)
               for part in parts)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=1000)
@given(t=_TIME, sigma=_WIDTH, rate=_RATE, params=_PARAMS)
# sigma0^2 overflowed (OverflowError) in the Pinney forms and free
# spreading.
@example(t=-8.243029761017695, sigma=1e308, rate=-0.43447829478134325,
         params=PhysicalParams())
# sigma0^2 underflowed to 0 and the Pinney forms divided by it; free
# spreading's rate^2 overflowed.
@example(t=12.380785882796808, sigma=2.2e-308, rate=1.3751373977761072,
         params=PhysicalParams())
# An int time beyond the float range.
@example(t=10**400, sigma=1.0, rate=0.0, params=PhysicalParams(b=1.0))
# 4 m omega0^2 / b overflowed and met exp(-inf) = 0: a NaN rate.
@example(t=1e-150, sigma=1.0, rate=0.0,
         params=PhysicalParams(m=1e150, omega0=1e150, b=48.485826293462665))
# t / (m b) overflowed: an infinite width and a NaN rate.
@example(t=1e308, sigma=1.0, rate=0.0,
         params=PhysicalParams(hbar=1e-150, b=1e-150))
# hbar / (m omega0) overflowed: an infinite Pinney width with a NaN
# rate, and an infinite ground-state width where the width is 7.1e224;
# 4 m omega0^2 / b underflowed to 0, and the overdamped form divided by
# sqrt(1 - exp(0)).
@example(t=16.17851387305533, sigma=1.0, rate=0.0,
         params=PhysicalParams(m=1e-150, omega0=1e-150, hbar=1e150,
                               b=1e150))
def test_closed_forms_end_in_a_value(t, sigma, rate, params):
    calls = [
        (analytic.pinney_solution, (t, sigma, rate, params)),
        (analytic.pinney_acceleration, (t, sigma, rate, params)),
        (analytic.free_spreading, (t, sigma, params)),
        (analytic.overdamped_relaxation, (t, params)),
        (analytic.subdiffusion, (t, params)),
        (analytic.equilibrium_coth, (params,)),
        (analytic.equilibrium_high_temperature, (params,)),
        (core.ground_state_sigma, (params,)),
    ]
    for closed_form, args in calls:
        with _clean():
            try:
                value = closed_form(*args)
            except ValueError:
                event(f"{closed_form.__name__}: ValueError")
                continue
        _check_value(value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@_ENDS
@given(variant=st.sampled_from([v for v in ModelVariant
                                if v not in OVERDAMPED_VARIANTS]),
       sigma=_WIDTH, rate=_RATE, accel=_mostly(st.none(), _RATE),
       params=_PARAMS, t_span=_SPAN, config=_CONFIG)
def test_integrate_ends_in_a_stop_reason(variant, sigma, rate, accel, params,
                                         t_span, config):
    initial = State(sigma, rate) if accel is None else State3(sigma, rate,
                                                              accel)
    with _clean():
        try:
            traj, reason = integrators.integrate(variant, initial, t_span,
                                                 params, config)
        except ValueError:
            event("ValueError")
            return
        _check_run(traj, reason, t_span)
        assert traj.energy.shape == traj.times.shape


@pytest.mark.filterwarnings("error::RuntimeWarning")
@_ENDS
@given(variant=st.sampled_from(OVERDAMPED_VARIANTS), sigma=_WIDTH,
       params=_PARAMS, t_span=_SPAN, config=_CONFIG)
def test_integrate_overdamped_ends_in_a_stop_reason(variant, sigma, params,
                                                    t_span, config):
    with _clean():
        try:
            traj, reason = integrators.integrate_overdamped(
                variant, sigma, t_span, params, config)
        except ValueError:
            event("ValueError")
            return
        _check_run(traj, reason, t_span)
        assert traj.first_order


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=5000)
@given(variant=st.sampled_from(list(ThermalVariant)),
       beta_min=_mostly(st.floats(0.05, 2.0), st.sampled_from((1e-300,
                                                               1e150))),
       delta=_mostly(st.floats(0.02, 1.0), st.sampled_from((1e-320,
                                                            1e150))),
       count=st.integers(5, 11),
       factor=_mostly(st.floats(0.5, 2.0), st.sampled_from((1e-300,
                                                            1e150))),
       params=_PARAMS, t_span=_SPAN, config=_CONFIG)
# A subnormal spacing overflowed 1 / (2 delta) in the slope structure,
# built before the driver started.
@example(variant=ThermalVariant.BETA_DERIVATIVE, beta_min=1.0, delta=1e-320,
         count=5, factor=1.0, params=PhysicalParams(b=1.0),
         t_span=(0.0, 1.0), config=IntegratorConfig(scheme=Scheme.TRBDF2,
                                                    max_steps=50))
def test_integrate_thermal_ends_in_a_stop_reason(variant, beta_min, delta,
                                                 count, factor, params,
                                                 t_span, config):
    with _clean():
        try:
            grid = BetaGrid(beta_min, delta, count)
            start = ThermalField.at_rest(grid, factor * np.sqrt(
                grid.nodes / grid.nodes[-1]))
            traj, reason = thermal.integrate_thermal(variant, start, t_span,
                                                     params, config)
        except ValueError:
            event("ValueError")
            return
        _check_run(traj, reason, t_span)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=5000)
@given(variant=st.sampled_from(list(ThermalVariant)),
       beta_min=_mostly(st.floats(0.05, 2.0), st.sampled_from((1e-300,
                                                               1e150))),
       delta=_mostly(st.floats(0.02, 1.0), st.sampled_from((1e-320,
                                                            1e150))),
       count=st.integers(5, 11), params=_PARAMS,
       t_relax=_mostly(st.one_of(st.none(), st.floats(1e-3, 10.0)),
                       st.sampled_from((0.0, -1.0, 1e300))),
       config=_CONFIG)
# The start's widths overflowed, with a warning, in the equilibrium
# profile.
@example(variant=ThermalVariant.BETA_DERIVATIVE, beta_min=1.0, delta=1.0,
         count=5, params=PhysicalParams(omega0=1.5361730212012385e-269),
         t_relax=None, config=IntegratorConfig(max_steps=151))
# The borrowed critical damping 2 m omega0 underflowed to 0, and the
# default relaxation time divided by it.
@example(variant=ThermalVariant.BETA_DERIVATIVE, beta_min=1.0, delta=1.0,
         count=5, params=PhysicalParams(m=1e-150,
                                        omega0=1.3242326892688798e-287),
         t_relax=None, config=IntegratorConfig(max_steps=1))
def test_stationary_profile_ends_in_a_value(variant, beta_min, delta, count,
                                            params, t_relax, config):
    with _clean():
        try:
            grid = BetaGrid(beta_min, delta, count)
            profile = thermal.stationary_profile(variant, grid, params,
                                                 t_relax, config)
        except ValueError:
            event("ValueError")
            return
    event("profile")
    assert profile.shape == (count,)
    assert np.all(np.isfinite(profile) & (profile > 0.0))
