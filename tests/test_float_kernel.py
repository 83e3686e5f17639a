"""The float DP54 kernel against the array kernel it replaces for dim <= 3.

``_dp54_attempt`` (numpy arrays) stays the reference.  Both kernels are
fed the same stage derivatives by a replaying right-hand side, so they
differ only in the order of their stage sums.  Each sum has at most 7
terms, and each kernel's rounding error is at most about 7 eps times the
sum of the absolute terms; the tolerance is therefore fixed at
``14 eps sum|terms|`` per entry before measuring.
"""

import math
import warnings

import numpy as np
import pytest

from ermakov import integrators, models
from ermakov.core import PhysicalParams, State
from ermakov.integrators import IntegratorConfig, StopReason
from ermakov.models import ModelVariant

EPS = np.finfo(float).eps
_ABS_TOL, _REL_TOL = 1e-12, 1e-9


def _replay(stages):
    """An rhs that returns the given derivatives in call order."""
    calls = iter(stages)
    return lambda y: next(calls)


def _attempts(y, f0, stages, h):
    """Both kernels on one input: (reference, float) outcomes.

    An outcome is the kernel's return value, or the exception class it
    raised.
    """
    outcomes = []
    for kernel, state, first, rows in (
            (integrators._dp54_attempt, np.array(y), np.array(f0),
             [np.array(k) for k in stages]),
            (integrators._dp54_floats, list(y), list(f0),
             [tuple(k) for k in stages])):
        try:
            outcomes.append(kernel(_replay(rows), state, first, h, 1,
                                   _ABS_TOL, _REL_TOL))
        except (integrators._FloorBreach, integrators._BadStep) as exc:
            outcomes.append(type(exc))
    return outcomes


def _within(got, ref, terms):
    """Entries equal (an overflow to inf on both sides included) or
    within 14 eps sum|terms|."""
    got, ref = np.asarray(got), np.asarray(ref)
    with np.errstate(invalid="ignore"):
        close = np.abs(got - ref) <= 14 * EPS * terms
    return bool(np.all((got == ref) | close))


def _random_input(rng, dim):
    y = np.concatenate(([rng.uniform(0.1, 3.0)],
                        rng.uniform(-3.0, 3.0, dim - 1)))
    size = 10.0 ** rng.uniform(-3.0, 3.0)
    k = rng.standard_normal((7, dim)) * size
    roll = rng.uniform()
    if roll < 0.05:
        k[rng.integers(1, 7), rng.integers(dim)] = rng.choice(
            [math.inf, -math.inf, math.nan])
    elif roll < 0.1:
        k[rng.integers(1, 7), rng.integers(dim)] = 1e308
    return y, k, 10.0 ** rng.uniform(-4.0, 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_float_kernel_matches_the_array_kernel(dim):
    rng = np.random.default_rng(20261018 + dim)
    kinds = set()
    for _ in range(3000):
        y, k, h = _random_input(rng, dim)
        with np.errstate(all="ignore"):
            ref, got = _attempts(y, k[0], k[1:], h)
        kinds.add(ref if isinstance(ref, type) else "step")
        if isinstance(ref, type):
            assert got is ref
            continue
        assert not isinstance(got, type), got
        y1_ref, f1_ref, err_ref, c_ref = ref
        y1, f1, err, c = got
        b, e, p = (np.array(integrators._DP_B + (0.0,)),
                   np.array(integrators._DP_E), np.array(integrators._DP_P))
        with np.errstate(over="ignore"):
            y1_terms = np.abs(y) + h * (np.abs(b) @ np.abs(k))
            c_terms = np.vstack((np.abs(y), h * (np.abs(p).T @ np.abs(k))))
            # The error norm inherits the bound of each error entry, and
            # that of y1 through the scale; computing the norm itself
            # rounds about 7 times per kernel, hence 8 eps err.
            scale = _ABS_TOL + _REL_TOL * np.maximum(np.abs(y),
                                                     np.abs(y1_ref))
            err_bound = 14 * EPS * (
                math.sqrt(np.mean((h * (np.abs(e) @ np.abs(k)) / scale)
                                  ** 2))
                + err_ref * np.max(_REL_TOL * y1_terms / scale)) \
                + 8 * EPS * err_ref
        assert _within(y1, y1_ref, y1_terms)
        assert np.array_equal(f1, f1_ref)
        assert _within(c, c_ref, c_terms)
        assert err == err_ref or abs(err - err_ref) <= err_bound
    assert kinds == {"step", integrators._FloorBreach, integrators._BadStep}


def _raising_after(calls_before, error):
    real = models.acceleration
    count = [0]

    def acceleration(*args):
        count[0] += 1
        if count[0] > calls_before:
            raise error("raised by the test")
        return real(*args)

    return acceleration


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
def test_model_raising_mid_run_ends_in_step_underflow(monkeypatch, error):
    monkeypatch.setattr(models, "acceleration", _raising_after(40, error))
    traj, reason = integrators.integrate(
        ModelVariant.CONSERVATIVE, State(1.3, 0.4), (0.0, 5.0),
        PhysicalParams(), IntegratorConfig())
    assert reason is StopReason.STEP_UNDERFLOW
    assert traj.n_accepted > 0 and traj.n_rejected > 0


def test_huge_width_completes_as_on_numpy_scalars(monkeypatch):
    # sigma^3 overflows on Python floats; on numpy scalars the quantum
    # pressure is 0 and the run is an ordinary oscillation.
    real = models.acceleration
    calls = [0]

    def acceleration(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(models, "acceleration", acceleration)
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("ignore")
        traj, reason = integrators.integrate(
            ModelVariant.CONSERVATIVE, State(1e150, 0.0), (0.0, 1.0),
            PhysicalParams(), IntegratorConfig())
    assert reason is StopReason.COMPLETED
    assert traj.sigma[-1] == pytest.approx(1e150 * math.cos(1.0), rel=1e-8)
    assert traj.n_rhs == calls[0]
