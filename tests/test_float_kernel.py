"""The float DP54 kernel against the array kernel it replaces for dim <= 3.

``_dp54_attempt`` (numpy arrays) stays the reference.  Both kernels are
fed the same stage derivatives by a replaying right-hand side, so they
differ only in the order of their stage sums.  Each sum has at most 7
terms, and each kernel's rounding error is at most about 7 eps times the
sum of the absolute terms; the tolerance is therefore fixed at
``14 eps sum|terms|`` per entry before measuring.

The float kernel returns its stage derivatives, and the driver builds
the dense coefficients of a run's accepted steps once, at its end.
Those must equal, bitwise, the rows the kernel formed per step with
Python floats before.
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


def _float_attempt(y, f0, stages, h):
    """The float kernel's step with its dense coefficients built, as
    (y1, f1, err, dense_coeffs) like ``_dp54_attempt``."""
    stage = integrators._float_stages(_replay([tuple(k) for k in stages]),
                                      1, [0])
    y1, f1, err, ks = integrators._dp54_floats(stage, list(y), list(f0), h,
                                               _ABS_TOL, _REL_TOL)
    c = integrators._dp54_dense(np.array([y]), np.array([h]), [ks])
    return y1, f1, err, c[0]


def _attempts(y, f0, stages, h):
    """Both kernels on one input: (reference, float) outcomes.

    An outcome is the kernel's return value, or the exception class it
    raised.
    """
    outcomes = []
    for attempt in (
            lambda: integrators._dp54_attempt(
                _replay([np.array(k) for k in stages]), np.array(y),
                np.array(f0), h, 1, _ABS_TOL, _REL_TOL),
            lambda: _float_attempt(y, f0, stages, h)):
        try:
            outcomes.append(attempt())
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


def _reference_rows(y, h, ks):
    """One step's (5, dim) interpolant rows, summed with Python floats
    in the order the float kernel used when it formed them per step."""
    dim = len(y)
    k1, k3, k4, k5, k6, k7 = (ks[i * dim:(i + 1) * dim] for i in range(6))
    (_, p21, p31, p41), _, (_, p23, p33, p43), (_, p24, p34, p44), \
        (_, p25, p35, p45), (_, p26, p36, p46), (_, p27, p37, p47) = \
        integrators._DP_P
    rows = [(h * p,
             h * (p21 * p + p23 * r + p24 * s + p25 * u + p26 * v + p27 * w),
             h * (p31 * p + p33 * r + p34 * s + p35 * u + p36 * v + p37 * w),
             h * (p41 * p + p43 * r + p44 * s + p45 * u + p46 * v + p47 * w))
            for p, r, s, u, v, w in zip(k1, k3, k4, k5, k6, k7)]
    return (list(y), *zip(*rows))


_RUNS = {
    "overdamped": (1, lambda: integrators.integrate_overdamped(
        ModelVariant.OVERDAMPED_DISSIPATIVE, 0.3, (0.0, 3.0),
        PhysicalParams(b=10.0))),
    "conservative": (2, lambda: integrators.integrate(
        ModelVariant.CONSERVATIVE, State(1.3, 0.4), (0.0, 12.0),
        PhysicalParams(), IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15))),
    "rejections": (2, lambda: integrators.integrate(
        ModelVariant.CONSERVATIVE, State(0.2, 3.0), (0.0, 10.0),
        PhysicalParams(), IntegratorConfig(rel_tol=1e-4, abs_tol=1e-6))),
    "radiative": (3, lambda: integrators.integrate(
        ModelVariant.RADIATIVE_NAIVE, State(1.0, 0.1), (0.0, 2.0),
        PhysicalParams(r=0.01))),
    "huge-width": (2, lambda: integrators.integrate(
        ModelVariant.CONSERVATIVE, State(1e150, 0.0), (0.0, 1.0),
        PhysicalParams())),
}


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_dense_build_equals_the_per_step_rows(monkeypatch, name):
    dim, run = _RUNS[name]
    kernel = integrators._dp54_floats
    stages = {}

    def recording(stage, y, f0, h, abs_tol, rel_tol):
        out = kernel(stage, y, f0, h, abs_tol, rel_tol)
        stages[tuple(y), h] = out[3]
        return out

    monkeypatch.setattr(integrators, "_dp54_floats", recording)
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        # The huge width overflows on Python floats; its numpy-scalar
        # retries warn.
        warnings.simplefilter("ignore")
        traj, _ = run()
    if name == "rejections":
        assert traj.n_rejected > 0
    assert traj.dense_coefficients.shape == (traj.n_accepted, 5, dim)
    reference = []
    for i in range(traj.n_accepted):
        y = tuple(traj.states[i, :dim].tolist())
        h = float(traj.step_sizes[i + 1])
        reference.append(_reference_rows(y, h, stages[y, h]))
    reference = np.array(reference)
    assert reference.shape == traj.dense_coefficients.shape
    assert reference.tobytes() == traj.dense_coefficients.tobytes()
