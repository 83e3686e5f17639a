"""The float DP54 kernel against the array kernel it replaces for dim <= 3.

``_dp54_attempt`` (numpy arrays) stays the reference.  Both kernels are
fed the same stage derivatives by a replaying right-hand side, so they
differ only in the order of their stage sums.  Each sum has at most 7
terms, and each kernel's rounding error is at most about 7 eps times the
sum of the absolute terms; the tolerance is therefore fixed at
``14 eps sum|terms|`` per entry before measuring.

Both kernels return their stage derivatives, and the driver builds
the dense coefficients of a run's accepted steps once, at its end.
On floats those must equal, bitwise, the rows the kernel formed per
step with Python floats before, and the node array the kernel's lists
of floats; on arrays they must lie within the same
``14 eps sum|terms|`` of the rows numpy's matrix product ``k^T P``
formed per attempt before.

States of two floats step on ``_dp54_floats2``, the generic float
kernel written out for (s, v).  It must equal ``_dp54_floats`` bitwise:
on replayed stages, whatever they hold, and over whole runs.  The stages
of a second-order width model go through ``_width_stages``, which calls
the acceleration itself; it must equal ``_float_stages`` on the model's
rhs bitwise, stage by stage and over whole runs.
"""

import math
import struct
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
    (y1, f1, err, dense_coeffs)."""
    stage = integrators._float_stages(_replay([tuple(k) for k in stages]),
                                      [0])
    y1, f1, err, ks = integrators._dp54_floats(stage, _ABS_TOL, _REL_TOL,
                                               list(y), list(f0), h)
    c = integrators._dp54_dense(np.array([y, y1]), np.array([h]), [ks])
    return y1, f1, err, c[0]


def _flaky_replay(stages, call, raises):
    """A replay whose stage call number ``call`` raises OverflowError
    ``raises`` times before it answers: once, as a model that overflows
    on Python floats but not on numpy scalars; twice, as one that
    overflows on both."""
    calls = iter(stages)
    count = [0, 0]

    def rhs(y):
        if count[0] == call and count[1] < raises:
            count[1] += 1
            raise OverflowError("raised by the test")
        count[0] += 1
        return next(calls)
    return rhs


def _float_kernel_outcome(kernel, y, k, h, call, raises):
    """``kernel`` on replayed stages: (outcome, rhs calls counted), the
    outcome its return value or the exception class it raised."""
    nfev = [0]
    stage = integrators._float_stages(
        _flaky_replay([tuple(row) for row in k[1:]], call, raises), nfev)
    try:
        out = kernel(stage, _ABS_TOL, _REL_TOL, list(y), list(k[0]), h)
    except (integrators._FloorBreach, integrators._BadStep) as exc:
        return type(exc), nfev[0]
    return out, nfev[0]


def _bits(outcome):
    """An outcome with every float as its bit pattern, so that NaN
    equals NaN and -0.0 differs from 0.0."""
    if isinstance(outcome, type):
        return outcome
    y1, f1, err, stages = outcome
    return (type(y1), type(f1), type(stages),
            np.array([*y1, *f1, err, *stages], dtype=float).tobytes())


def _matmul_rows(y, h, k):
    """One step's (5, dim) interpolant rows from its (7, dim) stages by
    numpy's matrix product, as the array kernel formed them per attempt
    before its stages went to ``_dp54_dense``."""
    return np.vstack((y, h * (k.T @ np.array(integrators._DP_P)).T))


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
    unrolled_kinds = set()
    for _ in range(3000):
        y, k, h = _random_input(rng, dim)
        with np.errstate(all="ignore"):
            ref, got = _attempts(y, k[0], k[1:], h)
        kinds.add(ref if isinstance(ref, type) else "step")
        if dim == 2:
            # An attempt makes stage calls 0-5, so calls 6 and 7 never
            # raise; a raise is retried on numpy scalars, or fails the
            # step.
            call, raises = int(rng.integers(0, 8)), int(rng.integers(0, 3))
            with np.errstate(all="ignore"):
                generic, unrolled = (
                    _float_kernel_outcome(kernel, y, k, h, call, raises)
                    for kernel in (integrators._dp54_floats,
                                   integrators._dp54_floats2))
            assert _bits(unrolled[0]) == _bits(generic[0])
            assert unrolled[1] == generic[1]
            retried = raises and generic[1] > call
            unrolled_kinds.add((generic[0] if isinstance(generic[0], type)
                                else "step", "retried" if retried else ""))
        if isinstance(ref, type):
            assert got is ref
            continue
        assert not isinstance(got, type), got
        y1_ref, f1_ref, err_ref, stages_ref = ref
        assert np.array_equal(stages_ref, k[[0, 2, 3, 4, 5, 6]])
        with np.errstate(all="ignore"):
            c_ref = _matmul_rows(y, h, k)
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
    if dim == 2:
        assert unrolled_kinds >= {
            (kind, retried)
            for kind in ("step", integrators._FloorBreach,
                         integrators._BadStep)
            for retried in ("", "retried")}


class _ScriptedRate:
    """A stand-in for ``models.acceleration``: each call takes the next
    of ``answers``, a float to return or an exception class to raise,
    and logs the types of what it was given."""

    def __init__(self):
        self.answers = []
        self.log = []

    def __call__(self, variant, y, params):
        self.log.append((type(variant), type(y), type(params)))
        answer = self.answers.pop(0)
        if isinstance(answer, type):
            raise answer("raised by the test")
        return answer


def _random_stage(rng):
    """(ys, answers): a stage state and the acceleration calls' answers
    for it, with non-finite and non-positive widths, signed zeros and
    NaN among them, and a model that raises on none, one or both of the
    Python-float call and its numpy-scalar retry."""
    specials = [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan, 1e308]
    s = rng.uniform(0.1, 3.0) if rng.uniform() < 0.8 \
        else float(rng.choice(specials))
    v = rng.standard_normal() if rng.uniform() < 0.8 \
        else float(rng.choice(specials))
    value = rng.standard_normal() if rng.uniform() < 0.8 \
        else float(rng.choice(specials))
    error = (OverflowError, ZeroDivisionError)[rng.integers(2)]
    raises = int(rng.choice(3, p=[0.6, 0.2, 0.2]))
    return [float(s), float(v)], [error] * raises + [float(value)]


def _stage_bits(stage, ys):
    """A stage's return value with its element types and bit patterns
    (NaN equal to NaN, -0.0 apart from 0.0), or the exception class it
    raised."""
    try:
        out = stage(list(ys))
    except (integrators._FloorBreach, integrators._BadStep) as exc:
        return type(exc)
    return type(out), tuple(map(type, out)), struct.pack("2d", *out)


def test_width_stages_equal_the_generic_stage_evaluator():
    rng = np.random.default_rng(20261019)
    variant, params = ModelVariant.DISSIPATIVE, PhysicalParams(b=0.3)
    evaluators = []
    for name in ("_float_stages", "_width_stages"):
        rate, nfev = _ScriptedRate(), [0]

        def rhs(y, rate=rate):
            return y[1], rate(variant, y, params)

        stage = integrators._float_stages(rhs, nfev) \
            if name == "_float_stages" \
            else integrators._width_stages(rate, variant, params, rhs, nfev)
        evaluators.append((stage, rate, nfev))
    kinds = set()
    with np.errstate(all="ignore"):
        for _ in range(3000):
            ys, answers = _random_stage(rng)
            outcomes = []
            for stage, rate, nfev in evaluators:
                rate.answers = list(answers)
                outcomes.append((_stage_bits(stage, ys), nfev[0],
                                 len(rate.answers)))
            generic, width = outcomes
            assert width == generic
            calls = len(answers) - generic[2]
            kinds.add((generic[0] if isinstance(generic[0], type)
                       else "step", min(calls, 2)))
    (_, generic_rate, _), (_, width_rate, _) = evaluators
    assert width_rate.log == generic_rate.log
    assert kinds == {
        ("step", 1),                      # a clean stage
        (integrators._FloorBreach, 0),    # a width at or below 0
        (integrators._BadStep, 0),        # a non-finite stage state
        ("step", 2),                      # a retry that succeeds
        (integrators._BadStep, 2),        # a retry that fails
    }


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_width_completes_as_on_numpy_scalars(monkeypatch):
    # sigma^3 overflows on Python floats; on numpy scalars the quantum
    # pressure is 0 and the run is an ordinary oscillation, without a
    # warning.
    real = models.acceleration
    calls = [0]

    def acceleration(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(models, "acceleration", acceleration)
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


def _recording(monkeypatch, name, log):
    """Replace the float kernel ``name`` by one that logs its stages by
    (y, h), and the kernel's name with them."""
    kernel = getattr(integrators, name)

    def recording(stage, abs_tol, rel_tol, y, f0, h):
        out = kernel(stage, abs_tol, rel_tol, y, f0, h)
        log[tuple(y), h] = name, out[3], out[0]
        return out

    monkeypatch.setattr(integrators, name, recording)


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_dense_build_equals_the_per_step_rows(monkeypatch, name):
    dim, run = _RUNS[name]
    log = {}
    for kernel in ("_dp54_floats", "_dp54_floats2"):
        _recording(monkeypatch, kernel, log)
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        # The huge width overflows on Python floats; its numpy-scalar
        # retries warn.
        warnings.simplefilter("ignore")
        traj, _ = run()
    assert {kernel for kernel, _, _ in log.values()} == {
        "_dp54_floats2" if dim == 2 else "_dp54_floats"}
    if name == "rejections":
        assert traj.n_rejected > 0
    assert traj.dense_coefficients.shape == (traj.n_accepted, 5, dim)
    reference = []
    nodes = [traj.states[0, :dim].tolist()]
    for i in range(traj.n_accepted):
        y = tuple(traj.states[i, :dim].tolist())
        h = float(traj.step_sizes[i + 1])
        _, stages, y1 = log[y, h]
        reference.append(_reference_rows(y, h, stages))
        nodes.append(y1)
    reference = np.array(reference)
    assert reference.shape == traj.dense_coefficients.shape
    assert reference.tobytes() == traj.dense_coefficients.tobytes()
    # The nodes, flattened into one array at the run's end, are the
    # kernel's lists of floats as np.array converts them.
    nodes = np.array(nodes)
    assert traj.states.dtype == nodes.dtype
    assert traj.states[:, :dim].tobytes() == nodes.tobytes()


_TWO_FLOAT_RUNS = {
    **{name: _RUNS[name][1]
       for name in ("conservative", "rejections", "huge-width")},
    "sigma-guard": lambda: integrators.integrate(
        ModelVariant.CONSERVATIVE, State(0.05, -5.0), (0.0, 10.0),
        PhysicalParams(hbar=1e-3), IntegratorConfig(sigma_min_guard=0.01)),
}


@pytest.mark.parametrize("name", sorted(_TWO_FLOAT_RUNS))
def test_two_float_runs_equal_the_generic_kernel(monkeypatch, name):
    # The run as it is, then with the generic stage evaluator on the
    # model's rhs, then with the generic kernel as well.
    run = _TWO_FLOAT_RUNS[name]
    log = {}
    _recording(monkeypatch, "_dp54_floats2", log)
    width_stages = integrators._width_stages
    built = []

    def recording_stages(*args):
        built.append(args)
        return width_stages(*args)

    monkeypatch.setattr(integrators, "_width_stages", recording_stages)
    traj, reason = run()
    assert log and built
    monkeypatch.setattr(
        integrators, "_width_stages",
        lambda accel, variant, params, rhs, nfev:
        integrators._float_stages(rhs, nfev))
    generic_stages = run()
    monkeypatch.setattr(integrators, "_dp54_floats2",
                        integrators._dp54_floats)
    generic = run()
    assert reason is {"sigma-guard": StopReason.SIGMA_GUARD_HIT}.get(
        name, StopReason.COMPLETED)
    if name in ("rejections", "sigma-guard"):
        assert traj.n_rejected > 0
    for other, other_reason in (generic_stages, generic):
        assert reason is other_reason
        for key in ("times", "states", "step_sizes", "error_estimates",
                    "dense_coefficients"):
            assert getattr(traj, key).tobytes() \
                == getattr(other, key).tobytes()
        assert (traj.n_accepted, traj.n_rejected, traj.n_rhs) == (
            other.n_accepted, other.n_rejected, other.n_rhs)
