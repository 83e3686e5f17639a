"""Adaptive time integration for the width equations.

Two schemes share one driver:

* ``Scheme.DOPRI54``: explicit Dormand-Prince 5(4) pair with a quartic
  interpolant, the right default for conservative and mildly damped runs.
* ``Scheme.TRBDF2``: L-stable one-step TR-BDF2 pair (trapezoidal stage
  followed by a BDF2 stage) with a filtered third-order error companion
  and cubic Hermite interpolant, for strongly damped problems where an
  explicit method would grind through the fast transient.

The driver enforces a positivity floor on the width, halving the step when
a stage or an accepted node crosses it, and watches third-order runs for
the self-accelerating growth mode, reporting every early exit through
``StopReason`` instead of raising.
"""

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import core, models
from .core import PhysicalParams, State, State3
from .models import ModelVariant, OVERDAMPED_VARIANTS


class Scheme(Enum):
    """Time stepping scheme."""

    DOPRI54 = "dopri54"
    TRBDF2 = "trbdf2"


class StopReason(Enum):
    """Why an integration run ended."""

    COMPLETED = "completed"
    SIGMA_GUARD_HIT = "sigma_guard_hit"
    STEP_UNDERFLOW = "step_underflow"
    MAX_STEPS = "max_steps"
    RUNAWAY_DETECTED = "runaway_detected"


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and safety limits for the adaptive driver.

    ``h_init=None`` picks the first step automatically from the initial
    derivative magnitudes.  ``sigma_min_guard`` is the positivity floor:
    an accepted node at or below it ends the run with SIGMA_GUARD_HIT
    once the step cannot be halved further.  ``runaway_ratio`` sets both
    runaway triggers for third-order runs: width acceleration exceeding
    the ratio times its initial scale, or growing by the ratio across a
    sliding window one radiative memory time (r/m) wide.
    """

    scheme: Scheme = Scheme.DOPRI54
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    h_init: Optional[float] = None
    h_min: float = 1e-13
    h_max: float = math.inf
    max_steps: int = 1_000_000
    sigma_min_guard: float = 1e-12
    runaway_ratio: float = 1e6

    def __post_init__(self) -> None:
        if not isinstance(self.scheme, Scheme):
            raise TypeError("scheme must be a Scheme member")
        for name in ("rel_tol", "abs_tol"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite")
        if not (0.0 < self.h_min <= self.h_max):
            raise ValueError("need 0 < h_min <= h_max")
        if self.h_init is not None and not (self.h_min <= self.h_init
                                            <= self.h_max):
            raise ValueError("h_init must lie within [h_min, h_max]")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.sigma_min_guard < 0.0:
            raise ValueError("sigma_min_guard must be non-negative")
        if not self.runaway_ratio > 1.0:
            raise ValueError("runaway_ratio must exceed 1")


# Dormand-Prince 5(4) tableau.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# Difference between the fifth- and fourth-order solutions.
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                  -17253 / 339200, 22 / 525, -1 / 40])
# Quartic interpolant: y(t0 + x h) = y0 + h (K^T P) [x, x^2, x^3, x^4].
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

# TR-BDF2 constants: trapezoidal stage to gamma, BDF2 stage to 1.
_TB_GAMMA = 2.0 - math.sqrt(2.0)
_TB_D = _TB_GAMMA / 2.0
_TB_W = math.sqrt(2.0) / 4.0
# Weights of (third-order companion) - (second-order solution), over h/3.
_TB_E0 = 1.0 - math.sqrt(2.0)
_TB_E2 = -(2.0 - math.sqrt(2.0))


class _FloorBreach(Exception):
    """A stage value or Newton iterate left the sigma > 0 domain."""


class _BadStep(Exception):
    """Non-finite arithmetic or a failed Newton solve; retry smaller."""


def _rms(scaled: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(scaled))))


def _dense_sample(times: np.ndarray, states: np.ndarray,
                  coeffs: np.ndarray, ts) -> tuple:
    """Evaluate a run's dense output at the requested times, one row each.

    A time equal to a node returns that node's state exactly; any other
    time evaluates its step's (5, dim) local polynomial by Horner's rule
    into the leading dim columns.  Returns (rows, between), where
    ``between`` flags the rows that were interpolated.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    lo, hi = times[0], times[-1]
    if not np.all((ts >= lo) & (ts <= hi)):
        raise ValueError(f"sample times must lie within [{lo!r}, {hi!r}]")
    node = np.searchsorted(times, ts)
    hit = np.minimum(node, times.size - 1)
    between = times[hit] != ts
    out = np.empty((ts.size, states.shape[1]))
    out[~between] = states[hit[~between]]
    seg = node[between] - 1
    x = ((ts[between] - times[seg]) / (times[seg + 1] - times[seg]))[:, None]
    c = coeffs[seg]
    poly = c[:, 4]
    for k in (3, 2, 1, 0):
        poly = poly * x + c[:, k]
    out[between, :poly.shape[1]] = poly
    return out, between


def _hermite_coeffs(y0: np.ndarray, f0: np.ndarray, y1: np.ndarray,
                    f1: np.ndarray, h: float) -> np.ndarray:
    """Cubic Hermite coefficients in the step-local variable x = (t-t0)/h."""
    dim = y0.size
    c = np.zeros((5, dim))
    dy = y1 - y0
    c[0] = y0
    c[1] = h * f0
    c[2] = 3.0 * dy - h * (2.0 * f0 + f1)
    c[3] = -2.0 * dy + h * (f0 + f1)
    return c


def _dp54_attempt(rhs: Callable[[np.ndarray], np.ndarray], y: np.ndarray,
                  f0: np.ndarray, h: float, nguard: int):
    """One explicit step attempt.  Returns (y1, f1, err_vec, dense_coeffs)."""
    dim = y.size
    k = np.empty((7, dim))
    k[0] = f0
    for i, a_row in enumerate(_DP_A, start=1):
        y_stage = y + h * (a_row @ k[:i])
        if not np.all(np.isfinite(y_stage)):
            raise _BadStep
        if np.min(y_stage[:nguard]) <= 0.0:
            raise _FloorBreach
        k[i] = rhs(y_stage)
    y1 = y + h * (_DP_B @ k[:6])
    if not np.all(np.isfinite(y1)):
        raise _BadStep
    if np.min(y1[:nguard]) <= 0.0:
        raise _FloorBreach
    k[6] = rhs(y1)
    if not np.all(np.isfinite(k)):
        raise _BadStep
    err_vec = h * (_DP_E @ k)
    c = np.zeros((5, dim))
    c[0] = y
    c[1:] = h * (k.T @ _DP_P).T
    return y1, k[6].copy(), err_vec, c


def _fd_jacobian(rhs: Callable[[np.ndarray], np.ndarray], y: np.ndarray,
                 f0: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of the right-hand side at y."""
    dim = y.size
    jac = np.empty((dim, dim))
    for j in range(dim):
        delta = 1.4901161193847656e-08 * max(abs(y[j]), 1e-08)
        yp = y.copy()
        yp[j] += delta
        fp = rhs(yp)
        jac[:, j] = (fp - f0) / delta
    if not np.all(np.isfinite(jac)):
        raise _BadStep
    return jac


def _newton(rhs: Callable[[np.ndarray], np.ndarray], mat: np.ndarray,
            target: np.ndarray, z0: np.ndarray, dh: float,
            scale: np.ndarray, nguard: int) -> np.ndarray:
    """Solve z - dh f(z) = target by damped Newton with a frozen matrix."""
    z = z0.copy()
    prev = math.inf
    for _ in range(12):
        if np.min(z[:nguard]) <= 0.0:
            raise _FloorBreach
        f = rhs(z)
        if not np.all(np.isfinite(f)):
            raise _BadStep
        g = z - dh * f - target
        try:
            dz = np.linalg.solve(mat, g)
        except np.linalg.LinAlgError as exc:
            raise _BadStep from exc
        dn = _rms(dz / scale)
        if dn > 2.0 * prev:
            dz *= 0.5
            dn *= 0.5
        z = z - dz
        if dn < 0.03:
            if np.min(z[:nguard]) <= 0.0:
                raise _FloorBreach
            return z
        prev = dn
    raise _BadStep


def _trbdf2_attempt(rhs: Callable[[np.ndarray], np.ndarray], y: np.ndarray,
                    f0: np.ndarray, h: float, scale: np.ndarray, nguard: int):
    """One TR-BDF2 step attempt.  Returns (y1, f1, err_vec, dense_coeffs)."""
    dim = y.size
    dh = _TB_D * h
    jac = _fd_jacobian(rhs, y, f0)
    mat = np.eye(dim) - dh * jac
    # Trapezoidal stage to t + gamma h.
    target = y + dh * f0
    z_pred = y + _TB_GAMMA * h * f0
    if np.min(z_pred[:nguard]) <= 0.0:
        z_pred = y.copy()
    z = _newton(rhs, mat, target, z_pred, dh, scale, nguard)
    f_mid = rhs(z)
    # BDF2 stage to t + h, eliminating the history in favour of z.
    cz = 0.5 * (math.sqrt(2.0) + 1.0)
    cy = 0.5 * (math.sqrt(2.0) - 1.0)
    target = cz * z - cy * y
    y_pred = z + (1.0 - _TB_GAMMA) * h * f_mid
    if np.min(y_pred[:nguard]) <= 0.0:
        y_pred = z.copy()
    y1 = _newton(rhs, mat, target, y_pred, dh, scale, nguard)
    f1 = rhs(y1)
    if not np.all(np.isfinite(f1)):
        raise _BadStep
    raw = (h / 3.0) * (_TB_E0 * f0 + f_mid + _TB_E2 * f1)
    # Filter the companion difference so stiff components do not dominate.
    err_vec = np.linalg.solve(mat, raw)
    return y1, f1, err_vec, _hermite_coeffs(y, f0, y1, f1, h)


def _initial_step(rhs: Callable[[np.ndarray], np.ndarray], y0: np.ndarray,
                  f0: np.ndarray, span: float, order: int,
                  config: IntegratorConfig, nguard: int) -> float:
    """Automatic first-step heuristic from derivative magnitudes."""
    scale = config.abs_tol + config.rel_tol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, 0.1 * span)
    # Keep the Euler probe on the sigma > 0 side.
    for j in range(nguard):
        if f0[j] < 0.0:
            h0 = min(h0, -0.5 * y0[j] / f0[j])
    if not h0 > 0.0:
        # The derivative overflowed the error scale (d1 = inf).
        return config.h_min
    y1 = y0 + h0 * f0
    f1 = rhs(y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if not math.isfinite(d2):
        return config.h_min
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, 1e-3 * h0)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / (order + 1))
    h = min(100.0 * h0, h1, span, config.h_max)
    return max(h, config.h_min)


@dataclass(frozen=True)
class Trajectory:
    """Accepted nodes plus a piecewise-polynomial interpolant.

    ``states`` has one row per node; columns are width, width rate and,
    for third-order runs, width acceleration.  ``step_sizes[i]`` is the
    step that produced node i (zero for the first node) and
    ``error_estimates[i]`` the scaled local error accepted there.
    ``sample`` evaluates the interpolant anywhere inside the covered
    interval; times equal to a node return the node values exactly.
    """

    variant: ModelVariant
    params: PhysicalParams
    times: np.ndarray
    states: np.ndarray
    step_sizes: np.ndarray
    error_estimates: np.ndarray
    dense_coefficients: np.ndarray = field(repr=False)
    first_order: bool = False
    n_accepted: int = 0
    n_rejected: int = 0
    n_rhs: int = 0

    @property
    def sigma(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def sigma_dot(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def energy(self) -> np.ndarray:
        """Oscillator energy functional at each node."""
        return core.energy(self.states, self.params)

    def sample(self, times) -> np.ndarray:
        """Interpolated states at the requested times, one row each."""
        out, between = _dense_sample(self.times, self.states,
                                     self.dense_coefficients, times)
        if self.first_order:
            for row in np.flatnonzero(between):
                out[row, 1] = models.overdamped_velocity(
                    float(out[row, 0]), self.params, self.variant)
        return out

    def state_at(self, t: float):
        """State (or three-component state) interpolated at time t."""
        row = self.sample(t)[0]
        if row.size == 3:
            return State3(sigma=float(row[0]), sigma_dot=float(row[1]),
                          sigma_ddot=float(row[2]))
        return State(sigma=float(row[0]), sigma_dot=float(row[1]))


def sample(trajectory: Trajectory, times) -> np.ndarray:
    """Module-level convenience wrapper around Trajectory.sample."""
    return trajectory.sample(times)


def _drive(rhs: Callable[[np.ndarray], np.ndarray], y0: np.ndarray,
           t_span: tuple, config: IntegratorConfig,
           runaway_scale: Optional[float] = None,
           runaway_window: Optional[float] = None, nguard: int = 1):
    """Shared adaptive loop.

    Returns (fields, reason): ``fields`` maps the trajectory field names
    (node arrays, dense coefficients and counters) to their values.
    """
    t0, t_end = t_span
    explicit = config.scheme is Scheme.DOPRI54
    nfev = [0]

    def counted(y: np.ndarray) -> np.ndarray:
        nfev[0] += 1
        return rhs(y)

    f0 = counted(y0)
    if not np.all(np.isfinite(f0)):
        raise ValueError("right-hand side is not finite at the initial state")

    if config.h_init is not None:
        h = min(config.h_init, t_end - t0)
    else:
        h = _initial_step(counted, y0, f0, t_end - t0, 5 if explicit else 2,
                          config, nguard)

    exponent = 0.2 if explicit else 1.0 / 3.0

    times = [t0]
    states = [y0.copy()]
    hs = [0.0]
    errs = [0.0]
    dense = []
    monitor: list = []
    if runaway_scale is not None:
        monitor.append((t0, abs(float(y0[2]))))
        floor = 1e-3 * runaway_scale

    t = t0
    y = y0.copy()
    err_prev = 1.0
    just_rejected = False
    n_accept = 0
    n_reject = 0
    reason = StopReason.COMPLETED

    while t < t_end:
        clipped = h >= t_end - t
        h_att = min(h, t_end - t)
        at_floor = h_att <= config.h_min * (1.0 + 1e-12)

        try:
            if explicit:
                y1, f1, err_vec, coeffs = _dp54_attempt(counted, y, f0, h_att,
                                                        nguard)
            else:
                scale_n = config.abs_tol + config.rel_tol * np.abs(y)
                y1, f1, err_vec, coeffs = _trbdf2_attempt(
                    counted, y, f0, h_att, scale_n, nguard)
        except _FloorBreach:
            if at_floor:
                reason = StopReason.SIGMA_GUARD_HIT
                break
            n_reject += 1
            just_rejected = True
            h = max(0.5 * h_att, config.h_min)
            continue
        except _BadStep:
            if at_floor:
                reason = StopReason.STEP_UNDERFLOW
                break
            n_reject += 1
            just_rejected = True
            h = max(0.5 * h_att, config.h_min)
            continue

        scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(y),
                                                             np.abs(y1))
        err = _rms(err_vec / scale)
        if not math.isfinite(err):
            err = math.inf

        if err > 1.0:
            if at_floor:
                reason = StopReason.STEP_UNDERFLOW
                break
            n_reject += 1
            just_rejected = True
            fac = max(0.2, 0.9 * err ** (-exponent)) if math.isfinite(err) \
                else 0.2
            h = max(min(fac, 1.0) * h_att, config.h_min)
            continue

        if np.min(y1[:nguard]) <= config.sigma_min_guard:
            if at_floor:
                reason = StopReason.SIGMA_GUARD_HIT
                break
            n_reject += 1
            just_rejected = True
            h = max(0.5 * h_att, config.h_min)
            continue

        # Accept the node.
        t = t_end if clipped else t + h_att
        y = y1
        f0 = f1
        times.append(t)
        states.append(y.copy())
        hs.append(h_att)
        errs.append(err)
        dense.append(coeffs)
        n_accept += 1

        if runaway_scale is not None:
            a_abs = abs(float(y[2]))
            if a_abs >= config.runaway_ratio * runaway_scale:
                reason = StopReason.RUNAWAY_DETECTED
                break
            monitor.append((t, a_abs))
            while len(monitor) >= 2 and monitor[1][0] <= t - runaway_window:
                monitor.pop(0)
            if monitor[0][0] <= t - runaway_window:
                base = max(monitor[0][1], floor)
                if a_abs >= config.runaway_ratio * base:
                    reason = StopReason.RUNAWAY_DETECTED
                    break

        if t >= t_end:
            break

        if n_accept >= config.max_steps:
            reason = StopReason.MAX_STEPS
            break

        if err == 0.0:
            fac = 10.0
        elif explicit:
            fac = 0.9 * err ** (-0.14) * err_prev ** 0.08
        else:
            fac = 0.9 * err ** (-exponent)
        fac = min(10.0, max(0.2, fac))
        if just_rejected:
            fac = min(fac, 1.0)
            just_rejected = False
        err_prev = max(err, 1e-10)
        h = min(max(h_att * fac, config.h_min), config.h_max)

    fields = {
        "times": np.array(times),
        "states": np.array(states),
        "step_sizes": np.array(hs),
        "error_estimates": np.array(errs),
        "dense_coefficients": (np.array(dense) if dense
                               else np.zeros((0, 5, y0.size))),
        "n_accepted": n_accept,
        "n_rejected": n_reject,
        "n_rhs": nfev[0],
    }
    return fields, reason


def _check_span(t_span) -> tuple:
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t_span must be finite")
    if t1 <= t0:
        raise ValueError("t_span must satisfy t_end > t_start")
    return t0, t1


def integrate(variant: ModelVariant, initial, t_span,
              params: PhysicalParams,
              config: Optional[IntegratorConfig] = None):
    """Integrate a second- or third-order width model.

    ``initial`` is a State for second-order variants.  The third-order
    variant also accepts a State, in which case the initial width
    acceleration is set to its conservative on-shell value; pass a
    three-component state to override it.  Returns (Trajectory, StopReason).
    """
    if config is None:
        config = IntegratorConfig()
    if variant in OVERDAMPED_VARIANTS:
        raise ValueError("first-order variants go through "
                         "integrate_overdamped")
    t0, t1 = _check_span(t_span)

    third_order = variant is ModelVariant.RADIATIVE_NAIVE
    if third_order:
        if params.r <= 0.0:
            raise ValueError("the third-order variant requires r > 0")
        if isinstance(initial, State3):
            y0 = np.array([initial.sigma, initial.sigma_dot,
                           initial.sigma_ddot])
        else:
            y0 = np.array([initial.sigma, initial.sigma_dot,
                           models.conservative_acceleration(initial.sigma,
                                                            params)])
    else:
        if isinstance(initial, State3):
            raise ValueError("second-order variants take a two-component "
                             "state; the extra acceleration entry has no "
                             "meaning here")
        y0 = np.array([initial.sigma, initial.sigma_dot])
    if variant is ModelVariant.HIGH_TEMPERATURE and params.is_zero_temperature:
        raise ValueError("the high-temperature variant needs finite beta")
    if y0[0] <= config.sigma_min_guard:
        raise ValueError("initial width must exceed sigma_min_guard")

    if (config.scheme is Scheme.DOPRI54
            and variant in (ModelVariant.DISSIPATIVE,
                            ModelVariant.HIGH_TEMPERATURE)
            and params.dimensionless_friction > 10.0):
        warnings.warn(
            "friction dominates the oscillation scale; the explicit scheme "
            "will crawl through the transient, consider Scheme.TRBDF2",
            RuntimeWarning, stacklevel=2)

    if third_order:
        def rhs(y: np.ndarray) -> np.ndarray:
            st = State3(sigma=y[0], sigma_dot=y[1], sigma_ddot=y[2])
            return np.array([y[1], y[2], models.radiative_jerk(st, params)])

        state0 = State3(sigma=float(y0[0]), sigma_dot=float(y0[1]),
                        sigma_ddot=float(y0[2]))
        base_scale = (params.omega0 ** 2 * state0.sigma
                      + params.hbar ** 2
                      / (4.0 * params.m ** 2 * state0.sigma ** 3))
        runaway_scale = max(abs(state0.sigma_ddot), base_scale)
        runaway_window = params.r / params.m
    else:
        def rhs(y: np.ndarray) -> np.ndarray:
            st = State(sigma=y[0], sigma_dot=y[1])
            return np.array([y[1], models.acceleration(variant, st, params)])

        runaway_scale = None
        runaway_window = None

    fields, reason = _drive(rhs, y0, (t0, t1), config, runaway_scale,
                            runaway_window)
    return Trajectory(variant=variant, params=params, **fields), reason


def integrate_overdamped(variant: ModelVariant, sigma0: float, t_span,
                         params: PhysicalParams,
                         config: Optional[IntegratorConfig] = None):
    """Integrate a first-order (inertia-free) width model.

    The state is the width alone; the reported width rate column is the
    model velocity evaluated at each node.  Returns (Trajectory, StopReason).
    """
    if config is None:
        config = IntegratorConfig()
    if variant not in OVERDAMPED_VARIANTS:
        raise ValueError("integrate_overdamped handles first-order variants "
                         "only")
    if params.b <= 0.0:
        raise ValueError("first-order variants require b > 0")
    if (variant is ModelVariant.OVERDAMPED_HIGH_TEMPERATURE
            and params.is_zero_temperature):
        raise ValueError("the overdamped thermal variant needs finite beta")
    t0, t1 = _check_span(t_span)
    if not sigma0 > config.sigma_min_guard:
        raise ValueError("initial width must exceed sigma_min_guard")

    def rhs(y: np.ndarray) -> np.ndarray:
        return np.array([models.overdamped_velocity(float(y[0]), params,
                                                    variant)])

    y0 = np.array([float(sigma0)])
    fields, reason = _drive(rhs, y0, (t0, t1), config)
    sigmas = fields["states"][:, 0]
    vel = np.array([models.overdamped_velocity(float(s), params, variant)
                    for s in sigmas])
    fields["states"] = np.column_stack([sigmas, vel])
    return Trajectory(variant=variant, params=params, first_order=True,
                      **fields), reason
