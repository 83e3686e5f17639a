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

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
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


# Dormand-Prince 5(4) tableau, as Python floats for the float kernel.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# Difference between the fifth- and fourth-order solutions.
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
         22 / 525, -1 / 40)
# Quartic interpolant: y(t0 + x h) = y0 + h (K^T P) [x, x^2, x^3, x^4].
_DP_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
# The same tableau as arrays, for the array kernel.
_DP_A_ROWS = tuple(np.array(row) for row in _DP_A)
_DP_B_ROW = np.array(_DP_B)
_DP_E_ROW = np.array(_DP_E)

# TR-BDF2 constants: trapezoidal stage to gamma, BDF2 stage to 1.
_TB_GAMMA = 2.0 - math.sqrt(2.0)
_TB_D = _TB_GAMMA / 2.0
# Weights of (third-order companion) - (second-order solution), over h/3.
_TB_E0 = 1.0 - math.sqrt(2.0)
_TB_E2 = -(2.0 - math.sqrt(2.0))


class _FloorBreach(Exception):
    """A stage value or Newton iterate left the sigma > 0 domain."""


class _BadStep(Exception):
    """Non-finite arithmetic or a failed Newton solve; retry smaller."""


def _rms(scaled: np.ndarray) -> float:
    # The pairwise sum, divide and sqrt of np.sqrt(np.mean(...)), without
    # the dispatch of np.mean.
    return math.sqrt(float(np.square(scaled).sum()) / scaled.size)


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


def _scaled_norm(err_vec: np.ndarray, y: np.ndarray, y1: np.ndarray,
                 abs_tol: float, rel_tol: float) -> float:
    """RMS of a local error estimate over its tolerance scale."""
    scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y1))
    return _rms(err_vec / scale)


def _dp54_attempt(rhs: Callable[[np.ndarray], np.ndarray], y: np.ndarray,
                  f0: np.ndarray, h: float, nguard: int, abs_tol: float,
                  rel_tol: float):
    """One explicit step attempt on arrays.  Returns (y1, f1, err,
    stages) as ``_dp54_floats`` does, the stages as (6, dim) rows."""
    k = np.empty((7, y.size))
    k[0] = f0
    for i, a_row in enumerate(_DP_A_ROWS, start=1):
        y_stage = y + h * (a_row @ k[:i])
        if not np.all(np.isfinite(y_stage)):
            raise _BadStep
        if np.min(y_stage[:nguard]) <= 0.0:
            raise _FloorBreach
        k[i] = rhs(y_stage)
    y1 = y + h * (_DP_B_ROW @ k[:6])
    if not np.all(np.isfinite(y1)):
        raise _BadStep
    if np.min(y1[:nguard]) <= 0.0:
        raise _FloorBreach
    k[6] = rhs(y1)
    if not np.all(np.isfinite(k)):
        raise _BadStep
    err_vec = h * (_DP_E_ROW @ k)
    return (y1, k[6].copy(), _scaled_norm(err_vec, y, y1, abs_tol, rel_tol),
            k[[0, 2, 3, 4, 5, 6]])


def _numpy_retry(rhs, ys: list, nfev: list):
    """A stage call that raised on Python floats, repeated on numpy
    scalars and counted again.

    The models raise OverflowError or ZeroDivisionError on Python floats
    where numpy scalars give inf or NaN, so the step then fails, or goes
    on, as it does on arrays.  A call that raises there too is a bad
    step.
    """
    nfev[0] += 1
    try:
        return [float(v) for v in rhs(np.array(ys))]
    except (OverflowError, ZeroDivisionError) as exc:
        raise _BadStep from exc


def _float_stages(rhs, nfev: list):
    """The stage evaluator of the float kernel: check, count, call ``rhs``.

    Each call checks a stage state as ``_dp54_attempt`` does with one
    guarded entry, adds one to ``nfev[0]`` and evaluates ``rhs`` there; a
    call that raises goes to ``_numpy_retry``.
    """
    isfinite = math.isfinite

    def stage(ys: list):
        for v in ys:
            if not isfinite(v):
                raise _BadStep
        if ys[0] <= 0.0:
            raise _FloorBreach
        nfev[0] += 1
        try:
            return rhs(ys)
        except (OverflowError, ZeroDivisionError):
            pass
        return _numpy_retry(rhs, ys, nfev)
    return stage


def _width_stages(accel, variant: ModelVariant, params: PhysicalParams,
                  rhs, nfev: list):
    """``_float_stages`` for a second-order width model on (s, v).

    ``rhs(y)`` is ``(y[1], accel(variant, y, params))``; each stage
    returns that pair itself, with no ``rhs`` frame between it and
    ``accel``.  The checks, the count and the numpy-scalar retry (on
    ``rhs``) are those of ``_float_stages``.
    """
    isfinite = math.isfinite

    def stage(ys: list):
        s, v = ys
        if not (isfinite(s) and isfinite(v)):
            raise _BadStep
        if s <= 0.0:
            raise _FloorBreach
        nfev[0] += 1
        try:
            return v, accel(variant, ys, params)
        except (OverflowError, ZeroDivisionError):
            pass
        return _numpy_retry(rhs, ys, nfev)
    return stage


def _dp54_floats(stage, y: list, f0, h: float, abs_tol: float,
                 rel_tol: float):
    """One explicit step attempt on a state of a few Python floats.

    The arithmetic of ``_dp54_attempt`` with every stage sum written out
    term by term in tableau order, so results differ from it by ulps
    (numpy's small matmul sums in its own order).  ``stage`` comes from
    ``_float_stages``; it takes a list of floats and returns a sequence
    of floats.  Returns (y1, f1, err, stages): ``err`` is the scaled
    error norm and ``stages`` the flat tuple k1, k3, k4, k5, k6, k7 of
    6 dim floats that ``_dp54_dense`` turns into the step's interpolant.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _DP_A
    b1, _, b3, b4, b5, b6 = _DP_B
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    k1 = f0
    k2 = stage([a + h * (a21 * p) for a, p in zip(y, k1)])
    k3 = stage([a + h * (a31 * p + a32 * q) for a, p, q in zip(y, k1, k2)])
    k4 = stage([a + h * (a41 * p + a42 * q + a43 * r)
                for a, p, q, r in zip(y, k1, k2, k3)])
    k5 = stage([a + h * (a51 * p + a52 * q + a53 * r + a54 * s)
                for a, p, q, r, s in zip(y, k1, k2, k3, k4)])
    k6 = stage([a + h * (a61 * p + a62 * q + a63 * r + a64 * s + a65 * u)
                for a, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)])
    y1 = [a + h * (b1 * p + b3 * r + b4 * s + b5 * u + b6 * v)
          for a, p, r, s, u, v in zip(y, k1, k3, k4, k5, k6)]
    k7 = stage(y1)
    total = 0.0
    for a, b, p, r, s, u, v, w in zip(y, y1, k1, k3, k4, k5, k6, k7):
        if not math.isfinite(w):
            raise _BadStep
        a, b = abs(a), abs(b)
        e = h * (e1 * p + e3 * r + e4 * s + e5 * u + e6 * v + e7 * w) \
            / (abs_tol + rel_tol * (b if b > a else a))
        total += e * e
    return y1, k7, math.sqrt(total / len(y)), (*k1, *k3, *k4, *k5, *k6, *k7)


def _dp54_floats2(stage, y: list, f0, h: float, abs_tol: float,
                  rel_tol: float):
    """``_dp54_floats`` written out for a state of two floats (s, v).

    The same expressions in the same term order, so it is bitwise equal
    to the generic kernel, but with no comprehension or ``zip``: before
    Python 3.12 each comprehension builds a frame of its own, and on 3.11
    those frames and zips took about a third of a step attempt.  The
    error loop is unrolled; both k7 entries are checked before any error
    term is summed, as the loop checks each before it is used and the
    terms themselves cannot raise.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _DP_A
    b1, _, b3, b4, b5, b6 = _DP_B
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    s, v = y
    p1, q1 = f0
    p2, q2 = stage([s + h * (a21 * p1), v + h * (a21 * q1)])
    p3, q3 = stage([s + h * (a31 * p1 + a32 * p2),
                    v + h * (a31 * q1 + a32 * q2)])
    p4, q4 = stage([s + h * (a41 * p1 + a42 * p2 + a43 * p3),
                    v + h * (a41 * q1 + a42 * q2 + a43 * q3)])
    p5, q5 = stage([s + h * (a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4),
                    v + h * (a51 * q1 + a52 * q2 + a53 * q3 + a54 * q4)])
    p6, q6 = stage([s + h * (a61 * p1 + a62 * p2 + a63 * p3 + a64 * p4
                             + a65 * p5),
                    v + h * (a61 * q1 + a62 * q2 + a63 * q3 + a64 * q4
                             + a65 * q5)])
    s1 = s + h * (b1 * p1 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6)
    v1 = v + h * (b1 * q1 + b3 * q3 + b4 * q4 + b5 * q5 + b6 * q6)
    k7 = stage([s1, v1])
    p7, q7 = k7
    if not (math.isfinite(p7) and math.isfinite(q7)):
        raise _BadStep
    a, b = abs(s), abs(s1)
    es = h * (e1 * p1 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6 + e7 * p7) \
        / (abs_tol + rel_tol * (b if b > a else a))
    a, b = abs(v), abs(v1)
    ev = h * (e1 * q1 + e3 * q3 + e4 * q4 + e5 * q5 + e6 * q6 + e7 * q7) \
        / (abs_tol + rel_tol * (b if b > a else a))
    return [s1, v1], k7, math.sqrt((es * es + ev * ev) / 2), \
        (p1, q1, p3, q3, p4, q4, p5, q5, p6, q6, p7, q7)


def _dp54_dense(states: np.ndarray, h: np.ndarray, steps):
    """Interpolant coefficients of a run's accepted DP54 steps.

    ``states`` holds the run's nodes, ``h`` its step sizes and ``steps``
    the stages each step's kernel returned, as rows or flat.  Returns the
    (steps, 5, dim) coefficients, each summed elementwise in the float
    kernel's order.
    """
    # Column 0 of the interpolant is k1 alone, and row 2 is zero.
    (_, p21, p31, p41), _, (_, p23, p33, p43), (_, p24, p34, p44), \
        (_, p25, p35, p45), (_, p26, p36, p46), (_, p27, p37, p47) = _DP_P
    k = np.asarray(steps, dtype=float).reshape(-1, 6, states.shape[1])
    k1, k3, k4, k5, k6, k7 = k.transpose(1, 0, 2)
    h = h[:, None]
    return np.stack((
        states[:-1], h * k1,
        h * (p21 * k1 + p23 * k3 + p24 * k4 + p25 * k5 + p26 * k6
             + p27 * k7),
        h * (p31 * k1 + p33 * k3 + p34 * k4 + p35 * k5 + p36 * k6
             + p37 * k7),
        h * (p41 * k1 + p43 * k3 + p44 * k4 + p45 * k5 + p46 * k6
             + p47 * k7)), axis=1)


def _hermite_dense(states: np.ndarray, h: np.ndarray, steps: list):
    """Cubic Hermite coefficients of a run's accepted TR-BDF2 steps, as
    ``_dp54_dense``; ``steps`` holds the derivatives (f0, f1) at their
    ends."""
    y0 = states[:-1]
    f0, f1 = np.array(steps, dtype=float).reshape(
        -1, 2, y0.shape[1]).transpose(1, 0, 2)
    h = h[:, None]
    dy = states[1:] - y0
    return np.stack((y0, h * f0, 3.0 * dy - h * (2.0 * f0 + f1),
                     -2.0 * dy + h * (f0 + f1), np.zeros_like(y0)), axis=1)


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


def _dense_solver(rhs: Callable[[np.ndarray], np.ndarray]):
    """Newton solver on the full matrix I - dh J, J by finite differences."""
    def newton_solver(y: np.ndarray, f0: np.ndarray, dh: float):
        mat = np.eye(y.size) - dh * _fd_jacobian(rhs, y, f0)
        return lambda g: np.linalg.solve(mat, g)
    return newton_solver


def _linear_solve(solve: Callable[[np.ndarray], np.ndarray],
                  g: np.ndarray) -> np.ndarray:
    """Apply a Newton solver; a singular or non-finite solve is a bad step."""
    try:
        x = solve(g)
    except np.linalg.LinAlgError as exc:
        raise _BadStep from exc
    if not np.isfinite(x).all():
        raise _BadStep
    return x


def _newton(rhs: Callable[[np.ndarray], np.ndarray],
            solve: Callable[[np.ndarray], np.ndarray],
            target: np.ndarray, z0: np.ndarray, dh: float,
            scale: np.ndarray, nguard: int, eta: list) -> np.ndarray:
    """Solve z - dh f(z) = target by damped Newton with a frozen matrix.

    ``solve(g)`` returns x with (I - dh J) x = g for the step's frozen J.
    An iterate is accepted when its scaled update dn is below 0.03, or
    when the contraction-rate estimate of its remaining error, eta * dn,
    is (Hairer & Wanner, *Solving ODEs II*, IV.8).  ``eta[0]`` holds the
    run's eta, that of its last converged solve that measured one: after
    iteration k >= 1, eta = theta / (1 - theta) with theta =
    dn_k / dn_(k-1), or inf once theta >= 1.  The first iteration of a
    solve tests with max(eta[0], 2.2e-16) ** 0.8; a solve that stops
    there measures nothing and leaves ``eta[0]`` as it was, and a solve
    that fails leaves 1.0.  Every iterate the dn test alone would accept
    is accepted, so no solve iterates more than on that test.  A rate
    measured at small updates can understate the contraction of a much
    larger first update, whose iterate then stops further than 0.03
    from the converged solve.
    """
    measured = eta[0]
    eta[0] = 1.0
    rate = max(measured, 2.2e-16) ** 0.8
    z = z0.copy()
    prev = math.inf
    for _ in range(12):
        if z[:nguard].min() <= 0.0:
            raise _FloorBreach
        f = rhs(z)
        if not np.isfinite(f).all():
            raise _BadStep
        g = z - dh * f - target
        dz = _linear_solve(solve, g)
        dn = _rms(dz / scale)
        if dn > 2.0 * prev:
            dz *= 0.5
            dn *= 0.5
        z = z - dz
        if prev < math.inf:
            theta = dn / prev
            rate = measured = (theta / (1.0 - theta) if theta < 1.0
                               else math.inf)
        if dn < 0.03 or rate * dn < 0.03:
            if z[:nguard].min() <= 0.0:
                raise _FloorBreach
            eta[0] = measured
            return z
        prev = dn
    raise _BadStep


def _trbdf2_attempt(rhs: Callable[[np.ndarray], np.ndarray], y: np.ndarray,
                    f0: np.ndarray, h: float, nguard: int, abs_tol: float,
                    rel_tol: float, newton_solver, eta: list):
    """One TR-BDF2 step attempt.  Returns (y1, f1, err, (f0, f1)).

    ``newton_solver(y, f0, dh)`` returns the solve of (I - dh J(y)) x = g
    that every Newton iteration and the error filter of the step use; a
    matrix it cannot factor is a bad step.  ``eta`` is the run's
    one-element contraction-rate estimate, which both stages' ``_newton``
    read and update.  A stage usually stops after one iteration, so an
    attempt usually makes 4 rhs calls and 3 solves.
    """
    scale = abs_tol + rel_tol * np.abs(y)
    dh = _TB_D * h
    try:
        solve = newton_solver(y, f0, dh)
    except np.linalg.LinAlgError as exc:
        raise _BadStep from exc
    # Trapezoidal stage to t + gamma h.
    target = y + dh * f0
    z_pred = y + _TB_GAMMA * h * f0
    if z_pred[:nguard].min() <= 0.0:
        z_pred = y.copy()
    z = _newton(rhs, solve, target, z_pred, dh, scale, nguard, eta)
    f_mid = rhs(z)
    # BDF2 stage to t + h, eliminating the history in favour of z.
    cz = 0.5 * (math.sqrt(2.0) + 1.0)
    cy = 0.5 * (math.sqrt(2.0) - 1.0)
    target = cz * z - cy * y
    y_pred = z + (1.0 - _TB_GAMMA) * h * f_mid
    if y_pred[:nguard].min() <= 0.0:
        y_pred = z.copy()
    y1 = _newton(rhs, solve, target, y_pred, dh, scale, nguard, eta)
    f1 = rhs(y1)
    if not np.isfinite(f1).all():
        raise _BadStep
    raw = (h / 3.0) * (_TB_E0 * f0 + f_mid + _TB_E2 * f1)
    # Filter the companion difference so stiff components do not dominate.
    err_vec = _linear_solve(solve, raw)
    return (y1, f1, _scaled_norm(err_vec, y, y1, abs_tol, rel_tol),
            (f0, f1))


def _initial_step(rhs: Callable[[np.ndarray], np.ndarray], y0: np.ndarray,
                  f0: np.ndarray, span: float, order: int,
                  config: IntegratorConfig, nguard: int) -> float:
    """Automatic first-step heuristic from derivative magnitudes."""
    scale = config.abs_tol + config.rel_tol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, 0.1 * span)
    # Keep the Euler probe on the sigma > 0 side.  Compare before
    # dividing: a subnormal rate would overflow the quotient.
    for j in range(nguard):
        if f0[j] < 0.0 and 0.5 * y0[j] < h0 * -f0[j]:
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
    step that produced node i, ``times[i] - times[i - 1]`` by
    construction (zero for the first node), and ``error_estimates[i]``
    the scaled local error accepted there.
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
    n_accepted: int = 0
    n_rejected: int = 0
    n_rhs: int = 0

    @property
    def first_order(self) -> bool:
        """Whether the run's state is the width alone (overdamped)."""
        return self.variant in OVERDAMPED_VARIANTS

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

    @np.errstate(all="ignore")
    def sample(self, times) -> np.ndarray:
        """Interpolated states at the requested times, one row each;
        first-order rates come from the model, inf where it overflows."""
        out, between = _dense_sample(self.times, self.states,
                                     self.dense_coefficients, times)
        if self.first_order:
            for row in np.flatnonzero(between):
                out[row, 1] = models.overdamped_velocity(
                    out[row, 0], self.params, self.variant)
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


def _control(err: Optional[float], err_prev: float, explicit: bool,
             just_rejected: bool) -> tuple:
    """Accept test and step-size factor of the adaptive driver.

    ``err`` is the attempt's scaled error norm, or None for an attempt
    that failed outright (a floor breach, a non-finite value, a failed
    Newton solve, or a node at the sigma guard); such a step is halved.
    An error above 1 (or not finite) is rejected, the step shrinking by
    0.9 err^-1/(q+1) clipped to [0.2, 1], q the embedded order.  An
    accepted explicit step grows by Gustafsson's PI factor
    0.9 err^-0.14 err_prev^0.08, an implicit one by 0.9 err^-1/3, both
    clipped to [0.2, 10] and to at most 1 right after a rejection.
    Returns (accept, factor).
    """
    if err is None:
        return False, 0.5
    exponent = 0.2 if explicit else 1.0 / 3.0
    if not err <= 1.0:
        if not math.isfinite(err):
            return False, 0.2
        return False, min(max(0.2, 0.9 * err ** (-exponent)), 1.0)
    if err == 0.0:
        fac = 10.0
    elif explicit:
        fac = 0.9 * err ** (-0.14) * err_prev ** 0.08
    else:
        fac = 0.9 * err ** (-exponent)
    if fac > 10.0:
        fac = 10.0
    elif fac < 0.2:
        fac = 0.2
    if just_rejected and fac > 1.0:
        fac = 1.0
    return True, fac


@np.errstate(all="ignore")
def _drive(rhs, y0: np.ndarray, t_span: tuple, config: IntegratorConfig,
           runaway_scale: Optional[float] = None,
           runaway_window: Optional[float] = None, nguard: int = 1,
           newton_solver=None, width_rate: Optional[tuple] = None):
    """Shared adaptive loop.

    ``rhs(y)`` returns the derivative at the state ``y`` as a sequence
    of floats.  Explicit runs of dim <= 3 step on Python floats, where
    ``rhs`` gets a list of floats: a state of two on ``_dp54_floats2``
    (``_dp54_floats`` written out for two floats, bitwise equal to it),
    one or three on ``_dp54_floats``.  Only width models take that path
    (thermal fields have 2n >= 10 entries), so its stage evaluators guard
    the first entry alone, ``ys[0] <= 0.0``.  ``width_rate``, given as
    ``(accel, variant, params)`` with an ``rhs`` that returns
    ``(y[1], accel(variant, y, params))``, marks a second-order width
    model, whose stages ``_width_stages`` evaluates by calling ``accel``
    itself: a conservative stage is then three Python frames, the
    evaluator, ``models.acceleration`` and ``conservative_acceleration``.
    Every other call gets a numpy array, as do the first derivative and
    the first-step heuristic of every run.  It runs with numpy's warnings
    off, as it tests every value it goes on with for finite values.  A run
    keeps what its accepted steps return for their interpolants and
    builds all their coefficients once, at its end, with its scheme's
    ``_dp54_dense`` or ``_hermite_dense``.
    ``newton_solver(y, f0, dh)`` serves the implicit scheme: called once
    per step attempt, it factors I - dh J(y), J the Jacobian of ``rhs``,
    and returns the solve that every Newton iteration and the error
    filter of the attempt reuse; ``np.linalg.LinAlgError`` from either is
    a bad step.  Without one, TR-BDF2 forms I - dh J from a
    finite-difference Jacobian at every attempt.  Each TR-BDF2 run keeps
    one Newton contraction-rate estimate, starting at 1, that the
    attempts' ``_newton`` solves read and update.
    Returns (fields, reason): ``fields`` maps the trajectory field names
    (node arrays, dense coefficients and counters) to their values.
    """
    t0, t_end = t_span
    explicit = config.scheme is Scheme.DOPRI54
    abs_tol, rel_tol = config.abs_tol, config.rel_tol
    h_min, h_max = config.h_min, config.h_max
    sigma_min_guard, max_steps = config.sigma_min_guard, config.max_steps
    nfev = [0]

    def counted_array(y: np.ndarray) -> np.ndarray:
        nfev[0] += 1
        return np.asarray(rhs(y), dtype=float)

    f0 = counted_array(y0)
    if not np.all(np.isfinite(f0)):
        raise ValueError("right-hand side is not finite at the initial "
                         "state")
    if config.h_init is not None:
        h = min(config.h_init, t_end - t0)
    else:
        h = _initial_step(counted_array, y0, f0, t_end - t0,
                          5 if explicit else 2, config, nguard)

    floats = explicit and y0.size <= 3
    if floats:
        y, f0 = y0.tolist(), f0.tolist()
        lowest = min
        if width_rate is None:
            stage = _float_stages(rhs, nfev)
        else:
            stage = _width_stages(*width_rate, rhs, nfev)
        kernel = _dp54_floats2 if y0.size == 2 else _dp54_floats

        def attempt(y, f0, h):
            return kernel(stage, y, f0, h, abs_tol, rel_tol)
    else:
        y = y0.copy()
        lowest = np.min
        if explicit:
            attempt = partial(_dp54_attempt, counted_array, nguard=nguard,
                              abs_tol=abs_tol, rel_tol=rel_tol)
        else:
            attempt = partial(_trbdf2_attempt, counted_array, nguard=nguard,
                              abs_tol=abs_tol, rel_tol=rel_tol,
                              newton_solver=newton_solver
                              or _dense_solver(counted_array), eta=[1.0])

    times = [t0]
    states = [y]
    errs = [0.0]
    # Per accepted step: what its attempt returned for its interpolant.
    dense = []
    monitor: list = []
    if runaway_scale is not None:
        monitor.append((t0, abs(float(y0[2]))))
        floor = 1e-3 * runaway_scale

    t = t0
    err_prev = 1.0
    just_rejected = False
    n_accept = 0
    n_reject = 0
    reason = StopReason.COMPLETED

    while t < t_end:
        # The node the step lands on, rounded toward t so that the
        # spacing the node really has, h_att, never exceeds h.
        t_new = t_end if h >= t_end - t else t + h
        if t_new - t > h:
            t_new = math.nextafter(t_new, t)
        if t_new == t:
            # The step is below the spacing of floats at t.
            reason = StopReason.STEP_UNDERFLOW
            break
        h_att = t_new - t

        failure = StopReason.STEP_UNDERFLOW
        try:
            y1, f1, err, step_dense = attempt(y, f0, h_att)
        except _FloorBreach:
            failure, err = StopReason.SIGMA_GUARD_HIT, None
        except _BadStep:
            err = None
        else:
            if err <= 1.0 and lowest(y1[:nguard]) <= sigma_min_guard:
                failure, err = StopReason.SIGMA_GUARD_HIT, None
        accept, fac = _control(err, err_prev, explicit, just_rejected)
        h = h_att * fac
        if h < h_min:
            h = h_min
        if h > h_max:
            h = h_max

        if not accept:
            if h_att <= h_min * (1.0 + 1e-12):
                reason = failure
                break
            n_reject += 1
            just_rejected = True
            continue

        # Accept the node.
        t = t_new
        y = y1
        f0 = f1
        times.append(t)
        states.append(y)
        errs.append(err)
        dense.append(step_dense)
        n_accept += 1
        just_rejected = False
        err_prev = err if err > 1e-10 else 1e-10

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

        if n_accept >= max_steps and t < t_end:
            reason = StopReason.MAX_STEPS
            break

    times = np.array(times)
    if floats:
        # Flattened lists of floats convert in about half the time
        # np.array takes on the nested lists; the arrays are equal.
        flat = itertools.chain.from_iterable
        dim = y0.size
        states = np.fromiter(flat(states), float,
                             len(states) * dim).reshape(-1, dim)
        dense = np.fromiter(flat(dense), float, len(dense) * 6 * dim)
    else:
        states = np.array(states)
    spacing = np.diff(times)
    build = _dp54_dense if explicit else _hermite_dense
    fields = {
        "times": times,
        "states": states,
        "step_sizes": np.concatenate(([0.0], spacing)),
        "error_estimates": np.array(errs),
        "dense_coefficients": build(states, spacing, dense),
        "n_accepted": n_accept,
        "n_rejected": n_reject,
        "n_rhs": nfev[0],
    }
    return fields, reason


def _check_span(t_span) -> tuple:
    try:
        t0, t1 = t_span
    except (TypeError, ValueError) as exc:
        raise ValueError(f"t_span must be a pair of numbers, got "
                         f"{t_span!r}") from exc
    t0, t1 = _real_row((t0, t1), "t_span").tolist()
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t_span must be finite")
    if t1 <= t0:
        raise ValueError("t_span must satisfy t_end > t_start")
    return t0, t1


def _real_row(values: tuple, name: str) -> np.ndarray:
    """``values`` as a float array, or a ValueError naming the input."""
    try:
        if all(isinstance(v, numbers.Real) for v in values):
            return np.array(values, dtype=float)
    except OverflowError:
        pass
    raise ValueError(f"{name} must hold real numbers within the float "
                     f"range, got {values!r}")


@np.errstate(all="ignore")
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

    if not isinstance(initial, State):
        raise ValueError(f"initial must be a State, got {initial!r}")
    third_order = variant is ModelVariant.RADIATIVE_NAIVE
    if third_order:
        if params.r <= 0.0:
            raise ValueError("the third-order variant requires r > 0")
        if isinstance(initial, State3):
            y0 = _real_row((initial.sigma, initial.sigma_dot,
                            initial.sigma_ddot), "initial")
        else:
            y0 = _real_row((initial.sigma, initial.sigma_dot, 0.0),
                           "initial")
            y0[2] = models.conservative_acceleration(y0[0], params)
    else:
        if isinstance(initial, State3):
            raise ValueError("second-order variants take a two-component "
                             "state; the extra acceleration entry has no "
                             "meaning here")
        y0 = _real_row((initial.sigma, initial.sigma_dot), "initial")
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

    # The model is looked up once per run and takes the stage row as it
    # is: a list of floats, or a numpy array on the array paths.
    if third_order:
        jerk = models.radiative_jerk

        def rhs(y) -> tuple:
            return y[1], y[2], jerk(y, params)

        # numpy scalars: an overflow gives inf instead of raising
        sigma0, accel0 = y0[0], y0[2]
        base_scale = (params.omega0 ** 2 * sigma0
                      + params.hbar ** 2
                      / (4.0 * params.m ** 2 * sigma0 ** 3))
        runaway_scale = float(max(abs(accel0), base_scale))
        runaway_window = params.r / params.m
        width_rate = None
    else:
        accel = models.acceleration

        def rhs(y) -> tuple:
            return y[1], accel(variant, y, params)

        runaway_scale = None
        runaway_window = None
        width_rate = (accel, variant, params)

    fields, reason = _drive(rhs, y0, (t0, t1), config, runaway_scale,
                            runaway_window, width_rate=width_rate)
    return Trajectory(variant=variant, params=params, **fields), reason


@np.errstate(all="ignore")
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
    y0 = _real_row((sigma0,), "sigma0")
    if not y0[0] > config.sigma_min_guard:
        raise ValueError("initial width must exceed sigma_min_guard")

    def rhs(y) -> tuple:
        return models.overdamped_velocity(y[0], params, variant),

    fields, reason = _drive(rhs, y0, (t0, t1), config)
    # numpy scalars: an overflow gives inf instead of raising
    sigmas = fields["states"][:, 0]
    vel = np.array([models.overdamped_velocity(s, params, variant)
                    for s in sigmas])
    fields["states"] = np.column_stack([sigmas, vel])
    return Trajectory(variant=variant, params=params, **fields), reason
