"""Closed-form solutions and equilibria used as oracles by the test suite.

The conservative width equation is an Ermakov equation, so its general
solution follows from two independent solutions u, v of the underlying
linear oscillator via Pinney's construction:

    sigma(t) = sqrt(u^2 + (k / W^2) v^2),   k = hbar^2 / (4 m^2),

with u(0) = sigma0, u'(0) = sigma_dot0, v(0) = 0, v'(0) = 1 and Wronskian
W = u v' - u' v = sigma0.  Every closed form returns both sigma and its
analytic time derivative so trajectory-level comparisons can use the full
state.
"""

import functools
import math

from .core import PhysicalParams, State


# The singular start of the overdamped closed forms: zero width, infinite
# slope.
_SINGULAR_START = State(sigma=0.0, sigma_dot=math.inf)


def _in_float_range(closed_form):
    """Raise ValueError where a closed form leaves the float range: an
    overflow, an int beyond the float range, a division by an underflowed
    zero, or a result that is not finite (but for ``_SINGULAR_START``)."""
    @functools.wraps(closed_form)
    def checked(*args):
        try:
            value = closed_form(*args)
            parts = ((value.sigma, value.sigma_dot)
                     if isinstance(value, State) else (value,))
            finite = (all(math.isfinite(part) for part in parts)
                      or value == _SINGULAR_START)
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise ValueError(f"{closed_form.__name__} leaves the float range "
                             f"for these arguments")
        return value
    return checked


def _pinney_basis(t: float, sigma0: float, sigma_dot0: float,
                  params: PhysicalParams) -> tuple[float, float, float, float]:
    """Linear-oscillator basis (u, u', v, v') at time t."""
    w0 = params.omega0
    if w0 > 0.0:
        c, s = math.cos(w0 * t), math.sin(w0 * t)
        u = sigma0 * c + (sigma_dot0 / w0) * s
        du = -sigma0 * w0 * s + sigma_dot0 * c
        v = s / w0
        dv = c
    else:
        u = sigma0 + sigma_dot0 * t
        du = sigma_dot0
        v = t
        dv = 1.0
    return u, du, v, dv


def _pinney_coefficient(sigma0: float, params: PhysicalParams) -> float:
    """k / W^2 = hbar^2 / (4 m^2 sigma0^2)."""
    return params.hbar ** 2 / (4.0 * params.m ** 2 * sigma0 ** 2)


@_in_float_range
def pinney_solution(t: float, sigma0: float, sigma_dot0: float,
                    params: PhysicalParams) -> State:
    """Exact conservative width at time t from (sigma0, sigma_dot0).

    Valid for omega0 > 0 and for the free case omega0 = 0 alike; the
    Wronskian sigma0 > 0 keeps sigma positive for all t.
    """
    if sigma0 <= 0.0:
        raise ValueError("pinney_solution requires sigma0 > 0")
    u, du, v, dv = _pinney_basis(t, sigma0, sigma_dot0, params)
    kw = _pinney_coefficient(sigma0, params)
    sigma = math.sqrt(u * u + kw * v * v)
    sigma_dot = (u * du + kw * v * dv) / sigma
    return State(sigma=sigma, sigma_dot=sigma_dot)


@_in_float_range
def pinney_acceleration(t: float, sigma0: float, sigma_dot0: float,
                        params: PhysicalParams) -> float:
    """Second time derivative of the Pinney solution, computed from the basis.

    Uses u'' = -w0^2 u, v'' = -w0^2 v, so it is an independent route to
    sigma_ddot that never touches the model right-hand sides.
    """
    if sigma0 <= 0.0:
        raise ValueError("pinney_acceleration requires sigma0 > 0")
    u, du, v, dv = _pinney_basis(t, sigma0, sigma_dot0, params)
    kw = _pinney_coefficient(sigma0, params)
    sigma_sq = u * u + kw * v * v
    sigma = math.sqrt(sigma_sq)
    sigma_dot = (u * du + kw * v * dv) / sigma
    w0 = params.omega0
    return (du * du + kw * dv * dv - w0 ** 2 * sigma_sq - sigma_dot ** 2) / sigma


@_in_float_range
def free_spreading(t: float, sigma0: float, params: PhysicalParams) -> State:
    """Free-particle spreading sigma^2 = sigma0^2 + (hbar t / (2 m sigma0))^2.

    The omega0 = 0, sigma_dot0 = 0 reduction of the Pinney solution.
    """
    if sigma0 <= 0.0:
        raise ValueError("free_spreading requires sigma0 > 0")
    rate = params.hbar / (2.0 * params.m * sigma0)
    sigma = math.sqrt(sigma0 ** 2 + (rate * t) ** 2)
    return State(sigma=sigma, sigma_dot=rate ** 2 * t / sigma)


@_in_float_range
def overdamped_relaxation(t: float, params: PhysicalParams) -> State:
    """Overdamped growth from a point start:

    sigma^2 = (hbar / (2 m omega0)) sqrt(1 - exp(-4 m omega0^2 t / b)).

    The start is singular: sigma(0) = 0 with infinite slope, so the returned
    State at t = 0 carries sigma = 0.0 and sigma_dot = inf.
    """
    if params.b <= 0.0 or params.omega0 <= 0.0:
        raise ValueError("overdamped relaxation requires b > 0 and omega0 > 0")
    if t < 0.0:
        raise ValueError("overdamped relaxation is defined for t >= 0")
    scale = params.hbar / (2.0 * params.m * params.omega0)
    rate = 4.0 * params.m * params.omega0 ** 2 / params.b
    decay = math.exp(-rate * t)
    sigma_sq = scale * math.sqrt(1.0 - decay)
    if sigma_sq == 0.0:
        return _SINGULAR_START
    sigma = math.sqrt(sigma_sq)
    d_sigma_sq = scale * rate * decay / (2.0 * math.sqrt(1.0 - decay))
    return State(sigma=sigma, sigma_dot=d_sigma_sq / (2.0 * sigma))


@_in_float_range
def subdiffusion(t: float, params: PhysicalParams) -> State:
    """Frictional sub-diffusive spreading sigma^2 = hbar sqrt(t / (m b)).

    omega0 = 0 limit of the overdamped model; singular at t = 0 like
    overdamped_relaxation.
    """
    if params.b <= 0.0:
        raise ValueError("subdiffusion requires b > 0")
    if t < 0.0:
        raise ValueError("subdiffusion is defined for t >= 0")
    if t == 0.0:
        return _SINGULAR_START
    sigma_sq = params.hbar * math.sqrt(t / (params.m * params.b))
    sigma = math.sqrt(sigma_sq)
    d_sigma_sq = sigma_sq / (2.0 * t)
    return State(sigma=sigma, sigma_dot=d_sigma_sq / (2.0 * sigma))


@_in_float_range
def equilibrium_coth(params: PhysicalParams) -> float:
    """Thermal equilibrium width squared (hbar/(2 m omega0)) coth(beta hbar omega0 / 2)."""
    if params.is_zero_temperature:
        raise ValueError("equilibrium_coth requires finite beta")
    if params.omega0 <= 0.0:
        raise ValueError("equilibrium_coth requires omega0 > 0")
    u = 0.5 * params.beta * params.hbar * params.omega0
    return params.hbar / (2.0 * params.m * params.omega0) / math.tanh(u)


@_in_float_range
def equilibrium_high_temperature(params: PhysicalParams) -> float:
    """Stationary width squared of the high-temperature model:

    sigma_inf^2 = [sqrt(1 + (beta hbar omega0)^2) + 1] / (2 beta m omega0^2),

    the positive root of m w0^2 x^2 - x / beta - hbar^2 / (4 m) = 0 in
    x = sigma^2.
    """
    if params.is_zero_temperature:
        raise ValueError("equilibrium_high_temperature requires finite beta")
    if params.omega0 <= 0.0:
        raise ValueError("equilibrium_high_temperature requires omega0 > 0")
    u = params.beta * params.hbar * params.omega0
    return (math.sqrt(1.0 + u * u) + 1.0) / (2.0 * params.beta * params.m
                                             * params.omega0 ** 2)
