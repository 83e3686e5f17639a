"""Parameter bundle, state containers, and scale-setting helpers.

Everything downstream consumes one frozen parameter bundle: oscillator mass
``m``, trap frequency ``omega0``, ``hbar``, friction coefficient ``b``,
inverse temperature ``beta``, Boltzmann constant ``k_B``, and the radiation
reaction coefficient ``r``.  Zero temperature is represented by the explicit
marker ``beta = math.inf`` so that thermal terms vanish identically (1/inf
is exactly 0.0) rather than approximately.
"""

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

# SI constants used for the radiation reaction coefficient.
ELEMENTARY_CHARGE = 1.602176634e-19  # C (exact)
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F / m
SPEED_OF_LIGHT = 299792458.0  # m / s (exact)
ELECTRON_MASS = 9.1093837015e-31  # kg

ZERO_TEMPERATURE = math.inf
"""Explicit zero-temperature marker for ``PhysicalParams.beta``."""

# Largest m, omega0, hbar, b, k_B or r: its square stays a finite float.
_MAX_PARAMETER = 1e150


@dataclass(frozen=True)
class PhysicalParams:
    """Parameters shared by every width-equation variant.

    ``beta`` must be strictly positive; ``ZERO_TEMPERATURE`` (``math.inf``)
    selects the zero-temperature limit exactly.  ``b`` and ``r`` default to
    zero so a bare ``PhysicalParams()`` is the conservative natural-unit
    oscillator.
    """

    m: float = 1.0
    omega0: float = 1.0
    hbar: float = 1.0
    b: float = 0.0
    beta: float = ZERO_TEMPERATURE
    k_B: float = 1.0
    r: float = 0.0

    def __post_init__(self) -> None:
        for name in ("m", "hbar", "k_B"):
            value = getattr(self, name)
            if not (value > 0.0) or math.isinf(value) or math.isnan(value):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("omega0", "b", "r"):
            value = getattr(self, name)
            if not (value >= 0.0) or math.isinf(value) or math.isnan(value):
                raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
        # The models square these on Python floats, where an overflow
        # raises instead of giving inf.
        for name in ("m", "hbar", "k_B", "omega0", "b", "r"):
            if getattr(self, name) > _MAX_PARAMETER:
                raise ValueError(f"{name} must be at most {_MAX_PARAMETER:g}, "
                                 f"got {getattr(self, name)!r}")
        if math.isnan(self.beta) or not (self.beta > 0.0):
            raise ValueError(
                f"beta must be positive (ZERO_TEMPERATURE for the T = 0 limit), got {self.beta!r}"
            )

    @property
    def is_zero_temperature(self) -> bool:
        return math.isinf(self.beta)

    @property
    def dimensionless_friction(self) -> float:
        """b / (m * omega0); inf for a damped free particle (omega0 = 0)."""
        if self.b == 0.0:
            return 0.0
        # m * omega0 is 0 also when the product underflows.
        if self.m * self.omega0 == 0.0:
            return math.inf
        return self.b / (self.m * self.omega0)

    @property
    def dimensionless_temperature(self) -> float:
        """k_B T / (hbar * omega0) = 1 / (beta * hbar * omega0); 0 at T = 0."""
        if self.is_zero_temperature:
            return 0.0
        if self.omega0 == 0.0:
            return math.inf
        return 1.0 / (self.beta * self.hbar * self.omega0)

    @property
    def dimensionless_radiation(self) -> float:
        """r * omega0 / m."""
        return self.r * self.omega0 / self.m

    def with_(self, **changes) -> "PhysicalParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


def make_natural_params(gamma: float = 0.0, theta: float = 0.0,
                        epsilon: float = 0.0) -> PhysicalParams:
    """Natural-unit bundle: m = hbar = omega0 = k_B = 1.

    ``gamma`` is the friction ratio b/(m*omega0), ``theta`` the temperature
    ratio k_B*T/(hbar*omega0), and ``epsilon`` the radiation ratio r*omega0/m.
    ``theta = 0`` maps to the explicit zero-temperature marker.
    """
    beta = ZERO_TEMPERATURE if theta == 0.0 else 1.0 / theta
    return PhysicalParams(m=1.0, omega0=1.0, hbar=1.0, b=gamma, beta=beta,
                          k_B=1.0, r=epsilon)


@dataclass(frozen=True)
class State:
    """Width and width velocity (sigma, sigma_dot).

    Positivity of sigma is enforced by the integration guards, not by this
    constructor, so closed forms with a singular start (sigma -> 0) stay
    representable.
    """

    sigma: float
    sigma_dot: float


@dataclass(frozen=True)
class State3(State):
    """Width, velocity, and acceleration for the third-order radiative model."""

    sigma_ddot: float = 0.0


def ground_state_sigma(params: PhysicalParams) -> float:
    """Equilibrium width sqrt(hbar / (2 m omega0)) of the conservative model."""
    if params.omega0 == 0.0:
        raise ValueError("ground-state width requires omega0 > 0")
    if 2.0 * params.m * params.omega0 == 0.0:
        raise ValueError("ground-state width: m * omega0 underflows to 0")
    ratio = params.hbar / (2.0 * params.m * params.omega0)
    if sys.float_info.min <= ratio < math.inf:
        return math.sqrt(ratio)
    # The quotient left the float range; its square root does not.
    return math.sqrt(params.hbar) / math.sqrt(2.0 * params.m * params.omega0)


def _products_in_range(params: PhysicalParams) -> bool:
    """Whether every parameter product of ``energy`` is a normal float:
    0.5 m, hbar^2, 8 m and, unless omega0 is 0, omega0^2 and 0.5 m omega0^2.
    """
    m, omega0 = params.m, params.omega0
    products = [0.5 * m, params.hbar ** 2, 8.0 * m]
    if omega0 != 0.0:
        products += [omega0 ** 2, 0.5 * m * omega0 ** 2]
    return all(sys.float_info.min <= p < math.inf for p in products)


def _scaled_energy(s, sd, params: PhysicalParams):
    """``energy`` from the binary mantissas and exponents of its factors,
    so that no product leaves the float range unless its term does."""
    fm, em = np.frexp(params.m)
    fh, eh = np.frexp(params.hbar)
    fs, es = np.frexp(s)
    fv, ev = np.frexp(sd)
    kinetic = np.ldexp(0.5 * fm * fv * fv, em + 2 * ev)
    trap = 0.0
    if params.omega0 != 0.0:
        fw, ew = np.frexp(params.omega0)
        trap = np.ldexp(0.5 * fm * (fw * fs) ** 2, em + 2 * (ew + es))
    quantum = np.ldexp(fh * fh / (8.0 * fm * fs * fs), 2 * eh - em - 2 * es)
    return kinetic + trap + quantum


@np.errstate(all="ignore")
def energy(state, params: PhysicalParams):
    """First integral m*sd^2/2 + m*w0^2*s^2/2 + hbar^2/(8 m s^2).

    Exactly conserved along the conservative width equation; decreases at the
    rate b*sigma_dot^2 along the damped one.  ``state`` is a State, which
    must have sigma > 0, or an array of states whose last axis starts
    (sigma, sigma_dot); an array gives one energy per state and its widths
    are not checked.  Beyond the float range, ints included, it is inf;
    within it, it is finite even where a product of the parameters, or of
    the state with one, leaves the range.
    """
    if isinstance(state, State):
        s, sd = state.sigma, state.sigma_dot
        if not s > 0.0:
            raise ValueError(f"energy requires sigma > 0, got {s!r}")
    else:
        try:
            rows = np.asarray(state, dtype=float)
        except OverflowError:
            rows = np.asarray(state, dtype=object)  # an int beyond floats
            rows = np.where(abs(rows) >= 2 ** 1024, np.where(
                rows > 0, math.inf, -math.inf), rows).astype(float)
        s, sd = rows[..., 0], rows[..., 1]
    m, hbar = params.m, params.hbar
    # A trap coefficient of 0 or inf is the trap term at any s, so that
    # 0 * inf never makes it NaN.
    trap = 0.5 * m * params.omega0 ** 2
    try:
        trap_term = trap * s ** 2 if 0.0 < trap < math.inf else trap
        value = 0.5 * m * sd ** 2 + trap_term + hbar ** 2 / (8.0 * m * s ** 2)
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    in_range = _products_in_range(params)
    if in_range and np.isfinite(value).all():
        return value
    if isinstance(state, State):
        # A State's Python numbers raise where numpy scalars give inf.
        return float(energy([s, sd], params))
    # A product that left the float range, of two parameters or of the
    # state with one, lost a finite energy or gave 0 * inf.  Only those
    # entries take the scaled value, so every other keeps its own.
    return np.where(in_range & np.isfinite(value), value,
                    _scaled_energy(s, sd, params))[()]


def radiation_coefficient(charge: float,
                          permittivity: float = VACUUM_PERMITTIVITY,
                          light_speed: float = SPEED_OF_LIGHT) -> float:
    """Radiation reaction coefficient r = q^2 / (6 pi eps0 c^3) in kg s."""
    if permittivity <= 0.0 or light_speed <= 0.0:
        raise ValueError("permittivity and light_speed must be positive")
    return charge ** 2 / (6.0 * math.pi * permittivity * light_speed ** 3)
