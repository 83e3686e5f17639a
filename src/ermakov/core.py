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
from functools import cached_property

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
    oscillator.  ``rate_constants`` is computed on first use and kept on
    the instance, outside the fields, so ``eq``, ``hash`` and ``repr``
    ignore it and a ``with_`` copy computes its own.
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

    @cached_property
    def rate_constants(self) -> "RateConstants":
        """The parameter-only subexpressions of the width rates."""
        return RateConstants(self)

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


class RateConstants:
    """The parameter-only subexpressions of the width rates in ``models``.

    Each is grouped as the rate formula groups it (``-omega0 ** 2`` is
    -(omega0^2), ``m_omega0_sq`` is m * omega0^2), so a rate that reads
    them gives the written-out formula bit for bit.  None of them can
    raise: every field is at most ``_MAX_PARAMETER``, and a float product
    or quotient out of range is inf.
    """

    __slots__ = ("neg_omega0_sq", "omega0_sq", "hbar_sq", "four_m_sq",
                 "b_over_m", "beta_m", "r_over_m", "three_hbar_sq",
                 "m_omega0_sq", "four_m")

    def __init__(self, params: PhysicalParams) -> None:
        m, omega0, hbar = params.m, params.omega0, params.hbar
        self.neg_omega0_sq = -omega0 ** 2
        self.omega0_sq = omega0 ** 2
        self.hbar_sq = hbar ** 2
        self.four_m_sq = 4.0 * m ** 2
        self.b_over_m = params.b / m
        self.beta_m = params.beta * m
        self.r_over_m = params.r / m
        self.three_hbar_sq = 3.0 * hbar ** 2
        self.m_omega0_sq = m * omega0 ** 2
        self.four_m = 4.0 * m


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


@np.errstate(all="ignore")
def energy(state, params: PhysicalParams):
    """First integral m*sd^2/2 + m*w0^2*s^2/2 + hbar^2/(8 m s^2).

    Exactly conserved along the conservative width equation; decreases at the
    rate b*sigma_dot^2 along the damped one.  ``state`` is a State, which
    must have sigma > 0 and gives a float, or an array of states whose last
    axis starts (sigma, sigma_dot); an array gives one energy per state and
    its widths are not checked.

    The terms are (0.5 m)(sd^2), ((0.5 m) w0^2)(s^2) and
    hbar^2 / ((8 m)(s^2)), each computed on the binary mantissas of its
    factors and scaled once by its power of two.  Wherever every product is
    a normal float that is the plain expression bit for bit, each square
    taken as a product x * x (a Python float's ``x ** 2`` calls libm's pow,
    which may differ by an ulp); elsewhere no product leaves the float
    range unless its term does.  Beyond the float range, ints included, the
    energy is inf.
    """
    single = isinstance(state, State)
    if single:
        if not state.sigma > 0.0:
            raise ValueError(f"energy requires sigma > 0, got {state.sigma!r}")
        state = (state.sigma, state.sigma_dot)
    try:
        rows = np.asarray(state, dtype=float)
    except OverflowError:
        rows = np.asarray(state, dtype=object)  # an int beyond floats
        rows = np.where(abs(rows) >= 2 ** 1024, np.where(
            rows > 0, math.inf, -math.inf), rows).astype(float)
    fs, es = np.frexp(rows[..., 0])
    fv, ev = np.frexp(rows[..., 1])
    fm, em = math.frexp(params.m)
    fh, eh = math.frexp(params.hbar)
    half, fs2 = 0.5 * fm, fs * fs
    value = np.ldexp(half * (fv * fv), em + 2 * ev)
    if params.omega0 != 0.0:  # else the trap term is 0, even at s = inf
        fw, ew = math.frexp(params.omega0)
        value += np.ldexp(half * (fw * fw) * fs2, em + 2 * (ew + es))
    value += np.ldexp(fh * fh / (8.0 * fm * fs2), 2 * eh - em - 2 * es)
    return float(value) if single else value


def radiation_coefficient(charge: float,
                          permittivity: float = VACUUM_PERMITTIVITY,
                          light_speed: float = SPEED_OF_LIGHT) -> float:
    """Radiation reaction coefficient r = q^2 / (6 pi eps0 c^3) in kg s."""
    if permittivity <= 0.0 or light_speed <= 0.0:
        raise ValueError("permittivity and light_speed must be positive")
    return charge ** 2 / (6.0 * math.pi * permittivity * light_speed ** 3)
