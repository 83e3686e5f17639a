"""Right-hand sides of the width equations.

Each acceleration function returns sigma_ddot (force per unit mass) for one
model variant:

* conservative:        m s'' + m w0^2 s = hbar^2 / (4 m s^3)
* damped:              m s'' + b s' + m w0^2 s = hbar^2 / (4 m s^3)
* high temperature:    m s'' + b s' + m w0^2 s = k_B T / s + hbar^2 / (4 m s^3)
* radiative (naive):   m s'' - r s''' + m w0^2 s = hbar^2 / (4 m s^3)
* radiative (reduced): the naive model after order reduction, an ordinary
  second-order equation with a width-dependent effective friction
  r (w0^2 + 3 hbar^2 / (4 m^2 s^4)).

The overdamped companions drop the inertial term and evolve sigma directly:
b s' = -m w0^2 s + [k_B T / s] + hbar^2 / (4 m s^3).

The functions that read a whole state take a ``State`` (``State3`` for the
jerk) or the plain row (sigma, sigma_dot[, sigma_ddot]) as a list, a tuple
or a numpy array; the integrators pass rows, so no state object is built
per evaluation.  The second-order functions read a row in place, and
``conservative_acceleration`` writes the quantum term out, so a
conservative two-float DP54 stage is three Python frames: the
integrator's stage evaluator, ``acceleration`` (the one entry the
integrators call per rhs evaluation) and ``conservative_acceleration``.
Each formula is looked up as a module attribute at call time, so a
replaced one reaches every stage.
"""

from enum import Enum, unique

from .core import PhysicalParams, State, State3


@unique
class ModelVariant(Enum):
    CONSERVATIVE = "conservative"
    DISSIPATIVE = "dissipative"
    HIGH_TEMPERATURE = "high-temperature"
    RADIATIVE_NAIVE = "radiative-naive"
    RADIATIVE_REDUCED = "radiative-reduced"
    OVERDAMPED_DISSIPATIVE = "overdamped-dissipative"
    OVERDAMPED_HIGH_TEMPERATURE = "overdamped-high-temperature"


SECOND_ORDER_VARIANTS = (
    ModelVariant.CONSERVATIVE,
    ModelVariant.DISSIPATIVE,
    ModelVariant.HIGH_TEMPERATURE,
    ModelVariant.RADIATIVE_REDUCED,
)
OVERDAMPED_VARIANTS = (
    ModelVariant.OVERDAMPED_DISSIPATIVE,
    ModelVariant.OVERDAMPED_HIGH_TEMPERATURE,
)


def _row(state):
    """The (sigma, sigma_dot[, sigma_ddot]) values of a State, a State3 or
    a row, which comes back as it is."""
    if isinstance(state, State3):
        return state.sigma, state.sigma_dot, state.sigma_ddot
    if isinstance(state, State):
        return state.sigma, state.sigma_dot
    return state


def quantum_pressure_acceleration(sigma: float, params: PhysicalParams) -> float:
    """Repulsive width acceleration hbar^2 / (4 m^2 sigma^3)."""
    return params.hbar ** 2 / (4.0 * params.m ** 2 * sigma ** 3)


def conservative_acceleration(sigma: float, params: PhysicalParams) -> float:
    """sigma_ddot = -w0^2 sigma + hbar^2 / (4 m^2 sigma^3).

    The quantum term is ``quantum_pressure_acceleration`` written out,
    the same expression, so each rhs evaluation saves a call.
    """
    return -params.omega0 ** 2 * sigma \
        + params.hbar ** 2 / (4.0 * params.m ** 2 * sigma ** 3)


def damped_acceleration(state, params: PhysicalParams) -> float:
    """Conservative acceleration plus linear friction -(b/m) sigma_dot."""
    s, sd = (state.sigma, state.sigma_dot) if isinstance(state, State) \
        else state
    return conservative_acceleration(s, params) - (params.b / params.m) * sd


def thermal_pressure_acceleration(sigma: float, params: PhysicalParams) -> float:
    """High-temperature thermal push k_B T / (m sigma) = 1 / (beta m sigma)."""
    if params.is_zero_temperature:
        raise ValueError(
            "high-temperature variant rejects the zero-temperature marker; "
            "use the damped variant at T = 0"
        )
    return 1.0 / (params.beta * params.m * sigma)


def high_temperature_acceleration(state, params: PhysicalParams) -> float:
    """Damped acceleration plus the classical thermal push 1/(beta m sigma)."""
    return damped_acceleration(state, params) + thermal_pressure_acceleration(
        state.sigma if isinstance(state, State) else state[0], params)


def radiative_jerk(state, params: PhysicalParams) -> float:
    """Third derivative of sigma from the naive radiative model.

    Solving m s'' - r s''' + m w0^2 s = hbar^2/(4 m s^3) for s''' gives
    s''' = [m s'' + m w0^2 s - hbar^2/(4 m s^3)] / r.  The homogeneous mode
    exp(m t / r) makes this form structurally unstable (runaway).
    """
    if params.r <= 0.0:
        raise ValueError("the naive radiative model requires r > 0")
    s, _, sdd = _row(state)
    m = params.m
    force_defect = m * sdd + m * params.omega0 ** 2 * s \
        - params.hbar ** 2 / (4.0 * m * s ** 3)
    return force_defect / params.r


def radiative_reduced_acceleration(state, params: PhysicalParams) -> float:
    """Order-reduced radiative model.

    Substituting the conservative acceleration into the radiation term turns
    it into a width-dependent friction:
    sigma_ddot = conservative - (r/m) (w0^2 + 3 hbar^2/(4 m^2 sigma^4)) sigma_dot.
    """
    s, sd = (state.sigma, state.sigma_dot) if isinstance(state, State) \
        else state
    effective_friction = (params.r / params.m) * (
        params.omega0 ** 2
        + 3.0 * params.hbar ** 2 / (4.0 * params.m ** 2 * s ** 4)
    )
    return conservative_acceleration(s, params) - effective_friction * sd


def overdamped_velocity(sigma: float, params: PhysicalParams,
                        variant: ModelVariant = ModelVariant.OVERDAMPED_DISSIPATIVE) -> float:
    """sigma_dot of the first-order overdamped models (inertial term dropped)."""
    if variant not in OVERDAMPED_VARIANTS:
        raise ValueError(f"{variant} is not an overdamped variant")
    if params.b <= 0.0:
        raise ValueError("overdamped models require b > 0")
    force_per_mass = conservative_acceleration(sigma, params)
    if variant is ModelVariant.OVERDAMPED_HIGH_TEMPERATURE:
        force_per_mass += thermal_pressure_acceleration(sigma, params)
    return params.m * force_per_mass / params.b


def acceleration(variant: ModelVariant, state, params: PhysicalParams) -> float:
    """Dispatch sigma_ddot for the second-order variants."""
    if variant is ModelVariant.CONSERVATIVE:
        return conservative_acceleration(
            state.sigma if isinstance(state, State) else state[0], params)
    if variant is ModelVariant.DISSIPATIVE:
        return damped_acceleration(state, params)
    if variant is ModelVariant.HIGH_TEMPERATURE:
        return high_temperature_acceleration(state, params)
    if variant is ModelVariant.RADIATIVE_REDUCED:
        return radiative_reduced_acceleration(state, params)
    if variant is ModelVariant.RADIATIVE_NAIVE:
        raise ValueError("the naive radiative model is third order; use radiative_jerk")
    raise ValueError(f"{variant} is first order; use overdamped_velocity")


def residual(variant: ModelVariant, state: State, params: PhysicalParams,
             sigma_ddot: float | None = None,
             sigma_dddot: float | None = None) -> float:
    """Force-units residual with every term of the variant moved to one side.

    Zero when the supplied derivatives satisfy the model.  Second-order
    variants need ``sigma_ddot``; the naive radiative variant needs a
    ``State3`` plus ``sigma_dddot``; overdamped variants use only the state.
    """
    m, w0, hbar = params.m, params.omega0, params.hbar
    s, sd = state.sigma, state.sigma_dot
    quantum_force = hbar ** 2 / (4.0 * m * s ** 3)

    if variant in OVERDAMPED_VARIANTS:
        if sigma_ddot is not None or sigma_dddot is not None:
            raise ValueError("overdamped residual takes no higher derivatives")
        value = params.b * sd + m * w0 ** 2 * s - quantum_force
        if variant is ModelVariant.OVERDAMPED_HIGH_TEMPERATURE:
            value -= m * thermal_pressure_acceleration(s, params)
        return value

    if variant is ModelVariant.RADIATIVE_NAIVE:
        if not isinstance(state, State3):
            raise ValueError("the naive radiative residual requires a State3")
        if sigma_dddot is None:
            raise ValueError("the naive radiative residual requires sigma_dddot")
        return m * state.sigma_ddot - params.r * sigma_dddot \
            + m * w0 ** 2 * s - quantum_force

    if sigma_ddot is None:
        raise ValueError(f"{variant} residual requires sigma_ddot")
    if sigma_dddot is not None:
        raise ValueError(f"{variant} residual takes no third derivative")
    value = m * sigma_ddot + m * w0 ** 2 * s - quantum_force
    if variant is ModelVariant.DISSIPATIVE:
        value += params.b * sd
    elif variant is ModelVariant.HIGH_TEMPERATURE:
        value += params.b * sd - m * thermal_pressure_acceleration(s, params)
    elif variant is ModelVariant.RADIATIVE_REDUCED:
        value += params.r * (w0 ** 2 + 3.0 * hbar ** 2 / (4.0 * m ** 2 * s ** 4)) * sd
    elif variant is not ModelVariant.CONSERVATIVE:
        raise ValueError(f"unsupported variant {variant}")
    return value
