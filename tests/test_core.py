"""Parameter bundle, state containers, and derived scales."""

import math

import numpy as np
import pytest

from ermakov import core
from ermakov.core import PhysicalParams, State, State3, ZERO_TEMPERATURE


def test_defaults_are_natural_units():
    p = PhysicalParams()
    assert (p.m, p.omega0, p.hbar, p.k_B) == (1.0, 1.0, 1.0, 1.0)
    assert p.b == 0.0 and p.r == 0.0
    assert p.is_zero_temperature


@pytest.mark.parametrize("field,value", [
    ("m", 0.0), ("m", -1.0), ("m", math.inf), ("m", math.nan),
    ("hbar", 0.0), ("k_B", -2.0),
    ("omega0", -0.5), ("b", -1e-9), ("r", -1.0),
    ("omega0", math.inf), ("b", math.nan),
])
def test_invalid_fields_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        PhysicalParams(**{field: value})


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
def test_invalid_beta_rejected(beta):
    with pytest.raises(ValueError, match="beta"):
        PhysicalParams(beta=beta)


def test_zero_temperature_marker():
    p = PhysicalParams(beta=ZERO_TEMPERATURE)
    assert p.is_zero_temperature
    assert 1.0 / p.beta == 0.0
    assert not PhysicalParams(beta=3.0).is_zero_temperature


def test_with_replaces_only_named_fields():
    p = PhysicalParams(b=0.5)
    q = p.with_(beta=2.0)
    assert q.beta == 2.0 and q.b == 0.5
    assert p.beta == ZERO_TEMPERATURE


def test_make_natural_params_ratios():
    p = core.make_natural_params(2.0, 0.25, 0.01)
    assert p.b == 2.0
    assert p.beta == 4.0
    assert p.r == 0.01
    assert p.dimensionless_friction == 2.0
    assert p.dimensionless_temperature == pytest.approx(0.25, rel=1e-15)
    assert p.dimensionless_radiation == 0.01
    assert core.make_natural_params(0.0, 0.0, 0.0).is_zero_temperature


def test_dimensionless_edge_cases():
    free = PhysicalParams(omega0=0.0, b=1.0)
    assert free.dimensionless_friction == math.inf
    assert PhysicalParams(omega0=0.0, b=0.0).dimensionless_friction == 0.0
    hot = PhysicalParams(omega0=0.0, beta=1.0)
    assert hot.dimensionless_temperature == math.inf
    assert PhysicalParams().dimensionless_temperature == 0.0


def test_parameters_keep_their_squares_finite():
    for name in ("m", "omega0", "hbar", "b", "k_B", "r"):
        assert getattr(PhysicalParams(**{name: 1e150}), name) == 1e150
        with pytest.raises(ValueError, match=f"{name} must be at most"):
            PhysicalParams(**{name: 1e151})
    # Tiny parameters pass; products that underflow to 0 raise ValueError
    # or read as infinite friction, not ZeroDivisionError.
    tiny = PhysicalParams(m=1e-200, omega0=1e-200, b=1.0)
    assert tiny.dimensionless_friction == math.inf
    with pytest.raises(ValueError, match="underflows"):
        core.ground_state_sigma(tiny)


def test_states_are_frozen_and_nested():
    s = State(1.0, -0.5)
    with pytest.raises(AttributeError):
        s.sigma = 2.0
    s3 = State3(1.0, -0.5, 0.25)
    assert isinstance(s3, State)
    assert s3.sigma_ddot == 0.25
    assert State3(1.0, 0.0).sigma_ddot == 0.0


def test_ground_state_width():
    p = PhysicalParams()
    assert core.ground_state_sigma(p) == pytest.approx(math.sqrt(0.5),
                                                       rel=1e-15)
    q = PhysicalParams(m=2.0, omega0=3.0, hbar=0.5)
    assert core.ground_state_sigma(q) == pytest.approx(
        math.sqrt(0.5 / (2.0 * 2.0 * 3.0)), rel=1e-15)
    with pytest.raises(ValueError):
        core.ground_state_sigma(PhysicalParams(omega0=0.0))


def test_energy_functional():
    p = PhysicalParams(m=2.0, omega0=1.5, hbar=0.7)
    st = State(0.8, -0.3)
    expected = (0.5 * 2.0 * 0.09 + 0.5 * 2.0 * 2.25 * 0.64
                + 0.49 / (8.0 * 2.0 * 0.64))
    assert core.energy(st, p) == pytest.approx(expected, rel=1e-15)
    with pytest.raises(ValueError):
        core.energy(State(0.0, 1.0), p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma, sigma_dot", [(1.0, 1e300), (1e-300, 0.0),
                                              (1e200, 0.0)])
def test_energy_beyond_float_range_is_inf_without_a_warning(sigma,
                                                            sigma_dot):
    p = PhysicalParams()
    # Python floats raise OverflowError or ZeroDivisionError here.
    assert core.energy(State(sigma, sigma_dot), p) == math.inf
    got = core.energy(np.array([[sigma, sigma_dot], [0.8, -0.3]]), p)
    assert got[0] == math.inf
    assert got[1] == core.energy(State(0.8, -0.3), p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("state", [State(10**400, 0.0), State(1.0, 10**400),
                                   State(1.0, -10**400)],
                         ids=["sigma", "rate", "negative-rate"])
def test_energy_of_an_int_beyond_float_range_is_inf(state):
    p = PhysicalParams()
    assert core.energy(state, p) == math.inf
    row = [state.sigma, state.sigma_dot]
    got = core.energy([row, [0.8, -0.3]], p)
    assert got[0] == math.inf
    assert got[1] == core.energy(State(0.8, -0.3), p)
    assert core.energy([row], p)[0] == math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("state, params, expected", [
    # hbar^2 and 8 m s^2 underflow to 0.
    (State(1e-170, 0.0), PhysicalParams(hbar=1e-170), 0.125),
    # 0.5 m underflows to 0 and sd^2 overflows; the quantum term,
    # 1 / (8 m) = 2.5e322, is beyond the float range.
    (State(1.0, 1e200), PhysicalParams(m=5e-324), math.inf),
    # The same kinetic term with hbar^2 underflowing to 0 as well.
    (State(1.0, 1e200), PhysicalParams(m=5e-324, hbar=1e-200),
     0.5 * (5e-324 * 1e200) * 1e200),
], ids=["hbar-squared", "tiny-mass", "tiny-mass-and-hbar"])
def test_energy_of_underflowing_parameter_products(state, params, expected):
    assert core.energy(state, params) == expected
    got = core.energy([[state.sigma, state.sigma_dot], [0.8, -0.3]], params)
    assert got[0] == expected
    assert got[1] == core.energy(State(0.8, -0.3), params)


def test_energy_minimised_at_ground_state():
    p = PhysicalParams()
    sg = core.ground_state_sigma(p)
    e0 = core.energy(State(sg, 0.0), p)
    assert e0 == pytest.approx(0.5 * p.hbar * p.omega0, rel=1e-15)
    for s in (0.5 * sg, 0.9 * sg, 1.1 * sg, 2.0 * sg):
        assert core.energy(State(s, 0.0), p) > e0


def test_radiation_coefficient_electron():
    r = core.radiation_coefficient(core.ELEMENTARY_CHARGE)
    # q^2 / (6 pi eps0 c^3), evaluated independently
    expected = core.ELEMENTARY_CHARGE ** 2 / (
        6.0 * math.pi * core.VACUUM_PERMITTIVITY
        * core.SPEED_OF_LIGHT ** 3)
    assert r == expected
    assert r == pytest.approx(5.708e-54, rel=1e-3)
    # memory time r / m_e, seconds
    assert r / core.ELECTRON_MASS == pytest.approx(6.266e-24, rel=1e-3)
    with pytest.raises(ValueError):
        core.radiation_coefficient(1.0, permittivity=0.0)
