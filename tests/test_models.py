"""Right-hand sides: each variant against its hand-written formula."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ermakov import core, models
from ermakov.core import PhysicalParams, State, State3
from ermakov.models import ModelVariant

P = PhysicalParams(m=1.3, omega0=0.9, hbar=0.8, b=0.6, beta=2.0, r=0.05)


def test_variant_partition():
    assert set(models.SECOND_ORDER_VARIANTS) | set(
        models.OVERDAMPED_VARIANTS) | {ModelVariant.RADIATIVE_NAIVE} \
        == set(ModelVariant)
    assert not set(models.SECOND_ORDER_VARIANTS) & set(
        models.OVERDAMPED_VARIANTS)


def test_quantum_pressure_value():
    got = models.quantum_pressure_acceleration(0.7, P)
    assert got == pytest.approx(0.64 / (4.0 * 1.69 * 0.343), rel=1e-15)


def test_conservative_acceleration():
    s = 0.7
    expected = -0.81 * s + models.quantum_pressure_acceleration(s, P)
    assert models.conservative_acceleration(s, P) == pytest.approx(
        expected, rel=1e-15)


def test_damped_acceleration_adds_friction():
    st = State(0.7, -0.4)
    expected = models.conservative_acceleration(0.7, P) \
        - (0.6 / 1.3) * (-0.4)
    assert models.damped_acceleration(st, P) == pytest.approx(expected,
                                                              rel=1e-15)


def test_thermal_pressure_and_marker_rejection():
    assert models.thermal_pressure_acceleration(0.5, P) == pytest.approx(
        1.0 / (2.0 * 1.3 * 0.5), rel=1e-15)
    cold = P.with_(beta=math.inf)
    with pytest.raises(ValueError, match="zero-temperature"):
        models.thermal_pressure_acceleration(0.5, cold)
    with pytest.raises(ValueError):
        models.high_temperature_acceleration(State(0.5, 0.0), cold)


def test_high_temperature_acceleration():
    st = State(0.7, 0.2)
    expected = models.damped_acceleration(st, P) \
        + 1.0 / (2.0 * 1.3 * 0.7)
    assert models.high_temperature_acceleration(st, P) == pytest.approx(
        expected, rel=1e-15)


def test_radiative_jerk_formula_and_guard():
    st = State3(0.7, 0.2, -0.1)
    m = P.m
    defect = m * (-0.1) + m * 0.81 * 0.7 - 0.64 / (4.0 * m * 0.343)
    assert models.radiative_jerk(st, P) == pytest.approx(defect / 0.05,
                                                         rel=1e-14)
    with pytest.raises(ValueError, match="r > 0"):
        models.radiative_jerk(st, P.with_(r=0.0))


def test_radiative_jerk_vanishes_on_shell():
    # on the conservative acceleration the radiation defect is zero
    s, sd = 0.9, -0.3
    on_shell = State3(s, sd, models.conservative_acceleration(s, P))
    assert abs(models.radiative_jerk(on_shell, P)) < 1e-14


def test_radiative_reduced_acceleration():
    st = State(0.7, 0.2)
    friction = (0.05 / 1.3) * (0.81 + 3.0 * 0.64
                               / (4.0 * 1.69 * 0.7 ** 4))
    expected = models.conservative_acceleration(0.7, P) - friction * 0.2
    assert models.radiative_reduced_acceleration(st, P) == pytest.approx(
        expected, rel=1e-15)
    # r = 0 collapses to the conservative variant
    assert models.radiative_reduced_acceleration(st, P.with_(r=0.0)) \
        == models.conservative_acceleration(0.7, P)


def test_overdamped_velocity():
    expected = 1.3 * models.conservative_acceleration(0.7, P) / 0.6
    got = models.overdamped_velocity(0.7, P,
                                     ModelVariant.OVERDAMPED_DISSIPATIVE)
    assert got == pytest.approx(expected, rel=1e-15)
    hot = models.overdamped_velocity(
        0.7, P, ModelVariant.OVERDAMPED_HIGH_TEMPERATURE)
    assert hot == pytest.approx(
        expected + 1.3 * models.thermal_pressure_acceleration(0.7, P) / 0.6,
        rel=1e-14)
    with pytest.raises(ValueError, match="overdamped"):
        models.overdamped_velocity(0.7, P, ModelVariant.CONSERVATIVE)
    with pytest.raises(ValueError, match="b > 0"):
        models.overdamped_velocity(0.7, P.with_(b=0.0))


def test_acceleration_dispatch():
    st = State(0.7, 0.2)
    assert models.acceleration(ModelVariant.CONSERVATIVE, st, P) \
        == models.conservative_acceleration(0.7, P)
    assert models.acceleration(ModelVariant.DISSIPATIVE, st, P) \
        == models.damped_acceleration(st, P)
    assert models.acceleration(ModelVariant.HIGH_TEMPERATURE, st, P) \
        == models.high_temperature_acceleration(st, P)
    assert models.acceleration(ModelVariant.RADIATIVE_REDUCED, st, P) \
        == models.radiative_reduced_acceleration(st, P)
    with pytest.raises(ValueError, match="third order"):
        models.acceleration(ModelVariant.RADIATIVE_NAIVE, st, P)
    with pytest.raises(ValueError, match="first order"):
        models.acceleration(ModelVariant.OVERDAMPED_DISSIPATIVE, st, P)
    # A plain row gives the State's value bit for bit, as the integrators
    # pass rows: a list on Python floats, an array on the numpy paths.
    for variant in models.SECOND_ORDER_VARIANTS:
        want = models.acceleration(variant, st, P)
        for row in ([0.7, 0.2], (0.7, 0.2), np.array([0.7, 0.2])):
            assert models.acceleration(variant, row, P) == want
    for fn in (models.damped_acceleration,
               models.high_temperature_acceleration,
               models.radiative_reduced_acceleration):
        assert fn([0.7, 0.2], P) == fn(np.array([0.7, 0.2]), P) \
            == fn(st, P)
    want = models.radiative_jerk(State3(0.7, 0.2, -0.1), P)
    for row in ([0.7, 0.2, -0.1], np.array([0.7, 0.2, -0.1])):
        assert models.radiative_jerk(row, P) == want


@pytest.mark.parametrize("variant", models.SECOND_ORDER_VARIANTS)
def test_residual_zero_on_model_acceleration(variant):
    st = State(0.7, 0.2)
    a = models.acceleration(variant, st, P)
    assert abs(models.residual(variant, st, P, sigma_ddot=a)) < 1e-14
    # off-shell acceleration shifts the residual by m times the offset
    assert models.residual(variant, st, P, sigma_ddot=a + 0.3) \
        == pytest.approx(P.m * 0.3, rel=1e-12)


def test_residual_overdamped_and_naive():
    st = State(0.7, models.overdamped_velocity(
        0.7, P, ModelVariant.OVERDAMPED_DISSIPATIVE))
    assert abs(models.residual(ModelVariant.OVERDAMPED_DISSIPATIVE,
                               st, P)) < 1e-14
    with pytest.raises(ValueError, match="no higher derivatives"):
        models.residual(ModelVariant.OVERDAMPED_DISSIPATIVE, st, P,
                        sigma_ddot=0.0)
    s3 = State3(0.7, 0.2, -0.1)
    jerk = models.radiative_jerk(s3, P)
    assert abs(models.residual(ModelVariant.RADIATIVE_NAIVE, s3, P,
                               sigma_ddot=-0.1, sigma_dddot=jerk)) < 1e-13
    with pytest.raises(ValueError, match="State3"):
        models.residual(ModelVariant.RADIATIVE_NAIVE, State(0.7, 0.2), P,
                        sigma_ddot=0.0, sigma_dddot=0.0)


def test_residual_requires_second_derivative():
    with pytest.raises(ValueError):
        models.residual(ModelVariant.CONSERVATIVE, State(0.7, 0.2), P)


# ------------------------------------------- cached parameter constants

# The rates written out on the parameter fields, each subexpression
# grouped as the rate groups it: the reference the cached constants must
# reproduce bit for bit.

def _ref_quantum(sigma, p):
    return p.hbar ** 2 / (4.0 * p.m ** 2 * sigma ** 3)


def _ref_conservative(sigma, p):
    return -p.omega0 ** 2 * sigma \
        + p.hbar ** 2 / (4.0 * p.m ** 2 * sigma ** 3)


def _ref_damped(row, p):
    s, sd = row
    return _ref_conservative(s, p) - (p.b / p.m) * sd


def _ref_thermal(sigma, p):
    if p.is_zero_temperature:
        raise ValueError("zero temperature")
    return 1.0 / (p.beta * p.m * sigma)


def _ref_high_temperature(row, p):
    return _ref_damped(row, p) + _ref_thermal(row[0], p)


def _ref_jerk(row, p):
    if p.r <= 0.0:
        raise ValueError("r > 0")
    s, _, sdd = row
    m = p.m
    return (m * sdd + m * p.omega0 ** 2 * s
            - p.hbar ** 2 / (4.0 * m * s ** 3)) / p.r


def _ref_reduced(row, p):
    s, sd = row
    friction = (p.r / p.m) * (
        p.omega0 ** 2 + 3.0 * p.hbar ** 2 / (4.0 * p.m ** 2 * s ** 4))
    return _ref_conservative(s, p) - friction * sd


def _ref_overdamped(sigma, p,
                    variant=ModelVariant.OVERDAMPED_DISSIPATIVE):
    if p.b <= 0.0:
        raise ValueError("b > 0")
    force = _ref_conservative(sigma, p)
    if variant is ModelVariant.OVERDAMPED_HIGH_TEMPERATURE:
        force += _ref_thermal(sigma, p)
    return p.m * force / p.b


_HOT = ModelVariant.OVERDAMPED_HIGH_TEMPERATURE
# (function, reference, arity): arity 1 takes sigma, 2 and 3 a row.
_RATES = [
    (models.quantum_pressure_acceleration, _ref_quantum, 1),
    (models.conservative_acceleration, _ref_conservative, 1),
    (models.thermal_pressure_acceleration, _ref_thermal, 1),
    (models.overdamped_velocity, _ref_overdamped, 1),
    (lambda s, p: models.overdamped_velocity(s, p, _HOT),
     lambda s, p: _ref_overdamped(s, p, _HOT), 1),
    (models.damped_acceleration, _ref_damped, 2),
    (models.high_temperature_acceleration, _ref_high_temperature, 2),
    (models.radiative_reduced_acceleration, _ref_reduced, 2),
    (models.radiative_jerk, _ref_jerk, 3),
] + [
    (lambda row, p, v=v: models.acceleration(v, row, p), ref, 2)
    for v, ref in zip(models.SECOND_ORDER_VARIANTS,
                      (lambda row, p: _ref_conservative(row[0], p),
                       _ref_damped, _ref_high_temperature, _ref_reduced))
]


def _outcome(fn, *args):
    """The exception type a call raises, or its result's type and bits."""
    try:
        value = fn(*args)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        return type(exc)
    return type(value), struct.pack("<d", value)


_MAX = core._MAX_PARAMETER
_POSITIVE = st.floats(5e-324, _MAX)
_NON_NEGATIVE = st.floats(0.0, _MAX)
_PARAMS = st.builds(PhysicalParams, m=_POSITIVE, omega0=_NON_NEGATIVE,
                    hbar=_POSITIVE, b=_NON_NEGATIVE, r=_NON_NEGATIVE,
                    beta=st.one_of(st.floats(5e-324, 1.7e308),
                                   st.just(core.ZERO_TEMPERATURE)))
_VALUE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(params=_PARAMS, row=st.tuples(_VALUE, _VALUE, _VALUE))
def test_rates_equal_their_written_out_formulas_bit_for_bit(params, row):
    # Python floats, where an overflow or a zero divisor raises, and the
    # numpy scalars the integrators retry such a call on.
    with np.errstate(all="ignore"):
        for values in (list(row), np.array(row)):
            for fn, ref, arity in _RATES:
                args = (values[0] if arity == 1 else values[:arity],
                        params)
                assert _outcome(fn, *args) == _outcome(ref, *args), \
                    (fn, ref, values)


def test_rate_constants_are_lazy_and_outside_the_fields():
    p = PhysicalParams(m=1.3, omega0=0.9, hbar=0.8, b=0.6, beta=2.0, r=0.05)
    assert "rate_constants" not in vars(p)
    before = (repr(p), hash(p))
    models.conservative_acceleration(0.7, p)
    assert "rate_constants" in vars(p)
    assert (repr(p), hash(p)) == before and p == p.with_()
    assert "rate_constants" not in vars(p.with_())


def _rate_args(arity, params):
    return (0.7 if arity == 1 else (0.7, 0.2, -0.1)[:arity]), params


@pytest.mark.parametrize("field, value", [
    ("m", 0.7), ("omega0", 1.7), ("hbar", 1.1), ("b", 0.2), ("beta", 0.3),
    ("r", 0.2)])
def test_a_with_copy_reads_its_own_rate_constants(field, value):
    p = PhysicalParams(m=1.3, omega0=0.9, hbar=0.8, b=0.6, beta=2.0, r=0.05)
    for fn, _, arity in _RATES:  # p's constants are filled and read
        fn(*_rate_args(arity, p))
    copy = p.with_(**{field: value})
    for fn, ref, arity in _RATES:
        args = _rate_args(arity, copy)
        assert _outcome(fn, *args) == _outcome(ref, *args)
