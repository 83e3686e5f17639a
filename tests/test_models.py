"""Right-hand sides: each variant against its hand-written formula."""

import math

import numpy as np
import pytest

from ermakov import models
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
