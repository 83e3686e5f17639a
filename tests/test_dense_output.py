"""Every run builds its dense output once, at its end.

The step kernels return what their interpolants need: the DP54 stages
k1, k3-k7, or the TR-BDF2 end derivatives (f0, f1).  The driver keeps
them for accepted steps only and builds every coefficient with one
builder per scheme.  These tests record what each attempt returned and
rebuild the rows per step the way the kernels formed them before:

* TR-BDF2: the cubic Hermite rows, with the same elementwise operations
  in the same order, so the built coefficients must be equal byte for
  byte;
* DP54 on arrays (thermal fields): numpy's matrix product ``k^T P``,
  which sums in its own order, so the elementwise build must lie within
  ``14 eps sum|terms|`` per entry, the bound of
  ``test_float_kernel_matches_the_array_kernel``.
"""

import numpy as np
import pytest

from ermakov import integrators, thermal
from ermakov.core import PhysicalParams, State
from ermakov.integrators import IntegratorConfig, Scheme, StopReason
from ermakov.models import ModelVariant
from ermakov.thermal import BetaGrid, ThermalField, ThermalVariant

EPS = np.finfo(float).eps
_TRBDF2 = IntegratorConfig(scheme=Scheme.TRBDF2, rel_tol=1e-6,
                           abs_tol=1e-9)


def _hermite_rows(y0, f0, y1, f1, h):
    """One step's (5, dim) cubic Hermite rows, as TR-BDF2 attempts
    formed them per step."""
    c = np.zeros((5, y0.size))
    dy = y1 - y0
    c[0] = y0
    c[1] = h * f0
    c[2] = 3.0 * dy - h * (2.0 * f0 + f1)
    c[3] = -2.0 * dy + h * (f0 + f1)
    return c


def _field(count, factor):
    grid = BetaGrid.from_range(0.5, 4.0, count)
    sigma = thermal.equilibrium_profile_coth(grid, PhysicalParams()).sigma
    return ThermalField.at_rest(grid, factor * sigma)


_TRBDF2_RUNS = {
    "overdamped": (1, lambda: integrators.integrate_overdamped(
        ModelVariant.OVERDAMPED_DISSIPATIVE, 0.3, (0.0, 1.0),
        PhysicalParams(b=10.0), _TRBDF2)),
    "dissipative": (2, lambda: integrators.integrate(
        ModelVariant.DISSIPATIVE, State(1.3, 0.4), (0.0, 1.0),
        PhysicalParams(b=20.0), _TRBDF2)),
    "rejections": (2, lambda: integrators.integrate(
        ModelVariant.DISSIPATIVE, State(0.2, 3.0), (0.0, 5.0),
        PhysicalParams(b=2.0),
        IntegratorConfig(scheme=Scheme.TRBDF2, rel_tol=1e-4, abs_tol=1e-6))),
    "radiative": (3, lambda: integrators.integrate(
        ModelVariant.RADIATIVE_NAIVE, State(1.0, 0.1), (0.0, 0.05),
        PhysicalParams(r=0.01), _TRBDF2)),
    "field": (22, lambda: thermal.integrate_thermal(
        ThermalVariant.INTEGRAL_FORM, _field(11, 1.2), (0.0, 2.0),
        PhysicalParams(b=10.0), _TRBDF2)),
}


@pytest.mark.parametrize("name", sorted(_TRBDF2_RUNS))
def test_trbdf2_dense_build_equals_the_per_step_hermite_rows(monkeypatch,
                                                             name):
    dim, run = _TRBDF2_RUNS[name]
    kernel = integrators._trbdf2_attempt
    ends = {}

    def recording(rhs, y, f0, h, **kwargs):
        out = kernel(rhs, y, f0, h, **kwargs)
        ends[y.tobytes(), h] = out[3]
        return out

    monkeypatch.setattr(integrators, "_trbdf2_attempt", recording)
    traj, reason = run()
    assert reason in (StopReason.COMPLETED, StopReason.RUNAWAY_DETECTED)
    if name == "rejections":
        assert traj.n_rejected > 0
    assert traj.dense_coefficients.shape == (traj.n_accepted, 5, dim)
    reference = []
    for i in range(traj.n_accepted):
        y0, y1 = traj.states[i, :dim], traj.states[i + 1, :dim]
        h = float(traj.step_sizes[i + 1])
        f0, f1 = ends[y0.tobytes(), h]
        reference.append(_hermite_rows(y0, f0, y1, f1, h))
    reference = np.array(reference)
    assert reference.tobytes() == traj.dense_coefficients.tobytes()


def test_explicit_field_dense_build_is_within_the_matmul_bound(monkeypatch):
    kernel = integrators._dp54_attempt
    recorded = {}

    def recording(rhs, y, f0, h, **kwargs):
        out = kernel(rhs, y, f0, h, **kwargs)
        recorded[y.tobytes(), h] = out[3]
        return out

    monkeypatch.setattr(integrators, "_dp54_attempt", recording)
    traj, reason = thermal.integrate_thermal(
        ThermalVariant.INTEGRAL_FORM, _field(71, 1.05), (0.0, 2.0),
        PhysicalParams(), IntegratorConfig(rel_tol=1e-6))
    assert reason is StopReason.COMPLETED
    assert traj.dense_coefficients.shape == (traj.n_accepted, 5, 142)
    # The stages k1, k3-k7 against the rows of P that weigh them; the
    # row of k2 is zero.
    p = np.delete(np.array(integrators._DP_P), 1, axis=0)
    for i in range(traj.n_accepted):
        y = traj.states[i]
        h = float(traj.step_sizes[i + 1])
        k = recorded[y.tobytes(), h]
        ref = np.vstack((y, h * (k.T @ p).T))
        terms = np.vstack((np.abs(y), h * (np.abs(p).T @ np.abs(k))))
        got = traj.dense_coefficients[i]
        assert np.array_equal(got[0], y)
        assert np.all(np.abs(got - ref) <= 14 * EPS * terms)
