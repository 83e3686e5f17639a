"""Shared test helpers."""

import numpy as np
import pytest

from ermakov import models


def _scalar_sample(traj, ts):
    """Per-row scalar reference for a trajectory's dense output.

    A time equal to a node returns the node's state; any other time runs
    Horner's rule on its step's local polynomial, one row at a time.
    First-order runs fill the rate column from the model velocity.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.empty((ts.size, traj.states.shape[1]))
    for row, t in enumerate(ts):
        i = int(np.searchsorted(traj.times, t))
        if i < traj.times.size and traj.times[i] == t:
            out[row] = traj.states[i]
            continue
        c = traj.dense_coefficients[i - 1]
        x = (t - traj.times[i - 1]) / (traj.times[i] - traj.times[i - 1])
        poly = c[4]
        for k in (3, 2, 1, 0):
            poly = poly * x + c[k]
        out[row, :poly.size] = poly
        if getattr(traj, "first_order", False):
            out[row, 1] = models.overdamped_velocity(
                float(poly[0]), traj.params, traj.variant)
    return out


@pytest.fixture
def scalar_sample():
    return _scalar_sample
