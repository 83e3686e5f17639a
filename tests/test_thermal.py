"""Temperature-indexed width fields: stencils, kernels, field dynamics."""

import mpmath as mp
import numpy as np
import pytest

from ermakov import analytic, thermal
from ermakov.core import PhysicalParams
from ermakov.integrators import IntegratorConfig, Scheme, StopReason
from ermakov.thermal import BetaGrid, ThermalField, ThermalVariant

P = PhysicalParams(beta=2.0)


def test_grid_construction_and_validation():
    grid = BetaGrid(beta_min=0.5, delta=0.25, count=7)
    assert np.allclose(grid.nodes, 0.5 + 0.25 * np.arange(7), rtol=0,
                       atol=0)
    assert grid.beta_max == 2.0
    ranged = BetaGrid.from_range(0.5, 2.0, 7)
    assert ranged == grid
    rebuilt = BetaGrid.from_nodes(grid.nodes)
    assert rebuilt.count == 7 and rebuilt.delta == pytest.approx(0.25)
    with pytest.raises(ValueError, match="at least 5"):
        BetaGrid(beta_min=0.5, delta=0.25, count=4)
    with pytest.raises(ValueError, match="positive"):
        BetaGrid(beta_min=0.0, delta=0.25, count=5)
    with pytest.raises(ValueError, match="positive"):
        BetaGrid(beta_min=0.5, delta=0.0, count=5)
    with pytest.raises(ValueError, match="exceed"):
        BetaGrid.from_range(2.0, 0.5, 7)
    with pytest.raises(ValueError, match="uniformly"):
        BetaGrid.from_nodes([0.5, 0.75, 1.1, 1.25, 1.5])
    with pytest.raises(ValueError, match="increase"):
        BetaGrid.from_nodes([1.5, 1.25, 1.0, 0.75, 0.5])


def test_grid_nodes_are_computed_once_and_read_only():
    grid = BetaGrid.from_range(0.5, 4.0, 11)
    fresh = BetaGrid.from_range(0.5, 4.0, 11)
    nodes = grid.nodes
    assert grid.nodes is nodes
    assert np.array_equal(nodes,
                          grid.beta_min + grid.delta * np.arange(grid.count))
    assert not nodes.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 1.0
    # The cached nodes take no part in equality, hashing or the repr.
    assert grid == fresh and hash(grid) == hash(fresh)
    assert repr(grid) == repr(fresh)
    assert grid != BetaGrid.from_range(0.5, 4.0, 12)
    rebuilt = BetaGrid.from_nodes(grid.nodes)
    assert rebuilt == BetaGrid.from_nodes(
        fresh.beta_min + fresh.delta * np.arange(fresh.count))
    assert np.array_equal(rebuilt.nodes, nodes)


def test_field_shape_validation_and_at_rest():
    grid = BetaGrid.from_range(0.5, 2.0, 5)
    with pytest.raises(ValueError, match="one entry per grid node"):
        ThermalField(grid=grid, sigma=np.ones(4), sigma_dot=np.zeros(4))
    field = ThermalField.at_rest(grid, 1.3)
    assert np.all(field.sigma == 1.3) and np.all(field.sigma_dot == 0.0)


def test_slope_stencils_exact_on_quadratics():
    # three-point stencils reproduce quadratics everywhere, edges included
    grid = BetaGrid.from_range(0.7, 3.1, 9)
    beta = grid.nodes
    values = 2.0 + 0.3 * beta + 0.7 * beta ** 2
    expected = 0.3 + 1.4 * beta
    got = thermal.beta_derivative(values, grid)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_slope_term_on_linear_profile():
    grid = BetaGrid.from_range(0.5, 2.5, 11)
    sigma = 0.9 + 0.2 * grid.nodes
    got = thermal.thermal_term_beta_derivative(sigma, grid, P)
    expected = -2.0 * 0.2 / (P.m * sigma ** 2)
    assert np.max(np.abs(got / expected - 1.0)) < 1e-13


def _hot_region_closed_form(beta_min, params):
    # canonical-bath integral of hbar^2 / (4 m sigma^4) over [0, beta_min]:
    # m omega0^2 (beta_min - tanh(a beta_min) / a), a = hbar omega0 / 2
    with mp.workdps(40):
        a = mp.mpf(params.hbar) * params.omega0 / 2
        beta = mp.mpf(beta_min)
        return float(params.m * mp.mpf(params.omega0) ** 2
                     * (beta - mp.tanh(a * beta) / a))


def test_cumulative_integral_exact_for_constant_width():
    # trapezoids are exact on a constant density, so the running integral
    # is the hot-region closure plus a straight line from beta_min
    grid = BetaGrid.from_range(0.4, 2.4, 9)
    sigma = np.full(9, 1.7)
    g = P.hbar ** 2 / (4.0 * P.m * 1.7 ** 4)
    closure = _hot_region_closed_form(grid.beta_min, P)
    expected = closure + g * (grid.nodes - grid.beta_min)
    got = thermal.cumulative_quantum_integral(sigma, grid, P)
    assert np.max(np.abs(got / expected - 1.0)) < 1e-14


def test_cumulative_integral_clips_leading_panel():
    # the leading panel over [0, beta_min] is the canonical-bath closure:
    # it ignores the field (a steeply rising density, which a linear
    # extrapolation would drive negative at the origin, changes nothing)
    # and is never negative
    grid = BetaGrid.from_range(0.5, 2.5, 5)
    closure = _hot_region_closed_form(grid.beta_min, P)
    panels = [thermal.cumulative_quantum_integral(sigma, grid, P)[0]
              for sigma in (np.array([1.0, 0.5, 0.5, 0.5, 0.5]),
                            np.full(5, 2.0))]
    assert panels[0] == panels[1]
    assert abs(panels[0] / closure - 1.0) < 1e-13
    for omega0 in (1e-3, 0.1, 1.0, 10.0, 1e3):
        p = P.with_(omega0=omega0)
        assert thermal.hot_region_integral(grid, p) >= 0.0

    # omega0 = 0: no trap, no canonical pressure density, an empty panel
    free = P.with_(omega0=0.0)
    got = thermal.cumulative_quantum_integral(np.ones(5), grid, free)
    assert got[0] == 0.0

    # a -> 0: the series branch matches the closed form where the direct
    # x - tanh(x) has cancelled away, and the two branches agree across
    # the switch point
    tiny = P.with_(omega0=2e-6)
    got = thermal.hot_region_integral(grid, tiny)
    assert abs(got / _hot_region_closed_form(grid.beta_min, tiny)
               - 1.0) < 1e-14
    switch = thermal._CLOSURE_SERIES_SWITCH
    unit = BetaGrid(beta_min=1.0, delta=0.25, count=5)
    below, above = (
        thermal.hot_region_integral(unit, P.with_(omega0=2.0 * switch * f))
        for f in (1.0 - 1e-12, 1.0 + 1e-12))
    reference = _hot_region_closed_form(1.0, P.with_(omega0=2.0 * switch))
    assert abs(below / reference - 1.0) < 1e-10
    assert abs(above / reference - 1.0) < 1e-10
    assert abs(below / above - 1.0) < 2e-10


def test_integral_term_matches_direct_quadrature():
    rng = np.random.default_rng(20240817)
    grid = BetaGrid.from_range(0.6, 3.0, 13)
    sigma = 0.8 + 0.4 * rng.random(13)
    got = thermal.thermal_term_integral(sigma, grid, P)
    g = P.hbar ** 2 / (4.0 * P.m * sigma ** 4)
    ref = np.empty(13)
    panel = _hot_region_closed_form(grid.beta_min, P)
    for j in range(13):
        inner = float(np.sum(0.5 * (g[1:j + 1] + g[:j]) * grid.delta))
        ref[j] = (1.0 / sigma[j] + sigma[j] * (panel + inner)) \
            / (P.m * grid.nodes[j])
    assert np.max(np.abs(got / ref - 1.0)) < 1e-13


def test_integral_term_is_positive():
    rng = np.random.default_rng(11)
    for _ in range(25):
        count = int(rng.integers(5, 40))
        grid = BetaGrid(beta_min=float(0.05 + 2.0 * rng.random()),
                        delta=float(0.02 + 0.3 * rng.random()), count=count)
        sigma = 0.2 + 3.0 * rng.random(count)
        term = thermal.thermal_term_integral(sigma, grid, P)
        assert np.all(term > 0.0)


def test_equilibrium_profile_matches_single_beta_closed_form():
    grid = BetaGrid.from_range(0.5, 4.0, 8)
    field = thermal.equilibrium_profile_coth(grid, P)
    for j, beta in enumerate(grid.nodes):
        expected = analytic.equilibrium_coth(P.with_(beta=float(beta)))
        assert field.sigma[j] ** 2 == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError, match="omega0"):
        thermal.equilibrium_profile_coth(grid, P.with_(omega0=0.0))


def test_slope_form_residual_converges_quadratically():
    # coarse and refined grids share the node beta = 1.9, away from edges
    vals = {}
    for count in (21, 41):
        grid = BetaGrid.from_range(0.5, 4.0, count)
        eq = thermal.equilibrium_profile_coth(grid, P)
        res = thermal.equilibrium_residual(ThermalVariant.BETA_DERIVATIVE,
                                           eq, P)
        j = int(np.argmin(np.abs(grid.nodes - 1.9)))
        assert grid.nodes[j] == pytest.approx(1.9, abs=1e-12)
        vals[count] = abs(res[j])
    assert vals[21] < 5e-3
    ratio = vals[21] / vals[41]
    assert 3.6 < ratio < 4.4


def test_classical_limit_integral_form():
    # equipartition widths solve the integral-form balance exactly when
    # the quantum scale is negligible
    p = PhysicalParams(m=1.2, omega0=0.8, hbar=1e-10, beta=2.0)
    grid = BetaGrid.from_range(1.0, 3.0, 21)
    sigma = 1.0 / np.sqrt(grid.nodes * p.m * p.omega0 ** 2)
    field = ThermalField.at_rest(grid, sigma)
    res = thermal.equilibrium_residual(ThermalVariant.INTEGRAL_FORM,
                                       field, p)
    assert np.max(np.abs(res)) < 1e-12


def test_classical_limit_slope_form_converges():
    p = PhysicalParams(m=1.2, omega0=0.8, hbar=1e-10, beta=2.0)
    vals = {}
    for count in (21, 41):
        grid = BetaGrid.from_range(1.0, 3.0, count)
        sigma = 1.0 / np.sqrt(grid.nodes * p.m * p.omega0 ** 2)
        field = ThermalField.at_rest(grid, sigma)
        res = thermal.equilibrium_residual(ThermalVariant.BETA_DERIVATIVE,
                                           field, p)
        vals[count] = np.max(np.abs(res))
    assert vals[21] < 1e-2
    assert vals[21] / vals[41] > 3.0


def test_constant_field_is_pushed_toward_equilibrium():
    grid = BetaGrid.from_range(0.5, 4.0, 15)
    for variant in ThermalVariant:
        squeezed = thermal.acceleration_field(
            variant, np.full(15, 0.3), np.zeros(15), grid, P)
        stretched = thermal.acceleration_field(
            variant, np.full(15, 3.0), np.zeros(15), grid, P)
        assert np.all(squeezed > 0.0)
        assert np.all(stretched < 0.0)


def test_interior_slope_term_ignores_grid_extension():
    # pad two nodes on each side: interior central stencils see the same
    # floats, so the slope-form term is bit-identical there.  The running
    # integral starts at the origin, so the integral form shifts instead.
    rng = np.random.default_rng(7)
    big = BetaGrid(beta_min=0.4, delta=0.125, count=16)
    sigma_big = 0.7 + 0.6 * rng.random(16)
    small = BetaGrid(beta_min=float(big.nodes[2]), delta=0.125, count=12)
    sigma_small = sigma_big[2:-2]

    term_big = thermal.thermal_term_beta_derivative(sigma_big, big, P)
    term_small = thermal.thermal_term_beta_derivative(sigma_small, small, P)
    assert np.array_equal(term_small[1:-1], term_big[3:-3])

    int_big = thermal.thermal_term_integral(sigma_big, big, P)
    int_small = thermal.thermal_term_integral(sigma_small, small, P)
    assert not np.allclose(int_small[1:-1], int_big[3:-3], rtol=1e-12)


def test_unknown_variant_rejected():
    grid = BetaGrid.from_range(0.5, 2.0, 5)
    with pytest.raises(ValueError, match="unknown thermal variant"):
        thermal.acceleration_field("integral", np.ones(5), np.zeros(5),
                                   grid, P)
    with pytest.raises(ValueError, match="unknown thermal variant"):
        thermal.acceleration_jacobian("integral", np.ones(5), grid, P)


def test_integrate_thermal_validation():
    grid = BetaGrid.from_range(0.5, 2.0, 6)
    field = ThermalField.at_rest(grid, 1.0)
    with pytest.raises(TypeError, match="ThermalVariant"):
        thermal.integrate_thermal("integral", field, (0.0, 1.0), P)
    with pytest.raises(ValueError, match="t_end"):
        thermal.integrate_thermal(ThermalVariant.INTEGRAL_FORM, field,
                                  (1.0, 1.0), P)
    tiny = ThermalField.at_rest(grid, 1e-13)
    with pytest.raises(ValueError, match="sigma_min_guard"):
        thermal.integrate_thermal(ThermalVariant.INTEGRAL_FORM, tiny,
                                  (0.0, 1.0), P)


def test_zero_temperature_params_run_like_a_finite_beta():
    # The grid supplies every temperature, so params.beta is never read.
    grid = BetaGrid.from_range(0.8, 3.0, 12)
    cold = PhysicalParams(b=2.0)
    warm = cold.with_(beta=grid.beta_max)
    start = ThermalField.at_rest(grid, 1.1)
    config = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11)
    runs = [thermal.integrate_thermal(ThermalVariant.INTEGRAL_FORM, start,
                                      (0.0, 2.0), params, config)
            for params in (cold, warm)]
    assert runs[0][1] is runs[1][1] is StopReason.COMPLETED
    assert np.array_equal(runs[0][0].times, runs[1][0].times)
    assert np.array_equal(runs[0][0].states, runs[1][0].states)
    profiles = [thermal.stationary_profile(
        ThermalVariant.BETA_DERIVATIVE, grid, params, t_relax=5.0,
        config=config) for params in (cold, warm)]
    assert np.array_equal(profiles[0], profiles[1])


def test_thermal_trajectory_sampling_and_field_roundtrip():
    grid = BetaGrid.from_range(0.8, 2.4, 9)
    start = thermal.equilibrium_profile_coth(grid, P)
    params = P.with_(b=80.0)
    traj, reason = thermal.integrate_thermal(
        ThermalVariant.BETA_DERIVATIVE, start, (0.0, 2.0), params,
        IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11))
    assert reason is StopReason.COMPLETED
    assert np.all(np.diff(traj.times) > 0.0)
    assert traj.sigma.shape == (traj.times.size, 9)
    assert traj.sigma_dot.shape == traj.sigma.shape
    mid = traj.times[len(traj.times) // 2]
    row = traj.sample(mid)
    assert np.array_equal(row[0], traj.states[len(traj.times) // 2])
    field = traj.field_at(float(mid))
    assert np.array_equal(field.sigma, row[0, :9])
    assert np.array_equal(field.sigma_dot, row[0, 9:])
    with pytest.raises(ValueError, match="within"):
        traj.sample([-1.0])
    # heavy damping keeps the run pinned near its stationary start
    assert np.max(np.abs(traj.sigma[-1] / start.sigma - 1.0)) < 5e-3


def test_thermal_sample_matches_scalar_reference_bitwise(scalar_sample):
    grid = BetaGrid.from_range(0.5, 4.0, 21)
    start = ThermalField.at_rest(
        grid, 1.05 * thermal.equilibrium_profile_coth(grid, P).sigma)
    traj, reason = thermal.integrate_thermal(
        ThermalVariant.INTEGRAL_FORM, start, (0.0, 2.0), P,
        IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11))
    assert reason is StopReason.COMPLETED
    ts = np.concatenate((np.linspace(0.0, 2.0, 501), traj.times,
                         [0.0, 2.0]))
    got = traj.sample(ts)
    assert got.shape == (ts.size, 42)
    assert np.array_equal(got, scalar_sample(traj, ts))
    assert np.array_equal(traj.sample(traj.times), traj.states)
    with pytest.raises(ValueError, match="within"):
        traj.sample([2.0 + 1e-9])


# Non-unit mass and hbar, so a misplaced power of either shows.
P_JAC = PhysicalParams(m=1.7, hbar=0.8, omega0=1.3, b=2.5, beta=2.0)


def _perturbed_widths(grid, seed):
    base = thermal.equilibrium_profile_coth(grid, P_JAC).sigma
    rng = np.random.default_rng(seed)
    return base * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, grid.count))


def _jacobian_error(variant, sig, grid):
    """Largest row-relative distance of ``acceleration_jacobian`` from
    central differences of ``acceleration_field``."""
    count = grid.count
    vel = np.linspace(-0.3, 0.2, count)
    jac = thermal.acceleration_jacobian(variant, sig, grid, P_JAC)
    assert jac.shape == (count, count)
    ref = np.empty((count, count))
    for k in range(count):
        step = 1e-6 * sig[k]
        up, down = sig.copy(), sig.copy()
        up[k] += step
        down[k] -= step
        ref[:, k] = (thermal.acceleration_field(variant, up, vel, grid, P_JAC)
                     - thermal.acceleration_field(variant, down, vel, grid,
                                                  P_JAC)) / (2.0 * step)
    # Row by row, so the one-sided edge rows are held to the same bound.
    row_err = (np.max(np.abs(jac - ref), axis=1)
               / np.max(np.abs(ref), axis=1))
    return jac, np.max(row_err)


@pytest.mark.parametrize("variant", list(ThermalVariant))
@pytest.mark.parametrize("count", [5, 21])
def test_acceleration_jacobian_matches_central_difference(variant, count):
    # On [0.3, 4.1], c / (2 delta) and c * (1 / (2 delta)) differ by an
    # ulp in the edge rows, so the stencil's rounding shows there.
    for grid in (BetaGrid.from_range(0.5, 4.0, count),
                 BetaGrid.from_range(0.3, 4.1, count)):
        jac, err = _jacobian_error(variant, _perturbed_widths(grid, count),
                                   grid)
        assert err <= 1e-6
        if variant is ThermalVariant.BETA_DERIVATIVE:
            j, k = np.indices(jac.shape)
            stencil = (np.abs(j - k) <= 1) | ((j == 0) & (k == 2)) \
                | ((j == count - 1) & (k == count - 3))
            assert np.all(jac[~stencil] == 0.0)
        else:
            assert np.all(np.triu(jac, 1) == 0.0)


def test_slope_jacobian_follows_the_rhs_stencil(monkeypatch):
    # Criterion 10's seeded fault: a forward difference inside.
    real_derivative = thermal.beta_derivative

    def lopsided(values, grid):
        out = real_derivative(values, grid)
        v = np.asarray(values, dtype=float)
        out[1:-1] = (v[2:] - v[1:-1]) / grid.delta
        return out

    monkeypatch.setattr(thermal, "beta_derivative", lopsided)
    grid = BetaGrid.from_range(0.5, 4.0, 11)
    jac, err = _jacobian_error(ThermalVariant.BETA_DERIVATIVE,
                               _perturbed_widths(grid, 4), grid)
    assert err <= 1e-6
    assert np.all(np.diag(jac, -1)[:-1] == 0.0)


def test_integral_jacobian_follows_the_rhs_quadrature(monkeypatch):
    # A left-point rule in place of the trapezoid.
    def left_point(values, grid):
        return np.concatenate(([0.0], np.cumsum(values[:-1] * grid.delta)))

    monkeypatch.setattr(thermal, "_running_trapezoid", left_point)
    grid = BetaGrid.from_range(0.5, 4.0, 11)
    jac, err = _jacobian_error(ThermalVariant.INTEGRAL_FORM,
                               _perturbed_widths(grid, 4), grid)
    assert err <= 1e-6
    assert np.all(np.triu(jac, 1) == 0.0)


def _full_newton_matrix(variant, sig, grid, params, dh):
    """I - dh J for the stacked [widths, width rates] system."""
    count = grid.count
    a = thermal.acceleration_jacobian(variant, sig, grid, params)
    c = params.b / params.m
    jac = np.block([[np.zeros((count, count)), np.eye(count)],
                    [a, -c * np.eye(count)]])
    return np.eye(2 * count) - dh * jac


def _cond_bound(full):
    """max(1e-12, 4 cond eps), cond the full matrix's 2-norm condition
    number."""
    return max(1e-12, 4.0 * np.linalg.cond(full) * np.finfo(float).eps)


def _assert_solves_match(variant, sig, grid, params, dhs,
                         relative_bound=_cond_bound):
    """Every solve of ``_schur_solver`` lies within
    ``relative_bound(full)`` of ``np.linalg.solve`` on the full Newton
    matrix, relative to the solution's norm."""
    y = np.concatenate((sig, np.zeros(grid.count)))
    newton_solver = thermal._schur_solver(variant, grid, params)
    rng = np.random.default_rng(3)
    for dh in dhs:
        full = _full_newton_matrix(variant, sig, grid, params, dh)
        bound = relative_bound(full)
        solve = newton_solver(y, None, dh)
        for _ in range(3):
            g = rng.standard_normal(2 * grid.count)
            ref = np.linalg.solve(full, g)
            assert np.linalg.norm(solve(g) - ref) <= bound * np.linalg.norm(
                ref), (grid.count, params.b, dh)


@pytest.mark.parametrize("variant", list(ThermalVariant))
def test_schur_solver_matches_full_newton_matrix(variant):
    grid = BetaGrid.from_range(0.5, 4.0, 21)
    _assert_solves_match(variant, _perturbed_widths(grid, 7), grid, P_JAC,
                         (1e-4, 0.05, 2.0), lambda full: 1e-12)


def _stress_widths(profile, grid):
    coth = thermal.equilibrium_profile_coth(grid, P_JAC).sigma
    rng = np.random.default_rng(11)
    if profile == "coth":
        return coth
    if profile == "reversed":
        return coth[::-1].copy()
    if profile == "noisy":
        return coth * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, grid.count))
    return rng.uniform(0.2, 3.0, grid.count)


@pytest.mark.parametrize("profile", ["coth", "reversed", "noisy", "random"])
@pytest.mark.parametrize("variant", list(ThermalVariant))
def test_schur_solver_matches_full_newton_matrix_under_stress(variant,
                                                              profile):
    # Sizes up to 201 nodes, friction from 0 to 80 (b / (m omega0)) and
    # steps from 1e-4 to 100, where the Newton matrix is far from I.
    for count in (11, 41, 201):
        grid = BetaGrid.from_range(0.3, 4.1, count)
        sig = _stress_widths(profile, grid)
        for friction in (0.0, 0.5, 80.0):
            params = P_JAC.with_(b=friction * P_JAC.m * P_JAC.omega0)
            dhs = (1e-4, 0.05, 2.0, 100.0) if count < 201 else (0.05, 100.0)
            _assert_solves_match(variant, sig, grid, params, dhs)


_REAL_BETA_DERIVATIVE = thermal.beta_derivative


def _lopsided(values, grid):
    """Criterion 10's seeded fault: a forward difference inside, so that
    M[n-2, n-3] is 0 while M[n-1, n-3] is not."""
    out = _REAL_BETA_DERIVATIVE(values, grid)
    v = np.asarray(values, dtype=float)
    out[1:-1] = (v[2:] - v[1:-1]) / grid.delta
    return out


def _lagging(values, grid):
    """The mirror image: a backward difference inside, so that M[1, 2]
    and M[n-2, n-3] are 0 while the edge entries are not."""
    out = _REAL_BETA_DERIVATIVE(values, grid)
    v = np.asarray(values, dtype=float)
    out[1:-1] = (v[1:-1] - v[:-2]) / grid.delta
    return out


def _five_point(values, grid):
    """A wider stencil: fourth-order central differences two nodes in
    from each edge."""
    out = _REAL_BETA_DERIVATIVE(values, grid)
    v = np.asarray(values, dtype=float)
    out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (
        12.0 * grid.delta)
    return out


def _count_factorisations(monkeypatch):
    """Count ``np.linalg.inv``, ``np.linalg.solve`` and ``_stencil_lu``
    calls from here on."""
    calls = {"inv": 0, "solve": 0, "stencil": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    monkeypatch.setattr(np.linalg, "solve", counted("solve",
                                                     np.linalg.solve))
    monkeypatch.setattr(thermal, "_stencil_lu",
                        counted("stencil", thermal._stencil_lu))
    return calls


@pytest.mark.parametrize("operator, stencil", [(_lopsided, True),
                                               (_lagging, True),
                                               (_five_point, False)])
def test_schur_solver_follows_the_slope_stencil(monkeypatch, operator,
                                                stencil):
    # A mutated stencil that keeps three adjacent columns per row still
    # takes the O(n) factorisation; a wider one falls back to the dense
    # inverse.  Both solve their own mutated Newton system.
    monkeypatch.setattr(thermal, "beta_derivative", operator)
    calls = _count_factorisations(monkeypatch)
    variant = ThermalVariant.BETA_DERIVATIVE
    grid = BetaGrid.from_range(0.5, 4.0, 21)
    structure = thermal._jacobian_structure(variant, grid)
    assert (thermal._stencil_layout(structure) is not None) is stencil
    sig = _perturbed_widths(grid, 7)
    dhs = (1e-4, 0.05, 2.0)
    _assert_solves_match(variant, sig, grid, P_JAC, dhs)
    assert calls["stencil"] == (len(dhs) if stencil else 0)
    assert calls["inv"] == (0 if stencil else len(dhs))


def test_stencil_lu_solves_and_names_a_zero_pivot():
    count = 9
    rng = np.random.default_rng(5)
    dense = np.diag(rng.uniform(3.0, 4.0, count))
    for j in range(count - 1):
        dense[j, j + 1], dense[j + 1, j] = rng.uniform(-1.0, 1.0, 2)
    dense[0, 2], dense[-1, -3] = 0.7, -0.4
    layout = thermal._stencil_layout(dense)
    assert layout is not None
    band = layout[0]
    b = rng.standard_normal(count)
    x = thermal._stencil_lu(band)(b)
    assert np.linalg.norm(x - np.linalg.solve(dense, b)) <= 1e-14 * (
        np.linalg.norm(x))
    # Leading rows [1, 1, 0] and [1, 1, 0.5]: the second pivot is 0.
    singular = band.copy()
    singular[:2] = ((0.0, 0.0, 1.0, 1.0, 0.0), (0.0, 1.0, 1.0, 0.5, 0.0))
    nan, inf = band.copy(), band.copy()
    nan[4, 2], inf[4, 2] = np.nan, np.inf
    for bad in (singular, nan, inf):
        with pytest.raises(np.linalg.LinAlgError):
            thermal._stencil_lu(bad)


@pytest.mark.parametrize("row", [0, 5, 10])
def test_trbdf2_zero_pivot_is_a_stop_reason(monkeypatch, row):
    # Every attempt's Newton matrix loses one row, so its factorisation
    # meets a zero pivot: each attempt is a bad step, and the run stops
    # with a reason instead of a ZeroDivisionError.
    real = thermal._stencil_lu

    def singular(band):
        band = band.copy()
        band[row] = 0.0
        return real(band)

    monkeypatch.setattr(thermal, "_stencil_lu", singular)
    grid = BetaGrid.from_range(0.5, 4.0, 11)
    params = P.with_(b=10.0)
    start = thermal.equilibrium_profile_coth(grid, params)
    traj, reason = thermal.integrate_thermal(
        ThermalVariant.BETA_DERIVATIVE, start, (0.0, 1.0), params,
        IntegratorConfig(scheme=Scheme.TRBDF2))
    assert reason is StopReason.STEP_UNDERFLOW
    assert traj.n_accepted == 0 and traj.n_rejected > 0


@pytest.mark.parametrize("variant", list(ThermalVariant))
def test_trbdf2_field_rhs_calls_equal_n_rhs(monkeypatch, variant):
    # The Jacobian must not evaluate the field outside the counted rhs.
    calls = [0]
    original = thermal.acceleration_field

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(thermal, "acceleration_field", counted)
    grid = BetaGrid.from_range(0.5, 4.0, 11)
    params = P.with_(b=10.0)
    start = ThermalField.at_rest(
        grid, 1.1 * thermal.equilibrium_profile_coth(grid, params).sigma)
    traj, reason = thermal.integrate_thermal(
        variant, start, (0.0, 1.0), params,
        IntegratorConfig(scheme=Scheme.TRBDF2, rel_tol=1e-8, abs_tol=1e-11))
    assert reason is StopReason.COMPLETED
    assert traj.n_accepted > 10
    assert calls[0] == traj.n_rhs


@pytest.mark.parametrize("variant", list(ThermalVariant))
def test_trbdf2_field_factors_once_per_attempt(monkeypatch, variant):
    # Every Newton iteration and the error filter of an attempt reuse one
    # factorisation of the attempt's Newton matrix: the slope form's
    # O(n) stencil factorisation, with no dense inverse or solve, or the
    # integral form's inverse.
    calls = _count_factorisations(monkeypatch)
    grid = BetaGrid.from_range(0.5, 4.0, 11)
    params = P.with_(b=10.0)
    start = ThermalField.at_rest(
        grid, 1.1 * thermal.equilibrium_profile_coth(grid, params).sigma)
    traj, reason = thermal.integrate_thermal(
        variant, start, (0.0, 1.0), params,
        IntegratorConfig(scheme=Scheme.TRBDF2, rel_tol=1e-8, abs_tol=1e-11))
    assert reason is StopReason.COMPLETED
    assert traj.n_accepted > 10
    attempts = traj.n_accepted + traj.n_rejected
    if variant is ThermalVariant.BETA_DERIVATIVE:
        assert calls == {"inv": 0, "solve": 0, "stencil": attempts}
    else:
        assert calls == {"inv": attempts, "solve": 0, "stencil": 0}


def test_slope_form_hold_needs_few_rhs_per_step():
    # A finite-difference Jacobian would cost 142 rhs per step here, and
    # two Newton iterations per stage 6.  A stage that stops after one,
    # on the run's contraction rate, makes it 4: one rhs per stage
    # iteration and one at each stage's end.
    params = P.with_(b=80.0)
    grid = BetaGrid.from_range(0.5, 4.0, 71)
    start = thermal.equilibrium_profile_coth(grid, params)
    traj, reason = thermal.integrate_thermal(
        ThermalVariant.BETA_DERIVATIVE, start, (0.0, 10.0), params,
        IntegratorConfig(scheme=Scheme.TRBDF2, rel_tol=1e-9, abs_tol=1e-12))
    assert reason is StopReason.COMPLETED
    assert traj.n_rhs / traj.n_accepted <= 4.5


def test_stationary_profile_relaxes_residual():
    grid = BetaGrid.from_range(0.8, 3.0, 12)
    prof = thermal.stationary_profile(
        ThermalVariant.INTEGRAL_FORM, grid, P, t_relax=50.0,
        config=IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11))
    coth = thermal.equilibrium_profile_coth(grid, P)
    res_start = thermal.equilibrium_residual(ThermalVariant.INTEGRAL_FORM,
                                             coth, P)
    res_end = thermal.equilibrium_residual(
        ThermalVariant.INTEGRAL_FORM, ThermalField.at_rest(grid, prof), P)
    assert np.max(np.abs(res_end)) < 1e-8 < np.max(np.abs(res_start))
    assert np.max(np.abs(prof / coth.sigma - 1.0)) < 3e-2
    with pytest.raises(ValueError, match="omega0"):
        thermal.stationary_profile(ThermalVariant.INTEGRAL_FORM, grid,
                                   P.with_(omega0=0.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("variant", list(ThermalVariant))
def test_stationary_profile_stopped_early_is_a_value_error(variant):
    with pytest.raises(ValueError,
                       match="relaxation stopped early: sigma_guard_hit"):
        thermal.stationary_profile(variant, BetaGrid(0.5, 0.25, 7),
                                   PhysicalParams(b=1e150))
