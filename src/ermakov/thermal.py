"""Width dynamics resolved over inverse temperature.

A thermal state is a field: one width per inverse-temperature node on a
uniform grid.  Two couplings across the grid are provided and should
agree at equilibrium:

* ``ThermalVariant.BETA_DERIVATIVE`` keeps the usual quantum pressure
  and adds a term built from the slope of the width across the grid.
* ``ThermalVariant.INTEGRAL_FORM`` replaces both by a single term built
  from the running integral of the quantum pressure density from
  beta = 0.

Both reproduce the canonical equilibrium width profile.  The integral
form folds the quantum pressure into its kernel, whose running integral
starts at beta = 0, below the hottest grid node.  The grid cannot resolve
that hot region, so it is closed by its canonical-equilibrium value: the
temperatures hotter than the grid are treated as a bath in canonical
equilibrium, whatever the field does on the grid.  In exchange the
integral form converges at second order in the node spacing.

The inverse temperatures are supplied by the grid.  The ``beta`` entry
of the physical parameter set is not consulted here; it only matters to
the single-temperature models.

On the implicit TR-BDF2 scheme, ``integrate_thermal`` hands the driver
a Newton solver built on ``acceleration_jacobian``, the analytic
Jacobian of the field, and reduces each Newton system to one n x n
matrix (a Schur complement on the second-order block structure), which
it factors once per step attempt and reuses for every Newton iteration
and the error filter: in O(n) where the Jacobian keeps to the slope
stencil's three columns per row, by a dense inverse otherwise.  Its
coupling across the grid is the rhs operator applied to the unit
vectors, so it is written once.  The scalar width
models keep the driver's finite-difference Jacobian.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .core import PhysicalParams
from .integrators import (IntegratorConfig, Scheme, StopReason,
                          _check_span, _dense_sample, _drive)


class ThermalVariant(Enum):
    """How neighbouring temperatures enter the width equation."""

    BETA_DERIVATIVE = "beta-derivative"
    INTEGRAL_FORM = "integral-form"


@dataclass(frozen=True)
class BetaGrid:
    """Uniform grid of inverse temperatures, strictly positive.

    Five nodes is the minimum for the one-sided edge stencils to make
    sense.
    """

    beta_min: float
    delta: float
    count: int

    def __post_init__(self) -> None:
        if not (self.beta_min > 0.0 and math.isfinite(self.beta_min)):
            raise ValueError("beta_min must be positive and finite")
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError("delta must be positive and finite")
        if self.count < 5:
            raise ValueError("need at least 5 grid nodes")

    @cached_property
    def nodes(self) -> np.ndarray:
        """The inverse temperatures, computed once per grid, read-only."""
        nodes = self.beta_min + self.delta * np.arange(self.count)
        nodes.flags.writeable = False
        return nodes

    @property
    def beta_max(self) -> float:
        return self.beta_min + self.delta * (self.count - 1)

    @classmethod
    def from_range(cls, beta_min: float, beta_max: float,
                   count: int) -> "BetaGrid":
        if count < 5:
            raise ValueError("need at least 5 grid nodes")
        if not beta_max > beta_min:
            raise ValueError("beta_max must exceed beta_min")
        return cls(beta_min=beta_min, delta=(beta_max - beta_min) / (count - 1),
                   count=count)

    @classmethod
    def from_nodes(cls, nodes) -> "BetaGrid":
        arr = np.asarray(nodes, dtype=float)
        if arr.ndim != 1 or arr.size < 5:
            raise ValueError("need a flat array of at least 5 nodes")
        delta = (arr[-1] - arr[0]) / (arr.size - 1)
        if not delta > 0.0:
            raise ValueError("nodes must increase")
        if np.max(np.abs(np.diff(arr) - delta)) > 1e-12 * (abs(arr[-1])
                                                           + delta):
            raise ValueError("nodes must be uniformly spaced")
        return cls(beta_min=float(arr[0]), delta=float(delta),
                   count=int(arr.size))


@dataclass(frozen=True)
class ThermalField:
    """Width and width rate per grid node at one instant."""

    grid: BetaGrid
    sigma: np.ndarray
    sigma_dot: np.ndarray

    def __post_init__(self) -> None:
        sig = np.asarray(self.sigma, dtype=float)
        vel = np.asarray(self.sigma_dot, dtype=float)
        if sig.shape != (self.grid.count,) or vel.shape != (self.grid.count,):
            raise ValueError("field arrays must have one entry per grid node")
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "sigma_dot", vel)

    @classmethod
    def at_rest(cls, grid: BetaGrid, sigma) -> "ThermalField":
        sig = np.broadcast_to(np.asarray(sigma, dtype=float),
                              (grid.count,)).copy()
        return cls(grid=grid, sigma=sig, sigma_dot=np.zeros(grid.count))


def beta_derivative(values: np.ndarray, grid: BetaGrid) -> np.ndarray:
    """Second-order derivative of a nodal field across the grid.

    Central differences inside, one-sided three-point stencils at the
    two edges.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.count,):
        raise ValueError("field must have one entry per grid node")
    two_d = 2.0 * grid.delta
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / two_d
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / two_d
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / two_d
    return out


def thermal_term_beta_derivative(sigma: np.ndarray, grid: BetaGrid,
                                 params: PhysicalParams) -> np.ndarray:
    """Cooling-slope acceleration term, per node.

    Proportional to the width slope across the grid; positive wherever
    the width shrinks toward colder temperatures.
    """
    slope = beta_derivative(sigma, grid)
    return -2.0 * slope / (params.m * np.square(sigma))


# Below this x = hbar * omega0 * beta_min / 2 the hot-region closure
# uses its series: there x - tanh(x) loses about 3 eps / x^2 of relative
# accuracy to cancellation, while the dropped series term is 17 x^4 / 105
# relative.  The two errors balance near 4e-3, at about 4e-11.
_CLOSURE_SERIES_SWITCH = 4e-3


def hot_region_integral(grid: BetaGrid, params: PhysicalParams) -> float:
    """Canonical-bath value of the quantum pressure integral over
    [0, beta_min].

    On the canonical profile the density hbar^2 / (4 m sigma^4) equals
    m omega0^2 tanh^2(a beta) with a = hbar omega0 / 2, so the integral
    is m omega0^2 (x - tanh x) / a with x = a beta_min.  Small x uses
    the series x^3/3 - 2 x^5/15; the value is 0 at omega0 = 0.
    """
    a = 0.5 * params.hbar * params.omega0
    if a == 0.0:
        return 0.0
    x = a * grid.beta_min
    if abs(x) < _CLOSURE_SERIES_SWITCH:
        x_minus_tanh = x ** 3 / 3.0 - 2.0 * x ** 5 / 15.0
    else:
        x_minus_tanh = x - math.tanh(x)
    return params.m * params.omega0 ** 2 * x_minus_tanh / a


def cumulative_quantum_integral(sigma: np.ndarray, grid: BetaGrid,
                                params: PhysicalParams) -> np.ndarray:
    """Running integral of the quantum pressure density from beta = 0.

    Trapezoidal rule on the grid, on top of the canonical-bath value of
    the region hotter than the grid (``hot_region_integral``).  That
    region is not resolved by the grid, so it does not depend on the
    field; the trade-off is that the integral form treats the hot
    region as a bath in canonical equilibrium.
    """
    g = params.hbar ** 2 / (4.0 * params.m * np.asarray(sigma,
                                                        dtype=float) ** 4)
    return hot_region_integral(grid, params) + _running_trapezoid(g, grid)


def _running_trapezoid(values: np.ndarray, grid: BetaGrid) -> np.ndarray:
    """Trapezoidal integral of a nodal field from the first node to each."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (values[1:] + values[:-1])
                                            * grid.delta)))


def thermal_term_integral(sigma: np.ndarray, grid: BetaGrid,
                          params: PhysicalParams) -> np.ndarray:
    """Integral-kernel acceleration term, per node.

    Contains the quantum pressure implicitly, so variants using it drop
    the explicit pressure term.
    """
    sig = np.asarray(sigma, dtype=float)
    integral = cumulative_quantum_integral(sig, grid, params)
    return (1.0 / sig + sig * integral) / (params.m * grid.nodes)


def acceleration_field(variant: ThermalVariant, sigma: np.ndarray,
                       sigma_dot: np.ndarray, grid: BetaGrid,
                       params: PhysicalParams) -> np.ndarray:
    """Width acceleration at every grid node."""
    sig = np.asarray(sigma, dtype=float)
    vel = np.asarray(sigma_dot, dtype=float)
    base = -params.omega0 ** 2 * sig - (params.b / params.m) * vel
    if variant is ThermalVariant.BETA_DERIVATIVE:
        pressure = params.hbar ** 2 / (4.0 * params.m ** 2 * sig ** 3)
        return base + pressure + thermal_term_beta_derivative(sig, grid,
                                                              params)
    if variant is ThermalVariant.INTEGRAL_FORM:
        return base + thermal_term_integral(sig, grid, params)
    raise ValueError(f"unknown thermal variant: {variant!r}")


def _jacobian_structure(variant: ThermalVariant,
                        grid: BetaGrid) -> np.ndarray:
    """The field-independent (n, n) matrix a variant's Jacobian scales:
    the coupling operator its rhs applies, applied to each unit vector."""
    if variant is ThermalVariant.BETA_DERIVATIVE:
        operator = beta_derivative
    elif variant is ThermalVariant.INTEGRAL_FORM:
        operator = _running_trapezoid
    else:
        raise ValueError(f"unknown thermal variant: {variant!r}")
    return np.column_stack([operator(unit, grid)
                            for unit in np.eye(grid.count)])


def _dense_layout(structure: np.ndarray):
    """The full (n, n) structure as a layout for ``_jacobian``: its
    entries, their columns, and the diagonal's flat positions."""
    n = structure.shape[0]
    return structure, np.arange(n), slice(None, None, n + 1)


def _stencil_layout(structure: np.ndarray):
    """The structure as (n, 5) band rows, or None.

    Row j holds columns j - 2 to j + 2, which keep the three central
    diagonals and the entries (0, 2) and (n - 1, n - 3) of one-sided edge
    stencils; every other place, and a column outside the matrix, holds
    0.  None when the structure has a nonzero entry elsewhere.  The
    layout is ``_dense_layout``'s triple.
    """
    n = structure.shape[0]
    rows = np.arange(n)[:, None]
    columns = rows + np.arange(-2, 3)
    kept = (abs(columns - rows) <= 1) & (columns >= 0) & (columns < n)
    kept[0, 4] = kept[-1, 0] = True
    columns = columns.clip(0, n - 1)
    entries = np.where(kept, np.take_along_axis(structure, columns, axis=1),
                       0.0)
    if np.count_nonzero(entries) != np.count_nonzero(structure):
        return None
    return entries, columns, slice(2, None, 5)


def _jacobian(variant: ThermalVariant, sig: np.ndarray, grid: BetaGrid,
              params: PhysicalParams, layout) -> np.ndarray:
    """``acceleration_jacobian`` on a layout of the variant's
    ``_jacobian_structure``: diag(d) + diag(row) S diag(col), where only
    the integral form scales the columns."""
    entries, columns, diagonal = layout
    col = None
    if variant is ThermalVariant.BETA_DERIVATIVE:
        slope = beta_derivative(sig, grid)
        diag = (-params.omega0 ** 2
                - 3.0 * params.hbar ** 2 / (4.0 * params.m ** 2 * sig ** 4)
                + 4.0 * slope / (params.m * sig ** 3))
        row = -2.0 / (params.m * np.square(sig))
    else:
        integral = cumulative_quantum_integral(sig, grid, params)
        coef = 1.0 / (params.m * grid.nodes)
        diag = -params.omega0 ** 2 + coef * (integral - 1.0 / np.square(sig))
        row = coef * sig
        col = -params.hbar ** 2 / (params.m * sig ** 5)
    jac = row[:, None] * entries
    if col is not None:
        jac *= col[columns]
    jac.flat[diagonal] += diag
    return jac


def acceleration_jacobian(variant: ThermalVariant, sigma: np.ndarray,
                          grid: BetaGrid,
                          params: PhysicalParams) -> np.ndarray:
    """Analytic (n, n) Jacobian of ``acceleration_field`` in the widths.

    Entry (j, k) is the derivative of the acceleration at node j with
    respect to the width at node k.  The slope form couples each node to
    the nodes of its slope stencil, so its matrix is banded with
    three-point rows at the edges.  The integral form couples each node
    to every hotter node through the running integral, so its matrix is
    lower triangular; the hot-region closure does not depend on the
    field and adds nothing.  Both structures are the rhs operator applied
    to the unit vectors.  The derivative in the width rates is the
    friction rate -b/m on the diagonal for both variants.
    """
    return _jacobian(variant, np.asarray(sigma, dtype=float), grid, params,
                     _dense_layout(_jacobian_structure(variant, grid)))


def _pivot(value: float) -> float:
    """A pivot of ``_stencil_lu``; zero or not finite is LinAlgError."""
    if not 0.0 < abs(value) < math.inf:
        raise np.linalg.LinAlgError("zero or non-finite pivot")
    return value


def _stencil_lu(band: np.ndarray):
    """Factor, in O(n), the n x n matrix M that ``band`` holds as
    ``_stencil_layout`` rows; returns the solve of M x = b for one (n,)
    right-hand side b.

    Gaussian elimination without pivoting, on Python floats: the Thomas
    recurrences of M's tridiagonal part, where M[0, 2] fills in M[1, 2]
    and M[n-1, n-3] adds one multiplier to the last row.  A zero or
    non-finite pivot raises LinAlgError, as a singular matrix does in
    ``np.linalg.inv``.
    """
    # The band's columns: M[j, j-2], M[j, j-1], M[j, j], M[j, j+1] and
    # M[j, j+2], of which the outer two hold only first = M[0, 2] and
    # last = M[n-1, n-3].
    far_low, sub, main, sup, far_up = band.T.tolist()
    first, last = far_up[0], far_low[-1]
    del sub[0], sup[-1]
    pivots = [_pivot(main[0])]
    factors = [sub[0] / pivots[0]]
    sup[1] -= factors[0] * first
    for low, mid, up in zip(sub[1:-1], main[1:-2], sup):
        pivots.append(_pivot(mid - factors[-1] * up))
        factors.append(low / pivots[-1])
    pivots.append(_pivot(main[-2] - factors[-1] * sup[-2]))
    last_factor = last / pivots[-2]
    sub[-1] -= last_factor * sup[-2]
    factors.append(sub[-1] / pivots[-1])
    pivots.append(_pivot(main[-1] - factors[-1] * sup[-1]))
    head, inner, end = pivots[0], pivots[-2:0:-1], pivots[-1]
    sup.reverse()

    def solve(b: np.ndarray) -> np.ndarray:
        values = b.tolist()
        acc = values[0]
        forward = [acc]
        for factor, value in zip(factors, values[1:-1]):
            acc = value - factor * acc
            forward.append(acc)
        x = (values[-1] - last_factor * forward[-2] - factors[-1] * acc) / end
        out = [x]
        forward.reverse()
        for value, up, pivot in zip(forward, sup, inner):
            x = (value - up * x) / pivot
            out.append(x)
        out.append((forward[-1] - sup[-1] * x - first * out[-2]) / head)
        out.reverse()
        return np.array(out)

    return solve


def _schur_solver(variant: ThermalVariant, grid: BetaGrid,
                  params: PhysicalParams):
    """Newton solver for the stacked [widths, width rates] system.

    The Jacobian of the stacked right-hand side is [[0, I], [A, -c I]]
    with A = ``acceleration_jacobian`` and c = b/m, so the Newton system
    (I - dh J) [x; v] = [g1; g2] reduces to one n x n system,
    M x = (1 + dh c) g1 + dh g2 with M = (1 + dh c) I - dh^2 A, followed
    by v = (g2 + dh A x) / (1 + dh c).  Called as
    ``newton_solver(y, f0, dh)`` by ``integrators._drive`` once per step
    attempt, it factors M there, and each of the attempt's solves reuses
    that factorisation.  How it factors is chosen once per run from the
    Jacobian's field-independent part, the rhs coupling operator applied
    to the unit vectors: a structure that ``_stencil_layout`` holds (the
    slope form's) keeps A as (n, 5) band rows and factors M in O(n) with
    ``_stencil_lu``; any other (the integral form's lower triangle)
    keeps A as an (n, n) matrix and inverts M.  A singular M is
    ``np.linalg.LinAlgError``, which ``_drive`` takes as a bad step.
    """
    n = grid.count
    c = params.b / params.m
    structure = _jacobian_structure(variant, grid)
    layout = _stencil_layout(structure)
    stencil = layout is not None
    if not stencil:
        layout = _dense_layout(structure)
    columns, diagonal = layout[1:]

    def newton_solver(y: np.ndarray, f0: np.ndarray, dh: float):
        a = _jacobian(variant, y[:n], grid, params, layout)
        damp = 1.0 + dh * c
        mat = -dh * dh * a
        mat.flat[diagonal] += damp
        if stencil:
            solve_widths = _stencil_lu(mat)

            def times_a(x: np.ndarray) -> np.ndarray:
                return (a * x[columns]).sum(axis=1)
        else:
            solve_widths = np.linalg.inv(mat).__matmul__
            times_a = a.__matmul__

        def solve(g: np.ndarray) -> np.ndarray:
            x = solve_widths(damp * g[:n] + dh * g[n:])
            return np.concatenate((x, (g[n:] + dh * times_a(x)) / damp))

        return solve

    return newton_solver


def equilibrium_profile_coth(grid: BetaGrid,
                             params: PhysicalParams) -> ThermalField:
    """Canonical equilibrium field, at rest, over the grid nodes.

    Widths beyond the float range, 0 or inf, are a ValueError."""
    if params.omega0 <= 0.0:
        raise ValueError("the equilibrium profile requires omega0 > 0")
    with np.errstate(all="ignore"):
        u = 0.5 * params.hbar * params.omega0 * grid.nodes
        sigma_sq = params.hbar / (2.0 * params.m * params.omega0
                                  * np.tanh(u))
    if not np.all((sigma_sq > 0.0) & (sigma_sq < math.inf)):
        raise ValueError("the equilibrium profile's widths are beyond the "
                         "float range")
    return ThermalField.at_rest(grid, np.sqrt(sigma_sq))


def equilibrium_residual(variant: ThermalVariant, field: ThermalField,
                         params: PhysicalParams) -> np.ndarray:
    """Acceleration defect of a candidate field, sign flipped.

    Zero everywhere exactly when the field is stationary under the
    chosen variant's discrete dynamics.
    """
    return -acceleration_field(variant, field.sigma, field.sigma_dot,
                               field.grid, params)


@dataclass(frozen=True)
class ThermalTrajectory:
    """Time history of a thermal field run.

    ``sigma`` and ``sigma_dot`` are (time, node) arrays.  ``sample``
    interpolates the stacked field between accepted nodes exactly like
    the single-trajectory version.
    """

    variant: ThermalVariant
    params: PhysicalParams
    grid: BetaGrid
    times: np.ndarray
    states: np.ndarray
    step_sizes: np.ndarray
    error_estimates: np.ndarray
    dense_coefficients: np.ndarray = field(repr=False)
    n_accepted: int = 0
    n_rejected: int = 0
    n_rhs: int = 0

    @property
    def sigma(self) -> np.ndarray:
        return self.states[:, :self.grid.count]

    @property
    def sigma_dot(self) -> np.ndarray:
        return self.states[:, self.grid.count:]

    def sample(self, times) -> np.ndarray:
        """Interpolated stacked fields (width block then rate block)."""
        return _dense_sample(self.times, self.states,
                             self.dense_coefficients, times)[0]

    def field_at(self, t: float) -> ThermalField:
        row = self.sample(t)[0]
        n = self.grid.count
        return ThermalField(grid=self.grid, sigma=row[:n], sigma_dot=row[n:])


@np.errstate(all="ignore")
def integrate_thermal(variant: ThermalVariant, initial: ThermalField, t_span,
                      params: PhysicalParams,
                      config: Optional[IntegratorConfig] = None):
    """Integrate a thermal field in time.

    The stacked state is [widths, width rates].  The positivity guard
    covers every width node.  The grid supplies the temperatures, so
    ``params.beta`` is not read and may be ``ZERO_TEMPERATURE``.  Returns
    (ThermalTrajectory, StopReason).
    """
    if config is None:
        config = IntegratorConfig()
    if not isinstance(variant, ThermalVariant):
        raise TypeError("variant must be a ThermalVariant member")
    t0, t1 = _check_span(t_span)
    grid = initial.grid
    n = grid.count
    if np.min(initial.sigma) <= config.sigma_min_guard:
        raise ValueError("initial widths must exceed sigma_min_guard")

    def rhs(y: np.ndarray) -> np.ndarray:
        return np.concatenate((y[n:], acceleration_field(
            variant, y[:n], y[n:], grid, params)))

    y0 = np.concatenate((initial.sigma, initial.sigma_dot))
    newton_solver = (_schur_solver(variant, grid, params)
                     if config.scheme is Scheme.TRBDF2 else None)
    fields, reason = _drive(rhs, y0, (t0, t1), config, nguard=n,
                            newton_solver=newton_solver)
    return ThermalTrajectory(variant=variant, params=params, grid=grid,
                             **fields), reason


def stationary_profile(variant: ThermalVariant, grid: BetaGrid,
                       params: PhysicalParams,
                       t_relax: Optional[float] = None,
                       config: Optional[IntegratorConfig] = None
                       ) -> np.ndarray:
    """Relax the field dynamically to its own stationary profile.

    Starts from the canonical equilibrium profile and integrates with
    damping until transients die out, so the result reflects the chosen
    variant's discretisation rather than the closed form.  Requires
    omega0 > 0.  Damping is borrowed at the critical value when the
    parameter set has none.  A run that stops early is a ValueError.
    """
    if params.omega0 <= 0.0:
        raise ValueError("relaxation requires omega0 > 0")
    relax_params = params
    if relax_params.b <= 0.0:
        critical = 2.0 * params.m * params.omega0
        if critical == 0.0:
            raise ValueError("relaxation: the critical damping 2 m omega0 "
                             "underflows to 0")
        relax_params = relax_params.with_(b=critical)
    if t_relax is None:
        t_relax = 80.0 * relax_params.m / relax_params.b \
            + 40.0 / params.omega0
    if config is None:
        config = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)
    start = equilibrium_profile_coth(grid, params)
    traj, reason = integrate_thermal(variant, start, (0.0, t_relax),
                                     relax_params, config)
    if reason is not StopReason.COMPLETED:
        raise ValueError(f"relaxation stopped early: {reason.value}")
    return traj.sigma[-1].copy()
