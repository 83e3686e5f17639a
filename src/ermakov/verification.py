"""Self-checks that compare every solver against its closed-form oracles.

Checks are grouped into named suites.  A check function measures one
quantity and returns ``(measured, detail)``; it is registered once with
its criterion, an upper bound or a band ``(lower, upper)``, and
:func:`_run_check` alone judges it: a check passes when
``lower <= measured <= upper``, so NaN fails.  A run that did not stop as
its check needs reads ``inf`` with detail ``stopped: <reason>``, and a
crashed check reads NaN with detail ``raised ...``; both keep their
declared bound.  Bounds fall in two classes: analytic tolerances that
follow from the mathematics, and regression bounds measured on this
implementation and pinned with a little slack (those say so in their
detail string).

All model evaluations go through the module attributes of
:mod:`ermakov.models` and :mod:`ermakov.thermal` rather than through
names imported at load time, so targeted fault injection in tests is
visible to the suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import analytic, core, integrators, madelung, models, thermal
from .core import PhysicalParams, State, State3
from .integrators import IntegratorConfig, Scheme, StopReason
from .models import ModelVariant
from .thermal import BetaGrid, ThermalField, ThermalVariant

# Regression bounds measured on this implementation (slack included).
_STIFF_FRICTION_BOUND = 4e-2        # strong-friction second-order vs
                                    # first-order closed form, sigma^2;
                                    # measured 2.92e-2
_SLOPE_FORM_BOUND = 7e-3            # stationary defect, slope form,
                                    # 71 nodes; measured 5.49e-3
_INTEGRAL_FORM_BOUND = 4e-5         # stationary defect, integral form,
                                    # 71 nodes; measured 2.94e-5
_RELAX_APPROACH_BOUND = 7e-5        # distance to the coth profile after a
                                    # damped integral-form relaxation,
                                    # 36 nodes; measured 5.40e-5
_RELAX_ENVELOPE_SLACK = 1e-3        # nodewise distance wiggle near the
                                    # discrete equilibrium; measured 4.4e-4
_EQUILIBRIA_GAP_BAND = (0.25, 0.27)  # worst relative gap between the two
                                     # closed-form equilibria over a scan;
                                     # measured 0.2564 near beta = 2.85
_REDUCED_DECAY_HORIZON = 500.0      # time by which the reduced radiative
                                    # run has settled onto the ground energy
_RUNAWAY_TIME_BOUND = 1.0           # latest credible detection time for a
                                    # perturbed naive radiative run;
                                    # measured 0.165
_ELECTRON_TAU_BAND = (6.24e-24, 6.30e-24)  # radiation memory time of the
                                           # electron, seconds
_SECOND_ORDER_BAND = (1.8, 2.2)     # observed order of a second-order
                                    # discretisation under refinement

_Bound = Union[float, Tuple[float, float]]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check.

    ``tolerance`` is the upper edge of the criterion; ``lower`` is the
    lower edge of a band and None for a one-sided bound.
    """

    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""
    lower: Optional[float] = None

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "measured": self.measured, "lower": self.lower,
                "tolerance": self.tolerance, "detail": self.detail}


@dataclass(frozen=True)
class Report:
    """All check outcomes from one verification run, in suite order."""

    results: Tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failed_names(self) -> Tuple[str, ...]:
        return tuple(r.name for r in self.results if not r.passed)

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "checks": [r.to_dict() for r in self.results]}


class _Stopped(Exception):
    """A run a check depends on ended for another reason than it needs."""

    def __init__(self, reason: StopReason):
        super().__init__(reason.value)
        self.reason = reason


def _finished(run, needed: StopReason = StopReason.COMPLETED):
    """The trajectory of a ``(trajectory, reason)`` run that stopped for
    the ``needed`` reason; otherwise the check reads as stopped."""
    traj, reason = run
    if reason is not needed:
        raise _Stopped(reason)
    return traj


def _run_check(name: str, bound: _Bound,
               fn: Callable[[], Tuple[float, str]]) -> CheckResult:
    """Run one check and judge it against its bound or band."""
    lower, upper = bound if isinstance(bound, tuple) else (None, bound)
    try:
        measured, detail = fn()
        measured = float(measured)
    except _Stopped as stop:
        measured, detail = math.inf, f"stopped: {stop.reason.value}"
    # A crashed check is a failed check, not a crashed report.
    except Exception as exc:
        measured, detail = math.nan, f"raised {exc!r}"
    passed = (lower is None or lower <= measured) and measured <= upper
    return CheckResult(name=name, passed=passed, measured=measured,
                       tolerance=upper, detail=detail, lower=lower)


def _config(rel_tol: Optional[float], default_rel: float, default_abs: float,
            **kwargs) -> IntegratorConfig:
    """Integrator settings for a check, honouring a global override."""
    if rel_tol is None:
        return IntegratorConfig(rel_tol=default_rel, abs_tol=default_abs,
                                **kwargs)
    return IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-3, **kwargs)


def _simpson(values: np.ndarray, spacing: float) -> float:
    if values.size % 2 == 0:
        raise ValueError("need an odd sample count")
    weights = np.ones(values.size)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(spacing / 3.0 * np.dot(weights, values))


def _max_rel(err_num: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(err_num - ref) / np.abs(ref)))


def _variance_gap(traj, ts: np.ndarray, closed_form,
                  params: PhysicalParams) -> float:
    """Worst relative gap between the run's squared widths at ``ts`` and
    those of ``closed_form(t, params)``."""
    got = traj.sample(ts)
    ref = np.array([closed_form(t, params).sigma for t in ts])
    return _max_rel(got[:, 0] ** 2, ref ** 2)


# ---------------------------------------------------------------- suites

def _suite_free_particle(rel_tol: Optional[float]) -> List[CheckResult]:
    params = PhysicalParams(omega0=0.0)
    ts = np.linspace(0.0, 10.0, 201)

    # shared run, built lazily so a crash lands in the check that asked
    @functools.cache
    def free_run():
        run = integrators.integrate(
            ModelVariant.CONSERVATIVE, State(1.0, 0.0), (0.0, 10.0),
            params, _config(rel_tol, 1e-10, 1e-13))
        exact = [analytic.free_spreading(t, 1.0, params) for t in ts]
        return run, exact

    def spreading():
        run, exact = free_run()
        got = _finished(run).sample(ts)
        exact_sig = np.array([st.sigma for st in exact])
        return _max_rel(got[:, 0] ** 2, exact_sig ** 2), \
            "variance vs ballistic closed form"

    def velocity():
        run, exact = free_run()
        got = _finished(run).sample(ts)
        exact_vel = np.array([st.sigma_dot for st in exact])
        return float(np.max(np.abs(got[1:, 1] - exact_vel[1:])
                            / np.abs(exact_vel[1:]))), \
            "width rate vs closed form"

    return [_run_check("free-spreading-match", 1e-8, spreading),
            _run_check("free-spreading-rate-match", 1e-8, velocity)]


def _suite_pinney(rel_tol: Optional[float]) -> List[CheckResult]:
    params = core.make_natural_params(0.0, 0.0, 0.0)
    cfg = _config(rel_tol, 1e-12, 1e-15)
    rng = np.random.default_rng(20260815)
    sig0 = rng.uniform(0.1, 10.0, 20)
    vel0 = rng.uniform(-2.0, 2.0, 20)
    t_end = 20.0 * math.pi

    def oracle_sweep():
        worst = 0.0
        for s0, v0 in zip(sig0, vel0):
            traj = _finished(integrators.integrate(
                ModelVariant.CONSERVATIVE, State(s0, v0), (0.0, t_end),
                params, cfg))
            ts = np.sort(np.concatenate((
                [0.0, t_end], rng.uniform(0.0, t_end, 48))))
            got = traj.sample(ts)
            ref = np.array([analytic.pinney_solution(t, s0, v0, params).sigma
                            for t in ts])
            worst = max(worst, _max_rel(got[:, 0], ref))
        return worst, "20 random starts, 10 oscillator periods"

    def acceleration_consistency():
        worst = 0.0
        for s0, v0 in zip(sig0, vel0):
            for t in (0.0, 0.7, 2.3):
                st = analytic.pinney_solution(t, s0, v0, params)
                a_closed = analytic.pinney_acceleration(t, s0, v0, params)
                a_model = models.acceleration(ModelVariant.CONSERVATIVE,
                                              st, params)
                scale = max(1.0, abs(a_model))
                worst = max(worst, abs(a_closed - a_model) / scale)
        return worst, "closed-form curvature vs model acceleration"

    def closed_form_energy():
        worst = 0.0
        ts = np.linspace(0.0, t_end, 200)
        for s0, v0 in zip(sig0[:5], vel0[:5]):
            es = np.array([core.energy(analytic.pinney_solution(
                t, s0, v0, params), params) for t in ts])
            worst = max(worst, float((es.max() - es.min()) / abs(es[0])))
        return worst, "energy of the closed form"

    return [
        _run_check("pinney-oracle-sweep", 1e-8, oracle_sweep),
        _run_check("pinney-acceleration-consistency", 1e-9,
                   acceleration_consistency),
        _run_check("pinney-closed-form-energy", 1e-11, closed_form_energy)]


def _suite_energy(rel_tol: Optional[float]) -> List[CheckResult]:
    params = core.make_natural_params(0.0, 0.0, 0.0)
    dparams = core.make_natural_params(0.5, 0.0, 0.0)
    cfg = _config(rel_tol, 1e-10, 1e-13)

    @functools.cache
    def dissipative_run():
        return integrators.integrate(
            ModelVariant.DISSIPATIVE, State(2.0, 0.0), (0.0, 10.0),
            dparams, cfg)

    def conservation():
        traj = _finished(integrators.integrate(
            ModelVariant.CONSERVATIVE, State(2.0, 0.0), (0.0, 20.0),
            params, cfg))
        es = core.energy(traj.states, params)
        return float(np.max(np.abs(es - es[0])) / abs(es[0])), \
            "first integral along the run"

    def dissipation_balance():
        ts = np.linspace(0.0, 10.0, 8001)
        got = _finished(dissipative_run()).sample(ts)
        es = core.energy(got, dparams)
        lost = _simpson(dparams.b * got[:, 1] ** 2, ts[1] - ts[0])
        return abs(es[-1] - es[0] + lost) / abs(es[0]), \
            "energy drop vs quadrature of the friction loss"

    def monotone_decay():
        es = core.energy(_finished(dissipative_run()).states, dparams)
        return float(np.max(np.diff(es)) / abs(es[0])), \
            "largest energy increase between accepted steps"

    return [
        _run_check("energy-conservation", 1e-8, conservation),
        _run_check("energy-dissipation-balance", 1e-6, dissipation_balance),
        _run_check("energy-monotone-decay", 1e-10, monotone_decay)]


def _suite_overdamped(rel_tol: Optional[float]) -> List[CheckResult]:
    cfg = _config(rel_tol, 1e-10, 1e-13)

    def relaxation_match():
        params = core.make_natural_params(10.0, 0.0, 0.0)
        seed = analytic.overdamped_relaxation(0.05, params)
        traj = _finished(integrators.integrate_overdamped(
            ModelVariant.OVERDAMPED_DISSIPATIVE, seed.sigma, (0.05, 3.0),
            params, cfg))
        return _variance_gap(traj, np.linspace(0.05, 3.0, 200),
                             analytic.overdamped_relaxation, params), \
            "first-order run vs closed form"

    def equilibrium_approach():
        params = core.make_natural_params(10.0, 0.0, 0.0)
        traj = _finished(integrators.integrate_overdamped(
            ModelVariant.OVERDAMPED_DISSIPATIVE, 0.2, (0.0, 40.0),
            params, cfg))
        target = core.ground_state_sigma(params)
        return abs(traj.states[-1, 0] / target - 1.0), \
            "late-time width vs ground width"

    def subdiffusion_match():
        params = PhysicalParams(omega0=0.0, b=10.0)
        seed = analytic.subdiffusion(0.1, params)
        traj = _finished(integrators.integrate_overdamped(
            ModelVariant.OVERDAMPED_DISSIPATIVE, seed.sigma, (0.1, 10.0),
            params, cfg))
        return _variance_gap(traj, np.linspace(0.1, 10.0, 200),
                             analytic.subdiffusion, params), \
            "trap-free strong friction growth"

    def limit_consistency():
        params = PhysicalParams(omega0=1e-3, b=10.0)
        od = analytic.overdamped_relaxation(1.0, params).sigma ** 2
        sub = analytic.subdiffusion(
            1.0, PhysicalParams(omega0=0.0, b=10.0)).sigma ** 2
        return abs(od / sub - 1.0), \
            "weak-trap relaxation vs trap-free law at t = 1"

    def stiff_friction_match():
        params = core.make_natural_params(100.0, 0.0, 0.0)
        seed = analytic.overdamped_relaxation(0.05, params)
        traj = _finished(integrators.integrate(
            ModelVariant.DISSIPATIVE, State(seed.sigma, seed.sigma_dot),
            (0.05, 3.0), params,
            _config(rel_tol, 1e-8, 1e-11, scheme=Scheme.TRBDF2)))
        return _variance_gap(traj, np.linspace(0.05, 3.0, 100),
                             analytic.overdamped_relaxation, params), \
            ("regression bound: the full model rides a slow manifold "
             "offset from the first-order closed form near the start")

    return [
        _run_check("overdamped-relaxation-match", 1e-6, relaxation_match),
        _run_check("overdamped-equilibrium-approach", 1e-6,
                   equilibrium_approach),
        _run_check("subdiffusion-match", 1e-6, subdiffusion_match),
        _run_check("overdamped-limit-consistency", 1e-4, limit_consistency),
        _run_check("stiff-friction-overdamped-match", _STIFF_FRICTION_BOUND,
                   stiff_friction_match)]


_WINDOW = (0.6, 3.9)  # beta window present in every refinement level


def _stationary_defect(variant: ThermalVariant, count: int,
                       params: PhysicalParams) -> Tuple[float, float]:
    grid = BetaGrid.from_range(0.5, 4.0, count)
    field = thermal.equilibrium_profile_coth(grid, params)
    res = thermal.equilibrium_residual(variant, field, params)
    nodes = grid.nodes
    mask = (nodes >= _WINDOW[0] - 1e-12) & (nodes <= _WINDOW[1] + 1e-12)
    return float(np.max(np.abs(res[mask]))), grid.delta


def _suite_thermal_equilibrium(rel_tol: Optional[float]) -> List[CheckResult]:
    params = core.make_natural_params(0.0, 1.0, 0.0)

    def stationary(variant: ThermalVariant):
        return lambda: (_stationary_defect(variant, 71, params)[0],
                        "regression bound, 71 nodes on [0.5, 4]")

    def slope_form_order():
        defects, deltas = zip(*(_stationary_defect(
            ThermalVariant.BETA_DERIVATIVE, n, params)
            for n in (36, 71, 141)))
        slope = float(np.polyfit(np.log(deltas), np.log(defects), 1)[0])
        return slope, "defects " + ", ".join(f"{d:.3e}" for d in defects)

    def dynamic_hold(variant: ThermalVariant, hold_params: PhysicalParams,
                     note: str, **cfg_kwargs):
        grid = BetaGrid.from_range(0.5, 4.0, 71)
        field0 = thermal.equilibrium_profile_coth(grid, hold_params)
        cfg = _config(rel_tol, 1e-9, 1e-12, **cfg_kwargs)
        traj = _finished(thermal.integrate_thermal(
            variant, field0, (0.0, 10.0), hold_params, cfg))
        return float(np.max(np.abs(traj.sigma - field0.sigma[None, :]))), \
            note

    # The slope form couples neighbouring nodes through the grid
    # derivative.  That interior coupling, not the edge stencils, grows
    # short waves at a rate that rises with the node count, and friction
    # only holds it off up to some grid size.  So this hold runs at
    # friction 80 on 71 nodes, where every mode still decays (spectral
    # abscissa about -0.0185; positive from about 161 nodes), and checks
    # the slow creep.  The integral form has no such coupling and holds
    # undamped.
    def dynamic_hold_slope():
        damped = core.make_natural_params(80.0, 1.0, 0.0)
        return dynamic_hold(
            ThermalVariant.BETA_DERIVATIVE, damped,
            "peak node drift over ten time units at friction 80; the "
            "stationary defect pushes a slow creep of order defect "
            "over friction", scheme=Scheme.TRBDF2)

    def dynamic_hold_integral():
        return dynamic_hold(
            ThermalVariant.INTEGRAL_FORM, params,
            "peak node drift over ten time units, undamped")

    # Relaxation runs use the integral form: its explicit temperature
    # dependence pins a unique equilibrium profile.  The slope form
    # admits a one-parameter family of stationary profiles (any
    # temperature shift of the coth profile solves the autonomous
    # stationary equation), so a damped slope-form run may settle on a
    # shifted member rather than the coth profile itself.
    @functools.cache
    def relaxation_run():
        grid = BetaGrid.from_range(0.5, 4.0, 36)
        damped = core.make_natural_params(10.0, 1.0, 0.0)
        target = thermal.equilibrium_profile_coth(grid, damped)
        field0 = ThermalField(grid=grid, sigma=1.2 * target.sigma,
                              sigma_dot=np.zeros(grid.count))
        cfg = _config(rel_tol, 1e-8, 1e-11, scheme=Scheme.TRBDF2)
        return target.sigma, thermal.integrate_thermal(
            ThermalVariant.INTEGRAL_FORM, field0, (0.0, 60.0), damped, cfg)

    def relaxation_approach():
        target, run = relaxation_run()
        traj = _finished(run)
        return float(np.max(np.abs(traj.sigma[-1] / target - 1.0))), \
            "regression bound: settles onto the discrete equilibrium"

    def relaxation_envelope():
        target, run = relaxation_run()
        sig = _finished(run).sample(np.linspace(0.0, 60.0, 61))
        dist = np.abs(sig[:, :target.size] - target[None, :])
        return float(np.max(np.diff(dist, axis=0))), \
            ("largest nodewise increase of the distance to the coth "
             "profile; bounded by the discrete equilibrium offset")

    return [
        _run_check("slope-form-stationary", _SLOPE_FORM_BOUND,
                   stationary(ThermalVariant.BETA_DERIVATIVE)),
        _run_check("slope-form-order", _SECOND_ORDER_BAND, slope_form_order),
        _run_check("integral-form-stationary", _INTEGRAL_FORM_BOUND,
                   stationary(ThermalVariant.INTEGRAL_FORM)),
        _run_check("dynamic-hold-slope-form", 5.0 * _SLOPE_FORM_BOUND,
                   dynamic_hold_slope),
        _run_check("dynamic-hold-integral-form", 5.0 * _INTEGRAL_FORM_BOUND,
                   dynamic_hold_integral),
        _run_check("relaxation-approach", _RELAX_APPROACH_BOUND,
                   relaxation_approach),
        _run_check("relaxation-envelope", _RELAX_ENVELOPE_SLACK,
                   relaxation_envelope)]


def _suite_thermal_limits(rel_tol: Optional[float]) -> List[CheckResult]:
    params = core.make_natural_params(0.0, 1.0, 0.0)

    def high_temperature_agreement():
        grid = BetaGrid(beta_min=0.01, delta=5e-5, count=2201)
        field = thermal.equilibrium_profile_coth(grid, params)
        sig = field.sigma
        slope_term = (thermal.thermal_term_beta_derivative(sig, grid, params)
                      + params.hbar ** 2 / (4.0 * params.m ** 2 * sig ** 3))
        integral_term = thermal.thermal_term_integral(sig, grid, params)
        rhs = (1.0 / (params.m * grid.nodes * sig)
               + params.hbar ** 2 / (4.0 * params.m ** 2 * sig ** 3))
        worst = 0.0
        for target in (0.01, 0.02, 0.05, 0.1):
            j = int(round((target - grid.beta_min) / grid.delta))
            allowance = 2.0 * (grid.nodes[j] * params.hbar
                               * params.omega0) ** 2
            for term in (slope_term, integral_term):
                gap = abs(term[j] - rhs[j]) / abs(rhs[j])
                worst = max(worst, gap / allowance)
        return worst, \
            "both forms vs the high-temperature force, scaled allowance"

    def low_temperature_agreement():
        grid = BetaGrid(beta_min=0.02, delta=0.015, count=2068)
        field = thermal.equilibrium_profile_coth(grid, params)
        sig = field.sigma
        quantum = params.hbar ** 2 / (4.0 * params.m ** 2 * sig ** 3)
        slope_term = thermal.thermal_term_beta_derivative(sig, grid, params)
        integral_term = thermal.thermal_term_integral(sig, grid, params)
        cold = grid.nodes * params.hbar * params.omega0 >= 30.0
        worst = max(
            float(np.max(np.abs(slope_term[cold]) / quantum[cold])),
            float(np.max(np.abs(integral_term[cold] - quantum[cold])
                         / quantum[cold])))
        return worst, "thermal corrections die off at cold nodes"

    def classical_limit():
        tiny = PhysicalParams(hbar=1e-6, beta=1.0)
        grid = BetaGrid.from_range(0.5, 4.0, 71)
        sigma = 1.0 / np.sqrt(tiny.m * tiny.omega0 ** 2 * grid.nodes)
        field = ThermalField.at_rest(grid, sigma)
        res = thermal.equilibrium_residual(ThermalVariant.INTEGRAL_FORM,
                                           field, tiny)
        return float(np.max(np.abs(res) / (tiny.omega0 ** 2 * sigma))), \
            "equipartition profile is stationary when the action is tiny"

    def root_consistency():
        worst = 0.0
        for beta in (0.01, 0.1, 1.0, 10.0, 1000.0):
            for m in (0.5, 2.0):
                for omega0 in (0.7, 3.0):
                    p = PhysicalParams(m=m, omega0=omega0, hbar=1.3,
                                       beta=beta)
                    x = analytic.equilibrium_high_temperature(p)
                    res = (m * omega0 ** 2 * x ** 2 - x / beta
                           - p.hbar ** 2 / (4.0 * m))
                    scale = m * omega0 ** 2 * x ** 2
                    worst = max(worst, abs(res) / scale)
        return worst, "closed-form equilibrium satisfies its defining quartic"

    def equilibria_gap_scan():
        xs = np.geomspace(1e-3, 1e3, 4001)
        worst = 0.0
        arg = 0.0
        for x in xs:
            p = PhysicalParams(beta=float(x))
            coth = analytic.equilibrium_coth(p)
            ht = analytic.equilibrium_high_temperature(p)
            gap = abs(ht / coth - 1.0)
            if gap > worst:
                worst, arg = gap, float(x)
        return worst, f"pinned band, worst gap near beta = {arg:.2f}"

    def equilibrium_limit_orders():
        worst = 0.0
        for x in (30.0, 100.0, 1000.0):
            p = PhysicalParams(beta=float(x))
            gap = (analytic.equilibrium_high_temperature(p)
                   / core.ground_state_sigma(p) ** 2 - 1.0)
            worst = max(worst, abs(gap * x - 1.0))
        x = 0.01
        p = PhysicalParams(beta=x)
        classical = 1.0 / (x * p.m * p.omega0 ** 2)
        ratio = analytic.equilibrium_high_temperature(p) / classical
        worst = max(worst, abs(ratio - 1.0) / x ** 2 / 5.0)
        return worst, "cold gap scales like 1/beta, hot gap like beta squared"

    return [
        _run_check("high-temperature-agreement", 1.0,
                   high_temperature_agreement),
        _run_check("low-temperature-agreement", 1e-6,
                   low_temperature_agreement),
        _run_check("classical-limit", 1e-9, classical_limit),
        _run_check("equilibrium-root-consistency", 1e-12, root_consistency),
        _run_check("equilibria-gap-scan", _EQUILIBRIA_GAP_BAND,
                   equilibria_gap_scan),
        _run_check("equilibrium-limit-orders", 0.1,
                   equilibrium_limit_orders)]


def _suite_radiative(rel_tol: Optional[float]) -> List[CheckResult]:
    def reduced_decay():
        params = core.make_natural_params(0.0, 0.0, 0.01)
        s0 = 2.0 * core.ground_state_sigma(params)
        traj = _finished(integrators.integrate(
            ModelVariant.RADIATIVE_REDUCED, State(s0, 0.0),
            (0.0, _REDUCED_DECAY_HORIZON), params,
            _config(rel_tol, 1e-10, 1e-13)))
        ground = 0.5 * params.hbar * params.omega0
        return abs(core.energy(traj.states[-1:], params)[0] / ground - 1.0), \
            "final energy vs ground energy at the pinned horizon"

    def naive_runaway():
        params = core.make_natural_params(0.0, 0.0, 0.01)
        s0 = 2.0 * core.ground_state_sigma(params)
        base = models.acceleration(ModelVariant.CONSERVATIVE,
                                   State(s0, 0.0), params)
        traj = _finished(integrators.integrate(
            ModelVariant.RADIATIVE_NAIVE, State3(s0, 0.0, base + 0.1),
            (0.0, 5.0), params, _config(rel_tol, 1e-9, 1e-12)),
            StopReason.RUNAWAY_DETECTED)
        return float(traj.times[-1]), \
            "stop reason runaway_detected, pinned latest detection time"

    def reduced_limit():
        cfg = _config(rel_tol, 1e-11, 1e-14)
        ts = np.linspace(0.0, 5.0, 101)
        cons = core.make_natural_params(0.0, 0.0, 0.0)
        s0 = 2.0 * core.ground_state_sigma(cons)
        ref = _finished(integrators.integrate(
            ModelVariant.CONSERVATIVE, State(s0, 0.0), (0.0, 5.0),
            cons, cfg)).sample(ts)[:, 0]
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            params = core.make_natural_params(0.0, 0.0, eps)
            traj = _finished(integrators.integrate(
                ModelVariant.RADIATIVE_REDUCED, State(s0, 0.0),
                (0.0, 5.0), params, cfg))
            errs.append(float(np.max(np.abs(traj.sample(ts)[:, 0] - ref))))
        return max(errs[1] / errs[0], errs[2] / errs[1]), \
            "errors " + ", ".join(f"{e:.3e}" for e in errs)

    def electron_memory_time():
        r = core.radiation_coefficient(core.ELEMENTARY_CHARGE)
        return r / core.ELECTRON_MASS, \
            "radiation memory time of the electron, seconds"

    return [
        _run_check("reduced-decay-to-ground", 1e-4, reduced_decay),
        _run_check("naive-runaway-detected", _RUNAWAY_TIME_BOUND,
                   naive_runaway),
        _run_check("reduced-approaches-conservative", 0.15, reduced_limit),
        _run_check("electron-memory-time", _ELECTRON_TAU_BAND,
                   electron_memory_time)]


def _suite_madelung(rel_tol: Optional[float]) -> List[CheckResult]:
    params = core.make_natural_params(0.0, 0.0, 0.0)
    damped = core.make_natural_params(0.7, 0.0, 0.0)
    rng = np.random.default_rng(77)

    def snapshot():
        """A packet of random width and width rate, drawn in that order."""
        return madelung.GaussianSnapshot(
            sigma=float(rng.uniform(0.5, 3.0)),
            sigma_dot=float(rng.uniform(-2.0, 2.0)))

    def continuity():
        worst = 0.0
        for _ in range(30):
            snap = snapshot()
            xs = madelung.SpatialGrid(sigma=snap.sigma).nodes
            res = madelung.continuity_residual(xs, snap)
            worst = max(worst, float(np.max(np.abs(res))))
        return worst, "density transport identity on random snapshots"

    def model_closure():
        worst = 0.0
        for variant, p in ((ModelVariant.CONSERVATIVE, params),
                           (ModelVariant.DISSIPATIVE, damped)):
            for _ in range(15):
                snap = snapshot()
                xs = madelung.SpatialGrid(sigma=snap.sigma).nodes
                res = madelung.force_balance_residual(xs, snap, p,
                                                      variant=variant)
                worst = max(worst, float(np.max(np.abs(res))))
        return worst, "model acceleration closes the momentum balance"

    def factorization():
        worst = 0.0
        for _ in range(15):
            snap = snapshot()
            accel = float(rng.uniform(-3.0, 3.0))
            grid = madelung.SpatialGrid(sigma=snap.sigma)
            xs = grid.nodes
            keep = np.abs(xs) > 0.1 * snap.sigma
            res = madelung.force_balance_residual(xs[keep], snap, params,
                                                  sigma_ddot=accel)
            ratio = res * snap.sigma / xs[keep]
            expected = models.residual(
                ModelVariant.CONSERVATIVE,
                State(snap.sigma, snap.sigma_dot), params,
                sigma_ddot=accel)
            scale = max(1.0, abs(expected))
            spread = float(ratio.max() - ratio.min()) / scale
            offset = float(np.max(np.abs(ratio - expected))) / scale
            worst = max(worst, spread, offset)
        return worst, \
            "defect factorizes into (x / sigma) times the model residual"

    def potential_convergence():
        snap = madelung.GaussianSnapshot(sigma=1.0, sigma_dot=0.0)
        errs = []
        deltas = []
        for count in (129, 257, 513):
            grid = madelung.SpatialGrid(sigma=1.0, count=count)
            xs = grid.nodes
            inner = np.abs(xs) <= 4.0
            num = madelung.quantum_potential_numeric(grid, snap, params)
            exact = madelung.quantum_potential(xs, snap, params)
            errs.append(float(np.max(np.abs(num[inner] - exact[inner]))))
            deltas.append(grid.delta)
        slope = float(np.polyfit(np.log(deltas), np.log(errs), 1)[0])
        return slope, "errors " + ", ".join(f"{e:.3e}" for e in errs)

    def trajectory_audit():
        worst = 0.0
        cfg = _config(rel_tol, 1e-12, 1e-15)
        for variant, p in ((ModelVariant.CONSERVATIVE, params),
                           (ModelVariant.DISSIPATIVE, damped)):
            traj = _finished(integrators.integrate(
                variant, State(1.3, 0.4), (0.0, 10.0), p, cfg))
            ts = np.sort(rng.uniform(0.0, 10.0, 100))
            got = traj.sample(ts)
            for s, sd in got:
                snap = madelung.GaussianSnapshot(sigma=float(s),
                                                 sigma_dot=float(sd))
                xs = madelung.SpatialGrid(sigma=snap.sigma).nodes
                worst = max(
                    worst,
                    float(np.max(np.abs(
                        madelung.continuity_residual(xs, snap)))),
                    float(np.max(np.abs(madelung.force_balance_residual(
                        xs, snap, p, variant=variant)))))
        return worst, "hydrodynamic residuals along integrated trajectories"

    def thermal_closure():
        tparams = core.make_natural_params(0.0, 1.0, 0.0)
        grid = BetaGrid.from_range(0.5, 4.0, 71)
        field = thermal.equilibrium_profile_coth(grid, tparams)
        worst = 0.0
        for j in (1, 35, 69):
            s = float(field.sigma[j])
            xs = madelung.SpatialGrid(sigma=s).nodes
            res = madelung.force_balance_residual_thermal(xs, field, j,
                                                          tparams)
            worst = max(worst, float(np.max(np.abs(res))))
        return worst, "integral-form acceleration closes the thermal balance"

    return [
        _run_check("continuity-identity", 1e-12, continuity),
        _run_check("force-balance-model-closure", 1e-12, model_closure),
        _run_check("force-balance-factorization", 1e-10, factorization),
        _run_check("quantum-potential-convergence", _SECOND_ORDER_BAND,
                   potential_convergence),
        _run_check("trajectory-residual-audit", 1e-10, trajectory_audit),
        _run_check("thermal-force-balance-closure", 1e-12, thermal_closure)]


_SUITES: Dict[str, Callable[[Optional[float]], List[CheckResult]]] = {
    "free-particle": _suite_free_particle,
    "pinney": _suite_pinney,
    "energy": _suite_energy,
    "overdamped": _suite_overdamped,
    "thermal-equilibrium": _suite_thermal_equilibrium,
    "thermal-limits": _suite_thermal_limits,
    "radiative": _suite_radiative,
    "madelung": _suite_madelung,
}


def suite_names() -> Tuple[str, ...]:
    """Names accepted by :func:`run_suites`, in execution order."""
    return tuple(_SUITES)


def run_suites(names: Union[str, Sequence[str]] = "all",
               rel_tol: Optional[float] = None) -> Report:
    """Run verification suites and collect a report.

    ``names`` is a suite name, a sequence of them, or ``"all"``.
    ``rel_tol`` overrides the relative tolerance of every integration a
    check performs (the pass bounds stay fixed, so a loose override
    makes integration-backed checks fail).  The suites run serially, and
    results keep suite order.
    """
    if isinstance(names, str):
        wanted = list(_SUITES) if names == "all" else [names]
    else:
        wanted = list(names)
        if wanted == ["all"]:
            wanted = list(_SUITES)
    for name in wanted:
        if name not in _SUITES:
            raise ValueError(
                f"unknown suite {name!r}; valid: {', '.join(_SUITES)}")
    if rel_tol is not None and not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol override must lie in (0, 1)")

    results: List[CheckResult] = []
    for name in wanted:
        results.extend(_SUITES[name](rel_tol))
    return Report(results=tuple(results))
