"""Self-checks that compare every solver against its closed-form oracles.

Checks are grouped into named suites.  Each check reports the quantity
it measured, the bound it held that quantity to, and a pass flag, so a
report stays meaningful even when everything is green.  Bounds fall in
two classes: analytic tolerances that follow from the mathematics, and
regression bounds measured on this implementation and pinned with a
little slack (those say so in their detail string).

All model evaluations go through the module attributes of
:mod:`ermakov.models` and :mod:`ermakov.thermal` rather than through
names imported at load time, so targeted fault injection in tests is
visible to the suite.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "measured": self.measured, "tolerance": self.tolerance,
                "detail": self.detail}


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


def _run_check(results: List[CheckResult], name: str,
               fn: Callable[[], Tuple[float, float, bool, str]]) -> None:
    # A crashed check is a failed check, not a crashed report.
    try:
        measured, tolerance, passed, detail = fn()
    except Exception as exc:
        results.append(CheckResult(name=name, passed=False,
                                   measured=math.nan, tolerance=math.nan,
                                   detail=f"raised {exc!r}"))
    else:
        results.append(CheckResult(name=name, passed=bool(passed),
                                   measured=float(measured),
                                   tolerance=float(tolerance),
                                   detail=detail))


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


def _completed(reason: StopReason) -> bool:
    return reason is StopReason.COMPLETED


# ---------------------------------------------------------------- suites

def _suite_free_particle(rel_tol: Optional[float]) -> List[CheckResult]:
    results: List[CheckResult] = []
    params = PhysicalParams(omega0=0.0)
    # shared run, built lazily so a crash lands in the check that asked
    cache: dict = {}

    def _free_run():
        if "data" not in cache:
            cfg = _config(rel_tol, 1e-10, 1e-13)
            traj, reason = integrators.integrate(
                ModelVariant.CONSERVATIVE, State(1.0, 0.0), (0.0, 10.0),
                params, cfg)
            ts = np.linspace(0.0, 10.0, 201)
            got = traj.sample(ts)
            exact = [analytic.free_spreading(t, 1.0, params) for t in ts]
            cache["data"] = (reason, got,
                             np.array([st.sigma for st in exact]),
                             np.array([st.sigma_dot for st in exact]))
        return cache["data"]

    def spreading():
        reason, got, exact_sig, _ = _free_run()
        if not _completed(reason):
            return math.inf, 1e-8, False, f"stopped: {reason.value}"
        meas = _max_rel(got[:, 0] ** 2, exact_sig ** 2)
        return meas, 1e-8, meas <= 1e-8, "variance vs ballistic closed form"

    def velocity():
        reason, got, _, exact_vel = _free_run()
        if not _completed(reason):
            return math.inf, 1e-8, False, f"stopped: {reason.value}"
        meas = float(np.max(np.abs(got[1:, 1] - exact_vel[1:])
                            / np.abs(exact_vel[1:])))
        return meas, 1e-8, meas <= 1e-8, "width rate vs closed form"

    _run_check(results, "free-spreading-match", spreading)
    _run_check(results, "free-spreading-rate-match", velocity)
    return results


def _suite_pinney(rel_tol: Optional[float]) -> List[CheckResult]:
    results: List[CheckResult] = []
    params = core.make_natural_params(0.0, 0.0, 0.0)
    cfg = _config(rel_tol, 1e-12, 1e-15)
    rng = np.random.default_rng(20260815)
    sig0 = rng.uniform(0.1, 10.0, 20)
    vel0 = rng.uniform(-2.0, 2.0, 20)
    t_end = 20.0 * math.pi

    def oracle_sweep():
        worst = 0.0
        for s0, v0 in zip(sig0, vel0):
            traj, reason = integrators.integrate(
                ModelVariant.CONSERVATIVE, State(s0, v0), (0.0, t_end),
                params, cfg)
            if not _completed(reason):
                return math.inf, 1e-8, False, f"stopped: {reason.value}"
            ts = np.sort(np.concatenate((
                [0.0, t_end], rng.uniform(0.0, t_end, 48))))
            got = traj.sample(ts)
            ref = np.array([analytic.pinney_solution(t, s0, v0, params).sigma
                            for t in ts])
            worst = max(worst, _max_rel(got[:, 0], ref))
        return worst, 1e-8, worst <= 1e-8, \
            "20 random starts, 10 oscillator periods"

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
        return worst, 1e-9, worst <= 1e-9, \
            "closed-form curvature vs model acceleration"

    def closed_form_energy():
        worst = 0.0
        ts = np.linspace(0.0, t_end, 200)
        for s0, v0 in zip(sig0[:5], vel0[:5]):
            es = np.array([core.energy(analytic.pinney_solution(
                t, s0, v0, params), params) for t in ts])
            worst = max(worst, float((es.max() - es.min()) / abs(es[0])))
        return worst, 1e-11, worst <= 1e-11, "energy of the closed form"

    _run_check(results, "pinney-oracle-sweep", oracle_sweep)
    _run_check(results, "pinney-acceleration-consistency",
               acceleration_consistency)
    _run_check(results, "pinney-closed-form-energy", closed_form_energy)
    return results


def _suite_energy(rel_tol: Optional[float]) -> List[CheckResult]:
    results: List[CheckResult] = []
    params = core.make_natural_params(0.0, 0.0, 0.0)

    def conservation():
        cfg = _config(rel_tol, 1e-10, 1e-13)
        traj, reason = integrators.integrate(
            ModelVariant.CONSERVATIVE, State(2.0, 0.0), (0.0, 20.0),
            params, cfg)
        if not _completed(reason):
            return math.inf, 1e-8, False, f"stopped: {reason.value}"
        es = core.energy(traj.states, params)
        meas = float(np.max(np.abs(es - es[0])) / abs(es[0]))
        return meas, 1e-8, meas <= 1e-8, "first integral along the run"

    def dissipation_balance():
        dparams = core.make_natural_params(0.5, 0.0, 0.0)
        cfg = _config(rel_tol, 1e-10, 1e-13)
        traj, reason = integrators.integrate(
            ModelVariant.DISSIPATIVE, State(2.0, 0.0), (0.0, 10.0),
            dparams, cfg)
        if not _completed(reason):
            return math.inf, 1e-6, False, f"stopped: {reason.value}"
        ts = np.linspace(0.0, 10.0, 8001)
        got = traj.sample(ts)
        es = core.energy(got, dparams)
        lost = _simpson(dparams.b * got[:, 1] ** 2, ts[1] - ts[0])
        meas = abs(es[-1] - es[0] + lost) / abs(es[0])
        return meas, 1e-6, meas <= 1e-6, \
            "energy drop vs quadrature of the friction loss"

    def monotone_decay():
        dparams = core.make_natural_params(0.5, 0.0, 0.0)
        cfg = _config(rel_tol, 1e-10, 1e-13)
        traj, reason = integrators.integrate(
            ModelVariant.DISSIPATIVE, State(2.0, 0.0), (0.0, 10.0),
            dparams, cfg)
        if not _completed(reason):
            return math.inf, 1e-10, False, f"stopped: {reason.value}"
        es = core.energy(traj.states, dparams)
        meas = float(np.max(np.diff(es)) / abs(es[0]))
        return meas, 1e-10, meas <= 1e-10, \
            "largest energy increase between accepted steps"

    _run_check(results, "energy-conservation", conservation)
    _run_check(results, "energy-dissipation-balance", dissipation_balance)
    _run_check(results, "energy-monotone-decay", monotone_decay)
    return results


def _suite_overdamped(rel_tol: Optional[float]) -> List[CheckResult]:
    results: List[CheckResult] = []

    def relaxation_match():
        params = core.make_natural_params(10.0, 0.0, 0.0)
        cfg = _config(rel_tol, 1e-10, 1e-13)
        seed = analytic.overdamped_relaxation(0.05, params)
        traj, reason = integrators.integrate_overdamped(
            ModelVariant.OVERDAMPED_DISSIPATIVE, seed.sigma, (0.05, 3.0),
            params, cfg)
        if not _completed(reason):
            return math.inf, 1e-6, False, f"stopped: {reason.value}"
        ts = np.linspace(0.05, 3.0, 200)
        got = traj.sample(ts)
        ref = np.array([analytic.overdamped_relaxation(t, params).sigma
                        for t in ts])
        meas = _max_rel(got[:, 0] ** 2, ref ** 2)
        return meas, 1e-6, meas <= 1e-6, "first-order run vs closed form"

    def equilibrium_approach():
        params = core.make_natural_params(10.0, 0.0, 0.0)
        cfg = _config(rel_tol, 1e-10, 1e-13)
        traj, reason = integrators.integrate_overdamped(
            ModelVariant.OVERDAMPED_DISSIPATIVE, 0.2, (0.0, 40.0),
            params, cfg)
        if not _completed(reason):
            return math.inf, 1e-6, False, f"stopped: {reason.value}"
        target = core.ground_state_sigma(params)
        meas = abs(traj.states[-1, 0] / target - 1.0)
        return meas, 1e-6, meas <= 1e-6, "late-time width vs ground width"

    def subdiffusion_match():
        params = PhysicalParams(omega0=0.0, b=10.0)
        cfg = _config(rel_tol, 1e-10, 1e-13)
        seed = analytic.subdiffusion(0.1, params)
        traj, reason = integrators.integrate_overdamped(
            ModelVariant.OVERDAMPED_DISSIPATIVE, seed.sigma, (0.1, 10.0),
            params, cfg)
        if not _completed(reason):
            return math.inf, 1e-6, False, f"stopped: {reason.value}"
        ts = np.linspace(0.1, 10.0, 200)
        got = traj.sample(ts)
        ref = np.array([analytic.subdiffusion(t, params).sigma for t in ts])
        meas = _max_rel(got[:, 0] ** 2, ref ** 2)
        return meas, 1e-6, meas <= 1e-6, "trap-free strong friction growth"

    def limit_consistency():
        params = PhysicalParams(omega0=1e-3, b=10.0)
        od = analytic.overdamped_relaxation(1.0, params).sigma ** 2
        sub = analytic.subdiffusion(
            1.0, PhysicalParams(omega0=0.0, b=10.0)).sigma ** 2
        meas = abs(od / sub - 1.0)
        return meas, 1e-4, meas <= 1e-4, \
            "weak-trap relaxation vs trap-free law at t = 1"

    def stiff_friction_match():
        params = core.make_natural_params(100.0, 0.0, 0.0)
        cfg = _config(rel_tol, 1e-8, 1e-11, scheme=Scheme.TRBDF2)
        seed = analytic.overdamped_relaxation(0.05, params)
        traj, reason = integrators.integrate(
            ModelVariant.DISSIPATIVE, State(seed.sigma, seed.sigma_dot),
            (0.05, 3.0), params, cfg)
        if not _completed(reason):
            return math.inf, _STIFF_FRICTION_BOUND, False, \
                f"stopped: {reason.value}"
        ts = np.linspace(0.05, 3.0, 100)
        got = traj.sample(ts)
        ref = np.array([analytic.overdamped_relaxation(t, params).sigma
                        for t in ts])
        meas = _max_rel(got[:, 0] ** 2, ref ** 2)
        return meas, _STIFF_FRICTION_BOUND, meas <= _STIFF_FRICTION_BOUND, \
            ("regression bound: the full model rides a slow manifold "
             "offset from the first-order closed form near the start")

    _run_check(results, "overdamped-relaxation-match", relaxation_match)
    _run_check(results, "overdamped-equilibrium-approach",
               equilibrium_approach)
    _run_check(results, "subdiffusion-match", subdiffusion_match)
    _run_check(results, "overdamped-limit-consistency", limit_consistency)
    _run_check(results, "stiff-friction-overdamped-match",
               stiff_friction_match)
    return results


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
    results: List[CheckResult] = []
    params = core.make_natural_params(0.0, 1.0, 0.0)

    def slope_form_stationary():
        meas, _ = _stationary_defect(ThermalVariant.BETA_DERIVATIVE, 71,
                                     params)
        return meas, _SLOPE_FORM_BOUND, meas <= _SLOPE_FORM_BOUND, \
            "regression bound, 71 nodes on [0.5, 4]"

    def slope_form_order():
        defects, deltas = zip(*(_stationary_defect(
            ThermalVariant.BETA_DERIVATIVE, n, params)
            for n in (36, 71, 141)))
        slope = float(np.polyfit(np.log(deltas), np.log(defects), 1)[0])
        detail = "defects " + ", ".join(f"{d:.3e}" for d in defects)
        return slope, 0.2, abs(slope - 2.0) <= 0.2, detail

    def integral_form_stationary():
        meas, _ = _stationary_defect(ThermalVariant.INTEGRAL_FORM, 71,
                                     params)
        return meas, _INTEGRAL_FORM_BOUND, meas <= _INTEGRAL_FORM_BOUND, \
            "regression bound, 71 nodes on [0.5, 4]"

    def dynamic_hold(variant: ThermalVariant, bound: float,
                     hold_params: PhysicalParams, note: str,
                     **cfg_kwargs):
        grid = BetaGrid.from_range(0.5, 4.0, 71)
        field0 = thermal.equilibrium_profile_coth(grid, hold_params)
        cfg = _config(rel_tol, 1e-9, 1e-12, **cfg_kwargs)
        traj, reason = thermal.integrate_thermal(
            variant, field0, (0.0, 10.0), hold_params, cfg)
        if not _completed(reason):
            return math.inf, 5.0 * bound, False, f"stopped: {reason.value}"
        drift = float(np.max(np.abs(traj.sigma - field0.sigma[None, :])))
        return drift, 5.0 * bound, drift <= 5.0 * bound, note

    # The slope form couples neighbouring nodes through the grid
    # derivative, and the one-sided edge stencils feed the shortest
    # waves; an undamped hold amplifies them, so that hold runs with
    # strong friction and checks the slow creep instead.  The integral
    # form has no such coupling and holds undamped.
    def dynamic_hold_slope():
        damped = core.make_natural_params(80.0, 1.0, 0.0)
        return dynamic_hold(
            ThermalVariant.BETA_DERIVATIVE, _SLOPE_FORM_BOUND, damped,
            "peak node drift over ten time units at friction 80; the "
            "stationary defect pushes a slow creep of order defect "
            "over friction", scheme=Scheme.TRBDF2)

    def dynamic_hold_integral():
        return dynamic_hold(
            ThermalVariant.INTEGRAL_FORM, _INTEGRAL_FORM_BOUND, params,
            "peak node drift over ten time units, undamped")

    # Relaxation runs use the integral form: its explicit temperature
    # dependence pins a unique equilibrium profile.  The slope form
    # admits a one-parameter family of stationary profiles (any
    # temperature shift of the coth profile solves the autonomous
    # stationary equation), so a damped slope-form run may settle on a
    # shifted member rather than the coth profile itself.
    relax_cache: dict = {}

    def _relaxation_run():
        if "data" not in relax_cache:
            grid = BetaGrid.from_range(0.5, 4.0, 36)
            damped = core.make_natural_params(10.0, 1.0, 0.0)
            target = thermal.equilibrium_profile_coth(grid, damped)
            field0 = ThermalField(grid=grid, sigma=1.2 * target.sigma,
                                  sigma_dot=np.zeros(grid.count))
            cfg = _config(rel_tol, 1e-8, 1e-11, scheme=Scheme.TRBDF2)
            traj, reason = thermal.integrate_thermal(
                ThermalVariant.INTEGRAL_FORM, field0, (0.0, 60.0),
                damped, cfg)
            relax_cache["data"] = (grid, target, traj, reason)
        return relax_cache["data"]

    def relaxation_approach():
        grid, target, traj, reason = _relaxation_run()
        if not _completed(reason):
            return math.inf, _RELAX_APPROACH_BOUND, False, \
                f"stopped: {reason.value}"
        meas = float(np.max(np.abs(traj.sigma[-1] / target.sigma - 1.0)))
        return meas, _RELAX_APPROACH_BOUND, meas <= _RELAX_APPROACH_BOUND, \
            "regression bound: settles onto the discrete equilibrium"

    def relaxation_envelope():
        grid, target, traj, reason = _relaxation_run()
        if not _completed(reason):
            return math.inf, _RELAX_ENVELOPE_SLACK, False, \
                f"stopped: {reason.value}"
        ts = np.linspace(0.0, 60.0, 61)
        sig = traj.sample(ts)[:, :grid.count]
        dist = np.abs(sig - target.sigma[None, :])
        meas = float(np.max(np.diff(dist, axis=0)))
        return meas, _RELAX_ENVELOPE_SLACK, meas <= _RELAX_ENVELOPE_SLACK, \
            ("largest nodewise increase of the distance to the coth "
             "profile; bounded by the discrete equilibrium offset")

    _run_check(results, "slope-form-stationary", slope_form_stationary)
    _run_check(results, "slope-form-order", slope_form_order)
    _run_check(results, "integral-form-stationary", integral_form_stationary)
    _run_check(results, "dynamic-hold-slope-form", dynamic_hold_slope)
    _run_check(results, "dynamic-hold-integral-form", dynamic_hold_integral)
    _run_check(results, "relaxation-approach", relaxation_approach)
    _run_check(results, "relaxation-envelope", relaxation_envelope)
    return results


def _suite_thermal_limits(rel_tol: Optional[float]) -> List[CheckResult]:
    results: List[CheckResult] = []
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
        return worst, 1.0, worst <= 1.0, \
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
        return worst, 1e-6, worst <= 1e-6, \
            "thermal corrections die off at cold nodes"

    def classical_limit():
        tiny = PhysicalParams(hbar=1e-6, beta=1.0)
        grid = BetaGrid.from_range(0.5, 4.0, 71)
        sigma = 1.0 / np.sqrt(tiny.m * tiny.omega0 ** 2 * grid.nodes)
        field = ThermalField.at_rest(grid, sigma)
        res = thermal.equilibrium_residual(ThermalVariant.INTEGRAL_FORM,
                                           field, tiny)
        meas = float(np.max(np.abs(res) / (tiny.omega0 ** 2 * sigma)))
        return meas, 1e-9, meas <= 1e-9, \
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
        return worst, 1e-12, worst <= 1e-12, \
            "closed-form equilibrium satisfies its defining quartic"

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
        lo, hi = _EQUILIBRIA_GAP_BAND
        return worst, hi, lo <= worst <= hi, \
            f"pinned band, worst gap near beta = {arg:.2f}"

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
        return worst, 0.1, worst <= 0.1, \
            "cold gap scales like 1/beta, hot gap like beta squared"

    _run_check(results, "high-temperature-agreement",
               high_temperature_agreement)
    _run_check(results, "low-temperature-agreement",
               low_temperature_agreement)
    _run_check(results, "classical-limit", classical_limit)
    _run_check(results, "equilibrium-root-consistency", root_consistency)
    _run_check(results, "equilibria-gap-scan", equilibria_gap_scan)
    _run_check(results, "equilibrium-limit-orders", equilibrium_limit_orders)
    return results


def _suite_radiative(rel_tol: Optional[float]) -> List[CheckResult]:
    results: List[CheckResult] = []

    def reduced_decay():
        params = core.make_natural_params(0.0, 0.0, 0.01)
        cfg = _config(rel_tol, 1e-10, 1e-13)
        s0 = 2.0 * core.ground_state_sigma(params)
        traj, reason = integrators.integrate(
            ModelVariant.RADIATIVE_REDUCED, State(s0, 0.0),
            (0.0, _REDUCED_DECAY_HORIZON), params, cfg)
        if not _completed(reason):
            return math.inf, 1e-4, False, f"stopped: {reason.value}"
        ground = 0.5 * params.hbar * params.omega0
        meas = abs(core.energy(traj.states[-1:], params)[0] / ground - 1.0)
        return meas, 1e-4, meas <= 1e-4, \
            "final energy vs ground energy at the pinned horizon"

    def naive_runaway():
        params = core.make_natural_params(0.0, 0.0, 0.01)
        s0 = 2.0 * core.ground_state_sigma(params)
        base = models.acceleration(ModelVariant.CONSERVATIVE,
                                   State(s0, 0.0), params)
        cfg = _config(rel_tol, 1e-9, 1e-12)
        traj, reason = integrators.integrate(
            ModelVariant.RADIATIVE_NAIVE, State3(s0, 0.0, base + 0.1),
            (0.0, 5.0), params, cfg)
        t_stop = float(traj.times[-1])
        ok = (reason is StopReason.RUNAWAY_DETECTED
              and t_stop <= _RUNAWAY_TIME_BOUND)
        return t_stop, _RUNAWAY_TIME_BOUND, ok, \
            f"stop reason {reason.value}, pinned latest detection time"

    def reduced_limit():
        cfg = _config(rel_tol, 1e-11, 1e-14)
        ts = np.linspace(0.0, 5.0, 101)
        cons = core.make_natural_params(0.0, 0.0, 0.0)
        s0 = 2.0 * core.ground_state_sigma(cons)
        ref_traj, _ = integrators.integrate(
            ModelVariant.CONSERVATIVE, State(s0, 0.0), (0.0, 5.0),
            cons, cfg)
        ref = ref_traj.sample(ts)[:, 0]
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            params = core.make_natural_params(0.0, 0.0, eps)
            traj, reason = integrators.integrate(
                ModelVariant.RADIATIVE_REDUCED, State(s0, 0.0),
                (0.0, 5.0), params, cfg)
            if not _completed(reason):
                return math.inf, 0.15, False, f"stopped: {reason.value}"
            errs.append(float(np.max(np.abs(traj.sample(ts)[:, 0] - ref))))
        meas = max(errs[1] / errs[0], errs[2] / errs[1])
        detail = "errors " + ", ".join(f"{e:.3e}" for e in errs)
        return meas, 0.15, meas <= 0.15, detail

    def electron_memory_time():
        r = core.radiation_coefficient(core.ELEMENTARY_CHARGE)
        tau = r / core.ELECTRON_MASS
        lo, hi = _ELECTRON_TAU_BAND
        return tau, hi, lo <= tau <= hi, \
            "radiation memory time of the electron, seconds"

    _run_check(results, "reduced-decay-to-ground", reduced_decay)
    _run_check(results, "naive-runaway-detected", naive_runaway)
    _run_check(results, "reduced-approaches-conservative", reduced_limit)
    _run_check(results, "electron-memory-time", electron_memory_time)
    return results


def _suite_madelung(rel_tol: Optional[float]) -> List[CheckResult]:
    results: List[CheckResult] = []
    params = core.make_natural_params(0.0, 0.0, 0.0)
    damped = core.make_natural_params(0.7, 0.0, 0.0)
    rng = np.random.default_rng(77)

    def continuity():
        worst = 0.0
        for _ in range(30):
            snap = madelung.GaussianSnapshot(
                sigma=float(rng.uniform(0.5, 3.0)),
                sigma_dot=float(rng.uniform(-2.0, 2.0)))
            xs = madelung.SpatialGrid(sigma=snap.sigma).nodes
            res = madelung.continuity_residual(xs, snap)
            worst = max(worst, float(np.max(np.abs(res))))
        return worst, 1e-12, worst <= 1e-12, \
            "density transport identity on random snapshots"

    def model_closure():
        worst = 0.0
        for variant, p in ((ModelVariant.CONSERVATIVE, params),
                           (ModelVariant.DISSIPATIVE, damped)):
            for _ in range(15):
                snap = madelung.GaussianSnapshot(
                    sigma=float(rng.uniform(0.5, 3.0)),
                    sigma_dot=float(rng.uniform(-2.0, 2.0)))
                xs = madelung.SpatialGrid(sigma=snap.sigma).nodes
                res = madelung.force_balance_residual(xs, snap, p,
                                                      variant=variant)
                worst = max(worst, float(np.max(np.abs(res))))
        return worst, 1e-12, worst <= 1e-12, \
            "model acceleration closes the momentum balance"

    def factorization():
        worst = 0.0
        for _ in range(15):
            snap = madelung.GaussianSnapshot(
                sigma=float(rng.uniform(0.5, 3.0)),
                sigma_dot=float(rng.uniform(-2.0, 2.0)))
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
        return worst, 1e-10, worst <= 1e-10, \
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
        detail = "errors " + ", ".join(f"{e:.3e}" for e in errs)
        return slope, 0.2, abs(slope - 2.0) <= 0.2, detail

    def trajectory_audit():
        worst = 0.0
        cfg = _config(rel_tol, 1e-12, 1e-15)
        for variant, p in ((ModelVariant.CONSERVATIVE, params),
                           (ModelVariant.DISSIPATIVE, damped)):
            traj, reason = integrators.integrate(
                variant, State(1.3, 0.4), (0.0, 10.0), p, cfg)
            if not _completed(reason):
                return math.inf, 1e-10, False, f"stopped: {reason.value}"
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
        return worst, 1e-10, worst <= 1e-10, \
            "hydrodynamic residuals along integrated trajectories"

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
        return worst, 1e-12, worst <= 1e-12, \
            "integral-form acceleration closes the thermal balance"

    _run_check(results, "continuity-identity", continuity)
    _run_check(results, "force-balance-model-closure", model_closure)
    _run_check(results, "force-balance-factorization", factorization)
    _run_check(results, "quantum-potential-convergence",
               potential_convergence)
    _run_check(results, "trajectory-residual-audit", trajectory_audit)
    _run_check(results, "thermal-force-balance-closure", thermal_closure)
    return results


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
               rel_tol: Optional[float] = None,
               jobs: int = 1) -> Report:
    """Run verification suites and collect a report.

    ``names`` is a suite name, a sequence of them, or ``"all"``.
    ``rel_tol`` overrides the relative tolerance of every integration a
    check performs (the pass bounds stay fixed, so a loose override
    makes integration-backed checks fail).  ``jobs`` must be at least 1
    and has no effect on speed: the suites run serially, and results
    keep suite order whatever its value.
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
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if rel_tol is not None and not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol override must lie in (0, 1)")

    results: List[CheckResult] = []
    for name in wanted:
        results.extend(_SUITES[name](rel_tol))
    return Report(results=tuple(results))
