"""Command-line front end.

Subcommands: ``simulate`` (one width trajectory), ``thermal`` (a width
profile over an inverse-temperature grid), ``sweep`` (repeat a task over
one or two parameter grids), ``equilibrium`` (closed-form equilibrium
widths), ``verify`` (self-check suites), ``plot`` (re-render a CSV as an
SVG chart).

Run configuration is a single JSON document; unknown keys are rejected
by name so typos never pass silently.  Exit codes: 0 success, 1 bad
configuration or usage, 2 integration stopped before the requested end
time, 3 verification failure.  Data files carry no timestamps and are
byte-identical across repeated runs of the same configuration.
"""

import argparse
import copy
import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import analytic, core, integrators, output, thermal, verification
from .core import PhysicalParams, State, State3
from .integrators import IntegratorConfig, Scheme, StopReason
from .models import ModelVariant, OVERDAMPED_VARIANTS
from .thermal import BetaGrid, ThermalField, ThermalVariant

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STOPPED = 2
EXIT_VERIFY = 3

_SCHEMES = {
    "explicit-adaptive": Scheme.DOPRI54,
    "implicit-a-stable": Scheme.TRBDF2,
}
_MODEL_NAMES = {variant.value: variant for variant in ModelVariant}
_THERMAL_NAMES = {variant.value: variant for variant in ThermalVariant}
# Most rows one run or one sweep may write to its CSV; every row is held
# in memory.
_MAX_ROWS = 1_000_000
# Most thermal grid nodes: a TR-BDF2 run builds the Jacobian's (n, n)
# structure, and an integral-form run holds dense (n, n) matrices, the
# Jacobian and the Newton matrix's inverse, from one factorisation to the
# next, and the Newton matrix too while it factors: 32 MB each at this
# size.
_MAX_NODES = 2000
# Most steps one run may take, and the default: the library's default of
# a million steps lets a short config run for about a minute.
_MAX_STEPS = 100_000
# Most steps the points of one sweep may take together.  A point without
# its own integrator.max_steps gets an equal share, at most _MAX_STEPS.
_MAX_SWEEP_STEPS = 1_000_000


class ConfigError(ValueError):
    """Configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are configuration errors, not integration stops,
    # so bad flags must not exit with argparse's default code 2.
    def error(self, message):
        raise ConfigError(message)


# ------------------------------------------------------------- parsing

def _mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    return obj


def _check_keys(section: dict, allowed: Sequence[str], where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key: {where}.{key}" if where
                              else f"unknown key: {key}")


def _need(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key: {where}.{key}" if where
                          else f"missing key: {key}")
    return section[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where} must be a finite number")


def _choice(value, table: dict, where: str):
    """The entry of ``table`` named by ``value``, a string key."""
    if not isinstance(value, str) or value not in table:
        raise ConfigError(f"{where} must be one of "
                          + ", ".join(sorted(table)))
    return table[value]


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    return _mapping(obj, "config")


def _parse_params(obj: Optional[dict], where: str = "params"
                  ) -> PhysicalParams:
    if obj is None:
        return PhysicalParams()
    _mapping(obj, where)
    if "natural" in obj:
        _check_keys(obj, ("natural",), where)
        where += ".natural"
        nat = _mapping(obj["natural"], where)
        # Each natural key and its make_natural_params argument.
        args = {"friction": "gamma", "temperature": "theta",
                "radiation": "epsilon"}
        _check_keys(nat, tuple(args), where)
        make = core.make_natural_params
        kwargs = {arg: _number(nat[key], f"{where}.{key}")
                  for key, arg in args.items() if key in nat}
    else:
        _check_keys(obj, ("m", "omega0", "hbar", "b", "beta", "k_B", "r"),
                    where)
        make = PhysicalParams
        kwargs = {key: core.ZERO_TEMPERATURE
                  if key == "beta" and value == "zero-temperature"
                  else _number(value, f"{where}.{key}")
                  for key, value in obj.items()}
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")


def _parse_integrator(obj: Optional[dict]) -> IntegratorConfig:
    obj = {} if obj is None else _mapping(obj, "integrator")
    _check_keys(obj, ("scheme", "rel_tol", "abs_tol", "h_init", "h_min",
                      "h_max", "max_steps", "sigma_min_guard",
                      "runaway_ratio"), "integrator")
    kwargs: Dict[str, object] = {"max_steps": _MAX_STEPS}
    for key, value in obj.items():
        if key == "scheme":
            kwargs[key] = _choice(value, _SCHEMES, "integrator.scheme")
        elif key == "max_steps":
            kwargs[key] = _integer(value, "integrator.max_steps")
            if kwargs[key] > _MAX_STEPS:
                raise ConfigError(
                    f"integrator.max_steps must be at most {_MAX_STEPS}")
        else:
            kwargs[key] = _number(value, f"integrator.{key}")
    try:
        return IntegratorConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"integrator: {exc}")


def _parse_span(value, where: str = "t_span") -> Tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{where} must be a two-element list [t0, t1]")
    t0 = _number(value[0], f"{where}[0]")
    t1 = _number(value[1], f"{where}[1]")
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ConfigError(f"{where} must be finite with t1 > t0")
    return t0, t1


def _parse_samples(cfg: dict) -> int:
    samples = _integer(cfg.get("samples", 201), "samples")
    if samples < 2:
        raise ConfigError("samples must be at least 2")
    if samples > _MAX_ROWS:
        raise ConfigError(f"samples must be at most {_MAX_ROWS}")
    return samples


def _parse_output(obj: Optional[dict], default_csv: str) -> Dict[str, str]:
    names = {"csv": default_csv, "svg": None, "summary": "summary.json"}
    if obj is None:
        return names
    _mapping(obj, "output")
    _check_keys(obj, ("csv", "svg", "summary"), "output")
    for key, value in obj.items():
        if not isinstance(value, str) or not value:
            raise ConfigError(f"output.{key} must be a non-empty file name")
        names[key] = value
    return names


def _parse_run(cfg: dict, own_keys: Tuple[str, ...],
               default_csv: str) -> dict:
    """The keys every integrating task shares; ``own_keys`` names the
    task's other top-level keys, which the task parses itself."""
    _check_keys(cfg, own_keys + ("params", "t_span", "samples",
                                 "integrator", "output"), "")
    return {
        "params": _parse_params(cfg.get("params")),
        "t_span": _parse_span(_need(cfg, "t_span", "")),
        "samples": _parse_samples(cfg),
        "integrator": _parse_integrator(cfg.get("integrator")),
        "output": _parse_output(cfg.get("output"), default_csv),
    }


def _parse_simulate(cfg: dict) -> dict:
    parsed = _parse_run(cfg, ("model", "initial"), "trajectory.csv")
    variant = _choice(_need(cfg, "model", ""), _MODEL_NAMES, "model")
    initial_obj = _mapping(_need(cfg, "initial", ""), "initial")
    if variant in OVERDAMPED_VARIANTS:
        keys = ("sigma",)
    elif variant is ModelVariant.RADIATIVE_NAIVE:
        keys = ("sigma", "sigma_dot", "sigma_ddot")
    else:
        keys = ("sigma", "sigma_dot")
    _check_keys(initial_obj, keys, "initial")
    _need(initial_obj, "sigma", "initial")
    start = {}
    for key in keys:
        start[key] = _number(initial_obj.get(key, 0.0), f"initial.{key}")
        if not math.isfinite(start[key]):
            raise ConfigError(f"initial.{key} must be a finite number")
    if variant in OVERDAMPED_VARIANTS:
        initial = start["sigma"]
    elif "sigma_ddot" in initial_obj:
        initial = State3(**start)
    else:
        initial = State(start["sigma"], start["sigma_dot"])
    parsed.update(variant=variant, initial=initial, rows=parsed["samples"])
    return parsed


def _positive(values, where: str):
    """``values``, a number or an array, if all are positive and finite."""
    if not np.all((values > 0.0) & (values < math.inf)):
        raise ConfigError(f"{where} must be positive and finite")
    return values


# profile kind -> the key that sets its widths; coth has none.
_PROFILE_KEYS = {"coth": None, "scaled-coth": "factor", "constant": "value",
                 "file": "path"}


def _parse_profile(obj: Optional[dict]) -> dict:
    if obj is None:
        return {"kind": "coth"}
    _mapping(obj, "profile")
    kind = _need(obj, "kind", "profile")
    if not isinstance(kind, str) or kind not in _PROFILE_KEYS:
        raise ConfigError("profile.kind must be one of "
                          + ", ".join(_PROFILE_KEYS))
    key = _PROFILE_KEYS[kind]
    _check_keys(obj, ("kind", key), "profile")
    if key is None:
        return {"kind": kind}
    value = _need(obj, key, "profile")
    if kind != "file":
        value = _positive(_number(value, f"profile.{key}"), f"profile.{key}")
    elif not isinstance(value, str):
        raise ConfigError("profile.path must be a string")
    return {"kind": kind, key: value}


def _parse_thermal(cfg: dict) -> dict:
    parsed = _parse_run(cfg, ("variant", "grid", "profile"), "thermal.csv")
    variant = _choice(_need(cfg, "variant", ""), _THERMAL_NAMES, "variant")
    grid_obj = _mapping(_need(cfg, "grid", ""), "grid")
    _check_keys(grid_obj, ("beta_min", "beta_max", "beta_count"), "grid")
    try:
        grid = BetaGrid.from_range(
            _number(_need(grid_obj, "beta_min", "grid"), "grid.beta_min"),
            _number(_need(grid_obj, "beta_max", "grid"), "grid.beta_max"),
            _integer(_need(grid_obj, "beta_count", "grid"),
                     "grid.beta_count"))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}")
    if grid.count > _MAX_NODES:
        raise ConfigError(f"grid.beta_count must be at most {_MAX_NODES}")
    rows = parsed["samples"] * grid.count
    if rows > _MAX_ROWS:
        raise ConfigError(f"samples x grid.beta_count (the CSV rows) must "
                          f"be at most {_MAX_ROWS}")
    parsed.update(variant=variant, grid=grid,
                  profile=_parse_profile(cfg.get("profile")), rows=rows)
    return parsed


def _parse_equilibrium(cfg: dict) -> dict:
    _check_keys(cfg, ("params", "output"), "")
    params = _parse_params(cfg.get("params"))
    if params.is_zero_temperature:
        raise ConfigError("equilibrium closed forms need a finite "
                          "params.beta")
    if params.omega0 <= 0.0:
        raise ConfigError("equilibrium closed forms need params.omega0 > 0")
    return {
        "params": params,
        "rows": 1,
        "output": _parse_output(cfg.get("output"), "equilibrium.csv"),
    }


# ------------------------------------------------------------- running

_TRAJECTORY_HEADER = ("t", "sigma", "sigma_dot", "energy")
_THERMAL_HEADER = ("t", "beta", "sigma", "sigma_dot")
_EQUILIBRIUM_HEADER = ("sigma_ground", "sigma_coth",
                       "sigma_high_temperature")


def _sampled(parsed: dict, traj) -> Tuple[np.ndarray, np.ndarray]:
    """Output times over the span a run covered, and its states there.

    A run that stopped on its first attempt covers its start node alone,
    which is written once.
    """
    t0, t_last = parsed["t_span"][0], float(traj.times[-1])
    ts = np.linspace(t0, t_last, parsed["samples"] if t_last > t0 else 1)
    return ts, traj.sample(ts)


def _run_trajectory(parsed: dict):
    """Integrate one width model; returns (table, trajectory, reason),
    the table's rows (t, sigma, sigma_dot, energy)."""
    integrate = (integrators.integrate_overdamped
                 if parsed["variant"] in OVERDAMPED_VARIANTS
                 else integrators.integrate)
    traj, reason = integrate(parsed["variant"], parsed["initial"],
                             parsed["t_span"], parsed["params"],
                             parsed["integrator"])
    ts, got = _sampled(parsed, traj)
    energy = core.energy(got, parsed["params"])
    return np.column_stack((ts, got[:, 0], got[:, 1], energy)), traj, reason


def _describe_trajectory(parsed: dict, table: np.ndarray):
    """A width run's own summary keys, chart x values and series."""
    keys = {"model": parsed["variant"].value,
            "sigma_final": float(table[-1, 1]),
            "sigma_dot_final": float(table[-1, 2]),
            "energy_final": float(table[-1, 3])}
    return keys, table[:, 0], [("sigma", table[:, 1])]


def _initial_profile(parsed: dict) -> np.ndarray:
    grid, profile = parsed["grid"], parsed["profile"]
    if profile["kind"] in ("coth", "scaled-coth"):
        base = thermal.equilibrium_profile_coth(grid, parsed["params"]).sigma
        return profile.get("factor", 1.0) * base
    if profile["kind"] == "constant":
        return np.full(grid.count, profile["value"])
    try:
        values = np.array([float(line) for line in
                           Path(profile["path"]).read_text().split()])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"profile.path: {exc}")
    if values.shape != (grid.count,):
        raise ConfigError(
            f"profile.path holds {values.size} widths, grid has "
            f"{grid.count} nodes")
    return _positive(values, "profile.path widths")


def _run_thermal(parsed: dict):
    """Integrate a thermal field; returns (table, trajectory, reason),
    the table's rows (t, beta, sigma, sigma_dot), time-major."""
    grid = parsed["grid"]
    field0 = ThermalField.at_rest(grid, _initial_profile(parsed))
    traj, reason = thermal.integrate_thermal(
        parsed["variant"], field0, parsed["t_span"], parsed["params"],
        parsed["integrator"])
    ts, got = _sampled(parsed, traj)
    n = grid.count
    table = np.column_stack((np.repeat(ts, n), np.tile(grid.nodes, ts.size),
                             got[:, :n].ravel(), got[:, n:].ravel()))
    return table, traj, reason


def _describe_thermal(parsed: dict, table: np.ndarray):
    """A field run's own summary keys, and its chart: the widths at the
    hottest, middle and coldest nodes over time."""
    grid = parsed["grid"]
    ts = table[::grid.count, 0]
    sig = table[:, 2].reshape(ts.size, grid.count)
    picks = (0, grid.count // 2, grid.count - 1)
    series = [(f"beta={grid.nodes[j]:.5g}", sig[:, j]) for j in picks]
    keys = {"variant": parsed["variant"].value,
            "beta_min": grid.beta_min, "beta_max": grid.beta_max,
            "beta_count": grid.count, "profile": parsed["profile"]["kind"]}
    return keys, ts, series


def _run_equilibrium(parsed: dict):
    """The closed-form widths; returns (table, None, reason) like the
    integrating tasks."""
    params = parsed["params"]
    row = (core.ground_state_sigma(params),
           math.sqrt(analytic.equilibrium_coth(params)),
           math.sqrt(analytic.equilibrium_high_temperature(params)))
    return np.array([row]), None, StopReason.COMPLETED


def _out_path(out_dir: str, name: str) -> Path:
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


# ------------------------------------------------------------ commands

# task -> (parse, run, header, describe).  run(parsed) returns (table,
# trajectory, reason), and every parsed config carries its CSV row count
# as "rows".  describe(parsed, table) returns the task's own summary keys
# and its chart's x values and series; equilibrium has no run to chart.
_TASKS = {
    "simulate": (_parse_simulate, _run_trajectory, _TRAJECTORY_HEADER,
                 _describe_trajectory),
    "thermal": (_parse_thermal, _run_thermal, _THERMAL_HEADER,
                _describe_thermal),
    "equilibrium": (_parse_equilibrium, _run_equilibrium,
                    _EQUILIBRIUM_HEADER, None),
}


def _cmd_run(args) -> int:
    """``simulate`` and ``thermal``: one run to a CSV, an optional chart
    and a summary."""
    parse, run, header, describe = _TASKS[args.command]
    parsed = parse(_load_config(args.config))
    table, traj, reason = run(parsed)
    names = parsed["output"]
    csv_path = _out_path(args.out, names["csv"])
    output.write_csv(csv_path, header, table)
    summary, x, series = describe(parsed, table)
    # A run that never advanced has one output time: no line to draw.
    svg_name = names["svg"] if traj.times.size > 1 else None
    if svg_name:
        svg = output.polyline_chart(x, series, parsed["variant"].value,
                                    "t", "sigma")
        output.write_svg(_out_path(args.out, svg_name), svg)
    summary.update({
        "command": args.command,
        "stop_reason": reason.value,
        "t_requested": list(parsed["t_span"]),
        "t_reached": float(traj.times[-1]),
        "rows": len(table),
        "csv": names["csv"],
        "svg": svg_name,
        "steps_accepted": traj.n_accepted,
        "steps_rejected": traj.n_rejected,
        "rhs_evaluations": traj.n_rhs,
    })
    output.write_json(_out_path(args.out, names["summary"]), summary)
    _say(args.quiet, f"wrote {csv_path} ({len(table)} rows), "
         f"stop reason {reason.value}")
    return EXIT_OK if reason is StopReason.COMPLETED else EXIT_STOPPED


def _cmd_equilibrium(args) -> int:
    parsed = _parse_equilibrium(_load_config(args.config))
    table = _run_equilibrium(parsed)[0]
    row = table[0].tolist()
    for name, value in zip(_EQUILIBRIUM_HEADER, row):
        _say(args.quiet, f"{name} = {output.format_float(value)}")
    names = parsed["output"]
    csv_path = _out_path(args.out, names["csv"])
    output.write_csv(csv_path, _EQUILIBRIUM_HEADER, table)
    summary = {
        "command": "equilibrium",
        "csv": names["csv"],
        "beta": parsed["params"].beta,
        "sigma_ground": row[0],
        "sigma_coth": row[1],
        "sigma_high_temperature": row[2],
    }
    output.write_json(_out_path(args.out, names["summary"]), summary)
    return EXIT_OK


def _set_by_path(cfg: dict, path: str, value) -> None:
    parts = path.split(".")
    node = cfg
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(
                f"sweep path {path!r} does not address a config entry")
    node[parts[-1]] = value


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    task = _need(cfg, "task", "")
    parse, run, header, _ = _choice(task, _TASKS, "task")
    sweep_obj = _mapping(_need(cfg, "sweep", ""), "sweep")
    if not 1 <= len(sweep_obj) <= 2:
        raise ConfigError("sweep takes one or two swept parameters")
    names = sorted(sweep_obj)
    # Each grid holds the JSON values, sorted as numbers: a point's config
    # gets the value itself, so an integer key stays an integer.
    grids = []
    for name in names:
        values = sweep_obj[name]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{name} must be a non-empty list")
        where = f"sweep.{name}"
        grids.append(sorted(values, key=lambda v: _number(v, where)))
    out_names = _parse_output(cfg.get("output"), "sweep.csv")
    base = {k: v for k, v in cfg.items()
            if k not in ("task", "sweep", "output")}

    # Every point writes at least one row.
    if math.prod(len(grid) for grid in grids) > _MAX_ROWS:
        raise ConfigError(f"a sweep may have at most {_MAX_ROWS} points")
    points = list(itertools.product(*grids))
    share = min(_MAX_STEPS, _MAX_SWEEP_STEPS // len(points))
    parsed_points = []
    steps = 0
    for point in points:
        local = copy.deepcopy(base)
        for name, value in zip(names, point):
            _set_by_path(local, name, value)
        parsed = parse(local)
        # Equilibrium points do not integrate.
        if "integrator" in parsed:
            if "max_steps" not in (local.get("integrator") or {}):
                parsed["integrator"] = dataclasses.replace(
                    parsed["integrator"], max_steps=share)
            steps += parsed["integrator"].max_steps
        parsed_points.append(parsed)
    total = sum(parsed["rows"] for parsed in parsed_points)
    if total > _MAX_ROWS:
        raise ConfigError(f"the sweep's points would write {total} rows; "
                          f"at most {_MAX_ROWS} are allowed")
    if steps > _MAX_SWEEP_STEPS:
        raise ConfigError(f"the sweep's integrator.max_steps sum to {steps}; "
                          f"at most {_MAX_SWEEP_STEPS} are allowed")

    # The points run serially, in sweep order, whatever --jobs says.
    blocks, stop_reasons = [], []
    for point, parsed in zip(points, parsed_points):
        table, _, reason = run(parsed)
        blocks.append(np.column_stack(
            (np.tile([float(v) for v in point], (table.shape[0], 1)),
             table)))
        stop_reasons.append(reason.value)

    header = tuple(names) + header
    rows = np.concatenate(blocks)
    csv_path = _out_path(args.out, out_names["csv"])
    output.write_csv(csv_path, header, rows)

    summary = {
        "command": "sweep",
        "task": task,
        "swept": {name: [float(v) for v in grid]
                  for name, grid in zip(names, grids)},
        "points": len(points),
        "rows": len(rows),
        "csv": out_names["csv"],
        "stop_reasons": stop_reasons,
    }
    output.write_json(_out_path(args.out, out_names["summary"]), summary)
    incomplete = [r for r in stop_reasons
                  if r != StopReason.COMPLETED.value]
    _say(args.quiet, f"wrote {csv_path} ({len(rows)} rows, "
         f"{len(points)} points, {len(incomplete)} stopped early)")
    return EXIT_STOPPED if incomplete else EXIT_OK


def _cmd_verify(args) -> int:
    wanted = tuple(args.suites) if args.suites else "all"
    try:
        report = verification.run_suites(wanted, rel_tol=args.rel_tol)
    except ValueError as exc:
        raise ConfigError(str(exc))
    for result in report.results:
        mark = "PASS" if result.passed else "FAIL"
        criterion = (f"bound {result.tolerance:.3e}" if result.lower is None
                     else f"band [{result.lower:.3e}, {result.tolerance:.3e}]")
        line = (f"{mark} {result.name}: measured {result.measured:.3e}, "
                f"{criterion}")
        if not result.passed and result.detail:
            line += f" ({result.detail})"
        _say(args.quiet, line)
    report_path = _out_path(args.out, "verify_report.json")
    output.write_json(report_path, report.to_dict())
    n_pass = sum(r.passed for r in report.results)
    _say(args.quiet, f"{n_pass}/{len(report.results)} checks passed, "
         f"report at {report_path}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_plot(args) -> int:
    header, data = output.read_csv(args.csv)
    if data.shape[0] < 2 or len(header) < 2:
        raise ConfigError(f"{args.csv} needs at least 2 rows and 2 columns")
    x = data[:, 0]
    series = [(header[i], data[:, i]) for i in range(1, len(header))]
    stem = Path(args.csv).stem
    svg = output.polyline_chart(x, series, stem, header[0], "value")
    svg_path = _out_path(args.out, stem + ".svg")
    output.write_svg(svg_path, svg)
    _say(args.quiet, f"wrote {svg_path}")
    return EXIT_OK


# -------------------------------------------------------------- parser

def _jobs(text: str) -> int:
    """The ``--jobs`` value, validated though every run is serial."""
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError("jobs must be at least 1")
    return jobs


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", metavar="DIR",
                        help="directory for generated files (default: .)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    withcfg = argparse.ArgumentParser(add_help=False)
    withcfg.add_argument("--config", required=True, metavar="PATH",
                         help="JSON run configuration")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                      help="accepted for compatibility; everything runs "
                           "serially (default: 1)")

    parser = _Parser(prog="ermakov",
                     description="Width-equation laboratory for the "
                                 "quantum harmonic oscillator")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("simulate", parents=[withcfg, common],
                       help="integrate one width trajectory to CSV")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("thermal", parents=[withcfg, common],
                       help="integrate a width profile over an inverse-"
                            "temperature grid")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("sweep", parents=[withcfg, common, jobs],
                       help="repeat a task over one or two parameter grids")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("equilibrium", parents=[withcfg, common],
                       help="print closed-form equilibrium widths")
    p.set_defaults(handler=_cmd_equilibrium)

    p = sub.add_parser("verify", parents=[common, jobs],
                       help="run self-check suites and write a JSON report")
    p.add_argument("suites", nargs="*", metavar="SUITE",
                   help="suite names (default: all); see "
                        + ", ".join(verification.suite_names()))
    p.add_argument("--rel-tol", type=float, default=None, metavar="TOL",
                   help="override the relative tolerance of every "
                        "integration the checks perform")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("plot", parents=[common],
                       help="re-render an existing CSV as an SVG chart")
    p.add_argument("csv", metavar="CSV", help="table to plot")
    p.set_defaults(handler=_cmd_plot)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
