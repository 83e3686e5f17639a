"""Span tracing of the ermakov layers, installed from outside the package.

Every layer reaches the others through module attributes looked up at
call time (``models.acceleration``, ``integrators.integrate``,
``output.write_csv``, ...), so replacing those attributes with timing
wrappers sees every call without editing ``src/``.  A few entry points
were imported by name into another module (``thermal._drive``,
``madelung.acceleration_field``); those bindings are wrapped where they
live, under the layer that owns the code.

A call records a span only when it crosses into another layer; a call
from a layer into itself only counts, which keeps the wrapper off the
per-value paths inside a layer (``output.format_float`` per CSV cell,
``models.conservative_acceleration`` inside ``models.acceleration``).
Span stacks are per thread, so the ``--jobs`` pools nest correctly;
every span carries the id of the benchmark task that was running.
Spans stay in memory as flat arrays until the traced pass ends.
"""

import os
import threading
import time
from array import array

import numpy as np

# Public functions other layers (or the benchmark) call by module
# attribute; found by searching src/ermakov for "<module>.<name>".
ENTRY_POINTS = {
    "models": ("acceleration", "conservative_acceleration",
               "overdamped_velocity", "radiative_jerk", "residual"),
    "integrators": ("integrate", "integrate_overdamped", "sample"),
    "analytic": ("equilibrium_coth", "equilibrium_high_temperature",
                 "free_spreading", "overdamped_relaxation",
                 "pinney_acceleration", "pinney_solution", "subdiffusion"),
    "thermal": ("acceleration_field", "equilibrium_profile_coth",
                "equilibrium_residual", "integrate_thermal",
                "stationary_profile", "thermal_term_beta_derivative",
                "thermal_term_integral"),
    "madelung": ("continuity_residual", "force_balance_residual",
                 "force_balance_residual_thermal", "gaussian_density",
                 "quantum_force", "quantum_potential",
                 "quantum_potential_numeric", "velocity_field"),
    "verification": ("run_suites", "suite_names"),
    "cli": ("main",),
    "output": ("format_float", "polyline_chart", "read_csv", "write_csv",
               "write_json"),
}

RHS_ENTRIES = ("models.acceleration", "models.radiative_jerk",
               "models.overdamped_velocity")
LOOP_SPANS = ("integrators.integrate", "integrators.integrate_overdamped",
                "integrators._drive")
SAMPLE_SPANS = ("integrators.sample", "integrators.Trajectory.sample",
                "integrators.ThermalTrajectory.sample")


class _ThreadSpans:
    """Spans, open-span stack and counters of one thread."""

    def __init__(self, index: int, n_names: int):
        self.index = index
        self.name = array("i")
        self.parent = array("q")
        self.task = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.layers = []
        self.calls = [0] * n_names
        self.extra = {}
        self.runs = []

    def add(self, key: str, amount) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


class Tracer:
    """Installs span wrappers on the ermakov modules and collects spans.

    ``install`` patches the module and class attributes, ``uninstall``
    puts the originals back.  ``task``/``kind`` name the benchmark task
    in progress; the workload loop sets them before each task.
    """

    def __init__(self):
        self.names = []
        self.task = -1
        self.kind = ""
        self._ids = {}
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._undo = []

    # ------------------------------------------------------------ install

    def install(self, modules: dict) -> None:
        """Wrap the entry points; ``modules`` maps layer name to module."""
        integrators, thermal = modules["integrators"], modules["thermal"]
        madelung, verification = modules["madelung"], modules["verification"]
        hooks = {
            "integrators.integrate": self._run_hooks("models.acceleration"),
            "integrators.integrate_overdamped": self._run_hooks(None),
            "thermal.integrate_thermal":
                self._run_hooks("thermal.acceleration_field"),
            "thermal.acceleration_field": (None, _count_field_nodes),
            "output.write_csv": (None, _count_csv_written),
            "output.read_csv": (None, _count_csv_read),
            "verification.run_suites": (None, _count_checks),
        }
        for layer, names in ENTRY_POINTS.items():
            for name in names:
                label = f"{layer}.{name}"
                self._patch(modules[layer], name, layer, label,
                            *hooks.get(label, (None, None)))
        for cls in (integrators.Trajectory, thermal.ThermalTrajectory):
            self._patch(cls, "sample", "integrators",
                        f"integrators.{cls.__name__}.sample",
                        None, _count_samples)
        self._patch(thermal, "_drive", "integrators", "integrators._drive")
        for name in ("acceleration_field", "cumulative_quantum_integral"):
            # Bound by name into madelung; same code as thermal's.
            label = f"thermal.{name}"
            self._patch(madelung, name, "thermal", label,
                        *hooks.get(label, (None, None)))
        suites = verification._SUITES
        for name, fn in list(suites.items()):
            wrapper = self._wrap(fn, "verification",
                                 f"verification.suite.{name}", force=True)
            suites[name] = wrapper
            self._undo.append((suites.__setitem__, name, fn))

    def uninstall(self) -> None:
        while self._undo:
            setter, name, original = self._undo.pop()
            setter(name, original)

    def _patch(self, owner, attr, layer, label, pre=None, post=None):
        original = owner.__dict__[attr]
        setattr(owner, attr, self._wrap(original, layer, label, pre, post))
        self._undo.append((lambda n, v, o=owner: setattr(o, n, v), attr,
                           original))

    def _name_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def _thread(self) -> _ThreadSpans:
        with self._lock:
            spans = _ThreadSpans(len(self._threads), len(self.names))
            self._threads.append(spans)
        self._local.spans = spans
        return spans

    def _wrap(self, fn, layer, label, pre=None, post=None, force=False):
        nid = self._name_id(label)
        local, tracer, clock = self._local, self, time.perf_counter

        def wrapper(*args, **kwargs):
            try:
                spans = local.spans
            except AttributeError:
                spans = tracer._thread()
            spans.calls[nid] += 1
            layers = spans.layers
            state = pre(spans, args, kwargs) if pre else None
            if layers and layers[-1] == layer and not force:
                result = fn(*args, **kwargs)
            else:
                stack = spans.stack
                idx = len(spans.start)
                spans.name.append(nid)
                spans.parent.append(stack[-1] if stack else -1)
                spans.task.append(tracer.task)
                spans.end.append(0.0)
                stack.append(idx)
                layers.append(layer)
                spans.start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans.end[idx] = clock()
                    stack.pop()
                    layers.pop()
            if post:
                post(spans, args, kwargs, result, state)
            return result

        return wrapper

    def _run_hooks(self, rhs_label):
        """Counters of one integration run, plus the rhs cross-check.

        ``rhs_label`` names the wrapper every rhs evaluation of the run
        goes through; its call count over the run must equal the run's
        own ``n_rhs``.  ``None`` skips the check (first-order runs also
        call their rhs to fill the velocity column).
        """
        rhs_id = None if rhs_label is None else self._name_id(rhs_label)
        tracer = self

        def pre(spans, args, kwargs):
            return None if rhs_id is None else spans.calls[rhs_id]

        def post(spans, args, kwargs, result, before):
            traj = result[0]
            seen = None if before is None else spans.calls[rhs_id] - before
            variant = args[0] if args else kwargs.get("variant")
            if getattr(variant, "value", "") == "radiative-naive":
                seen = None  # its rhs is models.radiative_jerk
            spans.runs.append((tracer.task, tracer.kind,
                               int(traj.n_accepted), int(traj.n_rejected),
                               int(traj.n_rhs), seen))

        return pre, post

    # ------------------------------------------------------------ results

    def rhs_mismatches(self, task: int) -> list:
        """Runs of ``task`` whose rhs wrapper count differs from n_rhs."""
        return [run for spans in self._threads for run in spans.runs
                if run[0] == task and run[5] is not None and run[5] != run[4]]

    def table(self) -> dict:
        """All spans of all threads as flat numpy arrays."""
        threads = list(self._threads)
        offsets = np.cumsum([0] + [len(t.start) for t in threads])
        parent = [np.frombuffer(t.parent, dtype=np.int64) for t in threads]
        parent = [np.where(p >= 0, p + off, -1)
                  for p, off in zip(parent, offsets)]

        def cat(attr, dtype):
            parts = [np.frombuffer(getattr(t, attr), dtype=dtype)
                     for t in threads]
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        return {
            "name": cat("name", np.int32),
            "parent": (np.concatenate(parent) if parent
                       else np.zeros(0, np.int64)),
            "task": cat("task", np.int64),
            "start": cat("start", np.float64),
            "end": cat("end", np.float64),
            "thread": np.concatenate(
                [np.full(len(t.start), t.index, np.int32) for t in threads])
            if threads else np.zeros(0, np.int32),
        }

    def calls(self) -> dict:
        total = [0] * len(self.names)
        for spans in self._threads:
            for i, n in enumerate(spans.calls):
                total[i] += n
        return dict(zip(self.names, total))

    def extra(self) -> dict:
        total = {}
        for spans in self._threads:
            for key, value in spans.extra.items():
                total[key] = total.get(key, 0) + value
        return total

    def runs(self) -> list:
        return [run for spans in self._threads for run in spans.runs]


def _count_samples(spans, args, kwargs, result, state):
    spans.add("sample_points", int(result.shape[0]))


def _count_field_nodes(spans, args, kwargs, result, state):
    spans.add("field_nodes", int(result.shape[0]))


def _count_csv_written(spans, args, kwargs, result, state):
    path = args[0] if args else kwargs["path"]
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    spans.add("csv_rows_written", len(rows))
    spans.add("csv_bytes_written", os.path.getsize(path))


def _count_csv_read(spans, args, kwargs, result, state):
    spans.add("csv_rows_read", int(result[1].shape[0]))


def _count_checks(spans, args, kwargs, result, state):
    spans.add("checks", len(result.results))
    spans.add("checks_failed", sum(not r.passed for r in result.results))


# ---------------------------------------------------------------- analysis

def self_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Span duration minus the durations of its direct child spans.

    Children share their parent's thread and run inside it one at a
    time, so their durations add up to the part of the parent's
    interval they cover.
    """
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def union_length(start: np.ndarray, end: np.ndarray) -> float:
    """Length of the union of intervals, e.g. spans on several threads."""
    total, reach = 0.0, -np.inf
    for s, e in sorted(zip(start.tolist(), end.tolist())):
        if e <= reach:
            continue
        total += e - max(s, reach)
        reach = e
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times of one traced pass."""
    t = tracer.table()
    names = tracer.names
    own = self_times(t["parent"], t["start"], t["end"])
    dur = t["end"] - t["start"]
    n = len(names)
    self_by = np.bincount(t["name"], weights=own, minlength=n)
    dur_by = np.bincount(t["name"], weights=dur, minlength=n)
    spans_by = np.bincount(t["name"], minlength=n)
    ids = {name: i for i, name in enumerate(names)}
    calls = tracer.calls()
    extra = tracer.extra()
    runs = tracer.runs()

    def self_of(labels):
        return float(sum(self_by[ids[x]] for x in labels if x in ids))

    def dur_of(labels):
        return float(sum(dur_by[ids[x]] for x in labels if x in ids))

    def layer_self(layer):
        return self_of([x for x in names if x.split(".")[0] == layer])

    def layer_spans(layer):
        return int(sum(spans_by[ids[x]] for x in names
                       if x.split(".")[0] == layer))

    accepted = sum(r[2] for r in runs)
    rejected = sum(r[3] for r in runs)
    rhs = sum(r[4] for r in runs)
    steps = accepted + rejected
    rhs_calls = sum(calls.get(x, 0) for x in RHS_ENTRIES)
    field_calls = calls.get("thermal.acceleration_field", 0)
    samples = extra.get("sample_points", 0)
    rows_w = extra.get("csv_rows_written", 0)
    rows_r = extra.get("csv_rows_read", 0)
    integ = np.isin(t["name"], [ids[x] for x in names
                                if x.startswith("integrators.")])
    m = {
        "models.rhs_calls": rhs_calls,
        "models.self_s": layer_self("models"),
        "models.us_per_rhs": 1e6 * _ratio(self_of(RHS_ENTRIES), rhs_calls),
        "integrators.self_s": layer_self("integrators"),
        "integrators.self_us_per_step":
            1e6 * _ratio(self_of(LOOP_SPANS), steps),
        "integrators.us_per_step": 1e6 * _ratio(dur_of(LOOP_SPANS), steps),
        "integrators.busy_s": union_length(t["start"][integ],
                                           t["end"][integ]),
        "integrators.accepted_steps": accepted,
        "integrators.rejected_steps": rejected,
        "integrators.accept_ratio": _ratio(accepted, steps),
        "integrators.rhs_calls": rhs,
        "integrators.rhs_per_step": _ratio(rhs, accepted),
        "integrators.runs": len(runs),
        "integrators.sample_points": samples,
        "integrators.us_per_sample":
            1e6 * _ratio(self_of(SAMPLE_SPANS), samples),
        "thermal.field_rhs_calls": field_calls,
        "thermal.self_s": layer_self("thermal"),
        "thermal.us_per_field_rhs":
            1e6 * _ratio(self_of(["thermal.acceleration_field"]),
                         field_calls),
        "thermal.field_size": _ratio(extra.get("field_nodes", 0),
                                     field_calls),
        "analytic.oracle_calls": layer_spans("analytic"),
        "analytic.us_per_oracle": 1e6 * _ratio(layer_self("analytic"),
                                               layer_spans("analytic")),
        "madelung.calls": layer_spans("madelung"),
        "madelung.self_s": layer_self("madelung"),
        "verification.checks": extra.get("checks", 0),
        "verification.checks_failed": extra.get("checks_failed", 0),
        "verification.self_s": layer_self("verification"),
        "output.csv_rows_written": rows_w,
        "output.csv_bytes_written": extra.get("csv_bytes_written", 0),
        "output.us_per_csv_row":
            1e6 * _ratio(self_of(["output.write_csv"]), rows_w),
        "output.csv_rows_read": rows_r,
        "output.us_per_read_row":
            1e6 * _ratio(self_of(["output.read_csv"]), rows_r),
        "output.svg_s": dur_of(["output.polyline_chart"]),
        "output.json_s": dur_of(["output.write_json"]),
        "cli.commands": calls.get("cli.main", 0),
        "cli.self_s": layer_self("cli"),
    }
    for label in names:
        if label.startswith("verification.suite."):
            suite = label[len("verification.suite."):]
            m[f"verification.suite_s.{suite}"] = dur_of([label])
    return m


COUNT_METRICS = (
    "models.rhs_calls", "integrators.accepted_steps",
    "integrators.rejected_steps", "integrators.rhs_calls",
    "integrators.runs", "integrators.sample_points",
    "thermal.field_rhs_calls", "analytic.oracle_calls", "madelung.calls",
    "verification.checks", "verification.checks_failed",
    "output.csv_rows_written", "output.csv_bytes_written",
    "output.csv_rows_read", "cli.commands",
)
