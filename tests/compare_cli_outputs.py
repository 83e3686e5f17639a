"""Check that two source trees write byte-identical CLI output files.

Runs a fixed config set (simulate for all seven width models, one of
them with an SVG chart, the dissipative model at friction 20 and the
overdamped dissipative model on TR-BDF2, a conservative run stopped by
``max_steps``, a conservative run with rejected steps, one at width
1e150 whose every rhs call overflows on Python floats and is retried on
numpy scalars, and a tight conservative run of about 12,500 steps over
[0, 20 pi] sampled 20,001 times, thermal for the integral form on both
schemes, the explicit one with a chart, and the slope form on TR-BDF2
(also as a stiff 71-node hold at equilibrium, whose step sizes follow
rounding, as a stiff 41-node run on [0.3, 4.1], a grid where the
slope stencil's edge entries depend on how 1 / (2 delta) is rounded,
and as a 201-node run on that range at friction 20)
and, without params, at zero temperature, equilibrium, a
simulate sweep at ``--jobs 1`` and ``--jobs 4``, ``plot`` of the
explicit thermal CSV, and ``verify`` of six suites) once against each
tree, each in a fresh interpreter, and compares every CSV, SVG,
``summary.json`` and ``verify_report.json`` byte for byte. For a CSV
that differs it prints how many data rows differ and the largest
absolute and relative cell difference, for an SVG how many lines differ.
For every ``summary.json`` that has run counters (accepted and rejected
steps, rhs evaluations, stop reasons) it prints whether they match, and,
for one that differs, each other key whose value differs with its old
and new value. For a ``verify_report.json`` it prints each check whose
entry differs with the keys that differ, old and new value (``absent``
for a missing key).

Usage::

    python3 tests/compare_cli_outputs.py OLD_SRC NEW_SRC [WORK_DIR]

``OLD_SRC`` and ``NEW_SRC`` are directories that contain the
``ermakov`` package (for example a checkout's ``src``).  Exits 0 when
every file matches and 1 otherwise, naming each file that differs.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = {
    "conservative": ("simulate", {
        "model": "conservative",
        "initial": {"sigma": 1.3, "sigma_dot": 0.4},
        "t_span": [0.0, 12.0],
        "samples": 301,
        "output": {"svg": "trajectory.svg"},
    }),
    "dissipative": ("simulate", {
        "model": "dissipative",
        "params": {"natural": {"friction": 0.5}},
        "initial": {"sigma": 2.0},
        "t_span": [0.0, 10.0],
        "samples": 201,
    }),
    "overdamped-dissipative": ("simulate", {
        "model": "overdamped-dissipative",
        "params": {"b": 10.0},
        "initial": {"sigma": 0.3},
        "t_span": [0.0, 3.0],
        "samples": 157,
    }),
    "high-temperature": ("simulate", {
        "model": "high-temperature",
        "params": {"natural": {"friction": 0.4, "temperature": 0.5}},
        "initial": {"sigma": 1.1, "sigma_dot": -0.2},
        "t_span": [0.0, 10.0],
        "samples": 201,
    }),
    "radiative-reduced": ("simulate", {
        "model": "radiative-reduced",
        "params": {"natural": {"radiation": 0.05}},
        "initial": {"sigma": 0.8, "sigma_dot": 0.3},
        "t_span": [0.0, 10.0],
        "samples": 201,
    }),
    "overdamped-high-temperature": ("simulate", {
        "model": "overdamped-high-temperature",
        "params": {"b": 5.0, "beta": 2.0},
        "initial": {"sigma": 0.5},
        "t_span": [0.0, 3.0],
        "samples": 157,
    }),
    "radiative-naive": ("simulate", {
        "model": "radiative-naive",
        "params": {"natural": {"radiation": 0.01}},
        "initial": {"sigma": 1.0, "sigma_dot": 0.1},
        "t_span": [0.0, 2.0],
        "samples": 101,
    }),
    # The width models on TR-BDF2: strong friction, and the first-order
    # model.
    "dissipative-implicit": ("simulate", {
        "model": "dissipative",
        "params": {"natural": {"friction": 20.0}},
        "initial": {"sigma": 1.3, "sigma_dot": 0.4},
        "t_span": [0.0, 3.0],
        "samples": 151,
        "integrator": {"scheme": "implicit-a-stable", "rel_tol": 1e-7},
    }),
    "overdamped-implicit": ("simulate", {
        "model": "overdamped-dissipative",
        "params": {"b": 10.0},
        "initial": {"sigma": 0.3},
        "t_span": [0.0, 3.0],
        "samples": 157,
        "integrator": {"scheme": "implicit-a-stable", "rel_tol": 1e-7},
    }),
    "thermal-integral-explicit": ("thermal", {
        "variant": "integral-form",
        "params": {"natural": {"temperature": 1.0}},
        "grid": {"beta_min": 0.5, "beta_max": 4.0, "beta_count": 21},
        "profile": {"kind": "scaled-coth", "factor": 1.05},
        "t_span": [0.0, 3.0],
        "samples": 31,
        "output": {"svg": "thermal.svg"},
    }),
    "thermal-slope-implicit": ("thermal", {
        "variant": "beta-derivative",
        "params": {"natural": {"friction": 20.0, "temperature": 1.0}},
        "grid": {"beta_min": 0.8, "beta_max": 2.4, "beta_count": 15},
        "profile": {"kind": "constant", "value": 0.9},
        "t_span": [0.0, 2.0],
        "samples": 41,
        "integrator": {"scheme": "implicit-a-stable", "rel_tol": 1e-8},
    }),
    "thermal-integral-implicit": ("thermal", {
        "variant": "integral-form",
        "params": {"natural": {"friction": 10.0, "temperature": 1.0}},
        "grid": {"beta_min": 0.5, "beta_max": 4.0, "beta_count": 21},
        "profile": {"kind": "scaled-coth", "factor": 1.2},
        "t_span": [0.0, 4.0],
        "samples": 41,
        "integrator": {"scheme": "implicit-a-stable", "rel_tol": 1e-8},
    }),
    # A stiff hold at equilibrium: its error estimate is rounding noise,
    # so any change in rounding re-times its steps and shows here.
    "thermal-slope-hold": ("thermal", {
        "variant": "beta-derivative",
        "params": {"natural": {"friction": 80.0, "temperature": 1.0}},
        "grid": {"beta_min": 0.5, "beta_max": 4.0, "beta_count": 71},
        "profile": {"kind": "scaled-coth", "factor": 1.0},
        "t_span": [0.0, 10.0],
        "samples": 201,
        "integrator": {"scheme": "implicit-a-stable", "rel_tol": 1e-9,
                       "abs_tol": 1e-12},
    }),
    # A stiff slope-form run on a grid whose derived edge stencil
    # entries, c / (2 delta), differ by an ulp from c * (1 / (2 delta)).
    "thermal-slope-ulp-grid": ("thermal", {
        "variant": "beta-derivative",
        "params": {"natural": {"friction": 80.0, "temperature": 1.0}},
        "grid": {"beta_min": 0.3, "beta_max": 4.1, "beta_count": 41},
        "profile": {"kind": "scaled-coth", "factor": 1.05},
        "t_span": [0.0, 5.0],
        "samples": 101,
        "integrator": {"scheme": "implicit-a-stable", "rel_tol": 1e-8},
    }),
    # A 201-node slope-form run at friction 20: the stencil factorisation
    # well beyond the 71-node hold.
    "thermal-slope-201": ("thermal", {
        "variant": "beta-derivative",
        "params": {"natural": {"friction": 20.0, "temperature": 1.0}},
        "grid": {"beta_min": 0.3, "beta_max": 4.1, "beta_count": 201},
        "profile": {"kind": "scaled-coth", "factor": 1.1},
        "t_span": [0.0, 0.5],
        "samples": 6,
        "integrator": {"scheme": "implicit-a-stable", "rel_tol": 1e-6},
    }),
    # No params: the zero-temperature default, which the grid overrides.
    "thermal-zero-temperature": ("thermal", {
        "variant": "beta-derivative",
        "grid": {"beta_min": 0.5, "beta_max": 3.0, "beta_count": 11},
        "profile": {"kind": "scaled-coth", "factor": 1.1},
        "t_span": [0.0, 2.0],
        "samples": 21,
    }),
    # Stops at its step budget, exit 2.
    "max-steps": ("simulate", {
        "model": "conservative",
        "initial": {"sigma": 1.3, "sigma_dot": 0.4},
        "t_span": [0.0, 100.0],
        "samples": 51,
        "integrator": {"max_steps": 50},
    }),
    # Rejected steps on the two-float kernel.
    "conservative-rejections": ("simulate", {
        "model": "conservative",
        "initial": {"sigma": 0.2, "sigma_dot": 3.0},
        "t_span": [0.0, 10.0],
        "samples": 201,
        "integrator": {"rel_tol": 1e-4, "abs_tol": 1e-6},
    }),
    # sigma^3 overflows on Python floats: every rhs call is retried on
    # numpy scalars.
    "conservative-huge-width": ("simulate", {
        "model": "conservative",
        "initial": {"sigma": 1e150, "sigma_dot": 0.0},
        "t_span": [0.0, 1.0],
        "samples": 51,
    }),
    # About 12,500 tight steps, every one's dense rows sampled.
    "conservative-long-tight": ("simulate", {
        "model": "conservative",
        "initial": {"sigma": 1.3, "sigma_dot": 0.4},
        "t_span": [0.0, 20.0 * math.pi],
        "samples": 20001,
        "integrator": {"rel_tol": 1e-12, "abs_tol": 1e-15},
    }),
    "equilibrium": ("equilibrium", {
        "params": {"beta": 2.0, "omega0": 1.5, "m": 0.8},
    }),
}

SWEEP = {
    "task": "simulate",
    "model": "dissipative",
    "params": {"natural": {"friction": 0.3}},
    "initial": {"sigma": 1.5},
    "t_span": [0.0, 4.0],
    "samples": 41,
    "sweep": {"params.natural.friction": [0.1, 0.5, 1.0],
              "initial.sigma": [0.8, 1.5]},
}

VERIFY_SUITES = ["free-particle", "energy", "thermal-limits", "madelung",
                 "radiative", "pinney"]
# Summary keys that count what a run did, as opposed to the floats it
# ended with.
_COUNTERS = ("steps_accepted", "steps_rejected", "rhs_evaluations",
             "stop_reason", "stop_reasons")

_RUNNER = ("import sys\n"
           "from ermakov.cli import main\n"
           "sys.exit(main(sys.argv[1:]))\n")


def _commands(cfg_dir: Path):
    """(label, argv) for every run, writing the configs into cfg_dir."""
    cmds = []
    for name, (command, payload) in CONFIGS.items():
        path = cfg_dir / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        cmds.append((name, [command, "--config", str(path)]))
    path = cfg_dir / "sweep.json"
    path.write_text(json.dumps(SWEEP), encoding="utf-8")
    for jobs in ("1", "4"):
        cmds.append((f"sweep-jobs{jobs}",
                     ["sweep", "--config", str(path), "--jobs", jobs]))
    # "{out}" stands for the tree's output root, known only at run time.
    cmds.append(("plot-thermal", [
        "plot", "{out}/thermal-integral-explicit/thermal.csv"]))
    cmds.append(("verify", ["verify", *VERIFY_SUITES]))
    return cmds


def _run_tree(src: Path, cmds, out_root: Path) -> dict:
    """Run every command against one tree; returns label -> exit code."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    codes = {}
    for label, argv in cmds:
        out = out_root / label
        out.mkdir(parents=True)
        argv = [arg.replace("{out}", str(out_root)) for arg in argv]
        proc = subprocess.run(
            [sys.executable, "-c", _RUNNER] + argv
            + ["--out", str(out), "--quiet"],
            env=env, capture_output=True, text=True)
        codes[label] = proc.returncode
    return codes


def _csv_cells(data: bytes) -> list:
    return [line.split(",") for line in data.decode("ascii").splitlines()]


def _describe_csv(a: bytes, b: bytes) -> str:
    """Differing data rows and the largest cell differences of two CSVs."""
    old, new = _csv_cells(a), _csv_cells(b)
    if old[:1] != new[:1] or len(old) != len(new):
        return (f"header or row count differs: {len(old) - 1} -> "
                f"{len(new) - 1} data rows")
    rows, abs_max, rel_max = 0, 0.0, 0.0
    for row_a, row_b in zip(old[1:], new[1:]):
        if row_a == row_b:
            continue
        rows += 1
        for x, y in zip(map(float, row_a), map(float, row_b)):
            if x == y:
                continue
            diff = abs(x - y)
            abs_max = max(abs_max, diff)
            rel_max = max(rel_max, diff / max(abs(x), abs(y)))
    return (f"{rows} of {len(old) - 1} data rows differ, max abs "
            f"{abs_max:.3e}, max rel {rel_max:.3e}")


def _counters(a: bytes, b: bytes) -> str:
    """Whether the run counters of two summaries match."""
    old, new = json.loads(a), json.loads(b)
    keys = [k for k in _COUNTERS if k in old or k in new]
    if not keys:
        return "no counters"
    moved = [f"{k} ({old.get(k, 'absent')!r} -> {new.get(k, 'absent')!r})"
             for k in keys if old.get(k) != new.get(k)]
    if moved:
        return "counters DIFF: " + ", ".join(moved)
    return "counters same: " + ", ".join(keys)


def _describe_summary(a: bytes, b: bytes) -> str:
    """Keys other than the counters whose values differ."""
    old, new = json.loads(a), json.loads(b)
    keys = sorted(k for k in set(old) | set(new)
                  if k not in _COUNTERS and old.get(k) != new.get(k))
    return "other keys differ: " + ", ".join(
        f"{k} ({old.get(k, 'absent')!r} -> {new.get(k, 'absent')!r})"
        for k in keys)


def _describe_report(a: bytes, b: bytes) -> str:
    """Each check whose entry differs between two verify reports."""
    old, new = json.loads(a), json.loads(b)
    lines = []
    if old["passed"] != new["passed"]:
        lines.append(f"passed: {old['passed']} -> {new['passed']}")
    old_checks = {c["name"]: c for c in old["checks"]}
    new_checks = {c["name"]: c for c in new["checks"]}
    for name in sorted(set(old_checks) | set(new_checks)):
        x, y = old_checks.get(name), new_checks.get(name)
        if x is None or y is None:
            lines.append(f"{name}: only in the {'new' if x is None else 'old'}"
                         f" report")
            continue
        diffs = [f"{key} ({x.get(key, 'absent')!r} -> "
                 f"{y.get(key, 'absent')!r})"
                 for key in sorted(set(x) | set(y))
                 if key not in x or key not in y or x[key] != y[key]]
        if diffs:
            lines.append(f"{name}: " + ", ".join(diffs))
    return "\n    ".join(lines)


def _describe_svg(a: bytes, b: bytes) -> str:
    """How many lines of two charts differ."""
    old, new = a.splitlines(), b.splitlines()
    moved = sum(x != y for x, y in zip(old, new))
    return (f"{moved} of {len(old)} lines differ"
            + (f", {len(old)} -> {len(new)} lines" if len(old) != len(new)
               else ""))


def _describe(rel: Path, a: bytes, b: bytes) -> str:
    if rel.suffix == ".csv":
        return _describe_csv(a, b)
    if rel.suffix == ".svg":
        return _describe_svg(a, b)
    if rel.name == "verify_report.json":
        return _describe_report(a, b)
    return _describe_summary(a, b)


def compare(old_src: Path, new_src: Path, work: Path) -> int:
    cfg_dir = work / "configs"
    cfg_dir.mkdir(parents=True)
    cmds = _commands(cfg_dir)
    old_codes = _run_tree(old_src, cmds, work / "old")
    new_codes = _run_tree(new_src, cmds, work / "new")
    bad = 0
    for label, _ in cmds:
        files = sorted(p.relative_to(work / "old" / label)
                       for p in (work / "old" / label).rglob("*")
                       if p.is_file())
        if old_codes[label] != new_codes[label]:
            print(f"DIFF {label}: exit {old_codes[label]} -> "
                  f"{new_codes[label]}")
            bad += 1
        for rel in files:
            a = (work / "old" / label / rel).read_bytes()
            b_path = work / "new" / label / rel
            same = b_path.is_file() and b_path.read_bytes() == a
            print(f"{'same' if same else 'DIFF'} {label}/{rel} "
                  f"({len(a)} bytes)")
            if b_path.is_file() and rel.name == "summary.json":
                print(f"    {_counters(a, b_path.read_bytes())}")
            if not same and b_path.is_file():
                print(f"    {_describe(rel, a, b_path.read_bytes())}")
            bad += not same
    print(f"{len(cmds)} runs, {bad} differences")
    return 0 if bad == 0 else 1


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    old_src, new_src = Path(argv[0]), Path(argv[1])
    if len(argv) == 3:
        work = Path(argv[2])
        work.mkdir(parents=True, exist_ok=False)
        return compare(old_src, new_src, work)
    with tempfile.TemporaryDirectory() as tmp:
        return compare(old_src, new_src, Path(tmp))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
