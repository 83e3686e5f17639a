"""Correctness gates of the benchmark workloads.

Each gate returns ``None`` when the output is right and a one-line
reason when it is not.  A task with any reason is a failed task: it
counts in ``failed`` and never as a fast result.  The bounds are the
ones the verification suites hold the same computations to.
"""

import hashlib

import numpy as np

ORACLE_BOUND = 1e-8          # pinney suite: relative width error, rtol 1e-12
ENERGY_RISE_BOUND = 1e-10    # energy suite: largest rise between nodes
HOLD_DRIFT_BOUND = 3.5e-2    # thermal suite: 5 x slope-form defect bound
RELAX_BOUND = 7e-3           # thermal suite: distance to the coth profile
LOOSE_ORACLE_BOUND = 1e-4    # 100 x rtol of the CLI runs (1e-6, 20 time
                             # units); they measure at most 8e-6


def stop_reason(reason) -> str | None:
    if reason.value != "completed":
        return f"stopped early: {reason.value}"
    return None


def oracle(got: np.ndarray, ref: np.ndarray, bound: float) -> str | None:
    """Largest relative deviation of ``got`` from the closed form."""
    err = float(np.max(np.abs(got - ref) / np.abs(ref)))
    if not err <= bound:
        return f"oracle error {err:.3e} > {bound:.1e}"
    return None


def energies(states: np.ndarray, m: float, omega0: float,
             hbar: float) -> np.ndarray:
    """Width-equation first integral at each (sigma, sigma_dot) row."""
    s, sd = states[:, 0], states[:, 1]
    return (0.5 * m * sd ** 2 + 0.5 * m * omega0 ** 2 * s ** 2
            + hbar ** 2 / (8.0 * m * s ** 2))


def energy_nonincreasing(energy: np.ndarray) -> str | None:
    rise = float(np.max(np.diff(energy)) / abs(energy[0]))
    if not rise <= ENERGY_RISE_BOUND:
        return f"energy rises by {rise:.3e} > {ENERGY_RISE_BOUND:.1e}"
    return None


def hold_drift(sigma: np.ndarray, sigma0: np.ndarray) -> str | None:
    """Peak node drift of a held equilibrium field over the run."""
    drift = float(np.max(np.abs(sigma - sigma0[None, :])))
    if not drift <= HOLD_DRIFT_BOUND:
        return f"hold drift {drift:.3e} > {HOLD_DRIFT_BOUND:.1e}"
    return None


def relaxation(sigma_end: np.ndarray, target: np.ndarray) -> str | None:
    dist = float(np.max(np.abs(sigma_end / target - 1.0)))
    if not dist <= RELAX_BOUND:
        return f"relaxation distance {dist:.3e} > {RELAX_BOUND:.1e}"
    return None


def exit_code(code) -> str | None:
    if code != 0:
        return f"exit code {code}"
    return None


def count(what: str, got: int, expected: int) -> str | None:
    if got != expected:
        return f"{got} {what}, expected {expected}"
    return None


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def identical(name: str, data: bytes, reference: dict) -> str | None:
    """Bytes of ``name`` equal the first bytes seen under that name."""
    value = digest(data)
    if value != reference.setdefault(name, value):
        return f"{name} bytes differ from the first iteration"
    return None


def report_passed(report: dict) -> str | None:
    if report.get("passed") is not True:
        failed = [c["name"] for c in report.get("checks", [])
                  if not c.get("passed")]
        return f"verify report failed: {', '.join(failed) or 'no checks'}"
    return None


def rhs_crosscheck(runs: list) -> str | None:
    """Runs whose rhs wrapper count differs from their own n_rhs.

    ``runs`` holds (task, kind, accepted, rejected, n_rhs, seen) rows.
    """
    if runs:
        _, kind, _, _, n_rhs, seen = runs[0]
        return (f"{len(runs)} run(s) with rhs calls != n_rhs "
                f"(first: {kind}, {seen} calls, n_rhs {n_rhs})")
    return None
