"""CLI contract fuzz: any config ends in exit code 0-3, never a traceback.

Draws ``simulate``, ``thermal``, ``equilibrium`` and ``sweep`` configs
over every model and variant, both schemes, extreme finite floats,
wrong types, missing and unknown keys.  Runs stay small: at most 500
accepted steps, 11 grid nodes and 50 samples, four sweep points.
"""

import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ermakov import cli
from ermakov.models import ModelVariant
from ermakov.thermal import ThermalVariant

_EXTREMES = (0.0, -0.0, 5e-324, 1e-308, 1e-300, 1e-150, 1e150, 1e300,
             1e308, -1e308, sys.float_info.max, -sys.float_info.max,
             10**400, -10**400)
_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from(_EXTREMES), st.integers(-3, 3))
_WRONG = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                   st.lists(st.integers(0, 3), max_size=3), st.just({}))


# Per config, the percent of slots that draw a rare value: ``_ODD`` for
# wrong types and broken structure, ``_EXTREME`` for any finite number in
# a numeric slot.  A config with neither reaches the integrators intact.
_ODD = st.shared(st.sampled_from([0, 3, 15]), key="odd-percent")
_EXTREME = st.shared(st.sampled_from([0, 10, 40]), key="extreme-percent")


def _either(percent, usual, rare):
    return st.tuples(percent, st.integers(0, 99)).flatmap(
        lambda draw: rare if draw[1] < draw[0] else usual)


def _mostly(typical, odd):
    """``typical``, or ``odd`` in a config's share of the draws."""
    return _either(_ODD, typical, odd)


def _pick(typical):
    """A typical number, any finite number, or a value of the wrong type."""
    return _mostly(_either(_EXTREME, typical, _NUMBERS), _WRONG)


def _section(required, optional):
    """A JSON object whose optional keys may be absent, now and then with
    an unknown key."""
    obj = st.fixed_dictionaries(required, optional=optional)
    return _mostly(obj, obj.map(lambda d: {**d, "unknown_key": 1}))


def _positive(lo=0.05, hi=5.0):
    return _pick(st.floats(lo, hi))


_PLAIN_PARAMS = _section({}, {
    "m": _positive(0.5, 2.0), "omega0": _positive(0.0, 3.0),
    "hbar": _positive(0.5, 2.0), "b": _positive(0.0, 50.0),
    "beta": _mostly(_positive(0.1, 10.0), st.just("zero-temperature")),
    "k_B": _positive(0.5, 2.0), "r": _positive(0.0, 0.1)})
_NATURAL_PARAMS = _section({"natural": _section({}, {
    "friction": _positive(0.0, 50.0), "temperature": _positive(0.0, 5.0),
    "radiation": _positive(0.0, 0.1)})}, {})
_PARAMS = _mostly(st.one_of(_PLAIN_PARAMS, _NATURAL_PARAMS), _WRONG)

_INTEGRATOR = _mostly(_section(
    {"max_steps": _mostly(st.integers(1, 500), st.one_of(
        st.integers(-1, 0), _WRONG))},
    {"scheme": _mostly(st.sampled_from(["explicit-adaptive",
                                        "implicit-a-stable"]), _WRONG),
     "rel_tol": _positive(1e-10, 1e-3), "abs_tol": _positive(1e-13, 1e-6),
     "h_init": _positive(1e-6, 0.5), "h_min": _positive(1e-14, 1e-6),
     "h_max": _positive(0.01, 10.0), "sigma_min_guard": _positive(0.0, 0.01),
     "runaway_ratio": _positive(1.5, 1e6)}),
    # null would mean the defaults, up to 100,000 steps
    _WRONG.filter(lambda value: value is not None))

_SPAN = _mostly(st.tuples(st.floats(0.0, 1.0), st.floats(0.01, 3.0)).map(
    lambda start_length: [start_length[0], sum(start_length)]),
    st.one_of(st.lists(_NUMBERS, max_size=3), _WRONG))
_SAMPLES = _mostly(st.integers(2, 50), st.one_of(st.integers(-1, 1),
                                                 _WRONG))
# Names only: a drawn path must never leave the output directory.
_OUTPUT = _section({}, {"csv": st.sampled_from(["a.csv", "sub/b.csv", ""]),
                        "svg": st.sampled_from(["c.svg", 3]),
                        "summary": st.sampled_from(["s.json", None])})

_SIMULATE = _section(
    {"model": _mostly(st.sampled_from([v.value for v in ModelVariant]),
                      _WRONG),
     "initial": _mostly(_section({"sigma": _positive()}, {
         "sigma_dot": _pick(st.floats(-3.0, 3.0))}), st.one_of(
         # sigma_ddot belongs to radiative-naive alone
         _section({"sigma": _positive(), "sigma_dot": _positive(),
                   "sigma_ddot": _pick(st.floats(-3.0, 3.0))}, {}),
         _WRONG)),
     "t_span": _SPAN, "integrator": _INTEGRATOR},
    {"params": _PARAMS, "samples": _SAMPLES, "output": _OUTPUT})

_PROFILE = _mostly(st.one_of(
    _section({"kind": st.just("coth")}, {}),
    _section({"kind": st.just("scaled-coth")},
             {"factor": _positive(0.5, 1.5)}),
    _section({"kind": st.just("constant")}, {"value": _positive(0.3, 2.0)})),
    st.one_of(_section({"kind": st.just("file")},
                       {"path": st.sampled_from(["no-such-profile.txt",
                                                 7])}),
              _section({"kind": st.sampled_from(["bogus", 1])}, {}),
              _WRONG))

_THERMAL = _section(
    {"variant": _mostly(st.sampled_from([v.value for v in ThermalVariant]),
                        _WRONG),
     "grid": _mostly(_section({
         "beta_min": _positive(0.1, 1.0), "beta_max": _positive(1.0, 4.0),
         "beta_count": _mostly(st.integers(5, 11), st.one_of(
             st.integers(-1, 4), _WRONG))}, {}), _WRONG),
     "t_span": _SPAN, "integrator": _INTEGRATOR},
    {"params": _PARAMS, "profile": _PROFILE, "samples": _SAMPLES,
     "output": _OUTPUT})

_EQUILIBRIUM = _section({"params": _mostly(_section(
    {"beta": _positive(0.1, 10.0), "omega0": _positive(0.1, 3.0)},
    {"m": _positive(0.5, 2.0), "hbar": _positive(0.5, 2.0)}), _PARAMS)},
    {"output": _OUTPUT})

# Paths each task's config takes, then paths that break it.
_SWEEP_PATHS = {
    "simulate": ("initial.sigma", "initial.sigma_dot", "params.b",
                 "params.omega0"),
    "thermal": ("grid.beta_min", "grid.beta_max", "params.b",
                "params.omega0"),
    "equilibrium": ("params.beta", "params.omega0", "params.m"),
}
_BAD_SWEEP_PATHS = ("samples", "grid.beta_count", "t_span", "params",
                    "initial.sigma.x", "no.such.key")


@st.composite
def _sweep(draw):
    task, base = draw(st.one_of(
        st.tuples(st.just("simulate"), _SIMULATE),
        st.tuples(st.just("thermal"), _THERMAL),
        st.tuples(st.just("equilibrium"), _EQUILIBRIUM)))
    paths = _mostly(st.sampled_from(_SWEEP_PATHS[task]),
                    st.sampled_from(_BAD_SWEEP_PATHS))
    values = _mostly(st.lists(_pick(st.floats(0.1, 3.0)), min_size=1,
                              max_size=2),
                     st.one_of(st.just([]), _WRONG))
    swept = draw(_mostly(
        st.dictionaries(paths, values, min_size=1, max_size=2),
        st.one_of(st.dictionaries(paths, values, min_size=3, max_size=3),
                  _WRONG)))
    return {**base, "task": draw(_mostly(st.just(task), _WRONG)),
            "sweep": swept}


_CONFIGS = st.one_of(
    st.tuples(st.just("simulate"), _SIMULATE),
    st.tuples(st.just("thermal"), _THERMAL),
    st.tuples(st.just("equilibrium"), _EQUILIBRIUM),
    st.tuples(st.just("sweep"), _sweep()))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_CONFIGS)
@example(case=("simulate", {
    "model": "overdamped-dissipative", "params": {"b": 1},
    "initial": {"sigma": 1e308}, "t_span": [0, 1]}))
@example(case=("equilibrium", {
    "params": {"beta": 1e300, "omega0": 1e300}}))
@example(case=("equilibrium", {"params": {"beta": 5e-324}}))
@example(case=("simulate", {
    "model": [1], "initial": {"sigma": 1.0}, "t_span": [0, 1]}))
@example(case=("thermal", {
    "variant": {}, "grid": {"beta_min": 0.5, "beta_max": 2.0,
                            "beta_count": 5}, "t_span": [0, 1]}))
@example(case=("simulate", {
    "model": "conservative", "initial": {"sigma": 1.0}, "t_span": [0, 1],
    "integrator": {"scheme": [0]}}))
@example(case=("simulate", {
    "model": "conservative", "initial": {"sigma": 10**400},
    "t_span": [0, 1]}))
def test_cli_ends_in_an_exit_code(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            rc = cli.main([command, "--config", str(path), "--out", tmp,
                           "--quiet"])
    assert rc in (0, 1, 2, 3)
