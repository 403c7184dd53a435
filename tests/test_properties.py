"""Property tests: the plant step, the estimator's trimmed history, angle
wrapping, float parsing, the settings' shape and finite check, whole configs,
the log's time lookup and held runs, and the CSV number text."""

import contextlib
import copy
import io
import math
import pickle
import random
from dataclasses import fields, replace
from enum import Enum, EnumMeta
from typing import get_args, get_origin
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (Plant, TravelEstimatorReference, cap_scenarios,
                     rk4_step_reference, run_mission_reference, run_starts,
                     within_ulps, wrap_to_pi_formula)
from paddlesim.cli import _SECTIONS, main, parse_scenario
from paddlesim.control import (_WRAP_EPS, ControllerConfig, ControlMode,
                               desaturate_reference, wrap_to_pi)
from paddlesim.csvtext import csv_rows
from paddlesim.dynamics import INNER_DT, BoatParams, ConfigError, rk4_step
from paddlesim.estimation import _COMPACT_EVERY, TravelEstimator
from paddlesim.mission import (_HELD_AT, _HELD_END, _OUTER_GAPS, HELD_COLUMNS,
                               STORED_COLUMNS, TELEMETRY_COLUMNS, MissionKind, MissionSpec,
                               TelemetryLog, _run_count, coincident, run_mission)

# bounded; the conftest profile makes every run draw the same examples
FAST = settings(max_examples=60)


def _signed(bound):
    """Floats in [-bound, bound], zeros of both signs drawn often."""
    return st.sampled_from([0.0, -0.0]) | st.floats(-bound, bound)


_PARAMS = st.builds(
    BoatParams, I_b=st.floats(1e-7, 1e-2), I_t=st.floats(1e-5, 1e-1),
    C_f=st.just(0.0) | st.floats(0.0, 1e-2), C_r=st.just(0.0) | st.floats(0.0, 1e-2),
    mass=st.floats(0.05, 20.0), C_v=st.just(0.0) | st.floats(0.0, 50.0))
_STATES = st.builds(
    lambda vel, **rest: Plant(**rest, vx=vel[0], vy=vel[1]),
    theta=_signed(100.0), theta_dot=_signed(50.0), x=_signed(10.0), y=_signed(10.0),
    vel=st.just((0.0, 0.0)) | st.tuples(_signed(2.0), _signed(2.0)))


def _hex_fields(values):
    return [v.hex() for v in values]


def _reference_step(params, state, phi, phi_dot, torque, thrust_x, thrust_y):
    """rk4_step_reference's step at INNER_DT, the one step rk4_step takes,
    without its motor fields: the six values rk4_step returns."""
    theta, theta_dot, _, _, *rest = rk4_step_reference(
        params, state[0], state[1], phi, phi_dot, *state[2:], torque, thrust_x, thrust_y,
        INNER_DT)
    return (theta, theta_dot, *rest)


# BoatParams rk4_step is handed: as built, or made again from the same fields
# through replace() on other values, a shallow copy or a pickle round trip;
# the constants the step reads must follow the fields each way
_REMADE = {
    "built": lambda p: p,
    "replace": lambda p: replace(BoatParams(I_b=1.0, I_t=2.0, C_f=3.0, C_r=4.0,
                                            mass=5.0, C_v=6.0),
                                 **{f.name: getattr(p, f.name) for f in fields(p)}),
    "copy": copy.copy,
    "pickle": lambda p: pickle.loads(pickle.dumps(p)),
}


@settings(max_examples=300)
@given(params=_PARAMS, state=_STATES, torque=_signed(1e3), heading=_signed(20.0),
       thrust=st.just(0.0) | st.floats(0.0, 1.0), remade=st.sampled_from(sorted(_REMADE)))
def test_rk4_step_equals_stagewise_reference_bit_for_bit(params, state, torque,
                                                         heading, thrust, remade):
    # float.hex tells -0.0 from 0.0, which == would not.  rk4_step takes the
    # one step INNER_DT, so the reference steps that alone.
    params = _REMADE[remade](params)
    thrust_x, thrust_y = thrust * math.cos(heading), thrust * math.sin(heading)
    fast = rk4_step(params, *state, torque, thrust_x, thrust_y)
    ref = _reference_step(params, state, 0.0, 0.0, torque, thrust_x, thrust_y)
    assert _hex_fields(fast) == _hex_fields(ref)


def test_rk4_step_equals_stagewise_reference_on_seeded_states():
    # A reordered sum inside one stage changes the step's last bit in well
    # under 1% of states, so volume matters more than edge cases here.
    rng = random.Random(0)
    u = rng.uniform
    remakes = list(_REMADE.values())
    for k in range(20_000):
        params = BoatParams(I_b=u(1e-6, 1e-4), I_t=u(1e-4, 1e-2), C_f=u(0.0, 1e-3),
                            C_r=u(0.0, 1e-3), mass=u(0.1, 5.0), C_v=u(0.0, 10.0))
        params = remakes[k % len(remakes)](params)
        # only the reference reads the motor's angle and rate, drawn between
        # the hull's state and the position
        theta, theta_dot, phi, phi_dot = (u(-10.0, 10.0), u(-20.0, 20.0), u(-100.0, 100.0),
                                          u(-50.0, 50.0))
        state = (theta, theta_dot, u(-5.0, 5.0), u(-5.0, 5.0), u(-0.5, 0.5), u(-0.5, 0.5))
        torque, heading, thrust = u(-100.0, 100.0), u(-10.0, 10.0), u(0.0, 0.1)
        thrust_x, thrust_y = thrust * math.cos(heading), thrust * math.sin(heading)
        fast = rk4_step(params, *state, torque, thrust_x, thrust_y)
        ref = _reference_step(params, state, phi, phi_dot, torque, thrust_x, thrust_y)
        assert _hex_fields(fast) == _hex_fields(ref)


# gaps in periods: mostly short and irregular, some past the one-period
# horizon so that one arrival trims several samples at once
_GAPS = st.lists(st.one_of(st.floats(0.02, 0.6), st.floats(2.6, 4.0)),
                 min_size=10, max_size=120)


@FAST
@given(gaps=_GAPS, period=st.floats(0.25, 2.0),
       speed=st.floats(0.01, 1.0), heading=st.floats(-math.pi, math.pi),
       t0=st.floats(-50.0, 50.0), x0=st.floats(-10.0, 10.0),
       y0=st.floats(-10.0, 10.0), offset=st.floats(-3.0, 3.0))
def test_trimmed_estimator_exact_at_constant_velocity(gaps, period, speed, heading,
                                                     t0, x0, y0, offset):
    vx, vy = speed * math.cos(heading), speed * math.sin(heading)
    # the warm-start fallback lies within a half turn of the true heading
    est = TravelEstimator(period, theta_des_fallback=heading + offset)
    t = t0
    first_heading_t = None  # the first pose at least one period after t0
    checked = 0
    times = []
    # a closing stretch of short steps makes sure the heading window fills
    for gap in [0.0] + gaps + [0.1] * 30:
        t += gap * period
        times.append(t)
        est.add_pose(t, x0 + vx * (t - t0), y0 + vy * (t - t0))
        if first_heading_t is None and t - t0 >= period - 1e-12:
            first_heading_t = t
        # each buffer holds the poses of the last period, the one before
        # them, and fewer older ones than a compaction drops at once
        window = 1 + sum(s > t - period for s in times)
        assert len(est._pt) < window + _COMPACT_EVERY
        assert len(est._hu) < window + _COMPACT_EVERY
        if first_heading_t is not None and t - period >= first_heading_t:
            err = wrap_to_pi(est.travel_direction() - heading)
            assert err == pytest.approx(0.0, abs=1e-9)
            checked += 1
        else:
            # warm start: the window before the first heading sample holds
            # the fallback, the rest of it the true heading
            pad_end = t if first_heading_t is None else first_heading_t
            pad = pad_end - (t - period)
            expected = heading + offset * pad / period
            err = wrap_to_pi(est.travel_direction() - expected)
            assert err == pytest.approx(0.0, abs=1e-9)
    assert checked > 0


# straight runs of poses: how many, their spacing in periods (some past the
# one-period horizon), and a velocity that is zero for a stop
_RUNS = st.lists(
    st.tuples(st.integers(1, 80), st.floats(0.01, 0.4) | st.floats(0.9, 4.0),
              st.just((0.0, 0.0)) | st.tuples(st.floats(-2.0, 2.0),
                                              st.floats(-2.0, 2.0))),
    min_size=1, max_size=10)


@FAST
@given(runs=_RUNS, period=st.floats(0.05, 5.0), fallback=st.floats(-20.0, 20.0),
       t0=st.floats(-100.0, 100.0), x0=st.floats(-10.0, 10.0),
       y0=st.floats(-10.0, 10.0))
def test_estimator_answers_as_bisect_reference_bit_for_bit(runs, period, fallback,
                                                           t0, x0, y0):
    # the cursors and block compaction must leave every answer as the
    # bisect-and-trim estimator gives it, -0.0 and all
    est = TravelEstimator(period, theta_des_fallback=fallback)
    ref = TravelEstimatorReference(period, theta_des_fallback=fallback)
    assert est.travel_direction().hex() == ref.travel_direction().hex()
    t, x, y = t0, x0, y0
    for n, gap, (vx, vy) in runs:
        for _ in range(n):
            est.add_pose(t, x, y)
            ref.add_pose(t, x, y)
            assert est.travel_direction().hex() == ref.travel_direction().hex()
            # the reference holds one period back; compaction adds the slack
            assert len(est._pt) - len(ref._pt) < _COMPACT_EVERY
            assert len(est._hu) - len(ref._ht) < _COMPACT_EVERY
            t += gap * period
            x += vx * gap * period
            y += vy * gap * period


@FAST
@given(st.floats(-1e4, 1e4) | st.sampled_from(
    [k * math.pi for k in range(-7, 8)] + [math.pi, -math.pi, 0.0, -0.0]))
def test_wrap_to_pi_range_and_congruence(angle):
    wrapped = wrap_to_pi(angle)
    assert -math.pi < wrapped <= math.pi
    turns = (angle - wrapped) / math.tau
    assert turns == pytest.approx(round(turns), abs=1e-9)


def _wrap_outcome(fn, angle):
    """fn(angle) as float.hex, which tells -0.0 from 0.0, or the error type."""
    try:
        return fn(angle).hex()
    except OverflowError:  # floor of an infinity
        return OverflowError


@settings(max_examples=500)
@given(st.floats(allow_nan=False))
def test_wrap_to_pi_equals_floor_formula_bit_for_bit(angle):
    assert _wrap_outcome(wrap_to_pi, angle) == _wrap_outcome(wrap_to_pi_formula, angle)


def test_wrap_to_pi_equals_floor_formula_at_edges():
    # the in-range shortcut's bounds, the wrapped interval's ends, a turn
    # out, and both zeros
    edges = [x for c in (3.0, math.pi, math.tau) for sign in (1.0, -1.0)
             for x in within_ulps(sign * c, 4)] + [0.0, -0.0]
    for angle in edges:
        assert wrap_to_pi(angle).hex() == wrap_to_pi_formula(angle).hex(), angle


_CONVERGE = "mission.kind = converge\nmission.duration = 1\n"


@FAST
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_parse_float_round_trips_every_finite_float(x):
    # no range check bounds the impulse components, so any finite float fits
    (*_, mission), = parse_scenario(f"{_CONVERGE}mission.disturbances = 0 {x!r} 0\n").points
    assert mission.disturbances == ((0.0, (x, 0.0)),)


@pytest.mark.parametrize("text", ["nan", "NaN", "-nan", "inf", "-inf", "+inf",
                                  "Infinity", "1e309", "-1e400"])
def test_parse_float_rejects_non_finite(text):
    with pytest.raises(ConfigError, match="finite"):
        parse_scenario(f"{_CONVERGE}boat.mass = {text}\n")


# one value of each settings class with every optional number set and every
# tuple field filled, so that each float slot the class can hold is present
_SETTINGS = (
    BoatParams(),
    ControllerConfig(desat_interval=2.0),
    MissionSpec(kind=MissionKind.STEP_TEST, duration=3.0, heading=0.3,
                waypoints=((1.0, 0.0), (1.0, 1.0)), step_schedule=((1.0, 0.5),),
                disturbances=((2.0, (0.1, 0.0)),), initial_theta=0.2,
                start=(0.1, -0.1)),
)


def _float_slots(value, path=()):
    """(index path, float) of each float in a field value, through nested tuples."""
    if isinstance(value, float):
        yield path, value
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _float_slots(item, path + (i,))


def _with_slot(value, path, x):
    """The field value with the float at `path` replaced by x."""
    if not path:
        return x
    i, *rest = path
    return value[:i] + (_with_slot(value[i], rest, x),) + value[i + 1:]


_SLOTS = [(value, f.name, path, x) for value in _SETTINGS for f in fields(value)
          for path, x in _float_slots(getattr(value, f.name))]


def test_every_number_field_has_a_float_slot():
    # the enumeration misses no field: only the enums hold no number
    covered = {(type(value), name) for value, name, *_ in _SLOTS}
    assert covered == {(type(value), f.name) for value in _SETTINGS
                       for f in fields(value)
                       if not isinstance(getattr(value, f.name), Enum)}


@pytest.mark.parametrize("value, name, path, x", _SLOTS, ids=[
    type(value).__name__ + "." + name + "".join(f"[{i}]" for i in path)
    for value, name, path, _ in _SLOTS])
@FAST
@given(bad=st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]))
def test_every_float_slot_rejects_non_finite(value, name, path, x, bad):
    def field_with(number):
        return _with_slot(getattr(value, name), path, number)

    with pytest.raises(ConfigError, match=rf"\b{name} must be finite"):
        replace(value, **{name: field_with(bad)})
    # a finite number in the same slot still builds
    finite = math.nextafter(x, 0.0)
    assert getattr(replace(value, **{name: field_with(finite)}), name) == field_with(finite)


@pytest.mark.parametrize("value, name, path, x", _SLOTS, ids=[
    type(value).__name__ + "." + name + "".join(f"[{i}]" for i in path)
    for value, name, path, _ in _SLOTS])
def test_every_float_slot_rejects_bools_and_huge_ints(value, name, path, x):
    def field_with(number):
        return _with_slot(getattr(value, name), path, number)

    for flag in (True, False):
        with pytest.raises(ConfigError, match=rf"\b{name} must be a number, not a bool"):
            replace(value, **{name: field_with(flag)})
    # larger than any float: comparing it with one is exact, converting overflows
    for huge in (10**400, -10**400):
        with pytest.raises(ConfigError, match=rf"\b{name} must be finite"):
            replace(value, **{name: field_with(huge)})


@pytest.mark.parametrize("value, name, path, x", _SLOTS, ids=[
    type(value).__name__ + "." + name + "".join(f"[{i}]" for i in path)
    for value, name, path, _ in _SLOTS])
def test_every_float_slot_rejects_a_non_number(value, name, path, x):
    # a string, a list, a tuple and None (where the slot is not optional)
    optional = not path and next(f.type for f in fields(value) if f.name == name) != float
    for bad in ("1", [x], (x,), *([] if optional else [None])):
        with pytest.raises(ConfigError, match=rf"^{name} holds "):
            replace(value, **{name: _with_slot(getattr(value, name), path, bad)})


_CONVERGE_SPEC = dict(kind=MissionKind.CONVERGE, duration=1.0)


# (class, keyword arguments, the field the error must name); the first rows
# are the calls that once built, or failed with another exception
_MISSHAPEN = [
    (MissionSpec, dict(_CONVERGE_SPEC, disturbances=((0.5, 1.0),)), "disturbances"),
    (MissionSpec, dict(_CONVERGE_SPEC, waypoints=((1, 0, 0),)), "waypoints"),
    (MissionSpec, dict(_CONVERGE_SPEC, start=(0.0,)), "start"),
    (MissionSpec, dict(_CONVERGE_SPEC, step_schedule=((0.5,),)), "step_schedule"),
    (BoatParams, dict(mass="1"), "mass"),
    (MissionSpec, dict(kind=MissionKind.CONVERGE, duration="1"), "duration"),
    (MissionSpec, dict(_CONVERGE_SPEC, waypoints="1 0"), "waypoints"),
    (ControllerConfig, dict(desat_interval="2"), "desat_interval"),
    # wrong-length items
    (MissionSpec, dict(_CONVERGE_SPEC, waypoints=((1.0, 0.0), (1.0,))), "waypoints"),
    (MissionSpec, dict(_CONVERGE_SPEC, step_schedule=((0.5, 0.1, 0.2),)), "step_schedule"),
    (MissionSpec, dict(_CONVERGE_SPEC, disturbances=((0.5, (0.0,)),)), "disturbances"),
    (MissionSpec, dict(_CONVERGE_SPEC, disturbances=((0.5, 0.0, 0.1),)), "disturbances"),
    (MissionSpec, dict(_CONVERGE_SPEC, start=(0.0, 0.0, 0.0)), "start"),
    # a flat tuple where pairs are due, and pairs where a flat one is
    (MissionSpec, dict(_CONVERGE_SPEC, waypoints=(1.0, 0.0)), "waypoints"),
    (MissionSpec, dict(_CONVERGE_SPEC, step_schedule=(0.5, 0.1)), "step_schedule"),
    (MissionSpec, dict(_CONVERGE_SPEC, disturbances=(0.5, (0.0, 0.1))), "disturbances"),
    (MissionSpec, dict(_CONVERGE_SPEC, start=((0.0, 0.0),)), "start"),
    # a list, a string or None for the whole field
    (MissionSpec, dict(_CONVERGE_SPEC, waypoints=[(1.0, 0.0)]), "waypoints"),
    (MissionSpec, dict(_CONVERGE_SPEC, step_schedule=[(0.5, 0.1)]), "step_schedule"),
    (MissionSpec, dict(_CONVERGE_SPEC, disturbances=((0.5, [0.0, 0.1]),)), "disturbances"),
    (MissionSpec, dict(_CONVERGE_SPEC, start=[0.0, 0.0]), "start"),
    (MissionSpec, dict(_CONVERGE_SPEC, step_schedule="0.5 0.1"), "step_schedule"),
    (MissionSpec, dict(_CONVERGE_SPEC, disturbances="0.5 0 0.1"), "disturbances"),
    (MissionSpec, dict(_CONVERGE_SPEC, start="0 0"), "start"),
    (MissionSpec, dict(_CONVERGE_SPEC, waypoints=None), "waypoints"),
    (MissionSpec, dict(_CONVERGE_SPEC, step_schedule=None), "step_schedule"),
    (MissionSpec, dict(_CONVERGE_SPEC, disturbances=None), "disturbances"),
    (MissionSpec, dict(_CONVERGE_SPEC, start=None), "start"),
    (BoatParams, dict(I_t=None), "I_t"),
    # a nested non-number
    (MissionSpec, dict(_CONVERGE_SPEC, waypoints=((1.0, "0"),)), "waypoints"),
    (MissionSpec, dict(_CONVERGE_SPEC, step_schedule=((None, 0.1),)), "step_schedule"),
    (MissionSpec, dict(_CONVERGE_SPEC, disturbances=((0.5, (0.0, "x")),)), "disturbances"),
    (MissionSpec, dict(_CONVERGE_SPEC, start=(0.0, [0.0])), "start"),
]


@pytest.mark.parametrize("cls, kwargs, name", _MISSHAPEN, ids=[
    f"{cls.__name__}.{name}={kwargs[name]!r}" for cls, kwargs, name in _MISSHAPEN])
def test_settings_refuse_a_misshapen_value_by_name(cls, kwargs, name):
    with pytest.raises(ConfigError, match=rf"^{name} holds "):
        cls(**kwargs)


def _checked(kind, top=True):
    """Whether the settings check walks the annotation kind: float,
    float | None, an Enum (at the top, where its class tests it) or a tuple
    of these, of fixed length or tuple[X, ...]."""
    if kind is float or kind == float | None:
        return True
    if isinstance(kind, EnumMeta):
        return top
    args = get_args(kind)
    items = args[:1] if args[-1:] == (Ellipsis,) else args
    return get_origin(kind) is tuple and bool(items) and all(_checked(a, False) for a in items)


def test_every_settings_field_has_an_annotation_the_check_walks():
    # a field the walk does not know would go unchecked, as a bare tuple once did
    for cls in (BoatParams, ControllerConfig, MissionSpec):
        for f in fields(cls):
            assert _checked(f.type), f"{cls.__name__}.{f.name}: {f.type}"
    for kind in (tuple, int, str, list[float], tuple[int, ...], tuple[()],
                 tuple[float, ControlMode], float | str):
        assert not _checked(kind), kind


_SCHEDULE_TIMES = st.lists(st.floats(0.0, 100.0), max_size=4).map(sorted)
_COORD = st.floats(-1e6, 1e6)


@FAST
@given(waypoints=st.lists(st.tuples(_COORD, _COORD), max_size=4),
       step_times=_SCHEDULE_TIMES, deltas=st.lists(st.floats(-1e3, 1e3), min_size=4),
       dist_times=_SCHEDULE_TIMES,
       kicks=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                st.floats(allow_nan=False, allow_infinity=False)),
                      min_size=4),
       start=st.tuples(_COORD, _COORD))
def test_config_text_round_trips_the_tuple_fields(waypoints, step_times, deltas,
                                                   dist_times, kicks, start):
    # the CLI and the class read one schema: each valid value, written as
    # config text, parses back to itself
    assume(not any(coincident(p0, p1) for p0, p1 in zip(waypoints, waypoints[1:])))
    spec = MissionSpec(kind=MissionKind.STEP_TEST, duration=100.0,
                       waypoints=tuple(waypoints), step_schedule=tuple(zip(step_times, deltas)),
                       disturbances=tuple(zip(dist_times, kicks)), start=start)

    def text(value):
        if isinstance(value, float):
            return repr(value)
        if isinstance(value[0], float):  # a fixed tuple: its numbers
            return " ".join(map(text, value))
        return "; ".join(map(text, value))  # tuple[X, ...]: its items

    lines = [f"mission.{name} = {text(getattr(spec, name)) if getattr(spec, name) else ''}"
             for name in ("waypoints", "step_schedule", "disturbances", "start")]
    (*_, parsed), = parse_scenario("mission.kind = step\nmission.duration = 100\n"
                                   + "\n".join(lines) + "\n").points
    assert repr(parsed) == repr(spec)  # bit for bit, the signs of zeros too


# values of the whole-config fuzz: zeros, tiny, unit, huge and overflowing
# numbers, the non-finite ones and a malformed token; positive ones are drawn
# half the time, since most fields reject the rest and a config stops at its
# first bad value
_POSITIVE = ["1e-300", "1", "1e300", "1e308"]
_TOKEN = st.sampled_from(_POSITIVE) | st.sampled_from(
    ["0", "-1e-300", "-1", "-1e300", "-1e308", "nan", "inf", "1e", *_POSITIVE])
# the tuple fields take pairs or triples; the other arity is malformed
_LIST = st.lists(st.lists(_TOKEN, min_size=2, max_size=3).map(" ".join),
                 min_size=1, max_size=3).map("; ".join)


def _values(parser):
    if isinstance(parser, EnumMeta):
        return st.sampled_from([member.value for member in parser]) | _TOKEN
    return _TOKEN if parser is float else _TOKEN | _LIST


_KEYS = {f"{section}.{field}": _values(parser)
         for section, schema in _SECTIONS.items() for field, parser in schema.items()}
_SWEEPABLE = [f"{section}.{field}" for section, schema in _SECTIONS.items()
              for field, parser in schema.items() if parser is float]


# the report's speeds, distances and times
_NON_NEGATIVE = {"steady_speed_mps", "travel_m", "travel_bl", "rms_perp_m", "max_perp_m",
                 "orbit_radius_m", "rise_time_s", "completion_time_s"}


@st.composite
def _configs(draw):
    # a valid kind, a duration of at most 1 s and the waypoints a waypoint
    # mission needs are always set, or nearly every config would stop at
    # them; any other key may be drawn
    kind = draw(st.sampled_from([kind.value for kind in MissionKind]))
    lines = [f"mission.kind = {kind}",
             f"mission.duration = {draw(st.sampled_from(['0', '1e-300', '1']))}"]
    if kind in ("waypoints", "station_keep"):
        lines.append(f"mission.waypoints = {draw(_LIST)}")
    others = sorted(set(_KEYS) - {"mission.kind", "mission.duration", "mission.waypoints"})
    for key in draw(st.lists(st.sampled_from(others), unique=True, max_size=3)):
        lines.append(f"{key} = {draw(_KEYS[key])}")
    for key in draw(st.lists(st.sampled_from(_SWEEPABLE), unique=True, max_size=2)):
        values = draw(st.lists(_TOKEN, min_size=1, max_size=3, unique=True))
        lines.append(f"sweep.{key} = {', '.join(values)}")
    return "\n".join(lines) + "\n"


def _with_cap_examples(test):
    """Add each scenario at, just under and just over a CLI cap as an
    explicit example; none of them runs more than a tick or 0.1 s."""
    for text in cap_scenarios().values():
        test = example(text=text, strict=False)(test)
    return test


@settings(max_examples=200)
@given(text=_configs(), strict=st.booleans())
@_with_cap_examples
# finite throughout, but the hull angle runs past where wrap_to_pi is exact
@example(text="mission.kind = converge\nmission.duration = 2\nboat.C_f = 0\n"
              "boat.mass = 1e300\ncontrol.K = 1e300\n", strict=False)
# finite state on its one row, but the torque recorded there overflows
@example(text="control.mode = limit_cycle\ncontrol.K = 1e308\ncontrol.beta = 1e308\n"
              "mission.kind = converge\nmission.duration = 0\n"
              "mission.initial_theta = -7.853981633974483\n", strict=False)
def test_any_config_runs_or_exits_with_a_code(tmp_path_factory, text, strict):
    root = tmp_path_factory.mktemp("fuzz")
    cfg_path, out = root / "fuzz.cfg", root / "out"
    cfg_path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", str(cfg_path), "--out-dir", str(out),
                     *(["--strict-settle"] if strict else [])])
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert "no metrics produced" in err
    files = sorted(p.name for p in out.iterdir()) if out.exists() else []
    if code == 2 and files:  # only a later sweep point can fail after a write
        assert "diverged at t = " in err
    # a point writes its CSV only together with its report
    csvs = {name[:-len(".csv")] for name in files if name.endswith(".csv")}
    reports = {name[:-len("_metrics.dat")] for name in files
               if name.endswith("_metrics.dat")}
    assert csvs == reports
    assert set(root.iterdir()) <= {cfg_path, out}
    # a valid run: finite telemetry, and a report whose values are finite,
    # whose speeds, distances and times are not negative and whose heading
    # error is wrapped
    if code == 0:
        for csv in out.glob("*.csv"):
            for line in csv.read_text().splitlines()[1:]:
                assert all(math.isfinite(float(v)) for v in line.split(",")), line
        for dat in out.glob("*_metrics.dat"):
            for line in dat.read_text().splitlines():
                key, value = line.split(" = ")
                metric, x = key.partition(".")[0], float(value)
                assert math.isfinite(x), line
                if metric in _NON_NEGATIVE:
                    assert x >= 0.0, line
                if metric == "heading_error_rad" and not key.endswith(".n"):
                    assert 0.0 <= x <= math.pi + _WRAP_EPS, line


_POINT = st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2))
_ANGLE = st.floats(-4.0, 4.0)


@st.composite
def _missions(draw):
    """(boat, controller, mission) of at most 3 s: every control mode and
    mission kind, up to 4 steps, 3 impulses and 4 waypoints, starts on the
    first waypoint, and thrusts and forcings large enough to diverge."""
    boat = draw(st.builds(
        BoatParams, C_f=st.floats(0.0, 1e-3), C_r=st.just(0.0) | st.floats(0.0, 1e-3),
        C_v=st.floats(0.0, 10.0), k_thrust=st.floats(0.0, 0.02)))
    omega = draw(st.just(math.tau) | st.floats(2.0, 20.0))
    cfg = draw(st.builds(
        ControllerConfig, omega=st.just(omega), K=st.floats(1.0, 30.0),
        beta=st.floats(1.0, 80.0), K_p=st.floats(0.0, 4.0),
        mode=st.sampled_from(ControlMode), desat_threshold=st.floats(0.0, 3.0),
        desat_interval=st.none() | st.floats(1.0, 3.0).map(lambda k: k * math.tau / omega)))
    # about one run in five diverges, through its thrust or its forcing
    wild = draw(st.sampled_from([None] * 8 + ["thrust", "forcing"]))
    if wild == "thrust":
        boat = replace(boat, k_thrust=1e300)
    elif wild == "forcing":
        cfg = replace(cfg, K=1e300)
    kind = draw(st.sampled_from(MissionKind))
    duration = draw(st.sampled_from([0.0, 0.004, 3.0]) | st.floats(0.0, 3.0))

    def schedule(values, max_size):
        # times in [0, duration], in order, some on the inner grid
        fractions = st.floats(0.0, 1.0) | st.integers(0, 625).map(lambda k: k / 625)
        entries = draw(st.lists(st.tuples(fractions, values), max_size=max_size))
        return tuple(sorted((f * duration, v) for f, v in entries))

    spec = {"kind": kind, "duration": duration, "heading": draw(_ANGLE),
            "disturbances": schedule(st.tuples(*[st.floats(-0.1, 0.1)] * 2), 3),
            "initial_theta": draw(st.none() | _ANGLE),
            "start": draw(st.just((0.0, 0.0)) | _POINT)}
    if kind in (MissionKind.WAYPOINTS, MissionKind.STATION_KEEP):
        waypoints = draw(st.lists(_POINT, min_size=1, max_size=4))
        assume(not any(coincident(p0, p1) for p0, p1 in zip(waypoints, waypoints[1:])))
        spec.update(waypoints=tuple(waypoints),
                    tolerance_radius=draw(st.floats(0.05, 0.3)))
        if draw(st.booleans()):
            spec["start"] = waypoints[0]
    else:
        spec["step_schedule"] = schedule(_ANGLE, 4)
    return boat, cfg, MissionSpec(**spec)


_DESAT = ControllerConfig(mode=ControlMode.DESATURATED_THRUST_DIRECTION)
_TURNS = MissionSpec(kind=MissionKind.STEP_TEST, duration=3.0,
                     step_schedule=((0.5, math.pi / 2), (1.5, -math.pi / 2)))


def _recording(calls):
    """desaturate_reference that first appends (t, mean rate, pending change)
    to calls, as float.hex text."""
    def desaturate(ref, mean_top_velocity, t, cfg, pending_delta=0.0):
        calls.append((t.hex(), mean_top_velocity.hex(), pending_delta.hex()))
        return desaturate_reference(ref, mean_top_velocity, t, cfg, pending_delta)
    return desaturate


@settings(max_examples=150)
@given(run=_missions())
# the boxcar at its edges: the shortest period, a 2-row window ...
@example(run=(BoatParams(), replace(_DESAT, omega=math.pi / INNER_DT), _TURNS))
# ... a period of 224.4 ticks ...
@example(run=(BoatParams(), replace(_DESAT, omega=7.0), _TURNS))
# ... every outer tick's mean past the threshold to the unwind test ...
@example(run=(BoatParams(), replace(_DESAT, desat_threshold=0.0), _TURNS))
# ... and 5 s at the 1 s period, whose window first holds 251 rows at 4.008 s
@example(run=(BoatParams(), _DESAT, replace(_TURNS, duration=5.0, step_schedule=())))
# a start on the first waypoint targets the second from row 0
@example(run=(BoatParams(), _DESAT, MissionSpec(
    kind=MissionKind.WAYPOINTS, duration=1.0, waypoints=((0.0, 0.0), (1.0, 0.0)))))
# finite throughout, but the hull angle runs past where wrap_to_pi is exact
@example(run=(BoatParams(C_f=0.0, mass=1e300), ControllerConfig(K=1e300),
              MissionSpec(kind=MissionKind.CONVERGE, duration=2.0)))
# finite state on its one row, but the torque recorded there overflows
@example(run=(BoatParams(), ControllerConfig(mode=ControlMode.LIMIT_CYCLE_ONLY, K=1e308,
                                             beta=1e308),
              MissionSpec(kind=MissionKind.CONVERGE, duration=0.0,
                          initial_theta=-7.853981633974483)))
def test_run_mission_matches_the_reference_loop_bit_for_bit(run):
    # the reference stores every column on every row, as the log once did,
    # and both loops pass their boxcar means to desaturate_reference (patched
    # here: hypothesis refuses a function-scoped fixture under @given)
    calls, reference_calls = [], []
    with (patch("paddlesim.mission.desaturate_reference", _recording(calls)),
          patch("helpers.desaturate_reference", _recording(reference_calls))):
        try:
            log = run_mission(*run)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as reference:
                run_mission_reference(*run)
            assert str(reference.value) == str(exc)
            assert calls == reference_calls
            return
        floats, index = run_mission_reference(*run)
    assert calls == reference_calls
    for k, name in enumerate(TELEMETRY_COLUMNS[:-1]):
        assert log.column(name).tobytes() == floats[:, k].tobytes(), name
    starts = run_starts(index)
    assert log.waypoint_steps.tolist() == np.stack([starts, index[starts]], 1).tolist()
    assert log.waypoint_index.tobytes() == index.tobytes()


def _nudged(x):
    """x and its two neighbouring floats."""
    return st.sampled_from([math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)])


_TEXT_FLOATS = (
    st.floats()
    # decimal ties at 10 digits, which must round half to even on the exact
    # binary value
    | st.builds(lambda digits, k: float(f"{digits // 10 * 10 + 5}e{k}"),
                st.integers(10**9, 10**10 - 1), st.integers(-120, 120))
    | st.integers(-323, 308).flatmap(lambda k: _nudged(float(f"1e{k}")))
    # the values that round up to the next power of ten
    | st.integers(-300, 298).flatmap(lambda k: _nudged(float(f"9.999999995e{k}")))
    | st.sampled_from([1e-99, 1e99]).flatmap(_nudged))


@settings(max_examples=400)
@given(values=st.lists(st.tuples(_TEXT_FLOATS, st.integers(-2**63, 2**63 - 1)),
                       min_size=1, max_size=40))
def test_csv_text_is_printf_g9_and_d(values):
    # each row holds one value in every float column, so every slot sees it
    floats = np.repeat([[x] for x, _ in values], 14, axis=1)
    rows = csv_rows(floats, np.array([i for _, i in values], dtype=np.int64))
    assert rows.decode().splitlines() == [
        ",".join(["%.9g" % x] * 14 + ["%d" % i]) for x, i in values]


# logs of no row, one row, either side of the 512-row chunk of the time
# lookup, and a few thousand rows, with each one's time column
_TIMED = {n: TelemetryLog(np.zeros((n, len(STORED_COLUMNS))),
                          np.zeros((min(n, 1), 2), dtype=np.int64),
                          np.zeros((min(n, 1), 3)), (max(n, 1),))
          for n in (0, 1, 511, 512, 513, 3001)}
_TIMES = {n: log.t for n, log in _TIMED.items()}


@st.composite
def _time_probes(draw):
    """A log's row count and a value to search its times for: any float, or
    a row's time (often at a chunk's edge) moved by 1e-12 s or a few ulps."""
    n = draw(st.sampled_from(sorted(_TIMED)))
    if not n or draw(st.booleans()):
        return n, draw(st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf,
                                                      -math.inf, 5e-324, -5e-324]))
    edges = [r for k in range(0, n, 512) for r in (k - 1, k, k + 1) if 0 <= r < n]
    row = draw(st.sampled_from(edges) | st.integers(0, n - 1))
    time = float(_TIMES[n][row]) + draw(st.sampled_from([-1e-12, 0.0, 1e-12]))
    return n, draw(st.sampled_from(within_ulps(time, 2)))


@settings(max_examples=1500)
@given(probe=_time_probes(), side=st.sampled_from(["left", "right"]))
def test_time_search_is_searchsorted_on_the_column(probe, side):
    # the lookup finds the chunk from the kept times and searches its times
    # alone; it must answer as a search of the whole derived column
    n, value = probe
    assert _TIMED[n].search_time(value, side) == int(np.searchsorted(_TIMES[n], value, side))


@settings(max_examples=300)
@given(probes=st.lists(_time_probes(), max_size=12), n=st.sampled_from(sorted(_TIMED)),
       side=st.sampled_from(["left", "right"]))
def test_time_search_of_an_array_is_searchsorted_on_the_column(probes, n, side):
    # values from probes of any log, searched together, spread over chunks
    values = np.array([value for _, value in probes])
    rows = _TIMED[n].search_time(values, side)
    assert rows.dtype == np.int64
    assert rows.tolist() == np.searchsorted(_TIMES[n], values, side).tolist()


def test_time_at_is_the_column_row():
    for n, log in _TIMED.items():
        assert [log.time_at(row) for row in range(-n, n)] == _TIMES[n][list(range(-n, n))].tolist()
        for row in (-n - 1, n):
            with pytest.raises(IndexError):
                log.time_at(row)


@st.composite
def _held_layouts(draw):
    """A row count, a gap pattern and a held block with a row per run: the
    outer gaps, runs of one row, short patterns (some of runs longer than
    the log) and one irregular cycle over the whole log, the change-point
    runs a caller builds.  Each run's values differ from the others', and
    some are -0.0 or a NaN with a payload."""
    n = draw(st.integers(0, 2_000))
    kind = draw(st.sampled_from(["outer", "one", "pattern", "cycle"]))
    if kind == "outer":
        gaps = _OUTER_GAPS
    elif kind == "one":
        gaps = (1,)
    elif kind == "pattern":
        gaps = tuple(draw(st.lists(st.integers(1, 40) | st.integers(41, 3_000),
                                   min_size=1, max_size=6)))
    else:
        changes = draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=40))
        starts = [0, *sorted(row for row in changes if row < n)]
        gaps = tuple(np.diff(starts, append=n).tolist()) if n else (1,)
    runs = _run_count(n, gaps)
    held = np.arange(3.0 * runs).reshape(runs, 3)
    held[::3, 1] = -0.0
    held[::4, 2] = np.array([0x7FF8_0000_0000_0123], dtype=np.int64).view(np.float64)[0]
    return n, gaps, held


def _held_reference(held, gaps, n):
    """Each row's held values, (n, 3), the rows walked one by one in Python:
    a run ends once it has held its gap's rows, and the gaps repeat."""
    rows, run, left = [], 0, gaps[0]
    for _ in range(n):
        if not left:
            run += 1
            left = gaps[run % len(gaps)]
        rows.append(held[run])
        left -= 1
    return np.array(rows, dtype=float).reshape(n, 3)


def _index_reference(steps, n):
    """Each row's waypoint index, the rows walked one by one in Python: a
    step's index holds from its first row until the next step starts."""
    index, step = [], 0
    for row in range(n):
        if step + 1 < len(steps) and steps[step + 1][0] == row:
            step += 1
        index.append(steps[step][1])
    return np.array(index, dtype=np.int64)


def _log_of(n, held, gaps, steps=None):
    steps = np.zeros((min(n, 1), 2), dtype=np.int64) if steps is None else steps
    return TelemetryLog(np.zeros((n, len(STORED_COLUMNS))), steps, held, gaps)


@FAST
@given(layout=_held_layouts(), data=st.data())
def test_held_columns_and_chunks_are_the_runs_row_by_row(layout, data):
    # the log maps rows to runs from the gaps' offsets and rows to steps,
    # for whole columns, for any rows of one and for each chunk; it must
    # hold each row's run's values and step's index, bit for bit
    n, gaps, held = layout
    changes = data.draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=20))
    firsts = [0, *sorted(row for row in changes if row < n)][:n]
    steps = np.array([(row, 3 * k - 1) for k, row in enumerate(firsts)], np.int64).reshape(-1, 2)
    log = _log_of(n, held, gaps, steps)
    expected = _held_reference(held.tolist(), gaps, n)
    index = _index_reference(steps.tolist(), n)
    for k, name in enumerate(HELD_COLUMNS):
        assert log.column(name).tobytes() == np.ascontiguousarray(expected[:, k]).tobytes()
    assert log.waypoint_index.tobytes() == index.tobytes()
    name = data.draw(st.sampled_from([*HELD_COLUMNS, "waypoint_index"]))
    start = data.draw(st.integers(0, n))
    stop = data.draw(st.integers(start, n))
    walked = (index if name == "waypoint_index"
              else np.ascontiguousarray(expected[:, HELD_COLUMNS.index(name)]))
    for size in (1, 7, 512):
        with patch("paddlesim.mission._DERIVE_ROWS", size):
            assert log.column(name, start, stop).tobytes() == walked[start:stop].tobytes()
        out = np.empty((size, len(TELEMETRY_COLUMNS) - 1))
        chunks = [(chunk[:, _HELD_AT:_HELD_END].copy(), chunk_index)
                  for chunk, chunk_index in log.float_chunks(out)]
        assert np.concatenate([np.empty((0, 3)), *(chunk for chunk, _ in chunks)]
                              ).tobytes() == expected.tobytes()
        assert np.concatenate([np.empty(0, np.int64), *(i for _, i in chunks)]
                              ).tobytes() == index.tobytes()
    # a held block a row short or a row long is refused
    for rows in (len(held) - 1, len(held) + 1):
        if rows >= 0:
            with pytest.raises(ValueError, match="held must have a row for each"):
                _log_of(n, np.zeros((rows, 3)), gaps)


# a gap spoilt each way: True is an int equal to 1, 2.0 a float equal to 2
_SPOILT_GAPS = {"zero": st.just(0), "negative": st.integers(max_value=-1),
                "bool": st.just(True), "float": st.floats(min_value=1.0, max_value=40.0)}


@pytest.mark.parametrize("how", ["empty", "list", *_SPOILT_GAPS])
@settings(max_examples=15)
@given(n=st.integers(0, 2_000), data=st.data())
def test_a_bad_gap_pattern_is_refused(how, n, data):
    gaps = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    if how in _SPOILT_GAPS:
        gaps[data.draw(st.integers(0, len(gaps) - 1))] = data.draw(_SPOILT_GAPS[how])
    gaps = {"empty": (), "list": gaps}.get(how, tuple(gaps))
    with pytest.raises(ValueError, match="held_gaps must be a non-empty tuple of positive"):
        _log_of(n, np.zeros((1, 3)), gaps)
