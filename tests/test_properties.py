"""Property tests: the plant step, the estimator's trimmed history, angle
wrapping, float parsing, the settings' finite check, whole configs and the
CSV number text."""

import contextlib
import copy
import io
import math
import pickle
import random
from dataclasses import fields, replace
from enum import Enum, EnumMeta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (Plant, TravelEstimatorReference, cap_scenarios,
                     rk4_step_reference, within_ulps, wrap_to_pi_formula)
from paddlesim.cli import _SECTIONS, main, parse_scenario
from paddlesim.control import ControllerConfig, wrap_to_pi
from paddlesim.csvtext import csv_rows
from paddlesim.dynamics import BoatParams, ConfigError, rk4_step
from paddlesim.estimation import _COMPACT_EVERY, TravelEstimator
from paddlesim.mission import MissionKind, MissionSpec

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
    theta=_signed(100.0), theta_dot=_signed(50.0), phi=_signed(1e3),
    phi_dot=_signed(200.0), x=_signed(10.0), y=_signed(10.0),
    vel=st.just((0.0, 0.0)) | st.tuples(_signed(2.0), _signed(2.0)))


def _hex_fields(values):
    return [v.hex() for v in values]


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
@given(params=_PARAMS, state=_STATES, torque=_signed(1e3),
       heading=_signed(20.0), dt=st.sampled_from([1.0 / 250.0, 1e-3, 0.05]),
       thrust=st.just(0.0) | st.floats(0.0, 1.0), remade=st.sampled_from(sorted(_REMADE)))
def test_rk4_step_equals_stagewise_reference_bit_for_bit(params, state, torque,
                                                         heading, dt, thrust, remade):
    # float.hex tells -0.0 from 0.0, which == would not
    params = _REMADE[remade](params)
    thrust_x, thrust_y = thrust * math.cos(heading), thrust * math.sin(heading)
    fast = rk4_step(params, *state, torque, thrust_x, thrust_y, dt)
    ref = rk4_step_reference(params, *state, torque, thrust_x, thrust_y, dt)
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
        args = (params, u(-10.0, 10.0), u(-20.0, 20.0), u(-100.0, 100.0),
                u(-50.0, 50.0), u(-5.0, 5.0), u(-5.0, 5.0), u(-0.5, 0.5),
                u(-0.5, 0.5), u(-100.0, 100.0))
        heading, thrust = u(-10.0, 10.0), u(0.0, 0.1)
        args += (thrust * math.cos(heading), thrust * math.sin(heading), 1.0 / 250.0)
        assert _hex_fields(rk4_step(*args)) == _hex_fields(rk4_step_reference(*args))


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
