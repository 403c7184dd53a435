import hashlib
import importlib.util
import json
import math
import sys
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import SLOW_WATER
from helpers import (refused, rk4_step_reference, run_mission_reference, run_step_test,
                     stored_bytes, telemetry_log, tick_times, traced_peak)
from paddlesim.cli import load_preset, parse_scenario, preset_names
from paddlesim.control import ControlMode, ControllerConfig
from paddlesim.dynamics import INNER_DT, BoatParams, motor_angles, motor_rates, rk4_step
from paddlesim.mission import (DERIVED_COLUMNS, HELD_COLUMNS, MAX_MOTOR_RATE, MAX_POSITION,
                               MAX_TICKS,
                               TELEMETRY_COLUMNS, ConfigError, MissionKind, MissionSpec,
                               TelemetryLog, _OUTER_GAPS, log_bytes, run_mission,
                               waypoint_heading)


def outer_tick_indices(n):
    idx = [0]
    g = 0
    while True:
        nxt = idx[-1] + _OUTER_GAPS[g % len(_OUTER_GAPS)]
        if nxt >= n:
            return np.array(idx)
        idx.append(nxt)
        g += 1


def test_outer_gap_pattern_realises_120hz():
    assert sum(_OUTER_GAPS) == 25 and len(_OUTER_GAPS) == 12


def test_determinism_bit_identical():
    params = BoatParams()
    cfg = ControllerConfig(mode=ControlMode.DESATURATED_THRUST_DIRECTION)
    spec = MissionSpec(kind=MissionKind.WAYPOINTS, duration=8.0,
                       waypoints=((0.5, 0.2), (0.0, 0.5)))
    a = run_mission(params, cfg, spec)
    b = run_mission(params, cfg, spec)
    for name in ("t", "theta", "theta_dot", "phi", "phi_dot", "x", "y",
                 "vx", "vy", "theta_r", "psi_hat", "tau", "waypoint_index"):
        assert np.array_equal(a.column(name), b.column(name)), name


def test_zero_duration_gives_single_record():
    log = run_mission(BoatParams(), ControllerConfig(),
                      MissionSpec(kind=MissionKind.CONVERGE, duration=0.0))
    assert len(log) == 1
    assert log.t[0] == 0.0


def test_row_count_and_time_grid():
    log = run_mission(BoatParams(), ControllerConfig(),
                      MissionSpec(kind=MissionKind.CONVERGE, duration=2.0))
    assert len(log) == 501
    assert np.all(np.diff(log.t) > 0)
    assert log.t[-1] == pytest.approx(2.0, abs=1e-9)


def test_reference_changes_only_at_outer_ticks():
    params = BoatParams()
    cfg = ControllerConfig(mode=ControlMode.THRUST_DIRECTION)
    spec = MissionSpec(kind=MissionKind.STEP_TEST, duration=6.0,
                       step_schedule=((2.0, 0.8),))
    log = run_mission(params, cfg, spec)
    changes = np.nonzero(np.diff(log.theta_r))[0] + 1
    allowed = set(outer_tick_indices(len(log)).tolist())
    assert set(changes.tolist()) <= allowed
    assert len(changes) > 0  # the outer loop does act


def test_torque_follows_inner_rate():
    log = run_mission(BoatParams(), ControllerConfig(),
                      MissionSpec(kind=MissionKind.CONVERGE, duration=1.0))
    # the sinusoidal forcing makes tau move every inner tick
    assert np.count_nonzero(np.diff(log.tau)) >= len(log) - 2


def test_waypoint_heading_examples():
    spec = MissionSpec(kind=MissionKind.WAYPOINTS, duration=1.0,
                       waypoints=((1.0, 0.0), (1.0, 1.0)), tolerance_radius=0.1)
    heading, idx = waypoint_heading(0.0, 0.0, spec, 0)
    assert heading == pytest.approx(0.0) and idx == 0
    # inside the tolerance of the active waypoint: advance and aim at the next
    heading, idx = waypoint_heading(0.95, 0.0, spec, 0)
    assert idx == 1
    assert heading == pytest.approx(math.atan2(1.0, 0.05))
    # diagonal target
    spec2 = MissionSpec(kind=MissionKind.WAYPOINTS, duration=1.0,
                        waypoints=((1.0, 1.0),))
    heading, idx = waypoint_heading(0.0, 0.0, spec2, 0)
    assert heading == pytest.approx(math.pi / 4)
    # terminal waypoint is held forever
    heading, idx = waypoint_heading(0.99, 0.99, spec2, 0)
    assert idx == 0


def test_waypoint_index_monotonic(square_log):
    assert np.all(np.diff(square_log.waypoint_index) >= 0)
    assert square_log.waypoint_index[-1] == 3


def test_disturbance_applied_at_scheduled_tick():
    spec = MissionSpec(kind=MissionKind.CONVERGE, duration=2.0,
                       disturbances=((1.0, (0.0, 0.5)),))
    log = run_mission(BoatParams(), ControllerConfig(), spec)
    i = int(np.searchsorted(log.t, 1.0))
    assert log.vy[i] - log.vy[i - 1] > 0.4  # the impulse lands in one tick


def test_step_test_zero_delta():
    params = BoatParams(**SLOW_WATER)
    cfg = ControllerConfig(mode=ControlMode.LIMIT_CYCLE_ONLY)
    commanded, observed = run_step_test(params, cfg, 0.0,
                                        initial_leg=6.0, second_leg=6.0)
    assert commanded == 0.0
    assert abs(observed) < 1e-6


def test_step_test_positive_delta_undershoots():
    params = BoatParams(**SLOW_WATER)
    cfg = ControllerConfig(mode=ControlMode.LIMIT_CYCLE_ONLY)
    commanded, observed = run_step_test(params, cfg, math.pi / 3)
    assert observed - commanded < -0.05


class _CountedSteps(tuple):
    """A step schedule that counts the times it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_step_schedule_is_walked_once():
    # the loop walks the schedule once, with a cursor, so a tick's cost does
    # not grow with the number of steps that have passed
    schedule = _CountedSteps((1.0 + k / 160, 0.3 if k % 2 == 0 else -0.3)
                             for k in range(300))
    spec = MissionSpec(kind=MissionKind.STEP_TEST, duration=4.0, heading=0.1,
                       step_schedule=schedule)
    schedule.iterations = 0  # the spec's checks walk it too
    log = run_mission(BoatParams(), ControllerConfig(), spec)
    assert schedule.iterations == 1
    expected = 0.1
    for _, delta in schedule:  # every step has passed at the end
        expected += delta
    assert log.theta_des[-1] == expected


def test_step_test_outer_loop_shrinks_error():
    params = BoatParams(**SLOW_WATER)
    delta = math.pi / 3
    _, obs_inner = run_step_test(
        params, ControllerConfig(mode=ControlMode.LIMIT_CYCLE_ONLY), delta)
    _, obs_outer = run_step_test(
        params, ControllerConfig(mode=ControlMode.THRUST_DIRECTION), delta)
    assert abs(obs_outer - delta) < 0.5 * abs(obs_inner - delta)


def test_short_station_keep_stays_bounded():
    spec = MissionSpec(kind=MissionKind.STATION_KEEP, duration=20.0,
                       waypoints=((0.0, 0.5),))
    cfg = ControllerConfig(mode=ControlMode.DESATURATED_THRUST_DIRECTION)
    log = run_mission(BoatParams(), cfg, spec)
    d = np.hypot(log.x - 0.0, log.y - 0.5)
    assert np.all(log.waypoint_index == 0)
    assert d.max() < 1.0
    assert np.all(np.isfinite(log.theta))


def test_controller_mode_override():
    params = BoatParams()
    cfg = ControllerConfig(mode=ControlMode.LIMIT_CYCLE_ONLY)
    spec = MissionSpec(kind=MissionKind.CONVERGE, duration=1.0, heading=0.7)
    log = run_mission(params, cfg, spec)
    # direct reference mode pins theta_r to the command exactly
    assert np.all(log.theta_r == 0.7)


@pytest.mark.parametrize("bad", [
    dict(kind=MissionKind.WAYPOINTS, duration=1.0),
    dict(kind=MissionKind.STATION_KEEP, duration=1.0),
    dict(kind=MissionKind.CONVERGE, duration=-1.0),
    dict(kind=MissionKind.CONVERGE, duration=math.inf),
    dict(kind=MissionKind.CONVERGE, duration=1.0, tolerance_radius=0.0),
    dict(kind=MissionKind.STEP_TEST, duration=3.0,
         step_schedule=((2.0, 0.1), (1.0, 0.1))),
    dict(kind=MissionKind.CONVERGE, duration=3.0,
         disturbances=((2.0, (0.0, 0.1)), (1.0, (0.0, 0.1)))),
    dict(kind=MissionKind.WAYPOINTS, duration=1.0,
         waypoints=((1.0, 0.0),), step_schedule=((0.5, 0.1),)),
    dict(kind=MissionKind.STEP_TEST, duration=2.0, step_schedule=((5.0, 1.0),)),
    dict(kind=MissionKind.CONVERGE, duration=2.0,
         disturbances=((2.5, (0.0, 0.1)),)),
    dict(kind=MissionKind.WAYPOINTS, duration=1.0,
         waypoints=((0.05, 0.0), (1.0, 0.0)), tolerance_radius=math.nan),
    dict(kind=MissionKind.CONVERGE, duration=2.0,
         disturbances=((math.nan, (0.5, 0.0)),)),
    dict(kind=MissionKind.CONVERGE, duration=2.0,
         disturbances=((-1.0, (0.1, 0.0)),)),
    dict(kind=MissionKind.STATION_KEEP, duration=1.0,
         waypoints=((1e-300, 1e-300), (1e-300, 1e308))),
    dict(kind=MissionKind.CONVERGE, duration=1.0, start=(0.0, -2e6)),
    dict(kind=MissionKind.CONVERGE, duration=True),
    # each angle is in range, but the commanded heading leaves it
    dict(kind=MissionKind.STEP_TEST, duration=2.0, heading=1e6,
         step_schedule=tuple((0.1 * k, 1e6) for k in range(1, 11))),
])
def test_invalid_specs_rejected(bad):
    # a spec is checked as it is built, so no invalid one reaches run_mission
    with pytest.raises(ConfigError):
        MissionSpec(**bad)


_SPEC = MissionSpec(kind=MissionKind.CONVERGE, duration=0.1)


@pytest.mark.parametrize("args, name", [
    ((ControllerConfig(), BoatParams(), _SPEC), "params"),  # the first two swapped
    ((BoatParams(), _SPEC, _SPEC), "cfg"),
    ((BoatParams(), ControllerConfig(), None), "spec"),
], ids=["params", "cfg", "spec"])
def test_run_mission_refuses_an_argument_of_the_wrong_class(args, name):
    with pytest.raises(ConfigError, match=rf"^{name} must be a "):
        run_mission(*args)


def test_position_cap_is_inclusive():
    edge = (MAX_POSITION, -MAX_POSITION)
    spec = MissionSpec(kind=MissionKind.WAYPOINTS, duration=1.0, waypoints=(edge,),
                       start=edge[::-1])
    assert spec.waypoints == (edge,)
    with pytest.raises(ConfigError, match="waypoints coordinates"):
        replace(spec, waypoints=((math.nextafter(MAX_POSITION, math.inf), 0.0),))


def test_initial_conditions_default_to_rest():
    log = run_mission(BoatParams(), ControllerConfig(),
                      MissionSpec(kind=MissionKind.CONVERGE, duration=0.0,
                                  heading=0.9))
    assert log.theta[0] == 0.9  # theta starts at the initial reference
    assert log.theta_dot[0] == 0.0 and log.vx[0] == 0.0 and log.vy[0] == 0.0


def test_telemetry_column_access():
    log = run_mission(BoatParams(), ControllerConfig(),
                      MissionSpec(kind=MissionKind.CONVERGE, duration=0.0))
    # both are views of the row block, so they hold the same values
    assert log.column("x").base is log.rows and log.x.base is log.rows
    assert np.array_equal(log.column("theta"), log.theta)
    with pytest.raises(KeyError):
        log.column("nope")


_BAD_BLOCK = r"rows must be a float64 array of shape \(n, 6\)"
_BAD_STEPS = r"waypoint_steps must be an int64 array of shape \(k, 2\)"
_BAD_STARTS = "waypoint_steps must start at row 0 and change the index at increasing rows"
_BAD_HELD = r"held must be a float64 array of shape \(m, 3\)"
_BAD_GAPS = "held_gaps must be a non-empty tuple of positive ints summing below 2\\*\\*63"
_BAD_RUNS = r"held must have a row for each of the \d+ runs held_gaps lays on the log's"
_ONE_STEP = np.zeros((1, 2), dtype=np.int64)
# one run over all the rows of any log built here
_ONE_RUN = (np.zeros((1, 3)), (2**40,))
_NO_RUN = np.zeros((0, 3))


def _steps(*pairs):
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _runs(*gaps):
    """held rows 0, 1, ... for one cycle of runs of the given lengths."""
    return (np.arange(3.0 * len(gaps)).reshape(-1, 3), gaps)


# a bad index would otherwise fail only later, inside the CSV writer
@pytest.mark.parametrize("rows, steps, held, held_gaps, message", [
    (np.zeros((3, 7)), _ONE_STEP, *_ONE_RUN, _BAD_BLOCK),                 # the time stored
    (np.zeros((2, 6)), _steps((0, 0), (2, 1)), *_ONE_RUN, _BAD_STARTS),   # a step past the end
    (np.zeros((3, 6), dtype=np.int64), _ONE_STEP, *_ONE_RUN, _BAD_BLOCK),
    (np.zeros(3), _ONE_STEP, *_ONE_RUN, _BAD_BLOCK),
    (np.zeros((3, 6)), np.zeros((1, 2)), *_ONE_RUN, _BAD_STEPS),          # float
    (np.zeros((3, 6)), [[0, 0]], *_ONE_RUN, _BAD_STEPS),                  # a list
    (np.zeros((3, 6)), np.zeros((2, 1), dtype=np.int64), *_ONE_RUN, _BAD_STEPS),  # not pairs
    (np.zeros((3, 6)), np.zeros(2, dtype=np.int64), *_ONE_RUN, _BAD_STEPS),
    (np.zeros((3, 6)), _steps(), *_ONE_RUN, _BAD_STARTS),                 # no row 0
    (np.zeros((3, 6)), _steps((1, 0)), *_ONE_RUN, _BAD_STARTS),
    (np.zeros((3, 6)), _steps((0, 0), (2, 1), (2, 2)), *_ONE_RUN, _BAD_STARTS),
    (np.zeros((3, 6)), _steps((0, 0), (2, 1), (1, 2)), *_ONE_RUN, _BAD_STARTS),
    (np.zeros((0, 6)), _ONE_STEP, _NO_RUN, (1,), _BAD_STARTS),
    (np.zeros((3, 6)), _steps((0, 4), (2, 4)), *_ONE_RUN, _BAD_STARTS),   # index unchanged
    (np.zeros((3, 6)), _ONE_STEP, np.zeros((1, 3), dtype=np.int64), _ONE_RUN[1], _BAD_HELD),
    (np.zeros((3, 6)), _ONE_STEP, np.zeros((1, 4)), _ONE_RUN[1], _BAD_HELD),
    (np.zeros((3, 6)), _ONE_STEP, np.zeros(3), _ONE_RUN[1], _BAD_HELD),
    (np.zeros((3, 6)), _ONE_STEP, [[0.0, 0.0, 0.0]], _ONE_RUN[1], _BAD_HELD),
    # the runs start where the gaps put them, at rows 0, 3, 6, ... for (3,)
    (np.zeros((3, 6)), _ONE_STEP, _ONE_RUN[0], (3.0,), _BAD_GAPS),
    (np.zeros((3, 6)), _ONE_STEP, _ONE_RUN[0], [3], _BAD_GAPS),
    (np.zeros((3, 6)), _ONE_STEP, _runs(1, 2)[0], (3,), _BAD_RUNS),
    (np.zeros((3, 6)), _ONE_STEP, _ONE_RUN[0], ((3,),), _BAD_GAPS),
    (np.zeros((3, 6)), _ONE_STEP, _ONE_RUN[0], (), _BAD_GAPS),
    (np.zeros((3, 6)), _ONE_STEP, *_runs(0, 3), _BAD_GAPS),
    (np.zeros((3, 6)), _ONE_STEP, *_runs(2, 0, 1), _BAD_GAPS),
    (np.zeros((3, 6)), _ONE_STEP, *_runs(2, -1, 2), _BAD_GAPS),
    (np.zeros((3, 6)), _ONE_STEP, np.zeros((3, 3)), (2,), _BAD_RUNS),
    (np.zeros((0, 6)), _steps(), *_ONE_RUN, _BAD_RUNS),
    (np.zeros((3, 6)), _ONE_STEP, _ONE_RUN[0], (True,), _BAD_GAPS),
    (np.zeros((3, 6)), _ONE_STEP, _ONE_RUN[0], (np.int64(3),), _BAD_GAPS),
    (np.zeros((3, 6)), _ONE_STEP, _ONE_RUN[0], (2**62, 2**62), _BAD_GAPS),
    (np.zeros((3, 6)), _ONE_STEP, np.zeros((2, 3)), (1,), _BAD_RUNS),
], ids=["width", "length", "int-block", "1-d-block", "float-index", "list-index",
        "column-index", "1-d-steps", "no-steps", "first-not-0", "repeated-row",
        "decreasing-row", "step-in-empty-log", "unchanged-index", "int-held",
        "held-width", "1-d-held", "list-held", "float-starts", "list-starts",
        "starts-shorter-than-held", "2-d-starts", "no-runs", "first-run-not-0",
        "repeated-start", "decreasing-start", "start-past-the-end", "run-in-empty-log",
        "bool-gap", "numpy-gap", "gaps-past-int64", "held-shorter-than-starts"])
def test_telemetry_log_rejects_a_misshapen_row_block(rows, steps, held, held_gaps,
                                                     message):
    with pytest.raises(ValueError, match=message):
        TelemetryLog(rows, steps, held, held_gaps)


def test_telemetry_log_decodes_its_index_from_the_steps():
    log = TelemetryLog(np.zeros((6, 6)), _steps((0, 7), (1, -1), (4, 2**62)), *_ONE_RUN)
    assert log.waypoint_index.tolist() == [7, -1, -1, -1, 2**62, 2**62]
    assert log.waypoint_index.dtype == np.int64
    for start in range(7):
        for stop in range(start, 7):
            assert np.array_equal(log.index_rows(start, stop),
                                  log.waypoint_index[start:stop])
    empty = TelemetryLog(np.zeros((0, 6)), _steps(), _NO_RUN)
    assert empty.waypoint_index.shape == (0,) and empty.theta_t_dot.shape == (0,)
    assert empty.psi_hat.shape == (0,)


# a quiet NaN with a payload
_TINY_NAN = np.array([0x7FF8_0000_0000_0123], dtype=np.int64).view(np.float64)[0]


def test_telemetry_log_decodes_its_held_columns_from_the_runs():
    # a run need not change a value; -0.0 and a NaN payload keep their bits
    held = np.array([[1.0, -0.0, _TINY_NAN], [1.0, -0.0, _TINY_NAN], [2.0, 0.0, -3.5]])
    rows = np.arange(42.0).reshape(7, 6)
    log = TelemetryLog(rows, _ONE_STEP, held, (1, 4, 2))
    expected = held[[0, 1, 1, 1, 1, 2, 2]]
    for k, name in enumerate(HELD_COLUMNS):
        column = log.column(name)
        assert column.tobytes() == np.ascontiguousarray(expected[:, k]).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0.0
    floats = np.stack([log.column(name) for name in TELEMETRY_COLUMNS[:-1]], axis=1)
    for size in range(1, 9):
        out = np.full((size, len(TELEMETRY_COLUMNS) - 1), 9.0)
        chunks = [chunk.copy() for chunk in log.float_chunks(out)]
        assert [len(chunk) for chunk in chunks] == [min(size, 7 - start)
                                                    for start in range(0, 7, size)]
        assert np.concatenate(chunks).tobytes() == floats.tobytes()


def _plant_loop(theta, theta_dot, tau):
    """theta, phi and phi_dot at each row under each row's hull rate and
    motor acceleration, from theta and the motor at rest, in Python floats:
    the hull advanced by rk4_step, the motor by rk4_step_reference."""
    phi = phi_dot = 0.0
    hull, angles, rates = [], [], []
    for w, a in zip(theta_dot.tolist(), tau.tolist()):
        hull.append(theta)
        angles.append(phi)
        rates.append(phi_dot)
        theta = rk4_step(BoatParams(), theta, w, 0.0, 0.0, 0.0, 0.0, a, 0.0, 0.0)[0]
        phi, phi_dot = rk4_step_reference(BoatParams(), 0.0, 0.0, phi, phi_dot, 0.0, 0.0,
                                          0.0, 0.0, a, 0.0, 0.0, INNER_DT)[2:4]
    return (np.array(hull, dtype=float), np.array(angles, dtype=float),
            np.array(rates, dtype=float))


@pytest.mark.parametrize("tau", [
    np.array([1.5, -0.0, -2.0, 0.25, 1e-300, -3.0]),
    np.full(500, 1e308),                          # the rate overflows to inf
    np.array([3.0, 1e308, -1.7976931348623157e308, 2.0]),
    np.array([1.0, math.inf, 2.0, -math.inf, 5.0]),  # then inf - inf
    np.array([-math.inf, -1.0, 4.0]),
    np.array([1.0, _TINY_NAN, 2.0, math.nan]),    # a NaN payload carried on
    np.concatenate([np.linspace(-40.0, 40.0, 997), [1e308, math.inf, math.nan]]),
], ids=["finite", "overflow", "largest", "inf", "-inf", "nan", "long-then-edges"])
def test_motor_columns_are_integrated_from_tau(tau):
    # each derived column matches the plant's Python floats bit for bit,
    # non-finite values included, with no numpy overflow or invalid warning,
    # over the whole log and chunk by chunk
    n = len(tau)
    floats = np.zeros((n, len(TELEMETRY_COLUMNS) - 1))
    floats[:, 0] = tick_times(n)
    floats[:, TELEMETRY_COLUMNS.index("tau")] = tau
    theta_dot = np.resize([0.5, -0.0, 3.0, -2.5, 0.0, -0.75, 40.0], n)
    # the edges in the last rows, since a hull angle gone inf or NaN stays so
    edges = [1e308, -1e308, math.inf, -math.inf, _TINY_NAN]
    theta_dot[-min(n, 5):] = edges[-min(n, 5):]
    floats[:, TELEMETRY_COLUMNS.index("theta_dot")] = theta_dot
    floats[0, TELEMETRY_COLUMNS.index("theta")] = -0.3
    hull, angles, rates = _plant_loop(-0.3, theta_dot, tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = telemetry_log(floats, np.zeros(n))
        assert log.theta.tobytes() == hull.tobytes()
        assert log.phi.tobytes() == angles.tobytes()
        assert log.phi_dot.tobytes() == rates.tobytes()
        assert log.theta_t_dot.tobytes() == np.array(
            [w + r for w, r in zip(theta_dot.tolist(), rates.tolist())]).tobytes()
        floats = np.stack([log.column(name) for name in TELEMETRY_COLUMNS[:-1]], axis=1)
        for size in (1, 7, 512):
            out = np.empty((size, len(TELEMETRY_COLUMNS) - 1))
            chunks = [chunk.copy() for chunk in log.float_chunks(out)]
            assert np.concatenate(chunks).tobytes() == floats.tobytes()


@pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 4_096, 4_097, 16_897, 150_001])
def test_kept_times_are_every_512th_row_of_the_column(n):
    # the lookup sums its kept times 4,096 rows at a time; each must be the
    # column's row, which is summed 512 rows at a time
    log = TelemetryLog(np.zeros((n, 6)), _ONE_STEP[:n], _ONE_RUN[0][:n], _ONE_RUN[1])
    assert log._time_marks.tobytes() == log.t[::512].tobytes()


def test_motor_rate_cap_bounds_the_motor_angle():
    # a step adds phi_dot * dt + 0.5 * tau * dt * dt, dt times the mean of
    # its two rates, to the motor angle, so rates within a cap C keep it
    # within 2 * rows * dt * C (rounding far inside the factor 2): finite at
    # the longest run under the loop's cap
    assert 2 * (MAX_TICKS + 1) * INNER_DT * MAX_MOTOR_RATE < sys.float_info.max
    rng = np.random.default_rng(3)
    wanted = np.concatenate([[0.0], MAX_MOTOR_RATE * rng.choice([-1.0, 1.0, 0.5], 5000)])
    tau = np.diff(wanted) / INNER_DT
    rates = motor_rates(tau, 0.0)
    angles = motor_angles(tau, rates, 0.0)
    cap = np.max(np.abs(rates))
    assert cap == pytest.approx(MAX_MOTOR_RATE, rel=1e-9)
    assert np.all(np.abs(angles) <= 2 * np.arange(len(angles)) * INNER_DT * cap)


def test_a_motor_rate_past_the_cap_diverges():
    # a heavy hull barely turns while the forcing spins the motor: at
    # K = 1e306 its rate reaches -4e303 rad/s at row 2, past MAX_MOTOR_RATE,
    # though every angle would stay finite; at 2e305 it swings within the
    # cap and the run keeps a finite log
    params = BoatParams(I_b=1e300, k_thrust=0.0)
    cfg = ControllerConfig(mode=ControlMode.LIMIT_CYCLE_ONLY, K=1e306,
                           omega=math.pi / (2 * INNER_DT))
    spec = MissionSpec(kind=MissionKind.CONVERGE, duration=1.0)
    for run in (run_mission, run_mission_reference):
        with pytest.raises(ConfigError, match=r"diverged at t = 0\.008 s"):
            run(params, cfg, spec)
    log = run_mission(params, replace(cfg, K=2e305), spec)
    assert np.max(np.abs(log.phi_dot)) == pytest.approx(8e302)
    assert all(np.isfinite(log.column(name)).all() for name in TELEMETRY_COLUMNS)


def test_motor_columns_of_empty_and_one_row_logs():
    empty = TelemetryLog(np.zeros((0, 6)), _steps(), _NO_RUN, theta0=0.25)
    assert empty.theta.shape == empty.phi.shape == empty.phi_dot.shape == (0,)
    assert list(empty.float_chunks(np.empty((4, len(TELEMETRY_COLUMNS) - 1)))) == []
    one = TelemetryLog(np.full((1, 6), 7.0), _ONE_STEP, *_ONE_RUN, theta0=-0.0)
    # row 0's hull angle is theta0, its bits kept, whatever its rate and torque
    assert one.theta.tobytes() == np.array([-0.0]).tobytes()
    assert TelemetryLog(np.zeros((1, 6)), _ONE_STEP, *_ONE_RUN).theta.tolist() == [0.0]
    assert one.phi.tolist() == [0.0] and one.phi_dot.tolist() == [0.0]
    assert one.theta_t_dot.tolist() == [7.0]  # the motor starts at rest
    for name in ("theta", "phi", "phi_dot"):
        with pytest.raises(ValueError, match="read-only"):
            one.column(name)[0] = 1.0


def test_derived_rows_are_the_column_rows():
    # a read of some rows integrates from row 0 across chunk edges and keeps
    # only the rows asked for
    rng = np.random.default_rng(11)
    log = TelemetryLog(rng.standard_normal((1100, 6)), _ONE_STEP, *_ONE_RUN, theta0=0.7)
    for name in DERIVED_COLUMNS:
        column = log.column(name)
        for start, stop in ((0, 0), (0, 1100), (1, 511), (511, 513), (512, 1024),
                            (513, 1100), (1099, 1100), (1100, 1100)):
            rows = log.derived_rows(name, start, stop)
            assert rows.tobytes() == column[start:stop].tobytes()
    for start, stop in ((-1, 3), (3, 2), (0, 1101)):
        with pytest.raises(IndexError):
            log.derived_rows("theta", start, stop)


@pytest.mark.parametrize("name, integrations", [
    ("t", ()), ("theta", ("hull_angles",)), ("phi_dot", ("motor_rates",)),
    ("phi", ("motor_rates", "motor_angles")), ("theta_t_dot", ("motor_rates",))])
def test_derived_column_runs_only_its_integrations(monkeypatch, name, integrations):
    # computing every derived column for one made a read of phi_dot cost
    # the hull integration too
    from paddlesim import mission
    log = run_mission(BoatParams(), ControllerConfig(
        mode=ControlMode.DESATURATED_THRUST_DIRECTION),
        MissionSpec(kind=MissionKind.CONVERGE, duration=3.0, initial_theta=-1.0))
    column = log.column(name)
    for other in {"hull_angles", "motor_rates", "motor_angles"} - set(integrations):
        monkeypatch.setattr(mission, other, refused(other))
    assert log.column(name).tobytes() == column.tobytes()
    assert log.derived_rows(name, 600, 700).tobytes() == column[600:700].tobytes()


@pytest.mark.parametrize("name", DERIVED_COLUMNS)
def test_derived_column_read_peaks_at_its_column(name):
    # the column is filled a chunk of a few hundred rows at a time, each
    # chunk's temporaries freed before the next; integrating the whole log
    # at once peaked at 3 columns for phi
    n = 150_001  # long-mission's rows
    rng = np.random.default_rng(5)
    log = TelemetryLog(rng.standard_normal((n, 6)), _ONE_STEP, *_ONE_RUN)
    column, peak = traced_peak(lambda: log.column(name))
    assert len(column) == n and peak <= 1.1 * 8 * n


def test_telemetry_log_is_frozen_and_refuses_writes():
    # a rebound field or a write through a view would leave the kept unwrap
    # stale, or break the index decode only at its next use
    log = run_mission(BoatParams(), ControllerConfig(),
                      MissionSpec(kind=MissionKind.WAYPOINTS, duration=2.0,
                                  waypoints=((0.0, 0.0), (0.0, 1.0))))
    psi = log.psi_unwrapped
    for name, value in (("rows", np.zeros((3, 6))), ("waypoint_steps", np.zeros(3)),
                        ("held", np.zeros((1, 3))), ("held_gaps", (1,)),
                        ("period", 2.0), ("theta0", 1.0), ("params", BoatParams())):
        with pytest.raises(FrozenInstanceError):
            setattr(log, name, value)
    with pytest.raises(ValueError, match="read-only"):
        log.x[:] = 0
    with pytest.raises(ValueError, match="read-only"):
        log.rows[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        log.waypoint_steps[0, 1] = 5
    with pytest.raises(ValueError, match="read-only"):
        log.held[0, 2] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        log._run_offsets[-1] = len(log)
    with pytest.raises(ValueError, match="read-only"):
        log.psi_hat[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        log.phi_dot[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        log.psi_unwrapped[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        log.psi_suffix_max[0] = 0.0
    log.time_at(-1)
    with pytest.raises(ValueError, match="read-only"):
        log._time_marks[0] = 1.0
    assert log.waypoint_steps.tolist() == [[0, 1]]  # the start is on waypoints[0]
    assert np.array_equal(log.psi_unwrapped, np.unwrap(log.psi_hat))
    # replace builds a new log on the same block, with its own kept unwrap
    other = replace(log, period=2.0)
    assert other.rows is log.rows and other.waypoint_steps is log.waypoint_steps
    assert other.held is log.held and other.held_gaps is log.held_gaps
    assert other.period == 2.0 and log.period == ControllerConfig().period
    assert "psi_unwrapped" not in vars(other)
    assert other.psi_unwrapped is not psi and np.array_equal(other.psi_unwrapped, psi)


def test_telemetry_log_stores_48_bytes_a_tick_24_an_outer_tick_and_16_a_step():
    # 6 float64 columns a tick; the time, the hull angle, the motor state and
    # the reaction-mass rate are computed on access, from the run's theta0
    # and params, the outer loop's 3 outputs are one row per outer tick, its
    # runs laid by the outer gaps, and the waypoint index is one (first row,
    # index) pair per change
    (_, boat, control, mission), = parse_scenario(load_preset("waypoint-square")).points
    log = run_mission(boat, control, replace(mission, duration=40.0))
    ticks, steps = len(log), len(log.waypoint_steps)
    outer = outer_tick_indices(ticks)
    assert ticks == round(40.0 * 250) + 1 and steps == 4 and len(outer) == 4801
    assert log.held_gaps == _OUTER_GAPS and len(log.held) == len(outer)
    assert np.array_equal(log._run_lengths(), np.diff(outer, append=ticks))
    assert log.rows.shape == (ticks, 6)
    assert stored_bytes(log) == 48 * ticks + 24 * len(outer) + 16 * steps
    assert log.params is boat and log.theta0 == log.theta[0] == math.atan2(0.0, 1.0)
    assert log.waypoint_steps[:, 1].tolist() == list(range(steps))


@pytest.mark.parametrize("preset", preset_names())
def test_log_bytes_bound_what_a_run_stores(preset):
    # the prediction counts a step per waypoint, the most the index can take
    # as it only advances, and is exact but for the steps
    (_, boat, control, mission), = parse_scenario(load_preset(preset)).points
    log = run_mission(boat, control, mission)
    steps = 16 * max(len(mission.waypoints), 1)
    assert log_bytes(mission) - steps == stored_bytes(log) - log.waypoint_steps.nbytes
    assert log.waypoint_steps.nbytes <= steps


@pytest.mark.parametrize("preset", ["waypoint-square", "congruent-step"])
def test_run_mission_peak_memory_is_its_log(preset):
    # the row and held blocks are preallocated and filled in place, and the
    # rest of the loop's memory does not grow with the run (about 47 KB, 6%
    # of a 40 s log), so 40 s of each preset show it; tracing slows the loop
    # about 27 times
    (_, boat, control, mission), = parse_scenario(load_preset(preset)).points
    mission = replace(mission, duration=40.0)
    log, peak = traced_peak(lambda: run_mission(boat, control, mission))
    assert peak <= 1.1 * stored_bytes(log)


# Loop paths that no shipped preset takes; the preset CSVs pin the rest.
# LOOP_PATH_SHA256 holds the sha256 of every column's raw bytes, recorded
# before the loop was rewritten around preallocated columns, and for
# initial_theta_disturbance before the estimator's warm start became
# unconditional.
_DESAT = ControlMode.DESATURATED_THRUST_DIRECTION
_KICKS = ((3.0, (0.05, 0.0)), (3.0, (0.0, -0.04)), (9.0, (-0.06, 0.02)))
LOOP_PATHS = {
    "initial_theta_disturbance": (
        ControllerConfig(),
        MissionSpec(kind=MissionKind.CONVERGE, duration=6.0, heading=0.4,
                    initial_theta=-1.0, disturbances=((1.0, (0.0, 0.08)),))),
    # recorded when a mission could override the controller's mode; the
    # digest is of this limit-cycle run
    "controller_mode_override": (
        ControllerConfig(mode=ControlMode.LIMIT_CYCLE_ONLY),
        MissionSpec(kind=MissionKind.STEP_TEST, duration=6.0,
                    step_schedule=((2.0, 0.8), (4.0, -1.5)))),
    "desaturated_disturbances": (
        ControllerConfig(mode=_DESAT),
        MissionSpec(kind=MissionKind.WAYPOINTS, duration=20.0,
                    waypoints=((0.4, 0.0), (0.4, 0.4), (0.0, 0.4), (0.0, 0.0)),
                    tolerance_radius=0.08, disturbances=_KICKS)),
    "zero_duration": (
        ControllerConfig(mode=_DESAT),
        MissionSpec(kind=MissionKind.WAYPOINTS, duration=0.0,
                    waypoints=((0.4, 0.0),), disturbances=((0.0, (0.01, 0.0)),))),
    # recorded before the loop walked the schedule with a cursor: 2,000 steps
    # 6.25 ms apart, so some outer ticks pass two and every 16th lands on an
    # outer tick, where t differs from the step time by rounding alone; from
    # a heading of 0.1 the running sum drifts by rounding, so theta_des pins
    # the order of the adds
    "many_steps": (
        ControllerConfig(),
        MissionSpec(kind=MissionKind.STEP_TEST, duration=60.0, heading=0.1,
                    step_schedule=tuple((1.0 + k / 160, 0.3 if k % 2 == 0 else -0.3)
                                        for k in range(2000)))),
}
LOOP_PATH_SHA256 = json.loads(
    (Path(__file__).parent / "loop_path_sha256.json").read_text())


def column_digests(log):
    return {name: hashlib.sha256(log.column(name).tobytes()).hexdigest()
            for name in TELEMETRY_COLUMNS}


def test_every_loop_path_has_exactly_one_digest():
    assert set(LOOP_PATHS) == set(LOOP_PATH_SHA256)


@pytest.mark.parametrize("case", sorted(LOOP_PATHS))
def test_uncovered_loop_paths_bit_identical(case):
    cfg, spec = LOOP_PATHS[case]
    log = run_mission(BoatParams(), cfg, spec)
    assert len(log) == round(250 * spec.duration) + 1
    assert log.waypoint_index.dtype == np.int64
    assert all(log.column(name).dtype == np.float64
               for name in TELEMETRY_COLUMNS[:-1])
    assert column_digests(log) == LOOP_PATH_SHA256[case]


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    """perfbench/<name>.py as a module; the file is read, not changed, and
    perfbench is no package, so it is loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spanned_names():
    """(owner, name) of every function the benchmark times, as
    perfbench/tracer.py lists them in SPANNED."""
    return [(owner, name) for _, owner, name in _perfbench_module("tracer").SPANNED]


def test_long_mission_workload_matches_its_recorded_digests():
    # the benchmark's 600 s waypoint circuit at seed 0, checked as its worker
    # checks it: each column's bytes and the report against digests.json
    from paddlesim.cli import report_metrics
    boat, control, spec = _perfbench_module("workloads").long_mission(0)
    log = run_mission(boat, control, spec)
    outputs = {f"column.{name}": hashlib.sha256(
        np.ascontiguousarray(log.column(name)).tobytes()).hexdigest()
        for name in TELEMETRY_COLUMNS}
    report = report_metrics([log], spec)
    outputs["report"] = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()
    recorded = json.loads((_PERFBENCH / "digests.json").read_text())
    assert outputs == recorded["long-mission"]["0"]


def test_sweep_batch_workload_matches_its_recorded_digests(tmp_path):
    # the benchmark's desaturated 2x2 waypoint sweep with impulses and
    # repeats at seed 0, through the CLI as its worker runs it: each CSV and
    # report against digests.json
    from paddlesim.cli import main
    workloads = _perfbench_module("workloads")
    config = tmp_path / "sweep-batch.cfg"
    config.write_text(workloads.sweep_config(0))
    out = tmp_path / "out"
    assert main(["run", str(config), "--out-dir", str(out)]) == 0
    names = [name for stem, csvs in workloads.sweep_outputs().items()
             for name in (*csvs, f"{stem}_metrics.txt", f"{stem}_metrics.dat")]
    outputs = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in names}
    recorded = json.loads((_PERFBENCH / "digests.json").read_text())
    assert outputs == recorded["sweep-batch"]["0"]


def test_wrapped_names_see_every_call(monkeypatch):
    # The benchmark times the plant, the torque laws, the outer loop and the
    # estimator by wrapping the names in its SPANNED list from outside; a
    # renamed function would not be found there, and a loop that went round
    # one would read as zero calls.  Each control mode calls a different
    # set.  Wrapping must not change a bit either.
    from paddlesim import cli, mission
    from paddlesim.estimation import TravelEstimator
    owners = {"mission": mission, "cli": cli, "TravelEstimator": TravelEstimator}
    # the benchmark also counts waypoint arrivals through waypoint_heading
    names = [*_spanned_names(), ("mission", "waypoint_heading")]
    _, spec = LOOP_PATHS["desaturated_disturbances"]
    n_steps = round(250 * spec.duration)
    n_outer = len(outer_tick_indices(n_steps + 1))
    laws = {  # each mode's torque law and outer-loop calls
        ControlMode.LIMIT_CYCLE_ONLY: {"desaturated_torque": n_steps + 1},
        ControlMode.THRUST_DIRECTION: {"limit_cycle_torque": n_steps + 1,
                                       "outer_loop_reference": n_outer},
        _DESAT: {"desaturated_torque": n_steps + 1, "outer_loop_reference": n_outer,
                 "desaturate_reference": n_outer},
    }
    for mode, law_calls in laws.items():
        cfg = ControllerConfig(mode=mode)
        plain = run_mission(BoatParams(), cfg, spec)
        calls = dict.fromkeys((name for _, name in names), 0)

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as patch:
            for owner, name in names:
                fn = getattr(owners[owner], name)
                patch.setattr(owners[owner], name, counted(fn, name))
            wrapped = mission.run_mission(BoatParams(), cfg, spec)

        expected = dict.fromkeys(calls, 0)
        expected.update(run_mission=1, rk4_step=n_steps, add_pose=n_outer,
                        travel_direction=n_outer, waypoint_heading=n_outer,
                        **law_calls)
        assert calls == expected, mode
        for name in TELEMETRY_COLUMNS:
            assert wrapped.column(name).tobytes() == plain.column(name).tobytes(), \
                (mode, name)


def test_unwind_count_matches_telemetry(monkeypatch):
    # The benchmark counts an unwind when desaturate_reference returns a
    # theta_r other than the one it was passed.  A loop that mutated the
    # reference and handed the same object back would read as no unwinds.
    from paddlesim import mission
    desaturate = mission.desaturate_reference
    unwinds = 0

    def counted(ref, *args, **kwargs):
        nonlocal unwinds
        out = desaturate(ref, *args, **kwargs)
        unwinds += out.theta_r != ref.theta_r
        return out
    monkeypatch.setattr(mission, "desaturate_reference", counted)
    cfg, spec = LOOP_PATHS["desaturated_disturbances"]
    log = run_mission(BoatParams(), cfg, spec)
    # an unwind is the only way theta_r moves more than a half turn in a tick
    assert unwinds == np.sum(np.abs(np.diff(log.theta_r)) > np.pi) >= 1


# Whole-run oracles on the loop's plant and impulse paths: a 40 s step mission
# with two impulses, in each control mode, checked against conservation laws
# of the model rather than against a second integrator.
_ORACLE_SPEC = MissionSpec(kind=MissionKind.STEP_TEST, duration=40.0, heading=0.3,
                           step_schedule=((12.0, 1.2), (26.0, -2.0)),
                           disturbances=((7.0, (0.04, -0.03)), (19.0, (-0.05, 0.02))))


@pytest.mark.parametrize("mode", list(ControlMode), ids=lambda m: m.value)
def test_drag_free_run_conserves_angular_momentum(mode):
    # with no rotational drag the motor only trades momentum between the
    # hull and the reaction mass, and the impulses act on translation alone
    p = BoatParams(C_f=0.0, C_r=0.0)
    log = run_mission(p, ControllerConfig(mode=mode), _ORACLE_SPEC)
    h = (p.I_b + p.I_t) * log.theta_dot + p.I_t * log.phi_dot
    assert np.max(np.abs(h - h[0])) < 1e-15
    assert np.ptp(log.phi_dot) > 1.0  # the motor does work


@pytest.mark.parametrize("mode", list(ControlMode), ids=lambda m: m.value)
def test_drag_free_run_integrates_thrust_and_impulses(mode):
    # with no translational drag each tick adds the held thrust's push and
    # each disturbance its kick; the loop's sum may drift from the exact one
    # by rounding alone, at most an ulp of the velocity per tick (under a
    # constant heading it drifts 1.6e-13, one push is 2e-4)
    p = BoatParams(C_v=0.0)
    cfg = ControllerConfig(mode=mode)
    log = run_mission(p, cfg, _ORACLE_SPEC)
    thrust = p.k_thrust * cfg.K
    for axis, vel, trig in ((0, log.vx, math.cos), (1, log.vy, math.sin)):
        pushes = [thrust * trig(heading) * INNER_DT / p.mass
                  for heading in log.theta_r[:-1].tolist()]
        kicks = [kick[axis] for _, kick in _ORACLE_SPEC.disturbances]
        rounding = len(pushes) * math.ulp(float(np.max(np.abs(vel))))
        assert abs(vel[-1] - math.fsum(pushes + kicks)) <= rounding
