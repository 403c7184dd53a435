import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import SLOW_WATER
from helpers import run_step_test
from paddlesim.control import ControlMode, ControllerConfig
from paddlesim.dynamics import BoatParams, SimState
from paddlesim.mission import (MAX_POSITION, TELEMETRY_COLUMNS, ConfigError,
                               MissionKind, MissionSpec, _OUTER_GAPS, apply_disturbance,
                               run_mission, waypoint_heading)


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
    heading, idx = waypoint_heading(SimState(pos=(0.0, 0.0)), spec, 0)
    assert heading == pytest.approx(0.0) and idx == 0
    # inside the tolerance of the active waypoint: advance and aim at the next
    heading, idx = waypoint_heading(SimState(pos=(0.95, 0.0)), spec, 0)
    assert idx == 1
    assert heading == pytest.approx(math.atan2(1.0, 0.05))
    # diagonal target
    spec2 = MissionSpec(kind=MissionKind.WAYPOINTS, duration=1.0,
                        waypoints=((1.0, 1.0),))
    heading, idx = waypoint_heading(SimState(pos=(0.0, 0.0)), spec2, 0)
    assert heading == pytest.approx(math.pi / 4)
    # terminal waypoint is held forever
    heading, idx = waypoint_heading(SimState(pos=(0.99, 0.99)), spec2, 0)
    assert idx == 0


def test_waypoint_index_monotonic(square_log):
    assert np.all(np.diff(square_log.waypoint_index) >= 0)
    assert square_log.waypoint_index[-1] == 3


def test_apply_disturbance():
    s = SimState(vel=(0.1, 0.0), pos=(3.0, 4.0), theta=0.5)
    out = apply_disturbance(s, (0.0, 0.0))
    assert out.vel == s.vel and out.pos == s.pos
    out = apply_disturbance(s, (0.0, 0.1))
    assert out.vel == pytest.approx((0.1, 0.1))
    assert out.pos == s.pos and out.theta == s.theta and out.t == s.t


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
])
def test_invalid_specs_rejected(bad):
    # a spec is checked as it is built, so no invalid one reaches run_mission
    with pytest.raises(ConfigError):
        MissionSpec(**bad)


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
    assert log.column("theta") is log.theta
    with pytest.raises(KeyError):
        log.column("nope")


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


def test_wrapped_names_see_every_call(monkeypatch):
    # The benchmark times the plant, the torque law and the estimator by
    # wrapping these names from outside; a loop that went round them would
    # read as zero calls there.  Wrapping must not change a bit either.
    from paddlesim import mission
    from paddlesim.estimation import TravelEstimator
    cfg, spec = LOOP_PATHS["desaturated_disturbances"]
    plain = run_mission(BoatParams(), cfg, spec)
    calls = dict.fromkeys(("rk4_step", "desaturated_torque", "desaturate_reference",
                           "add_pose", "travel_direction"), 0)

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("rk4_step", "desaturated_torque", "desaturate_reference"):
        counted(mission, name)
    for name in ("add_pose", "travel_direction"):
        counted(TravelEstimator, name)
    wrapped = run_mission(BoatParams(), cfg, spec)

    n_steps = round(250 * spec.duration)
    n_outer = len(outer_tick_indices(n_steps + 1))
    assert calls == {"rk4_step": n_steps, "desaturated_torque": n_steps + 1,
                     "desaturate_reference": n_outer, "add_pose": n_outer,
                     "travel_direction": n_outer}
    for name in TELEMETRY_COLUMNS:
        assert wrapped.column(name).tobytes() == plain.column(name).tobytes(), name
