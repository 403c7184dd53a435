import hashlib
import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import SLOW_WATER
from helpers import run_step_test
from paddlesim.control import ControlMode, ControllerConfig
from paddlesim.dynamics import INNER_DT, BoatParams
from paddlesim.mission import (MAX_POSITION, TELEMETRY_COLUMNS, ConfigError,
                               MissionKind, MissionSpec, TelemetryLog, _OUTER_GAPS,
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
    assert log.column("theta").base is log.rows and log.theta.base is log.rows
    assert np.array_equal(log.column("theta"), log.theta)
    with pytest.raises(KeyError):
        log.column("nope")


@pytest.mark.parametrize("rows, index", [
    (np.zeros((3, 13)), np.zeros(3, dtype=np.int64)),   # a column short
    (np.zeros((3, 14)), np.zeros(4, dtype=np.int64)),   # one row fewer than the index
    (np.zeros((3, 14), dtype=np.int64), np.zeros(3, dtype=np.int64)),  # not float64
], ids=["width", "length", "int-block"])
def test_telemetry_log_rejects_a_misshapen_row_block(rows, index):
    with pytest.raises(ValueError, match=r"float64 array of shape \(\d+, 14\)"):
        TelemetryLog(rows, index)


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


def _spanned_names():
    """(owner, name) of every function the benchmark times, as
    perfbench/tracer.py lists them in SPANNED; the file is read, not
    changed, and perfbench is no package, so it is loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(owner, name) for _, owner, name in tracer.SPANNED]


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
