"""Scenario execution with the two-rate control loop.

The plant and the inner torque loop run at 250 Hz; the outer loop (pose
sampling, travel-direction estimate, desired-heading logic, reference
update) runs at 120 Hz.  The rates are not integer multiples, so outer
ticks are laid on the inner grid by a fixed repeating gap pattern whose
mean spacing is exactly 25/12 inner ticks.  Everything is seed-free:
identical inputs produce bit-identical telemetry.
"""

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from itertools import cycle

import numpy as np

from .control import (ControlMode, ControllerConfig, ReferenceState,
                      desaturate_reference, desaturated_torque,
                      limit_cycle_torque, outer_loop_reference, wrap_to_pi)
from .dynamics import (INNER_DT, INNER_RATE, BoatParams, ConfigError, SimState,
                       check_fields, rk4_step)
from .estimation import TravelEstimator
from .metrics import coincident

# the 120 Hz outer loop: 12 outer ticks per 25 inner ticks; eleven gaps of 2
# and one of 3
_OUTER_GAPS = (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3)
# Longest run accepted: 40,000 s at the inner rate.  Telemetry is
# preallocated at 120 B per tick, so this caps a run's columns near 1.2 GB.
MAX_TICKS = 10**7
# Largest unwrapped angle accepted (heading, initial_theta, a step change), rad.
# Real commands are a few turns; near 1e308, sums and means of angles overflow
# to inf, which wrap_to_pi cannot floor.
MAX_ANGLE = 1e6
# Largest waypoint or start coordinate accepted, m.  Distances to points near
# 1e308 overflow to inf, and the report's quartiles of them to NaN.
MAX_POSITION = 1e6


class MissionKind(Enum):
    CONVERGE = "converge"
    STEP_TEST = "step"
    WAYPOINTS = "waypoints"
    STATION_KEEP = "station_keep"


@dataclass(frozen=True)
class MissionSpec:
    """Declarative description of one scenario run."""

    kind: MissionKind
    duration: float                       # s
    heading: float = 0.0                  # desired travel direction, rad
    waypoints: tuple = ()                 # ordered (x, y) targets, m
    tolerance_radius: float = 0.1         # segment-transition radius, m
    step_schedule: tuple = ()             # (time s, heading change rad) pairs
    disturbances: tuple = ()              # (time s, (dvx, dvy) m/s) impulses
    initial_theta: float | None = None    # None: start at the initial reference
    start: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not isinstance(self.kind, MissionKind):
            raise ConfigError(f"unknown mission kind: {self.kind!r}")
        check_fields(self, positive=("tolerance_radius",), non_negative=("duration",))
        if self.duration * INNER_RATE > MAX_TICKS:  # a float test: 1e308 must not overflow
            raise ConfigError(f"duration must be at most {MAX_TICKS / INNER_RATE:g} s "
                              f"({MAX_TICKS} ticks at {INNER_RATE:g} Hz)")
        angles = [self.heading, *(delta for _, delta in self.step_schedule)]
        if self.initial_theta is not None:
            angles.append(self.initial_theta)
        if any(abs(a) > MAX_ANGLE for a in angles):
            raise ConfigError(f"heading, initial_theta and step changes must be "
                              f"at most {MAX_ANGLE:g} rad in magnitude")
        for name, coords in (("waypoints", [c for p in self.waypoints for c in p]),
                             ("start", self.start)):
            if any(abs(c) > MAX_POSITION for c in coords):
                raise ConfigError(f"{name} coordinates must be at most "
                                  f"{MAX_POSITION:g} m in magnitude")
        if self.kind in (MissionKind.WAYPOINTS, MissionKind.STATION_KEEP):
            if not self.waypoints:
                raise ConfigError(f"{self.kind.value} mission needs at least one waypoint")
            if self.step_schedule:
                raise ConfigError("step_schedule is only valid for converge/step missions")
        if any(coincident(p0, p1) for p0, p1 in zip(self.waypoints, self.waypoints[1:])):
            raise ConfigError("consecutive waypoints must not coincide")
        for name in ("step_schedule", "disturbances"):
            times = [0.0, *(ts for ts, _ in getattr(self, name)), self.duration]
            if any(t1 < t0 for t0, t1 in zip(times, times[1:])):
                raise ConfigError(f"{name} times must be non-negative, "
                                  f"non-decreasing and at most duration")


@dataclass
class TelemetryLog:
    """Per-tick record columns, uniformly sampled at the inner rate."""

    t: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    phi: np.ndarray
    phi_dot: np.ndarray
    theta_t_dot: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    theta_r: np.ndarray
    theta_des: np.ndarray
    psi_hat: np.ndarray
    tau: np.ndarray
    waypoint_index: np.ndarray
    period: float = 1.0         # controller oscillation period, s
    body_length: float = 0.15   # m, carried along for BL-normalised metrics

    def __len__(self) -> int:
        return len(self.t)

    def column(self, name: str) -> np.ndarray:
        if name not in TELEMETRY_COLUMNS:
            raise KeyError(name)
        return getattr(self, name)


# the per-tick columns, in field order; period and body_length are metadata
TELEMETRY_COLUMNS = tuple(f.name for f in fields(TelemetryLog)
                          if f.name not in ("period", "body_length"))


def apply_disturbance(state: SimState, impulse: tuple[float, float]) -> SimState:
    """Instantaneous velocity impulse; all other fields unchanged."""
    return replace(state, vel=(state.vel[0] + impulse[0], state.vel[1] + impulse[1]))


def waypoint_heading(state: SimState, spec: MissionSpec,
                     active_index: int) -> tuple[float, int]:
    """Desired heading toward the active waypoint, advancing it on arrival.

    The index advances at most once per call and the last waypoint is held
    forever, which is what makes a single-waypoint mission station-keep.
    """
    if not 0 <= active_index < len(spec.waypoints):
        raise IndexError(f"active_index {active_index} out of range")
    px, py = state.pos
    wx, wy = spec.waypoints[active_index]
    if (math.hypot(wx - px, wy - py) <= spec.tolerance_radius
            and active_index < len(spec.waypoints) - 1):
        active_index += 1
        wx, wy = spec.waypoints[active_index]
    return math.atan2(wy - py, wx - px), active_index


def _scheduled_heading(spec: MissionSpec, t: float) -> float:
    """Commanded heading of a converge or step mission at time t."""
    heading = spec.heading
    for step_time, delta in spec.step_schedule:
        if t >= step_time - 1e-12:
            heading += delta
        else:
            break
    return heading


def _initial_desired_heading(spec: MissionSpec) -> float:
    if spec.kind in (MissionKind.WAYPOINTS, MissionKind.STATION_KEEP):
        wx, wy = spec.waypoints[0]
        return math.atan2(wy - spec.start[1], wx - spec.start[0])
    return spec.heading


def run_mission(params: BoatParams, cfg: ControllerConfig,
                spec: MissionSpec) -> TelemetryLog:
    """Run one scenario deterministically and return its full telemetry."""
    mode = cfg.mode
    limit_cycle_only = mode is ControlMode.LIMIT_CYCLE_ONLY
    desaturated = mode is ControlMode.DESATURATED_THRUST_DIRECTION
    follows_waypoints = spec.kind in (MissionKind.WAYPOINTS, MissionKind.STATION_KEEP)
    dt = INNER_DT
    n_steps = round(spec.duration * INNER_RATE)
    period = cfg.period
    thrust = params.k_thrust * cfg.K
    isfinite = math.isfinite
    # resolved per run from this module, so wrappers installed on it apply;
    # rk4_step, desaturate_reference and waypoint_heading are looked up on
    # every call for the same reason
    torque_law = (limit_cycle_torque if mode is ControlMode.THRUST_DIRECTION
                  else desaturated_torque)
    disturbances = spec.disturbances
    n_dist = len(disturbances)
    next_dist = 0
    next_dist_t = disturbances[0][0] if n_dist else math.inf
    outer_gaps = cycle(_OUTER_GAPS)

    theta_des = _initial_desired_heading(spec)
    theta0 = spec.initial_theta if spec.initial_theta is not None else theta_des
    state = SimState(t=0.0, theta=theta0, pos=spec.start)
    theta_r = theta_des
    last_desat_time = -math.inf
    est = TravelEstimator(period, theta_des_fallback=theta_des)

    # preallocated columns in TELEMETRY_COLUMNS order, written through
    # memoryviews, which take and give plain Python floats
    columns = [np.empty(n_steps + 1) for _ in TELEMETRY_COLUMNS[:-1]]
    columns.append(np.empty(n_steps + 1, dtype=np.int64))  # waypoint_index
    (t_col, theta_col, theta_dot_col, phi_col, phi_dot_col, rate_col, x_col,
     y_col, vx_col, vy_col, theta_r_col, theta_des_col, psi_hat_col, tau_col,
     idx_col) = map(memoryview, columns)

    # Trailing one-period boxcar of the reaction-mass rate.  Its samples are
    # rows lo..i of the t and theta_t_dot columns, which are written as soon
    # as the plant step produces them.
    t_col[0] = state.t
    theta_col[0] = state.theta
    rate_col[0] = rate_sum = state.top_rate
    lo = 0

    active_idx = 0
    next_outer = 0

    for i in range(n_steps + 1):
        t = state.t
        while next_dist_t <= t + 1e-12:
            state = apply_disturbance(state, disturbances[next_dist][1])
            next_dist += 1
            next_dist_t = disturbances[next_dist][0] if next_dist < n_dist else math.inf
        x, y = state.pos
        theta_dot = state.theta_dot
        # an overflowing plant goes non-finite here before any law reads it
        if not isfinite(x + y + theta_dot):
            raise ConfigError(f"the simulated state diverged at t = {t:g} s")

        if i == next_outer:
            next_outer += next(outer_gaps)
            est.add_pose(t, x, y)
            psi_hat = est.travel_direction()
            if follows_waypoints:
                theta_des, active_idx = waypoint_heading(state, spec, active_idx)
            else:
                theta_des = _scheduled_heading(spec, t)
            if limit_cycle_only:
                # reference driven directly; unwrapped commands pass through
                theta_r = theta_des
            else:
                target = outer_loop_reference(cfg, theta_des, psi_hat)
                pending = wrap_to_pi(target - theta_r)
                theta_r += pending
                if desaturated:
                    mean_rate = rate_sum / (i + 1 - lo)
                    ref = desaturate_reference(
                        ReferenceState(theta_r, last_desat_time), mean_rate, t,
                        cfg, pending)
                    theta_r, last_desat_time = ref.theta_r, ref.last_desat_time

        tau = torque_law(cfg, t, state.theta, theta_r)

        vx, vy = state.vel
        theta_dot_col[i] = theta_dot
        phi_col[i] = state.phi
        phi_dot_col[i] = state.phi_dot
        x_col[i] = x
        y_col[i] = y
        vx_col[i] = vx
        vy_col[i] = vy
        theta_r_col[i] = theta_r
        theta_des_col[i] = theta_des
        psi_hat_col[i] = psi_hat
        tau_col[i] = tau
        idx_col[i] = active_idx

        if i == n_steps:
            break
        state = rk4_step(params, state, tau, theta_r, dt, thrust)
        t_col[i + 1] = state.t
        theta_col[i + 1] = state.theta
        rate_col[i + 1] = rate = state.top_rate
        rate_sum += rate
        floor = state.t - period
        while t_col[lo] <= floor:
            rate_sum -= rate_col[lo]
            lo += 1

    return TelemetryLog(*columns, period=period, body_length=params.body_length)
