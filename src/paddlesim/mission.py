"""Scenario execution with the two-rate control loop.

The plant and the inner torque loop run at 250 Hz; the outer loop (pose
sampling, travel-direction estimate, desired-heading logic, reference
update) runs at 120 Hz.  The rates are not integer multiples, so outer
ticks are laid on the inner grid by a fixed repeating gap pattern whose
mean spacing is exactly 25/12 inner ticks.  Everything is seed-free:
identical inputs produce bit-identical telemetry.
"""

import math
import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, cycle

import numpy as np

from .control import (ControlMode, ControllerConfig, ReferenceState,
                      desaturate_reference, desaturated_torque,
                      limit_cycle_torque, outer_loop_reference, wrap_to_pi)
from .dynamics import (INNER_DT, INNER_RATE, BoatParams, ConfigError, check_fields,
                       rk4_step)
from .estimation import TravelEstimator

# the 120 Hz outer loop: 12 outer ticks per 25 inner ticks; eleven gaps of 2
# and one of 3
_OUTER_GAPS = (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3)
# Longest run accepted: 40,000 s at the inner rate.  Telemetry is
# preallocated at 120 B per tick, so this caps a run's columns near 1.2 GB.
MAX_TICKS = 10**7
# Largest unwrapped angle accepted (heading, also after each step,
# initial_theta, a step change), rad.  Real commands are a few turns; near
# 1e308, sums and means of angles overflow to inf, which wrap_to_pi cannot
# floor.  A run whose hull or reference angle passes twice this has diverged:
# an ulp there (4.7e-10) is still under wrap_to_pi's error bound.
MAX_ANGLE = 1e6
# Largest waypoint or start coordinate accepted, m.  Distances to points near
# 1e308 overflow to inf, and the report's quartiles of them to NaN.
MAX_POSITION = 1e6


def coincident(p0: tuple[float, float], p1: tuple[float, float]) -> bool:
    """True when two points are too close to define a line (under 1e-9 m)."""
    return math.hypot(p1[0] - p0[0], p1[1] - p0[1]) < 1e-9


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
        deltas = [delta for _, delta in self.step_schedule]
        # the heading before and after each step, summed as run_mission sums it
        angles = [*accumulate([self.heading, *deltas]), *deltas]
        if self.initial_theta is not None:
            angles.append(self.initial_theta)
        if any(abs(a) > MAX_ANGLE for a in angles):
            raise ConfigError(f"heading (also after each step), initial_theta and step "
                              f"changes must be at most {MAX_ANGLE:g} rad in magnitude")
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


# the per-tick columns: 14 floats, then the waypoint index
TELEMETRY_COLUMNS = ("t", "theta", "theta_dot", "phi", "phi_dot", "theta_t_dot", "x",
                     "y", "vx", "vy", "theta_r", "theta_des", "psi_hat", "tau",
                     "waypoint_index")
# one row of the float columns, all but the last, in that order
_ROW = struct.Struct(f"{len(TELEMETRY_COLUMNS) - 1}d")


@dataclass
class TelemetryLog:
    """Per-tick records, uniformly sampled at the inner rate.

    `rows` holds the float columns, one row per tick; each float column is a
    read-only property giving a view of it (`log.x` is `log.rows[:, 6]`).
    """

    rows: np.ndarray            # (n, 14) float64, columns in TELEMETRY_COLUMNS order
    waypoint_index: np.ndarray  # n ints
    period: float = 1.0         # controller oscillation period, s
    body_length: float = 0.15   # m, carried along for BL-normalised metrics

    def __post_init__(self):
        shape = (len(self.waypoint_index), len(TELEMETRY_COLUMNS) - 1)
        if not (isinstance(self.rows, np.ndarray) and self.rows.dtype == np.float64
                and self.rows.shape == shape):
            raise ValueError(f"rows must be a float64 array of shape {shape}")

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        if name not in TELEMETRY_COLUMNS:
            raise KeyError(name)
        return getattr(self, name)

    @cached_property
    def psi_unwrapped(self) -> np.ndarray:
        """psi_hat unwrapped, computed on first use and kept."""
        return np.unwrap(self.psi_hat)

    # the largest and smallest psi_unwrapped from each row to the end, NaN
    # rows skipped, computed on first use and kept
    @cached_property
    def psi_suffix_max(self) -> np.ndarray:
        return np.fmax.accumulate(self.psi_unwrapped[::-1])[::-1]

    @cached_property
    def psi_suffix_min(self) -> np.ndarray:
        return np.fmin.accumulate(self.psi_unwrapped[::-1])[::-1]


# each float column as a property without a setter, so none can be rebound
for _k, _name in enumerate(TELEMETRY_COLUMNS[:-1]):
    setattr(TelemetryLog, _name, property(lambda log, k=_k: log.rows[:, k]))


def waypoint_heading(px: float, py: float, spec: MissionSpec,
                     active_index: int) -> tuple[float, int]:
    """Desired heading from (px, py) toward the active waypoint, advancing it
    on arrival.

    The index advances at most once per call and the last waypoint is held
    forever, which is what makes a single-waypoint mission station-keep.
    """
    if not 0 <= active_index < len(spec.waypoints):
        raise IndexError(f"active_index {active_index} out of range")
    wx, wy = spec.waypoints[active_index]
    if (math.hypot(wx - px, wy - py) <= spec.tolerance_radius
            and active_index < len(spec.waypoints) - 1):
        active_index += 1
        wx, wy = spec.waypoints[active_index]
    return math.atan2(wy - py, wx - px), active_index


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
    cos, sin, isfinite = math.cos, math.sin, math.isfinite
    angle_cap = 2 * MAX_ANGLE
    neg_angle_cap = -angle_cap
    pack_row, row_size = _ROW.pack_into, _ROW.size
    # resolved per run from this module, so wrappers installed on it apply;
    # rk4_step, desaturate_reference and waypoint_heading are looked up on
    # every call for the same reason
    torque_law = (limit_cycle_torque if mode is ControlMode.THRUST_DIRECTION
                  else desaturated_torque)
    # velocity impulses in time order, then one that never comes
    impulses = iter((*spec.disturbances, (math.inf, None)))
    next_dist_t, kick = next(impulses)
    # the same for the heading steps, added to theta_des one by one
    steps = iter((*spec.step_schedule, (math.inf, None)))
    next_step_t, step = next(steps)
    outer_gaps = cycle(_OUTER_GAPS)

    theta_des = _initial_desired_heading(spec)
    # the plant state, as plain floats
    t = 0.0
    theta = spec.initial_theta if spec.initial_theta is not None else theta_des
    theta_dot = phi = phi_dot = vx = vy = 0.0
    x, y = spec.start
    theta_r = theta_des
    # updated in place each outer tick; an unwind returns a new one
    ref = ReferenceState(theta_r)
    est = TravelEstimator(period, theta_des_fallback=theta_des)

    # the float columns as one preallocated block, a packed row per tick;
    # the waypoint index is its own column.  Memoryviews take and give plain
    # Python floats and ints.
    block = np.empty((n_steps + 1, len(TELEMETRY_COLUMNS) - 1))
    index = np.empty(n_steps + 1, dtype=np.int64)
    t_col = memoryview(block[:, 0])
    rate_col = memoryview(block[:, TELEMETRY_COLUMNS.index("theta_t_dot")])
    idx_col = memoryview(index)

    # trailing one-period boxcar of the reaction-mass rate over rows lo..i,
    # kept in desaturated mode only: the unwind test is its only reader
    rate_sum = 0.0
    lo = active_idx = next_outer = 0

    for i in range(n_steps + 1):
        while next_dist_t <= t + 1e-12:
            vx += kick[0]
            vy += kick[1]
            next_dist_t, kick = next(impulses)
        rate = theta_dot + phi_dot
        # a runaway plant fails here before any law reads it (NaN fails the compare)
        if not (neg_angle_cap <= theta <= angle_cap
                and isfinite(rate + phi + x + y + vx + vy)):
            raise ConfigError(f"the simulated state diverged at t = {t:g} s")
        if desaturated:
            rate_sum += rate
            floor = t - period
            while lo < i and t_col[lo] <= floor:  # rows before i are written
                rate_sum -= rate_col[lo]
                lo += 1

        if i == next_outer:
            next_outer += next(outer_gaps)
            est.add_pose(t, x, y)
            psi_hat = est.travel_direction()
            if follows_waypoints:
                theta_des, active_idx = waypoint_heading(x, y, spec, active_idx)
            else:
                while t >= next_step_t - 1e-12:
                    theta_des += step
                    next_step_t, step = next(steps)
            if limit_cycle_only:
                # reference driven directly; unwrapped commands pass through
                theta_r = theta_des
            else:
                target = outer_loop_reference(cfg, theta_des, psi_hat)
                pending = target - theta_r
                if not -3.0 < pending < 3.0:  # wrap_to_pi's own shortcut
                    pending = wrap_to_pi(pending)
                theta_r += pending
                if desaturated:
                    ref.theta_r = theta_r
                    ref = desaturate_reference(ref, rate_sum / (i + 1 - lo), t,
                                               cfg, pending)
                    theta_r = ref.theta_r
            # the thrust vector, held until the next outer tick
            thrust_x = thrust * cos(theta_r)
            thrust_y = thrust * sin(theta_r)
            if abs(theta_r) > angle_cap:
                raise ConfigError(f"the simulated state diverged at t = {t:g} s")

        tau = torque_law(cfg, t, theta, theta_r)

        pack_row(block, row_size * i, t, theta, theta_dot, phi, phi_dot, rate, x, y,
                 vx, vy, theta_r, theta_des, psi_hat, tau)
        idx_col[i] = active_idx

        if i == n_steps:
            break
        theta, theta_dot, phi, phi_dot, x, y, vx, vy = rk4_step(
            params, theta, theta_dot, phi, phi_dot, x, y, vx, vy, tau, thrust_x,
            thrust_y, dt)
        t += dt

    if not isfinite(tau):  # the last row's torque, which no later state shows
        raise ConfigError(f"the simulated state diverged at t = {t:g} s")
    return TelemetryLog(block, index, period=period, body_length=params.body_length)
