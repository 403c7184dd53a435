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
from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, cycle

import numpy as np

from .control import (ControlMode, ControllerConfig, ReferenceState,
                      desaturate_reference, desaturated_torque,
                      limit_cycle_torque, outer_loop_reference, wrap_to_pi)
from .dynamics import (INNER_DT, INNER_RATE, BoatParams, ConfigError, check_fields,
                       hull_angles, motor_angles, motor_rates, rk4_step)
from .estimation import TravelEstimator

# the 120 Hz outer loop: 12 outer ticks per 25 inner ticks; eleven gaps of 2
# and one of 3
_OUTER_GAPS = (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3)
# Longest run accepted: 40,000 s at the inner rate.  Telemetry is
# preallocated at 48 B per tick and 24 B per outer tick, about 59.5 B a tick,
# so this caps a run's log near 0.6 GB (the row block alone is 458 MiB); a
# sweep holds one such run at a time.
MAX_TICKS = 10**7
# Largest unwrapped angle accepted (heading, also after each step,
# initial_theta, a step change), rad.  Real commands are a few turns; near
# 1e308, sums and means of angles overflow to inf, which wrap_to_pi cannot
# floor.  A run whose hull or reference angle passes twice this has diverged:
# an ulp there (4.7e-10) is still under wrap_to_pi's error bound.
MAX_ANGLE = 1e6
# Largest motor rate a run may reach, rad/s.  The log integrates the motor
# angle from the rates: |phi| <= 2 * rows * INNER_DT * MAX_MOTOR_RATE, 8e307
# at MAX_TICKS, so a log whose rates all stay within it holds a finite angle.
MAX_MOTOR_RATE = 1e303
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
    # ordered (x, y) targets, m
    waypoints: tuple[tuple[float, float], ...] = ()
    tolerance_radius: float = 0.1         # segment-transition radius, m
    # (time s, heading change rad) pairs
    step_schedule: tuple[tuple[float, float], ...] = ()
    # (time s, (dvx, dvy) m/s) impulses
    disturbances: tuple[tuple[float, tuple[float, float]], ...] = ()
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
# the outer loop's outputs, which change only on outer ticks: a log keeps
# them once per run of rows, in this order
HELD_COLUMNS = ("theta_r", "theta_des", "psi_hat")
# the time, summed tick by tick as run_mission sums it; the hull angle,
# integrated from theta_dot and tau; the motor state, integrated from tau with
# the motor at rest; and theta_t_dot, which is theta_dot + phi_dot: a log
# computes them
DERIVED_COLUMNS = ("t", "theta", "phi", "phi_dot", "theta_t_dot")
# the integrations each derived column runs, in the order they run: phi
# integrates the rates phi_dot first, and theta_t_dot adds them to theta_dot
_INTEGRATIONS = {"t": ("t",), "theta": ("theta",), "phi": ("phi_dot", "phi"),
                 "phi_dot": ("phi_dot",), "theta_t_dot": ("phi_dot",)}
# rows of a computed column that `column` computes at a time
_DERIVE_ROWS = 512
# kept times whose rows a log's time lookup sums at once, 4,096 rows: more
# would hold a temporary that shows in a run's peak memory
_MARK_BLOCK = 8
# the columns a log stores per row, in row order: the floats but the held
# and derived ones
STORED_COLUMNS = tuple(name for name in TELEMETRY_COLUMNS[:-1]
                       if name not in DERIVED_COLUMNS and name not in HELD_COLUMNS)
_ROW = struct.Struct(f"{len(STORED_COLUMNS)}d")
_HELD_ROW = struct.Struct(f"{len(HELD_COLUMNS)}d")
# bytes a log keeps per waypoint step, an int64 (first row, index) pair
_STEP_BYTES = 16
# the held columns' places among the floats, and the stored columns' places
# among the stored ones; the stored columns fill the places among the floats
# that no computed column takes, in order: theta_dot, x to vy, then tau last
_HELD_AT = TELEMETRY_COLUMNS.index(HELD_COLUMNS[0])
_HELD_END = _HELD_AT + len(HELD_COLUMNS)
_THETA_DOT, _X, _TAU = (STORED_COLUMNS.index(name) for name in ("theta_dot", "x", "tau"))
_THETA_DOT_AT, _X_AT = (TELEMETRY_COLUMNS.index(name) for name in ("theta_dot", "x"))


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, after making it refuse writes."""
    array.flags.writeable = False
    return array


def _tick_times(t: float, n: int) -> np.ndarray:
    """The time t and the n ticks after it, each summed from the one before
    as run_mission sums t: an accumulated sum adds in order."""
    times = np.empty(n + 1)
    times[0] = t
    times[1:] = INNER_DT
    return np.add.accumulate(times, out=times)


def _run_count(rows: int, gaps: tuple[int, ...]) -> int:
    """The number of runs among rows rows from row 0 whose lengths repeat gaps."""
    cycles, rest = divmod(rows, sum(gaps))
    # the runs of the last, partial cycle start before its rest rows end
    return cycles * len(gaps) + bisect_left(tuple(accumulate(gaps, initial=0)), rest)


def log_bytes(spec: MissionSpec) -> int:
    """The most bytes the log of a run of spec stores: a row a tick, a held
    row an outer tick, and a (first row, index) pair for each waypoint at
    most, since the index only advances."""
    rows = round(spec.duration * INNER_RATE) + 1
    return (rows * _ROW.size + _run_count(rows, _OUTER_GAPS) * _HELD_ROW.size
            + max(len(spec.waypoints), 1) * _STEP_BYTES)


def log_bytes_text(spec: MissionSpec) -> str:
    """log_bytes(spec) and what it counts, for a message."""
    return (f"{log_bytes(spec):,} bytes ({_ROW.size} a tick, {_HELD_ROW.size} an "
            f"outer tick, {_STEP_BYTES} a waypoint)")


@dataclass(frozen=True)
class TelemetryLog:
    """Per-tick records, uniformly sampled at the inner rate.

    `rows` holds the stored float columns, one row per tick.
    `waypoint_steps` holds one (first row, index) pair per run of rows with
    the same waypoint index, and `held` one row of the HELD_COLUMNS per run
    of rows, the runs' lengths repeating `held_gaps` from row 0 (the outer
    ticks' schedule by default).  The time `t` is summed tick by tick
    from 0, the hull angle `theta` is integrated from `theta0` under
    `theta_dot` and `tau` by `params`, and the motor angle and rate `phi` and
    `phi_dot` from `tau` with the motor at rest, as the loop sums and
    integrates them; `time_at` and `search_time` read the time of a row and
    search the times without computing the column.  `column` reads a row
    range of any column, and each column is a property reading all its rows
    (`log.x` is `log.column("x")`, a view of `log.rows[:, 1]`); every column
    but a stored one is computed on each access.  The log is frozen, and
    every array it holds or keeps refuses writes; a view of an array taken
    before the log was built can still write into it.
    """

    rows: np.ndarray            # (n, 6) float64, columns in STORED_COLUMNS order
    waypoint_steps: np.ndarray  # (k, 2) int64, (first row, index) pairs
    held: np.ndarray            # (m, 3) float64, columns in HELD_COLUMNS order
    # the rows in each run of held, repeated from row 0 to the end of the log
    held_gaps: tuple[int, ...] = _OUTER_GAPS
    period: float = 1.0         # controller oscillation period, s
    theta0: float = 0.0         # the hull angle at row 0, rad
    params: BoatParams = BoatParams()  # the plant that ran; body_length for BL metrics

    def __post_init__(self):
        width = len(STORED_COLUMNS)
        if not (isinstance(self.rows, np.ndarray) and self.rows.dtype == np.float64
                and self.rows.ndim == 2 and self.rows.shape[1] == width):
            raise ValueError(f"rows must be a float64 array of shape (n, {width})")
        steps = self.waypoint_steps
        if not (isinstance(steps, np.ndarray) and steps.dtype == np.int64
                and steps.ndim == 2 and steps.shape[1] == 2):
            raise ValueError("waypoint_steps must be an int64 array of shape (k, 2)")
        n = len(self.rows)
        # each later step starts where the index changes; a log without rows has none
        starts = steps[:, 0]
        if (starts[:1].tolist() != ([0] if n else []) or np.any(starts[1:] <= starts[:-1])
                or np.any(starts >= n) or np.any(steps[1:, 1] == steps[:-1, 1])):
            raise ValueError("waypoint_steps must start at row 0 and change the "
                             "index at increasing rows within the log")
        held, gaps = self.held, self.held_gaps
        width = len(HELD_COLUMNS)
        if not (isinstance(held, np.ndarray) and held.dtype == np.float64
                and held.ndim == 2 and held.shape[1] == width):
            raise ValueError(f"held must be a float64 array of shape (m, {width})")
        # bools are ints too; the sum must fit the int64 offsets
        if not (isinstance(gaps, tuple) and gaps
                and all(type(gap) is int and gap > 0 for gap in gaps) and sum(gaps) < 2**63):
            raise ValueError("held_gaps must be a non-empty tuple of positive ints "
                             "summing below 2**63")
        # a run need not change a value
        runs = _run_count(n, gaps)
        if len(held) != runs:
            raise ValueError(f"held must have a row for each of the {runs} runs "
                             f"held_gaps lays on the log's {n} rows, not {len(held)}")
        if not isinstance(self.params, BoatParams):
            raise ValueError("params must be a BoatParams")
        for array in (self.rows, steps, held):
            _read_only(array)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows start..stop - 1 (stop None: to the end) of a TELEMETRY_COLUMNS
        column: a view of rows for a stored one, else a new array refusing
        writes, computed _DERIVE_ROWS rows at a time."""
        if name not in TELEMETRY_COLUMNS:
            raise KeyError(name)
        stop = len(self) if stop is None else stop
        if not 0 <= start <= stop <= len(self):
            raise IndexError(f"rows {start}..{stop} are not within the log's {len(self)}")
        if name in STORED_COLUMNS:
            return self.rows[start:stop, STORED_COLUMNS.index(name)]
        out = np.empty(stop - start, np.int64 if name == "waypoint_index" else np.float64)
        for first, columns in self._computed_chunks((name,), _DERIVE_ROWS, start, stop):
            values = columns[name]
            end = first + len(values)
            if end > start:  # the chunk's rows from start on
                out[max(first - start, 0):end - start] = values[max(start - first, 0):]
            del columns, values  # freed before the next chunk is computed
        return _read_only(out)

    def _computed_chunks(self, names, rows: int, start: int,
                         stop: int) -> Iterator[tuple[int, dict[str, np.ndarray]]]:
        """The columns `names` that a log computes, of rows start..stop - 1,
        `rows` rows at a time: each chunk's first row and its columns by
        name.  A derived column is integrated on from the chunk before, so
        with one the chunks start at row 0, before start; only the
        integrations the names need run."""
        needed = {step for name in names for step in _INTEGRATIONS.get(name, ())}
        held = any(name in names for name in HELD_COLUMNS)
        starts, index = self.waypoint_steps.T
        # the state at the chunk's first row
        state = {"t": 0.0, "theta": self.theta0, "phi_dot": 0.0, "phi": 0.0}
        for first in range(0 if needed else start, stop, rows):
            end = min(first + rows, stop)
            stored = self.rows[first:end]
            theta_dot, tau = stored[:, _THETA_DOT], stored[:, _TAU]
            # each at the chunk's rows and one past them
            ahead = {}
            with np.errstate(over="ignore", invalid="ignore"):
                if "t" in needed:
                    ahead["t"] = _tick_times(state["t"], len(stored))
                if "theta" in needed:
                    ahead["theta"] = hull_angles(self.params, theta_dot, tau, state["theta"])
                if "phi_dot" in needed:
                    ahead["phi_dot"] = motor_rates(tau, state["phi_dot"])
                if "phi" in needed:
                    ahead["phi"] = motor_angles(tau, ahead["phi_dot"], state["phi"])
                columns = {name: values[:-1] for name, values in ahead.items()}
                if "theta_t_dot" in names:
                    columns["theta_t_dot"] = theta_dot + columns["phi_dot"]
            state.update((name, values[-1]) for name, values in ahead.items())
            del ahead  # its arrays live on only in columns
            if held:
                columns.update((name, values) for name, values in
                               zip(HELD_COLUMNS, self._held_rows(first, end).T) if name in names)
            if "waypoint_index" in names:
                # each row's step is the last one starting at or before it
                columns["waypoint_index"] = index[np.searchsorted(
                    starts, np.arange(first, end), side="right") - 1]
            yield first, columns
            del columns  # freed before the next chunk is computed

    def float_chunks(self, out: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The 14 float columns in TELEMETRY_COLUMNS order and the waypoint
        index, len(out) rows at a time from row 0: each chunk's floats are
        written into the first rows of `out` and yielded with its index
        before the next chunk is written."""
        for start, computed in self._computed_chunks(TELEMETRY_COLUMNS, len(out), 0, len(self)):
            stored = self.rows[start:start + len(out)]
            floats = out[:len(stored)]
            floats[:, _THETA_DOT_AT] = stored[:, _THETA_DOT]
            floats[:, _X_AT:_HELD_AT] = stored[:, _X:_TAU]
            floats[:, _HELD_END:] = stored[:, _TAU:]
            index = computed.pop("waypoint_index")
            for name, values in computed.items():
                floats[:, TELEMETRY_COLUMNS.index(name)] = values
            # emptied, not only dropped, as the chunk routine holds it too:
            # its arrays are freed before the next chunk is computed
            computed.clear()
            yield floats, index

    @cached_property
    def _run_offsets(self) -> np.ndarray:
        """The first row of each run in a cycle of held_gaps, then the
        cycle's rows: len(held_gaps) + 1 int64s, computed on first use and
        kept."""
        return _read_only(np.array((0, *accumulate(self.held_gaps)), dtype=np.int64))

    def _held_rows(self, start: int, stop: int) -> np.ndarray:
        """The held rows of rows start..stop - 1, start < stop, a new
        array: the rows of held those rows' runs hold, each repeated over
        its rows, with a length computed for those runs alone."""
        offsets = self._run_offsets
        places = offsets.data  # the offsets as Python ints
        cycle_rows, cycle_runs = places[-1], len(places) - 1
        # the cycle and the place in it of the first and the last row, and
        # of the runs holding them
        cycle, row = divmod(start, cycle_rows)
        end_cycle, end_row = divmod(stop - 1, cycle_rows)
        place, end_place = bisect_right(places, row) - 1, bisect_right(places, end_row) - 1
        first, last = cycle * cycle_runs + place, end_cycle * cycle_runs + end_place
        places_of_runs = np.arange(first, last + 1)
        places_of_runs %= cycle_runs
        lengths = offsets[1:].take(places_of_runs)
        lengths -= offsets[:-1].take(places_of_runs)
        del places_of_runs
        # the first and last runs cut to the rows asked for
        lengths[0] -= row - places[place]
        lengths[-1] -= places[end_place + 1] - end_row - 1
        return self.held[first:last + 1].repeat(lengths, axis=0)

    @cached_property
    def _time_marks(self) -> np.ndarray:
        """The time of every _DERIVE_ROWS-th row from row 0, computed on
        first use and kept: 1/_DERIVE_ROWS of the column.  The times are
        summed _MARK_BLOCK marks' rows at a time."""
        marks = np.empty(-(-len(self) // _DERIVE_ROWS))
        t = 0.0
        for k in range(0, len(marks), _MARK_BLOCK):
            count = min(_MARK_BLOCK, len(marks) - k)
            times = _tick_times(t, count * _DERIVE_ROWS)
            marks[k:k + count] = times[:-1:_DERIVE_ROWS]
            t = times[-1]
        return _read_only(marks)

    def time_at(self, row: int) -> float:
        """The time of a row, a negative one counting from the end, as the t
        column holds it: summed from the kept time of the row's chunk."""
        n = len(self)
        if not -n <= row < n:
            raise IndexError(f"row {row} is not within the log's {n}")
        chunk, offset = divmod(row % n, _DERIVE_ROWS)
        return float(_tick_times(self._time_marks[chunk], offset)[-1])

    def search_time(self, value, side: str = "left"):
        """The row before which value goes among the times, as np.searchsorted
        of the t column answers with the same side, NaN and infinities
        included: an int for a float, an int64 array for an array of them.
        The kept times find each value's chunk, and each chunk's times are
        summed once for all the values in it."""
        values = np.asarray(value, dtype=float)
        # the chunk after the one holding each value; 0: row 0 goes after it
        after = self._time_marks.searchsorted(values, side)
        if values.ndim == 0:
            return 0 if after == 0 else int(self._search_chunk(int(after) - 1, value, side))
        rows = np.zeros(values.shape, np.int64)
        for chunk in set(after[after > 0].tolist()):
            here = after == chunk
            rows[here] = self._search_chunk(chunk - 1, values[here], side)
        return rows

    def _search_chunk(self, chunk: int, values, side: str):
        """np.searchsorted of the t column for values within a chunk's
        times, on that chunk's times alone."""
        first = chunk * _DERIVE_ROWS
        times = _tick_times(self._time_marks[chunk], min(_DERIVE_ROWS, len(self) - first) - 1)
        return first + times.searchsorted(values, side)

    @cached_property
    def psi_unwrapped(self) -> np.ndarray:
        """psi_hat unwrapped, computed on first use and kept."""
        return _read_only(np.unwrap(self.psi_hat))

    # the largest and smallest psi_unwrapped from each row to the end, NaN
    # rows skipped, computed on first use and kept
    @cached_property
    def psi_suffix_max(self) -> np.ndarray:
        return _read_only(np.fmax.accumulate(self.psi_unwrapped[::-1])[::-1])

    @cached_property
    def psi_suffix_min(self) -> np.ndarray:
        return _read_only(np.fmin.accumulate(self.psi_unwrapped[::-1])[::-1])


# each column as a property without a setter: log.x is log.column("x")
for _name in TELEMETRY_COLUMNS:
    setattr(TelemetryLog, _name, property(lambda log, name=_name: log.column(name)))


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
    for name, value, cls in (("params", params, BoatParams), ("cfg", cfg, ControllerConfig),
                             ("spec", spec, MissionSpec)):
        if not isinstance(value, cls):
            raise ConfigError(f"{name} must be a {cls.__name__}, not {type(value).__name__}")
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
    rate_cap, neg_rate_cap = MAX_MOTOR_RATE, -MAX_MOTOR_RATE
    pack_row, row_size = _ROW.pack_into, _ROW.size
    pack_held, held_size = _HELD_ROW.pack_into, _HELD_ROW.size
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
    # the plant state, as plain floats; the log derives theta from theta0,
    # the motor angle from tau, and sums t and phi_dot as the loop does
    t = 0.0
    theta = theta0 = spec.initial_theta if spec.initial_theta is not None else theta_des
    theta_dot = phi_dot = vx = vy = 0.0
    x, y = spec.start
    theta_r = theta_des
    # updated in place each outer tick; an unwind returns a new one
    ref = ReferenceState(theta_r)
    est = TravelEstimator(period, theta_des_fallback=theta_des)

    # the outer loop's outputs, a packed row per outer tick, each held from
    # its outer tick's row to the next one's
    held = np.empty((_run_count(n_steps + 1, _OUTER_GAPS), len(HELD_COLUMNS)))
    # the stored columns as one preallocated block, a packed row per tick;
    # the waypoint index is kept as its steps: the first row of each new index
    block = np.empty((n_steps + 1, len(STORED_COLUMNS)))
    waypoint_steps = [(0, 0)]

    # one-period boxcar of the reaction-mass rate, desaturated mode only:
    # window holds the rates of rows after t - period, the oldest (at t_lo,
    # summed as t is) first, and rate_sum their sum.  omega <= pi / dt keeps
    # period >= 2 dt, so the newest row always stays and it is never empty.
    window = deque()
    rate_sum = t_lo = 0.0
    active_idx = next_outer = held_at = 0

    for i in range(n_steps + 1):
        while next_dist_t <= t + 1e-12:
            vx += kick[0]
            vy += kick[1]
            next_dist_t, kick = next(impulses)
        rate = theta_dot + phi_dot
        # a runaway plant fails here before any law reads it (NaN fails the compare)
        if not (neg_angle_cap <= theta <= angle_cap and neg_rate_cap <= phi_dot <= rate_cap
                and isfinite(rate + x + y + vx + vy)):
            raise ConfigError(f"the simulated state diverged at t = {t:g} s")
        if desaturated:
            window.append(rate)
            rate_sum += rate
            floor = t - period
            while t_lo <= floor:
                rate_sum -= window.popleft()
                t_lo += dt

        if i == next_outer:
            next_outer += next(outer_gaps)
            est.add_pose(t, x, y)
            psi_hat = est.travel_direction()
            if follows_waypoints:
                theta_des, next_idx = waypoint_heading(x, y, spec, active_idx)
                if next_idx != active_idx:
                    active_idx = next_idx
                    if i:
                        waypoint_steps.append((i, active_idx))
                    else:  # a start on waypoints[0] targets the next from row 0
                        waypoint_steps[0] = (0, active_idx)
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
                    ref = desaturate_reference(ref, rate_sum / len(window), t,
                                               cfg, pending)
                    theta_r = ref.theta_r
            # the thrust vector, held until the next outer tick
            thrust_x = thrust * cos(theta_r)
            thrust_y = thrust * sin(theta_r)
            if abs(theta_r) > angle_cap:
                raise ConfigError(f"the simulated state diverged at t = {t:g} s")
            pack_held(held, held_at, theta_r, theta_des, psi_hat)
            held_at += held_size

        tau = torque_law(cfg, t, theta, theta_r)

        pack_row(block, row_size * i, theta_dot, x, y, vx, vy, tau)

        if i == n_steps:
            break
        theta, theta_dot, x, y, vx, vy = rk4_step(
            params, theta, theta_dot, x, y, vx, vy, tau, thrust_x, thrust_y)
        phi_dot += tau * dt
        t += dt

    if not isfinite(tau):  # the last row's torque, which no later state shows
        raise ConfigError(f"the simulated state diverged at t = {t:g} s")
    return TelemetryLog(block, np.array(waypoint_steps, dtype=np.int64), held,
                        period=period, theta0=theta0, params=params)
