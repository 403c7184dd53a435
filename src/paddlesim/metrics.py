"""Maneuvering metrics computed from telemetry.

Covers the turn metrics (rise time to 90% of the change with a one-period
hold, path length during the turn, body-length normalisation),
straight-segment cross-track error against the infinite ideal line, and
mean orbit radius for station-keeping runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # mission imports this module
    from .mission import TelemetryLog

RISE_FRACTION = 0.9  # share of the commanded change that ends the rise


class NotSettled(Exception):
    """The response never reached and held the rise threshold in the log."""


class DegenerateSegment(Exception):
    """The two segment endpoints coincide."""


@dataclass
class TurnEvent:
    """Summary of one commanded heading change."""

    rise_time: float        # s, from the command
    travel_distance: float  # m, path length while turning
    travel_BL: float        # travel_distance / body length


@dataclass
class SegmentError:
    """Cross-track statistics against the line through two endpoints."""

    rms_perp: float   # m
    max_perp: float   # m


def rise_time(log: TelemetryLog, command_time: float, delta: float) -> float:
    """Time after the command for the travel-direction change to reach
    RISE_FRACTION * delta and stay within the remaining band for one period.

    Raises NotSettled if that never happens inside the log.
    """
    if delta == 0.0:
        raise ValueError("delta must be nonzero")
    hold = log.period
    t = log.t
    base_i = int(np.searchsorted(t, command_time, side="right")) - 1
    if base_i < 0:
        raise ValueError("command_time precedes the log")
    psi = np.unwrap(log.psi_hat)
    frac = (psi - psi[base_i]) / delta
    in_band = np.abs(frac - 1.0) <= (1.0 - RISE_FRACTION) + 1e-12

    j = base_i + 1
    n = len(t)
    while j < n:
        ahead = np.nonzero(frac[j:] >= RISE_FRACTION)[0]
        if len(ahead) == 0:
            break
        j += int(ahead[0])
        if t[j] + hold > t[-1] + 1e-9:
            break  # cannot verify the hold inside the log
        k = int(np.searchsorted(t, t[j] + hold, side="right"))
        bad = np.nonzero(~in_band[j:k])[0]
        if len(bad) == 0:
            return float(t[j] - command_time)
        j += int(bad[0]) + 1
    raise NotSettled(
        f"travel direction never held {RISE_FRACTION:.0%} of {delta:.4g} rad")


def travel_during_turn(log: TelemetryLog, command_time: float,
                       settle_time: float) -> float:
    """Path length of the position trace between the two times."""
    if settle_time < command_time:
        raise ValueError("settle_time must not precede command_time")
    rows = slice(int(np.searchsorted(log.t, command_time - 1e-12, side="left")),
                 int(np.searchsorted(log.t, settle_time + 1e-12, side="right")))
    xs = log.x[rows]
    ys = log.y[rows]
    if len(xs) < 2:
        return 0.0
    return float(np.sum(np.hypot(np.diff(xs), np.diff(ys))))


def measure_turn(log: TelemetryLog, command_time: float, delta: float) -> TurnEvent:
    """Rise time plus travel for one commanded change, as a TurnEvent."""
    rise = rise_time(log, command_time, delta)
    travel = travel_during_turn(log, command_time, command_time + rise)
    return TurnEvent(rise_time=rise, travel_distance=travel,
                     travel_BL=travel / log.body_length)


def settled_step_changes(log: TelemetryLog, step_schedule) -> list[float]:
    """Settled change of the travel direction across each scheduled step.

    The change is the mean unwrapped estimate over the last quarter of the
    span after the step minus that over the last quarter of the span before
    it; spans run between neighbouring steps and the ends of the log.  NaN
    where either window holds no samples.
    """
    t = log.t
    psi = np.unwrap(log.psi_hat)
    bounds = [0.0] + [ts for ts, _ in step_schedule] + [float(t[-1])]
    changes = []
    for start, ts, end in zip(bounds, bounds[1:], bounds[2:]):
        b0 = np.searchsorted(t, start + 0.75 * (ts - start), side="left")
        b1 = np.searchsorted(t, ts, side="left")
        a0 = np.searchsorted(t, ts + 0.75 * (end - ts), side="left")
        a1 = np.searchsorted(t, end, side="right")
        if b0 < b1 and a0 < a1:
            changes.append(float(np.mean(psi[a0:a1]) - np.mean(psi[b0:b1])))
        else:
            changes.append(math.nan)
    return changes


def coincident(p0: tuple[float, float], p1: tuple[float, float]) -> bool:
    """True when two points are too close to define a line (under 1e-9 m)."""
    return math.hypot(p1[0] - p0[0], p1[1] - p0[1]) < 1e-9


def rms_perpendicular_error(log: TelemetryLog,
                            segment: tuple[tuple[float, float], tuple[float, float]],
                            time_window: tuple[float, float] | None = None) -> SegmentError:
    """RMS and max perpendicular distance to the infinite line through the
    segment endpoints, over the samples inside the time window (its edges
    widened by 1e-12 s; the log's times increase)."""
    (x0, y0), (x1, y1) = segment
    if coincident(*segment):
        raise DegenerateSegment("segment endpoints coincide")
    dx, dy = x1 - x0, y1 - y0
    length = math.hypot(dx, dy)
    rows = slice(None)
    if time_window is not None:
        rows = slice(int(np.searchsorted(log.t, time_window[0] - 1e-12, side="left")),
                     int(np.searchsorted(log.t, time_window[1] + 1e-12, side="right")))
    x, y = log.x[rows], log.y[rows]
    if not len(x):
        raise ValueError("time window contains no samples")
    perp = np.abs(dx * (y - y0) - dy * (x - x0)) / length
    return SegmentError(rms_perp=float(np.sqrt(np.mean(perp * perp))),
                        max_perp=float(np.max(perp)))


def orbit_radius(log: TelemetryLog, center: tuple[float, float],
                 window: float) -> float:
    """Mean distance to the center over the trailing window of the log."""
    t_end = log.t[-1]
    if window <= 0.0 or window > t_end - log.t[0] + 1e-9:
        raise ValueError("window must be positive and lie within the log")
    rows = slice(int(np.searchsorted(log.t, t_end - window - 1e-12, side="left")), None)
    return float(np.mean(np.hypot(log.x[rows] - center[0], log.y[rows] - center[1])))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) with linear interpolation between order statistics."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("no values")
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0], method="linear")
    return float(q1), float(med), float(q3)
