"""Maneuvering metrics computed from telemetry.

Covers the turn metrics (rise time to 90% of the change with a one-period
hold, path length during the turn, body-length normalisation),
straight-segment cross-track error against the infinite ideal line, and
mean orbit radius for station-keeping runs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mission import TelemetryLog, coincident

RISE_FRACTION = 0.9  # share of the commanded change that ends the rise
_RISE_WINDOW = 256  # rows in the first window of a rise search


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


def _rows_within(log: TelemetryLog, t0: float, t1: float) -> slice:
    """The rows whose times lie in [t0, t1], its edges widened by 1e-12 s;
    the log's times increase."""
    return slice(log.search_time(t0 - 1e-12, "left"), log.search_time(t1 + 1e-12, "right"))


def rise_time(log: TelemetryLog, command_time: float, delta: float) -> float:
    """Time after the command for the travel-direction change to reach
    RISE_FRACTION * delta and stay within the remaining band for one period.

    Each search for the next row at the threshold runs in windows that
    double from its start, so a rise costs about its distance from there,
    and the search ends once no row from there on can reach the threshold.
    Raises NotSettled if the change never rises and holds inside the log.
    """
    if not 0.0 < abs(delta) < math.inf:
        raise ValueError("delta must be finite and nonzero")
    hold = log.period
    # the last row not after the command; a NaN sorts past the last row
    base_i = log.search_time(command_time, "right") - 1
    if base_i < 0 or math.isnan(command_time):
        raise ValueError("command_time must be a number not before the log")
    psi = log.psi_unwrapped[base_i:]
    # (v - psi[0]) / delta rounds monotonically in v, so a row from j on
    # reaches the threshold exactly when the extreme from j on does
    reach = (log.psi_suffix_max if delta > 0.0 else log.psi_suffix_min)[base_i:]

    j = 1
    n = len(psi)
    width = _RISE_WINDOW
    while j < n and (reach[j] - psi[0]) / delta >= RISE_FRACTION:
        ahead = np.nonzero((psi[j:j + width] - psi[0]) / delta >= RISE_FRACTION)[0]
        if not len(ahead):
            j += width
            width *= 2
            continue
        j += int(ahead[0])
        t_j = log.time_at(base_i + j)
        if t_j + hold > log.time_at(-1) + 1e-9:
            break  # cannot verify the hold inside the log
        # the hold's end among the rows from base_i on
        k = max(log.search_time(t_j + hold, "right") - base_i, 0)
        frac = (psi[j:k] - psi[0]) / delta
        in_band = np.abs(frac - 1.0) <= (1.0 - RISE_FRACTION) + 1e-12
        bad = np.nonzero(~in_band)[0]
        if len(bad) == 0:
            return float(t_j - command_time)
        j += int(bad[0]) + 1
        width = _RISE_WINDOW
    raise NotSettled(
        f"travel direction never held {RISE_FRACTION:.0%} of {delta:.4g} rad")


def travel_during_turn(log: TelemetryLog, command_time: float,
                       settle_time: float) -> float:
    """Path length of the position trace between the two times."""
    if not command_time <= settle_time:
        raise ValueError("command_time and settle_time must be numbers, "
                         "settle_time not before command_time")
    rows = _rows_within(log, command_time, settle_time)
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
                     travel_BL=travel / log.params.body_length)


def settled_step_changes(log: TelemetryLog, step_schedule) -> list[float]:
    """Settled change of the travel direction across each scheduled step.

    The change is the mean unwrapped estimate over the last quarter of the
    span after the step minus that over the last quarter of the span before
    it; spans run between neighbouring steps and the ends of the log.  NaN
    where a span is under the estimate's one-period window or a window is empty.
    """
    if any(math.isnan(ts) or math.isnan(delta) for ts, delta in step_schedule):
        raise ValueError("step_schedule times and changes must be numbers")
    psi = log.psi_unwrapped
    bounds = np.array([0.0] + [ts for ts, _ in step_schedule] + [log.time_at(-1)])
    starts, steps, ends = bounds[:-2], bounds[1:-1], bounds[2:]
    # each window's first and end rows, for all the steps in one search each
    b0s = log.search_time(starts + 0.75 * (steps - starts), "left").tolist()
    b1s = log.search_time(steps, "left").tolist()
    a0s = log.search_time(steps + 0.75 * (ends - steps), "left").tolist()
    a1s = log.search_time(ends, "right").tolist()
    changes = []
    for start, ts, end, b0, b1, a0, a1 in zip(starts.tolist(), steps.tolist(), ends.tolist(),
                                              b0s, b1s, a0s, a1s):
        if min(ts - start, end - ts) >= log.period and b0 < b1 and a0 < a1:
            changes.append(float(np.mean(psi[a0:a1]) - np.mean(psi[b0:b1])))
        else:
            changes.append(math.nan)
    return changes


def rms_perpendicular_error(log: TelemetryLog,
                            segment: tuple[tuple[float, float], tuple[float, float]],
                            time_window: tuple[float, float] | None = None) -> SegmentError:
    """RMS and max perpendicular distance to the infinite line through the
    segment endpoints, over the samples inside the time window (its edges
    widened by 1e-12 s; the log's times increase)."""
    rows = slice(None) if time_window is None else _rows_within(log, *time_window)
    return _segment_error(log, segment, rows)


def _segment_error(log: TelemetryLog,
                   segment: tuple[tuple[float, float], tuple[float, float]],
                   rows: slice) -> SegmentError:
    """rms_perpendicular_error over the log's rows `rows`."""
    (x0, y0), (x1, y1) = segment
    if coincident(*segment):
        raise DegenerateSegment("segment endpoints coincide")
    dx, dy = x1 - x0, y1 - y0
    length = math.hypot(dx, dy)
    if not length < math.inf:  # NaN too
        raise ValueError("segment endpoints and their distance must be finite")
    x, y = log.x[rows], log.y[rows]
    if not len(x):
        raise ValueError("time window contains no samples")
    perp = np.abs(dx * (y - y0) - dy * (x - x0)) / length
    return SegmentError(rms_perp=float(np.sqrt(np.mean(perp * perp))),
                        max_perp=float(np.max(perp)))


def orbit_radius(log: TelemetryLog, center: tuple[float, float],
                 window: float) -> float:
    """Mean distance to the center over the trailing window of the log."""
    if not all(map(math.isfinite, center)):
        raise ValueError("center coordinates must be finite")
    # an empty log holds no window, and a NaN window fails the compare; row
    # 0's time is 0.0, so the last row's is the log's span
    if not (len(log) and 0.0 < window <= log.time_at(-1) + 1e-9):
        raise ValueError("window must be positive and lie within the log")
    end = log.time_at(-1)
    rows = _rows_within(log, end - window, end)
    return float(np.mean(np.hypot(log.x[rows] - center[0], log.y[rows] - center[1])))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) with linear interpolation between order statistics.

    Bit for bit np.percentile(values, [25, 50, 75], method="linear"), by
    numpy's own steps but without its np.unique call, which imports numpy.ma.
    """
    arr = np.array(values, dtype=float).ravel()  # a copy, partitioned in place
    n = arr.size
    if n == 0:
        raise ValueError("no values")
    # the order statistics around each virtual index (n - 1) q; at or past
    # the last one both are the last (index -1)
    virtual = [(n - 1) * q for q in (0.25, 0.5, 0.75)]
    around = [(math.floor(v), math.floor(v) + 1) if v < n - 1 else (-1, -1)
              for v in virtual]
    # numpy's partition points, so that ties such as -0.0 and 0.0 land where
    # they land there; a NaN sorts last
    arr.partition(sorted({0, -1, *(k for pair in around for k in pair)}))
    if math.isnan(arr[-1]):
        return (float(arr[-1]),) * 3
    result = []
    for v, (i, j) in zip(virtual, around):
        a, b, g = float(arr[i]), float(arr[j]), v - i
        d = b - a
        result.append(b - d * (1 - g) if g >= 0.5 else a + d * g)
    return tuple(result)
