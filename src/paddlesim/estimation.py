"""Travel-direction estimation from pose history.

The hull oscillates as it paddles, so differentiating the trajectory
directly gives a wildly swinging heading.  Instead the displacement over
one oscillation period (the period-wise velocity) is smoothed again by
averaging its orientation over a trailing period.  Until enough history
exists the estimate warm-starts from the commanded travel direction, which
is a fair assumption in still water.
"""

from math import atan2, hypot, isfinite

from .control import wrap_to_pi

_SPEED_FLOOR = 1e-6   # m/s below which the heading sample holds its last value
_TIME_SLACK = 1e-12   # tolerance when testing window coverage, s
# rows the cursor passes before the lists drop them, in one block
_COMPACT_EVERY = 128


class TravelEstimator:
    """A window of pose rows and their period-wise headings;
    travel_direction answers at the latest pose.

    Poses arrive through add_pose with strictly increasing timestamps.  The
    first pose at least one period past the window's first pose, and every
    pose after it, also appends a period-wise heading, so the heading lists
    end with the pose lists.  A cursor marks the last pose at or before one
    period back from the latest; nothing before it is read again.  It only
    moves forward, and the rows it passes are dropped from every list each
    _COMPACT_EVERY rows.
    """

    def __init__(self, period: float, theta_des_fallback: float = 0.0):
        if not period > 0.0:
            raise ValueError("period must be positive")
        if not isfinite(theta_des_fallback):
            raise ValueError("theta_des_fallback must be finite")
        self.period = period
        self.theta_des_fallback = theta_des_fallback
        # pose rows, from the cursor _p on
        self._p = 0
        self._pt: list[float] = []
        self._px: list[float] = []
        self._py: list[float] = []
        # the unwrapped heading and its running trapezoid integral, one per
        # pose row from the first heading on, so the lists end together
        self._hu: list[float] = []
        self._hc: list[float] = []

    # ------------------------------------------------------------------ input

    def add_pose(self, t: float, x: float, y: float) -> None:
        """Append a pose sample and derive a heading sample once possible."""
        pt, px, py = self._pt, self._px, self._py
        hu, hc = self._hu, self._hc
        period = self.period
        floor = t - period
        if not floor < t:  # also a NaN t, or a period below t's resolution
            raise ValueError("pose time minus the period must lie before it")
        if pt and t <= pt[-1]:
            raise ValueError("pose timestamps must be strictly increasing")
        pt.append(t)
        px.append(x)
        py.append(y)
        p = first = self._p
        t_first = pt[p]
        # move the cursor to the last pose at or before t - period; the
        # pose just appended lies after it
        last = len(pt) - 1
        while p < last and pt[p + 1] <= floor:
            p += 1

        # the window's first pose lies more than a period before t once the
        # cursor has moved, so testing it equals testing the very first one
        if t - t_first >= period - _TIME_SLACK:
            # the pose a period back: held flat before the window's first
            # pose, else interpolated between the cursor and the next pose
            if floor <= t_first:
                x0, y0 = px[first], py[first]
            else:
                t0, x0, y0 = pt[p], px[p], py[p]
                f = (floor - t0) / (pt[p + 1] - t0)
                x0 += f * (px[p + 1] - x0)
                y0 += f * (py[p + 1] - y0)
            vx, vy = (x - x0) / period, (y - y0) / period
            if hypot(vx, vy) < _SPEED_FLOOR:
                # near-zero net displacement: hold the previous heading
                if hu:
                    unwrapped = hu[-1]
                else:
                    unwrapped = wrap_to_pi(self.theta_des_fallback)
            else:
                raw = atan2(vy, vx)
                if hu:
                    turn = raw - hu[-1]
                    if not -3.0 < turn < 3.0:  # wrap_to_pi's own shortcut
                        turn = wrap_to_pi(turn)
                    unwrapped = hu[-1] + turn
                else:
                    unwrapped = raw
            if hu:  # the previous heading belongs to the previous pose
                cum = hc[-1] + 0.5 * (unwrapped + hu[-1]) * (t - pt[-2])
            else:
                cum = 0.0
            hu.append(unwrapped)
            hc.append(cum)

        if p >= _COMPACT_EVERY:
            keep = p - len(pt)  # every list keeps its last len(pt) - p rows
            del pt[:keep], px[:keep], py[:keep], hu[:keep], hc[:keep]
            p = 0
        self._p = p

    # ---------------------------------------------------------------- queries

    def travel_direction(self) -> float:
        """Smoothed direction of travel at the latest pose: the mean of the
        heading over the trailing period.

        The part of the window before the first heading sample is filled
        with the fallback direction (warm start).
        """
        hu, hc = self._hu, self._hc
        if not hu:
            return wrap_to_pi(self.theta_des_fallback)
        pt = self._pt
        period = self.period
        # the cursor's row, or the first heading row if that comes later, and
        # its index d rows lower in the heading lists
        d = len(pt) - len(hu)
        i = self._p if self._p > d else d
        h = i - d
        # once heading samples exist every pose appends one, so the window
        # ends at the latest pose, where the running integral is hc[-1]
        a = pt[-1] - period
        first = pt[i]
        if a < first - _TIME_SLACK:
            # pad the missing prefix with the fallback, on the branch nearest
            # the first real sample so the unwrapped average stays coherent
            anchor = hu[h]
            pad_val = anchor + wrap_to_pi(self.theta_des_fallback - anchor)
            total = pad_val * (first - a)
            if h < len(hu) - 1:  # adding 0.0 would turn a -0.0 pad into +0.0
                total += hc[-1] - hc[h]
        elif a <= first:
            total = hc[-1] - hc[h]
        else:
            # the running integral at a, between the cursor and the next row
            u0 = hu[h]
            f = (a - first) / (pt[i + 1] - first)
            v = u0 + f * (hu[h + 1] - u0)
            total = hc[-1] - (hc[h] + 0.5 * (u0 + v) * (a - first))
        mean = total / period
        return mean if -3.0 < mean < 3.0 else wrap_to_pi(mean)
