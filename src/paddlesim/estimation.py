"""Travel-direction estimation from pose history.

The hull oscillates as it paddles, so differentiating the trajectory
directly gives a wildly swinging heading.  Instead the displacement over
one oscillation period (the period-wise velocity) is smoothed again by
averaging its orientation over a trailing period.  Until enough history
exists the estimate warm-starts from the commanded travel direction, which
is a fair assumption in still water.
"""

import math
from bisect import bisect_right

from .control import wrap_to_pi

_SPEED_FLOOR = 1e-6   # m/s below which the heading sample holds its last value
_TIME_SLACK = 1e-12   # tolerance when testing window coverage, s


class TravelEstimator:
    """Buffers of pose and period-wise heading; travel_direction answers at
    the latest pose.

    Poses arrive through add_pose with strictly increasing timestamps; each
    arrival that is at least one period past the first buffered pose also
    appends a period-wise heading sample.  Buffers are trimmed to a little
    over the span the window reaches (two periods for poses, one for headings).
    """

    def __init__(self, period: float, theta_des_fallback: float = 0.0):
        if period <= 0.0:
            raise ValueError("period must be positive")
        self.period = period
        self.theta_des_fallback = theta_des_fallback
        # pose samples
        self._pt: list[float] = []
        self._px: list[float] = []
        self._py: list[float] = []
        # heading samples: time, unwrapped value, running trapezoid integral
        self._ht: list[float] = []
        self._hu: list[float] = []
        self._hc: list[float] = []

    # ------------------------------------------------------------------ input

    def add_pose(self, t: float, x: float, y: float) -> None:
        """Append a pose sample and derive a heading sample once possible."""
        pt, px, py = self._pt, self._px, self._py
        if pt and t <= pt[-1]:
            raise ValueError("pose timestamps must be strictly increasing")
        pt.append(t)
        px.append(x)
        py.append(y)
        period = self.period
        ht, hu, hc = self._ht, self._hu, self._hc

        # a trimmed buffer starts 2.5 periods back, so testing against its
        # first pose equals testing against the very first one
        if t - pt[0] >= period - _TIME_SLACK:
            # the window ends at the pose just appended
            x0, y0 = self._interp_pose(t - period)
            vx, vy = (x - x0) / period, (y - y0) / period
            if math.hypot(vx, vy) < _SPEED_FLOOR:
                # near-zero net displacement: hold the previous heading
                if hu:
                    unwrapped = hu[-1]
                else:
                    unwrapped = wrap_to_pi(self.theta_des_fallback)
            else:
                raw = math.atan2(vy, vx)
                if hu:
                    unwrapped = hu[-1] + wrap_to_pi(raw - hu[-1])
                else:
                    unwrapped = raw
            if ht:
                cum = hc[-1] + 0.5 * (unwrapped + hu[-1]) * (t - ht[-1])
            else:
                cum = 0.0
            ht.append(t)
            hu.append(unwrapped)
            hc.append(cum)

        # drop samples older than the last one at or before each floor
        floor = t - 2.5 * period
        while len(pt) > 1 and pt[1] <= floor:
            del pt[0], px[0], py[0]
        floor = t - 1.5 * period
        while len(ht) > 1 and ht[1] <= floor:
            del ht[0], hu[0], hc[0]

    # ---------------------------------------------------------------- queries

    def _interp_pose(self, q: float) -> tuple[float, float]:
        """Linear interpolation of the position before the latest pose, held
        flat before the first buffered one."""
        pt = self._pt
        if q <= pt[0]:
            return self._px[0], self._py[0]
        i = bisect_right(pt, q) - 1
        f = (q - pt[i]) / (pt[i + 1] - pt[i])
        return (self._px[i] + f * (self._px[i + 1] - self._px[i]),
                self._py[i] + f * (self._py[i + 1] - self._py[i]))

    def _heading_cumint(self, x: float) -> float:
        """Cumulative integral of the piecewise-linear unwrapped heading at a
        time before the last heading sample."""
        ht = self._ht
        if x <= ht[0]:
            return self._hc[0]
        i = bisect_right(ht, x) - 1
        f = (x - ht[i]) / (ht[i + 1] - ht[i])
        v = self._hu[i] + f * (self._hu[i + 1] - self._hu[i])
        return self._hc[i] + 0.5 * (self._hu[i] + v) * (x - ht[i])

    def travel_direction(self) -> float:
        """Smoothed direction of travel at the latest pose: the mean of the
        heading over the trailing period.

        The part of the window before the first heading sample is filled
        with the fallback direction (warm start).
        """
        ht, hc = self._ht, self._hc
        if not ht:
            return wrap_to_pi(self.theta_des_fallback)
        # once heading samples exist every pose appends one, so the window
        # ends at the last of them, where the running integral is hc[-1]
        a = ht[-1] - self.period
        first = ht[0]
        if a < first - _TIME_SLACK:
            # pad the missing prefix with the fallback, on the branch nearest
            # the first real sample so the unwrapped average stays coherent
            anchor = self._hu[0]
            pad_val = anchor + wrap_to_pi(self.theta_des_fallback - anchor)
            total = pad_val * (first - a)
            if len(ht) > 1:  # adding 0.0 would turn a -0.0 pad into +0.0
                total += hc[-1] - hc[0]
        else:
            total = hc[-1] - self._heading_cumint(a)
        return wrap_to_pi(total / self.period)
