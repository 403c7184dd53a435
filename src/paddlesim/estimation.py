"""Travel-direction estimation from pose history.

The hull oscillates as it paddles, so differentiating the trajectory
directly gives a wildly swinging heading.  Instead the displacement over
one oscillation period (the period-wise velocity) is smoothed again by
averaging its orientation over a trailing period.  Until enough history
exists the estimate warm-starts from the commanded travel direction, which
is a fair assumption in still water.
"""

from math import atan2, hypot

from .control import wrap_to_pi

_SPEED_FLOOR = 1e-6   # m/s below which the heading sample holds its last value
_TIME_SLACK = 1e-12   # tolerance when testing window coverage, s
# samples a cursor passes before the lists drop them, in one block
_COMPACT_EVERY = 128


class TravelEstimator:
    """Buffers of pose and period-wise heading; travel_direction answers at
    the latest pose.

    Poses arrive through add_pose with strictly increasing timestamps; each
    arrival that is at least one period past the first pose still in the
    window also appends a period-wise heading sample.  Each buffer has a
    cursor at the last sample at or before one period back from the latest
    pose; nothing before it is read again.  The cursors only move forward,
    and the samples they pass are dropped from the lists every
    _COMPACT_EVERY samples, so a buffer holds its one-period window plus
    fewer than that many older samples.
    """

    def __init__(self, period: float, theta_des_fallback: float = 0.0):
        if period <= 0.0:
            raise ValueError("period must be positive")
        self.period = period
        self.theta_des_fallback = theta_des_fallback
        # pose samples, from the cursor _p on
        self._p = 0
        self._pt: list[float] = []
        self._px: list[float] = []
        self._py: list[float] = []
        # heading samples, from the cursor _h on: time, unwrapped value,
        # running trapezoid integral
        self._h = 0
        self._ht: list[float] = []
        self._hu: list[float] = []
        self._hc: list[float] = []

    # ------------------------------------------------------------------ input

    def add_pose(self, t: float, x: float, y: float) -> None:
        """Append a pose sample and derive a heading sample once possible."""
        pt, px, py = self._pt, self._px, self._py
        ht, hu, hc = self._ht, self._hu, self._hc
        if pt and t <= pt[-1]:
            raise ValueError("pose timestamps must be strictly increasing")
        pt.append(t)
        px.append(x)
        py.append(y)
        period = self.period
        floor = t - period
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
            if ht:
                cum = hc[-1] + 0.5 * (unwrapped + hu[-1]) * (t - ht[-1])
            else:
                cum = 0.0
            ht.append(t)
            hu.append(unwrapped)
            hc.append(cum)

        # the same for the heading cursor; later windows start after it
        h = self._h
        last = len(ht) - 1
        while h < last and ht[h + 1] <= floor:
            h += 1
        if h >= _COMPACT_EVERY:
            del ht[:h], hu[:h], hc[:h]
            h = 0
        self._h = h
        if p >= _COMPACT_EVERY:
            del pt[:p], px[:p], py[:p]
            p = 0
        self._p = p

    # ---------------------------------------------------------------- queries

    def travel_direction(self) -> float:
        """Smoothed direction of travel at the latest pose: the mean of the
        heading over the trailing period.

        The part of the window before the first heading sample is filled
        with the fallback direction (warm start).
        """
        ht, hu, hc = self._ht, self._hu, self._hc
        if not ht:
            return wrap_to_pi(self.theta_des_fallback)
        period = self.period
        h = self._h
        # once heading samples exist every pose appends one, so the window
        # ends at the last of them, where the running integral is hc[-1]
        a = ht[-1] - period
        first = ht[h]
        if a < first - _TIME_SLACK:
            # pad the missing prefix with the fallback, on the branch nearest
            # the first real sample so the unwrapped average stays coherent
            anchor = hu[h]
            pad_val = anchor + wrap_to_pi(self.theta_des_fallback - anchor)
            total = pad_val * (first - a)
            if h < len(ht) - 1:  # adding 0.0 would turn a -0.0 pad into +0.0
                total += hc[-1] - hc[h]
        elif a <= first:
            total = hc[-1] - hc[h]
        else:
            # the running integral at a, from the last sample at or before it
            i = h
            while ht[i + 1] <= a:
                i += 1
            t0, u0 = ht[i], hu[i]
            f = (a - t0) / (ht[i + 1] - t0)
            v = u0 + f * (hu[i + 1] - u0)
            total = hc[-1] - (hc[i] + 0.5 * (u0 + v) * (a - t0))
        mean = total / period
        return mean if -3.0 < mean < 3.0 else wrap_to_pi(mean)
