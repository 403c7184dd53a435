"""Small builders and reference integrators shared by the test modules."""

import math
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from paddlesim.control import wrap_to_pi
from paddlesim.dynamics import orientation_accel
from paddlesim.estimation import _SPEED_FLOOR, _TIME_SLACK
from paddlesim.metrics import RISE_FRACTION, NotSettled, settled_step_changes
from paddlesim.mission import (TELEMETRY_COLUMNS, MissionKind, MissionSpec, TelemetryLog,
                               run_mission)


def make_log(t, *, x=None, y=None, psi_hat=None, theta=None, theta_t_dot=None,
             theta_r=None, period=1.0, body_length=0.15):
    """Synthetic telemetry with zeros for everything not supplied."""
    given = {"t": t, "x": x, "y": y, "psi_hat": psi_hat, "theta": theta,
             "theta_t_dot": theta_t_dot, "theta_r": theta_r}
    n = len(t)
    cols = [np.zeros(n) if given.get(name) is None else np.asarray(given[name], dtype=float)
            for name in TELEMETRY_COLUMNS[:-1]]
    return TelemetryLog(np.stack(cols, axis=1), np.zeros(n, dtype=np.int64),
                        period=period, body_length=body_length)


def rolling_mean(t: np.ndarray, values: np.ndarray, window: float) -> np.ndarray:
    """Trailing boxcar mean over (t - window, t] at every sample.

    Early samples average over whatever part of the window exists.
    """
    csum = np.concatenate(([0.0], np.cumsum(values)))
    idx = np.arange(len(values))
    start = np.searchsorted(t, t - window, side="right")
    return (csum[idx + 1] - csum[start]) / (idx + 1 - start)


class Plant(NamedTuple):
    """The state rk4_step advances, in its argument and result order."""

    theta: float = 0.0
    theta_dot: float = 0.0
    phi: float = 0.0
    phi_dot: float = 0.0
    x: float = 0.0
    y: float = 0.0
    vx: float = 0.0
    vy: float = 0.0


def rk4_step_controlled(params, t0, th, w, torque_fn, dt):
    """One fourth-order step of the hull rotation from time t0, hull angle th
    and rate w, with the torque law torque_fn(t, theta, theta_dot) evaluated
    at the stage points, so a smooth feedback law integrates at the full
    order of the method.  Returns the new (theta, theta_dot).

    rk4_step, which missions run, holds the torque over the step instead.
    """
    half = 0.5 * dt
    k1 = orientation_accel(params, w, torque_fn(t0, th, w))
    th2, w2 = th + half * w, w + half * k1
    k2 = orientation_accel(params, w2, torque_fn(t0 + half, th2, w2))
    th3, w3 = th + half * w2, w + half * k2
    k3 = orientation_accel(params, w3, torque_fn(t0 + half, th3, w3))
    th4, w4 = th + dt * w3, w + dt * k3
    k4 = orientation_accel(params, w4, torque_fn(t0 + dt, th4, w4))
    return (th + dt / 6.0 * (w + 2.0 * w2 + 2.0 * w3 + w4),
            w + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def _planar_accel(params, vx, vy, tx, ty):
    """Point-mass acceleration under a fixed thrust vector and quadratic drag."""
    speed = math.hypot(vx, vy)
    cd = params.C_v * speed
    return (tx - cd * vx) / params.mass, (ty - cd * vy) / params.mass


def _translational_rk4(params, x, y, vx, vy, tx, ty, dt):
    """Classical fourth-order stages of the point-mass translation.

    The thrust vector (tx, ty) is held constant across the step; returns the
    new (x, y, vx, vy).
    """
    half = 0.5 * dt
    ax1, ay1 = _planar_accel(params, vx, vy, tx, ty)
    ux2, uy2 = vx + half * ax1, vy + half * ay1
    ax2, ay2 = _planar_accel(params, ux2, uy2, tx, ty)
    ux3, uy3 = vx + half * ax2, vy + half * ay2
    ax3, ay3 = _planar_accel(params, ux3, uy3, tx, ty)
    ux4, uy4 = vx + dt * ax3, vy + dt * ay3
    ax4, ay4 = _planar_accel(params, ux4, uy4, tx, ty)
    return (x + dt / 6.0 * (vx + 2.0 * ux2 + 2.0 * ux3 + ux4),
            y + dt / 6.0 * (vy + 2.0 * uy2 + 2.0 * uy3 + uy4),
            vx + dt / 6.0 * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4),
            vy + dt / 6.0 * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4))


def rk4_step_reference(params, theta, w, phi, phi_dot, x, y, vx, vy,
                       control_torque, thrust_x, thrust_y, dt):
    """rk4_step written stage by stage through orientation_accel and a
    point-mass helper, in the same operation order, so the two must agree
    bit for bit."""
    a = control_torque
    half = 0.5 * dt
    k1 = orientation_accel(params, w, a)
    s2 = w + half * k1
    k2 = orientation_accel(params, s2, a)
    s3 = w + half * k2
    k3 = orientation_accel(params, s3, a)
    s4 = w + dt * k3
    k4 = orientation_accel(params, s4, a)
    return (theta + dt / 6.0 * (w + 2.0 * s2 + 2.0 * s3 + s4),
            w + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
            phi + phi_dot * dt + 0.5 * a * dt * dt, phi_dot + a * dt,
            *_translational_rk4(params, x, y, vx, vy, thrust_x, thrust_y, dt))


class TravelEstimatorReference:
    """TravelEstimator as it was before its cursors: each query bisects its
    buffers, and each pose deletes from their fronts every sample that a
    query one period back no longer reaches.  The same arithmetic in the
    same order, so the two must answer bit for bit."""

    def __init__(self, period, theta_des_fallback=0.0):
        if period <= 0.0:
            raise ValueError("period must be positive")
        self.period = period
        self.theta_des_fallback = theta_des_fallback
        self._pt, self._px, self._py = [], [], []
        self._ht, self._hu, self._hc = [], [], []

    def add_pose(self, t, x, y):
        pt, px, py = self._pt, self._px, self._py
        if pt and t <= pt[-1]:
            raise ValueError("pose timestamps must be strictly increasing")
        pt.append(t)
        px.append(x)
        py.append(y)
        period = self.period
        ht, hu, hc = self._ht, self._hu, self._hc
        if t - pt[0] >= period - _TIME_SLACK:
            x0, y0 = self._interp_pose(t - period)
            vx, vy = (x - x0) / period, (y - y0) / period
            if math.hypot(vx, vy) < _SPEED_FLOOR:
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
        floor = t - period
        while len(pt) > 1 and pt[1] <= floor:
            del pt[0], px[0], py[0]
        while len(ht) > 1 and ht[1] <= floor:
            del ht[0], hu[0], hc[0]

    def _interp_pose(self, q):
        pt = self._pt
        if q <= pt[0]:
            return self._px[0], self._py[0]
        i = bisect_right(pt, q) - 1
        f = (q - pt[i]) / (pt[i + 1] - pt[i])
        return (self._px[i] + f * (self._px[i + 1] - self._px[i]),
                self._py[i] + f * (self._py[i + 1] - self._py[i]))

    def _heading_cumint(self, x):
        ht = self._ht
        if x <= ht[0]:
            return self._hc[0]
        i = bisect_right(ht, x) - 1
        f = (x - ht[i]) / (ht[i + 1] - ht[i])
        v = self._hu[i] + f * (self._hu[i + 1] - self._hu[i])
        return self._hc[i] + 0.5 * (self._hu[i] + v) * (x - ht[i])

    def travel_direction(self):
        ht, hc = self._ht, self._hc
        if not ht:
            return wrap_to_pi(self.theta_des_fallback)
        a = ht[-1] - self.period
        first = ht[0]
        if a < first - _TIME_SLACK:
            anchor = self._hu[0]
            pad_val = anchor + wrap_to_pi(self.theta_des_fallback - anchor)
            total = pad_val * (first - a)
            if len(ht) > 1:
                total += hc[-1] - hc[0]
        else:
            total = hc[-1] - self._heading_cumint(a)
        return wrap_to_pi(total / self.period)


def rise_time_reference(log, command_time, delta, psi=None):
    """metrics.rise_time as it was before the log kept its unwrapped travel
    direction: it unwraps the whole column (or takes psi, an unwrapped column
    given in its place) and scans from the command to the end of the log
    with absolute indices.  The same arithmetic, so the two must agree bit
    for bit, NotSettled included."""
    if delta == 0.0:
        raise ValueError("delta must be nonzero")
    hold = log.period
    t = log.t
    base_i = int(np.searchsorted(t, command_time, side="right")) - 1
    if base_i < 0:
        raise ValueError("command_time precedes the log")
    if psi is None:
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


def within_ulps(x, n):
    """x and the n floats on each side of it, in increasing order."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def wrap_to_pi_formula(angle):
    """wrap_to_pi as the full floor formula, with no in-range shortcut."""
    wrapped = angle - math.tau * math.floor((angle + math.pi) / math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


def pendulum_reference(params, cfg, psi0, dt, n):
    """Heading error psi at n + 1 samples, from RK4 on the damped-pendulum
    form of the closed loop (limit-cycle law, reference heading zero)."""
    inertia = params.I_b + params.I_t

    def accel(t, psi, dpsi):
        drag = params.C_f * dpsi * abs(dpsi) + params.C_r * dpsi
        return (-drag + params.I_t * cfg.K * math.sin(cfg.omega * t)
                - params.I_t * cfg.beta * math.sin(psi)) / inertia

    out = np.empty(n + 1)
    out[0] = psi = psi0
    dpsi = 0.0
    for i in range(n):
        t = i * dt
        k1 = accel(t, psi, dpsi)
        s2 = dpsi + 0.5 * dt * k1
        k2 = accel(t + 0.5 * dt, psi + 0.5 * dt * dpsi, s2)
        s3 = dpsi + 0.5 * dt * k2
        k3 = accel(t + 0.5 * dt, psi + 0.5 * dt * s2, s3)
        s4 = dpsi + dt * k3
        k4 = accel(t + dt, psi + dt * s3, s4)
        psi += dt / 6.0 * (dpsi + 2.0 * s2 + 2.0 * s3 + s4)
        dpsi += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = psi
    return out


def run_step_test(params, cfg, delta, initial_leg=15.0, second_leg=15.0):
    """Swim straight, step the desired heading by delta, swim again.

    Returns the commanded change and the settled change in the measured
    travel direction (mean estimate over the final quarter of each leg).
    """
    spec = MissionSpec(kind=MissionKind.STEP_TEST,
                       duration=initial_leg + second_leg, heading=0.0,
                       step_schedule=((initial_leg, delta),))
    log = run_mission(params, cfg, spec)
    return delta, settled_step_changes(log, spec.step_schedule)[0]


def cap_scenarios():
    """Scenario configs at, just under and just over each scenario-wide cap
    of the CLI, keyed by (cap, side) with cap one of "points", "ticks",
    "points-repeats", "ticks-repeats" and "name" and side one of "at",
    "under" and "over".  The "-repeats" caps are met through batch.repeats.

    The point and tick cases set a thrust so large that every point diverges
    on its first tick, so running an accepted one costs a tick.  The name
    cases run 0.1 s and name their files in two-byte characters, so that
    bytes, not characters, meet the 255-byte limit."""
    wild = "mission.kind = converge\nboat.k_thrust = 1e300\n"

    def values(n, start=1):
        return ", ".join(str(v) for v in range(start, start + n))

    def ticks(first):
        # 100 points of 1,000,000 - 250 k ticks (k = 0..99) sum to
        # 98,762,500, and a first point of 4950 s adds 1,237,500
        return (wild + f"sweep.mission.duration = {first}, "
                + ", ".join(str(d) for d in range(4000, 3900, -1)) + "\n")

    def name(n_bytes):
        # the longest name is the stem plus "_metrics.txt", 12 bytes
        stem = "é" * ((n_bytes - 12) // 2) + "b" * (n_bytes % 2)
        return ("mission.kind = converge\nmission.duration = 0.1\n"
                f"output.basename = {stem}\n")

    points = wild + "mission.duration = 1\nsweep.control.K = {}\nsweep.boat.mass = {}\n"
    # points x repeats and ticks x repeats: 100 x 100, 101 x 99, 73 x 137;
    # 1,000,000 x 100, 1,010,101 x 99 and 5,882,353 x 17
    repeats = wild + "mission.duration = 1\nsweep.control.K = {}\nbatch.repeats = {}\n"
    long = wild + "mission.duration = {}\nbatch.repeats = {}\n"
    return {
        ("points-repeats", "at"): repeats.format(values(100), 100),
        ("points-repeats", "under"): repeats.format(values(101), 99),
        ("points-repeats", "over"): repeats.format(values(73), 137),
        ("ticks-repeats", "at"): long.format(4000, 100),
        ("ticks-repeats", "under"): long.format(4040.404, 99),
        ("ticks-repeats", "over"): long.format(23529.412, 17),
        ("points", "at"): points.format(values(100), values(100)),
        ("points", "under"): points.format(values(99), values(101)),
        ("points", "over"): points.format(values(73), values(137)),
        ("ticks", "at"): ticks("4950"),
        ("ticks", "under"): ticks("4949.996"),
        ("ticks", "over"): ticks("4950.004"),
        ("name", "at"): name(255),
        ("name", "under"): name(254),
        ("name", "over"): name(256),
    }
