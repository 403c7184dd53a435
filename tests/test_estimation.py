import math

import numpy as np
import pytest

from paddlesim.control import wrap_to_pi
from paddlesim.estimation import TravelEstimator

RATE = 80.0     # sample times i/80 are exact binary floats
DT = 1.0 / RATE


def feed(est, fn, t_end, t_start=0.0):
    i0 = round(t_start * RATE)
    for i in range(i0, round(t_end * RATE) + 1):
        t = i * DT
        x, y = fn(t)
        est.add_pose(t, x, y)
    return i * DT


def test_straight_line_velocity_and_direction():
    alpha = 0.7
    est = TravelEstimator(1.0)
    feed(est, lambda t: (0.3 * t * math.cos(alpha), 0.3 * t * math.sin(alpha)), 3.0)
    vx, vy = est.periodwise_velocity(3.0)
    assert (vx, vy) == pytest.approx((0.3 * math.cos(alpha), 0.3 * math.sin(alpha)))
    assert est.travel_direction(3.0) == pytest.approx(alpha)


def test_stationary_pose_zero_velocity():
    est = TravelEstimator(1.0)
    feed(est, lambda t: (1.0, -2.0), 3.0)
    assert est.periodwise_velocity(3.0) == pytest.approx((0.0, 0.0))


def test_circle_chord_speed():
    r, om = 2.0, 0.9
    est = TravelEstimator(1.0)
    feed(est, lambda t: (r * math.cos(om * t), r * math.sin(om * t)), 5.0)
    v = est.periodwise_velocity(5.0)
    # oracle: chord length over one period
    expected = 2.0 * r * abs(math.sin(om * 0.5)) / 1.0
    assert math.hypot(*v) == pytest.approx(expected, rel=1e-9)


def test_interpolation_between_pose_samples():
    est = TravelEstimator(1.0)
    feed(est, lambda t: (0.25 * t, 0.0), 3.0)
    # query off the sample grid: linear pose interpolation keeps v_T exact
    vx, vy = est.periodwise_velocity(2.71828)
    assert vx == pytest.approx(0.25, rel=1e-9)


def test_wrap_boundary_average_is_pi():
    # heading samples alternate just above and below +pi (motion along -x
    # with a small lateral dither); the mean must come out at pi, not zero
    def fn(t):
        return -0.3 * t, 1e-4 * math.sin(40.0 * t)
    est = TravelEstimator(1.0)
    feed(est, fn, 4.0)
    got = est.travel_direction(4.0)
    assert abs(wrap_to_pi(got - math.pi)) < 1e-3
    assert abs(got) > 3.0  # nowhere near zero


def test_oscillatory_trajectory_mean_direction():
    # sinusoidal lateral wiggle about a straight path at heading alpha
    alpha, speed, amp, freq = 0.35, 0.2, 0.05, math.tau
    ca, sa = math.cos(alpha), math.sin(alpha)

    def fn(t):
        s, w = speed * t, amp * math.sin(freq * t)
        return s * ca - w * sa, s * sa + w * ca

    period = 1.0
    est = TravelEstimator(period)
    t_end = feed(est, fn, 6.0)
    got = est.travel_direction(t_end)

    # quadrature oracle: trapezoid of the periodwise heading at a fine step
    fine = 1e-4
    ts = np.arange(round((t_end - period) / fine), round(t_end / fine) + 1) * fine
    heads = []
    for t in ts:
        x1, y1 = fn(t)
        x0, y0 = fn(t - period)
        heads.append(math.atan2(y1 - y0, x1 - x0))
    u = np.unwrap(heads)
    # the trapezoid rule written out (np.trapezoid needs numpy >= 2.0)
    expected = np.sum(0.5 * (u[1:] + u[:-1]) * np.diff(ts)) / period
    assert got == pytest.approx(expected, abs=1e-3)
    assert got == pytest.approx(alpha, abs=1e-3)


def test_warm_start_values():
    fb = -0.4
    alpha = 0.9
    est = TravelEstimator(1.0, theta_des_fallback=fb)
    # before any data the fallback is returned outright
    assert est.travel_direction(0.0) == pytest.approx(fb)
    feed(est, lambda t: (0.2 * t * math.cos(alpha), 0.2 * t * math.sin(alpha)), 1.5)
    # all real samples sit at alpha over [T, 1.5T]; the window [0.5T, 1.5T]
    # is half fallback padding, half real data
    got = est.travel_direction(1.5)
    # quadrature oracle on the padded signal (constant segments integrate exactly)
    expected = 0.5 * fb + 0.5 * alpha
    assert got == pytest.approx(expected, abs=1e-9)
    # early query still returns the fallback
    assert est.travel_direction(0.5) == pytest.approx(fb)


def test_warm_start_consistency_when_samples_equal_fallback():
    fb = 0.9
    est = TravelEstimator(1.0, theta_des_fallback=fb)
    feed(est, lambda t: (0.2 * t * math.cos(fb), 0.2 * t * math.sin(fb)), 1.0)
    assert est.travel_direction(1.0) == pytest.approx(fb)


def test_warm_start_never_raises():
    est = TravelEstimator(1.0, theta_des_fallback=0.3)
    assert math.isfinite(est.travel_direction(0.0))
    assert math.isfinite(est.periodwise_velocity(0.0)[0])
    for i in range(161):
        t = i * DT
        est.add_pose(t, 0.1 * t, 0.0)
        assert math.isfinite(est.travel_direction(t))
        vx, vy = est.periodwise_velocity(t)
        assert math.isfinite(vx) and math.isfinite(vy)


def test_shift_invariance():
    def fn(t):
        return 0.2 * t, 0.05 * math.sin(3.0 * t)

    a = TravelEstimator(1.0)
    b = TravelEstimator(1.0)
    feed(a, fn, 4.0)
    feed(b, lambda t: (fn(t)[0] + 17.0, fn(t)[1] - 3.5), 4.0)
    assert a.periodwise_velocity(4.0) == pytest.approx(b.periodwise_velocity(4.0))
    assert a.travel_direction(4.0) == pytest.approx(b.travel_direction(4.0))


def test_rotation_equivariance():
    rho = 1.1
    cr, sr = math.cos(rho), math.sin(rho)

    def fn(t):
        return 0.2 * t, 0.05 * math.sin(3.0 * t)

    def rot(t):
        x, y = fn(t)
        return cr * x - sr * y, sr * x + cr * y

    a = TravelEstimator(1.0)
    b = TravelEstimator(1.0)
    feed(a, fn, 4.0)
    feed(b, rot, 4.0)
    diff = b.travel_direction(4.0) - a.travel_direction(4.0)
    assert wrap_to_pi(diff - rho) == pytest.approx(0.0, abs=1e-9)


def test_timestamps_must_increase():
    est = TravelEstimator(1.0)
    est.add_pose(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        est.add_pose(0.0, 1.0, 0.0)


def test_near_zero_velocity_holds_heading():
    est = TravelEstimator(1.0)
    # move for 2.5 s, then stop dead
    def fn(t):
        s = min(t, 2.5)
        return 0.2 * s, 0.0
    feed(est, fn, 5.0)
    # net displacement over the final period is zero; the held samples keep
    # the direction query finite and equal to the last real heading
    assert est.travel_direction(5.0) == pytest.approx(0.0, abs=1e-9)


def test_smoothing_beats_raw_heading(square_log):
    # the estimate exists because differentiating the trajectory directly is
    # too jumpy; compare step-to-step variation at the outer-loop ticks on a
    # corner-rich run (a constant-reference trace is smooth either way here)
    from paddlesim.mission import _OUTER_GAPS

    log = square_log
    idx = [0]
    g = 0
    while True:
        nxt = idx[-1] + _OUTER_GAPS[g % len(_OUTER_GAPS)]
        if nxt >= len(log.t):
            break
        idx.append(nxt)
        g += 1
    outer = np.array(idx)
    outer = outer[log.t[outer] >= 5.0]
    raw_steps = np.diff(np.unwrap(np.arctan2(log.vy[outer], log.vx[outer])))
    psi_steps = np.diff(np.unwrap(log.psi_hat[outer]))
    assert np.var(psi_steps) * 2.0 <= np.var(raw_steps)
