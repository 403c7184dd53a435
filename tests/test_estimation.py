import math

import numpy as np
import pytest

from helpers import TravelEstimatorReference
from paddlesim.control import wrap_to_pi
from paddlesim.estimation import _COMPACT_EVERY, TravelEstimator

RATE = 80.0
DT = 1.0 / RATE


def feed(est, fn, t_end):
    """Add the poses fn(t) at t = i * DT up to t_end and query the direction
    after each one, as the mission loop does; return the last t and the
    directions."""
    directions = []
    for i in range(round(t_end * RATE) + 1):
        t = i * DT
        est.add_pose(t, *fn(t))
        directions.append(est.travel_direction())
    return t, directions


def chord_direction_on_circle(om, period, t):
    """Window mean of the period-wise heading on the circle (r cos om t, r sin om t).

    The chord from s - period to s points along om * (s - period / 2) + pi/2,
    which is linear in s, so its mean over [t - period, t] is its value at the
    window's middle."""
    return om * (t - period) + 0.5 * math.pi


def test_straight_line_velocity_and_direction():
    alpha = 0.7
    est = TravelEstimator(1.0)
    _, directions = feed(
        est, lambda t: (0.3 * t * math.cos(alpha), 0.3 * t * math.sin(alpha)), 3.0)
    assert directions[-1] == pytest.approx(alpha)


def test_stationary_pose_zero_velocity():
    # zero displacement holds the heading, so the fallback stays throughout
    est = TravelEstimator(1.0, theta_des_fallback=0.3)
    _, directions = feed(est, lambda t: (1.0, -2.0), 3.0)
    assert directions == pytest.approx([0.3] * len(directions), abs=1e-12)


def test_circle_chord_speed():
    # a period that is a whole number of pose steps: the window start lands
    # on a buffered pose
    r, om = 2.0, 0.9
    est = TravelEstimator(1.0)
    t, directions = feed(est, lambda t: (r * math.cos(om * t), r * math.sin(om * t)), 5.0)
    err = wrap_to_pi(directions[-1] - chord_direction_on_circle(om, 1.0, t))
    assert err == pytest.approx(0.0, abs=1e-9)


def test_interpolation_between_pose_samples():
    # a period of 82.4 pose steps: the window start falls between samples,
    # and linear pose interpolation keeps a straight line's heading exact
    alpha = -2.2
    est = TravelEstimator(1.03, theta_des_fallback=alpha)
    _, directions = feed(
        est, lambda t: (0.25 * t * math.cos(alpha), 0.25 * t * math.sin(alpha)), 3.0)
    assert directions == pytest.approx([alpha] * len(directions), abs=1e-12)


def test_off_grid_period_follows_the_chord_direction():
    # on a circle the heading depends on where between two samples the
    # interpolated pose sits; the chord between the samples sags inside the
    # circle by r (om DT)^2 / 8, so the oracle holds to about 2e-5 rad
    r, om, period = 2.0, 0.9, 1.03
    est = TravelEstimator(period)
    _, directions = feed(est, lambda t: (r * math.cos(om * t), r * math.sin(om * t)), 5.0)
    # from 2.1 periods on, the window holds heading samples only
    for i in range(round(2.1 * period * RATE), len(directions)):
        err = wrap_to_pi(directions[i] - chord_direction_on_circle(om, period, i * DT))
        assert err == pytest.approx(0.0, abs=1e-4)


def test_wrap_boundary_average_is_pi():
    # heading samples alternate just above and below +pi (motion along -x
    # with a small lateral dither); the mean must come out at pi, not zero
    def fn(t):
        return -0.3 * t, 1e-4 * math.sin(40.0 * t)
    est = TravelEstimator(1.0)
    _, directions = feed(est, fn, 4.0)
    got = directions[-1]
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
    t_end, directions = feed(est, fn, 6.0)
    got = directions[-1]

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
    assert est.travel_direction() == pytest.approx(fb)
    _, directions = feed(
        est, lambda t: (0.2 * t * math.cos(alpha), 0.2 * t * math.sin(alpha)), 1.5)
    # before a period has passed there is no heading sample yet
    assert directions[round(0.5 * RATE)] == pytest.approx(fb)
    # all real samples sit at alpha over [T, 1.5T]; the window [0.5T, 1.5T]
    # is half fallback padding, half real data
    # quadrature oracle on the padded signal (constant segments integrate exactly)
    expected = 0.5 * fb + 0.5 * alpha
    assert directions[-1] == pytest.approx(expected, abs=1e-9)


def test_warm_start_consistency_when_samples_equal_fallback():
    fb = 0.9
    est = TravelEstimator(1.0, theta_des_fallback=fb)
    _, directions = feed(est, lambda t: (0.2 * t * math.cos(fb), 0.2 * t * math.sin(fb)), 1.0)
    assert directions[-1] == pytest.approx(fb)


def test_warm_start_never_raises():
    est = TravelEstimator(1.0, theta_des_fallback=0.3)
    assert math.isfinite(est.travel_direction())
    _, directions = feed(est, lambda t: (0.1 * t, 0.0), 2.0)
    assert all(map(math.isfinite, directions))


def test_shift_invariance():
    def fn(t):
        return 0.2 * t, 0.05 * math.sin(3.0 * t)

    a = TravelEstimator(1.0)
    b = TravelEstimator(1.0)
    _, da = feed(a, fn, 4.0)
    _, db = feed(b, lambda t: (fn(t)[0] + 17.0, fn(t)[1] - 3.5), 4.0)
    assert da == pytest.approx(db)


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
    _, da = feed(a, fn, 4.0)
    _, db = feed(b, rot, 4.0)
    diff = db[-1] - da[-1]
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
    _, directions = feed(est, fn, 5.0)
    # net displacement over the final period is zero; the held samples keep
    # the direction finite and equal to the last real heading
    assert directions[-1] == pytest.approx(0.0, abs=1e-9)


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


def test_buffers_hold_one_period_and_answer_as_reference():
    # 2,000 poses at the loop's 120 Hz with a 1 s period: a wavy swim that
    # turns, then a stop that holds the last heading
    def fn(t):
        s = min(t, 12.0)
        return 0.1 * s + 0.02 * math.sin(math.tau * s), 0.3 * math.sin(0.4 * s)

    est = TravelEstimator(1.0, theta_des_fallback=0.4)
    ref = TravelEstimatorReference(1.0, theta_des_fallback=0.4)
    for i in range(2000):
        t = i / 120.0
        est.add_pose(t, *fn(t))
        ref.add_pose(t, *fn(t))
        assert est.travel_direction().hex() == ref.travel_direction().hex()
    # one period of samples at 120 Hz plus the one at or before its start,
    # and fewer older ones than a compaction drops at once
    assert len(ref._pt) <= 122 and len(ref._ht) <= 122
    assert len(est._pt) < 122 + _COMPACT_EVERY and len(est._hu) < 122 + _COMPACT_EVERY


@pytest.mark.parametrize("per_period", [150, 300, 1000])
@pytest.mark.parametrize("period, fallback", [(1.0, 0.4), (0.37, -2.9), (2.5, 7.0)])
def test_dense_poses_answer_as_reference(per_period, period, fallback):
    # more poses per period than a compaction drops, so the cursor passes
    # rows before the first heading exists; the swim turns through a half
    # circle and stops, and every answer must match the reference's bits
    def fn(t):
        s = min(t, 3.0 * period)
        return math.cos(s / period) + 0.05 * math.sin(9.0 * s), math.sin(s / period)

    est = TravelEstimator(period, theta_des_fallback=fallback)
    ref = TravelEstimatorReference(period, theta_des_fallback=fallback)
    dt = period / per_period
    for i in range(4 * per_period + 1):
        t = 5.0 + i * dt
        est.add_pose(t, *fn(i * dt))
        ref.add_pose(t, *fn(i * dt))
        assert est.travel_direction().hex() == ref.travel_direction().hex()
        assert len(est._pt) - len(ref._pt) < _COMPACT_EVERY
        assert len(est._hu) - len(ref._ht) < _COMPACT_EVERY


@pytest.mark.parametrize("period, fallback", [
    (0.0, 0.0), (-1.0, 0.0), (math.nan, 0.0), (-math.inf, 0.0),
    (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)])
def test_rejects_a_bad_period_or_fallback(period, fallback):
    with pytest.raises(ValueError):
        TravelEstimator(period, theta_des_fallback=fallback)


@pytest.mark.parametrize("period, t, later", [
    (1e-20, 1.0, 1e-10), (1e-300, 1e10, 1e-290), (1.0, math.nan, 3.0), (1.0, math.inf, 3.0)])
def test_rejects_a_pose_that_one_period_back_cannot_reach(period, t, later):
    # t - period must lie before t: a period below half an ulp of t rounds
    # away, and a NaN or infinite time has no earlier one
    est = TravelEstimator(period)
    ref = TravelEstimatorReference(period)
    est.add_pose(0.0, 0.0, 0.0)
    ref.add_pose(0.0, 0.0, 0.0)
    rows = [est._pt[:], est._px[:], est._py[:], est._hu[:], est._hc[:]]
    with pytest.raises(ValueError, match="period"):
        est.add_pose(t, 1.0, 0.0)
    # the rejected pose changed nothing, and a later one answers as before
    assert [est._pt, est._px, est._py, est._hu, est._hc] == rows
    est.add_pose(later, 1.0, 0.0)
    ref.add_pose(later, 1.0, 0.0)
    assert est.travel_direction().hex() == ref.travel_direction().hex()


@pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                                  (0.0, -math.inf)])
def test_rejects_a_non_finite_position(x, y):
    # a NaN x once passed and a later pose raised after appending its pose
    # row but not its heading row, leaving the lists out of line
    est = TravelEstimator(1.0)
    ref = TravelEstimatorReference(1.0)
    for i in range(300):
        if i == 5:
            rows = [est._pt[:], est._px[:], est._py[:], est._hu[:], est._hc[:]]
            with pytest.raises(ValueError, match="finite"):
                est.add_pose(i / 120, x, y)
            assert [est._pt, est._px, est._py, est._hu, est._hc] == rows
            continue
        est.add_pose(i / 120, i / 120, 0.0)
        ref.add_pose(i / 120, i / 120, 0.0)
        assert est.travel_direction().hex() == ref.travel_direction().hex()


def test_an_infinite_period_answers_the_fallback():
    # the loop derives an infinite period from a tiny omega; no pose is ever
    # a period past the first, so the warm start holds
    est = TravelEstimator(math.inf, theta_des_fallback=0.5)
    for i in range(300):
        est.add_pose(i * 0.01, 0.1 * i, 0.0)
    assert est.travel_direction() == 0.5 and est._hu == []
