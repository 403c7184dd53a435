import itertools
import math

import numpy as np
import pytest

from helpers import make_log, rolling_mean, within_ulps
from paddlesim.metrics import (DegenerateSegment, NotSettled, measure_turn,
                               orbit_radius, quartiles, rise_time,
                               rms_perpendicular_error, settled_step_changes,
                               travel_during_turn)

DT = 1.0 / 250.0


def grid(duration):
    return np.arange(round(duration / DT) + 1) * DT


def test_rise_time_instantaneous_step():
    t = grid(5.0)
    psi = np.where(t > 1.0, 1.0, 0.0)
    log = make_log(t, psi_hat=psi)
    assert rise_time(log, 1.0, 1.0) == pytest.approx(DT)


def test_rise_time_first_order_response():
    tau_c = 0.8
    delta = 1.2
    t = grid(12.0)
    psi = np.where(t > 2.0, delta * (1.0 - np.exp(-(t - 2.0) / tau_c)), 0.0)
    log = make_log(t, psi_hat=psi)
    # oracle: closed form, 90% crossing of a first-order response
    expected = tau_c * math.log(10.0)
    assert rise_time(log, 2.0, delta) == pytest.approx(expected, abs=DT)


def test_rise_time_monotone_ramp():
    t = grid(10.0)
    t_star = 3.0
    psi = np.clip(t / t_star, 0.0, 1.0) * 0.9  # hits 0.9*delta exactly at t*
    log = make_log(t, psi_hat=psi)
    assert rise_time(log, 0.0, 1.0) == pytest.approx(t_star, abs=DT + 1e-9)


def test_rise_time_negative_delta():
    t = grid(8.0)
    psi = np.where(t > 1.0, -0.5, 0.0)
    log = make_log(t, psi_hat=psi)
    assert rise_time(log, 1.0, -0.5) == pytest.approx(DT)


def test_rise_time_not_settled():
    t = grid(5.0)
    log = make_log(t, psi_hat=np.zeros_like(t))
    with pytest.raises(NotSettled):
        rise_time(log, 0.0, 1.0)


def test_rise_time_hold_requirement_rejects_blip():
    t = grid(6.0)
    psi = np.zeros_like(t)
    blip = (t > 1.0) & (t < 1.2)        # short excursion into the band
    psi[blip] = 1.0
    psi[t >= 3.0] = 1.0                  # real settle later
    log = make_log(t, psi_hat=psi)
    rt = rise_time(log, 0.0, 1.0)
    assert 2.9 < rt < 3.1


def test_travel_during_turn_stationary():
    t = grid(2.0)
    log = make_log(t)
    assert travel_during_turn(log, 0.0, 2.0) == 0.0


def test_travel_during_turn_straight_motion():
    t = grid(4.0)
    v = 0.13
    log = make_log(t, x=v * t)
    assert travel_during_turn(log, 1.0, 3.0) == pytest.approx(v * 2.0, rel=1e-9)


def test_travel_during_turn_quarter_circle():
    t = grid(1.0)
    ang = (math.pi / 2) * t  # quarter arc of the unit circle over one second
    log = make_log(t, x=np.cos(ang), y=np.sin(ang))
    # oracle: analytic arc length pi/2; chordal sampling is slightly short
    assert travel_during_turn(log, 0.0, 1.0) == pytest.approx(math.pi / 2, abs=1e-3)


def test_travel_during_turn_additive():
    t = grid(4.0)
    log = make_log(t, x=np.sin(t), y=0.2 * t)
    whole = travel_during_turn(log, 0.0, 4.0)
    parts = travel_during_turn(log, 0.0, 2.0) + travel_during_turn(log, 2.0, 4.0)
    assert whole == pytest.approx(parts, rel=1e-12)


def test_measure_turn_composes():
    t = grid(10.0)
    delta = 1.0
    psi = np.where(t > 2.0, delta, 0.0)
    v = 0.1
    log = make_log(t, psi_hat=psi, x=v * t, body_length=0.15)
    ev = measure_turn(log, 2.0, delta)
    assert ev.rise_time == pytest.approx(DT)
    assert ev.travel_distance == pytest.approx(v * ev.rise_time, rel=1e-6)
    assert ev.travel_BL == pytest.approx(ev.travel_distance / 0.15, rel=1e-12)


def test_rms_perp_on_line_and_offset():
    t = grid(1.0)
    log = make_log(t, x=0.3 * t, y=np.zeros_like(t))
    seg = rms_perpendicular_error(log, ((0.0, 0.0), (1.0, 0.0)))
    assert seg.rms_perp == 0.0 and seg.max_perp == 0.0
    log2 = make_log(t, x=0.3 * t, y=np.full_like(t, 0.05))
    seg2 = rms_perpendicular_error(log2, ((0.0, 0.0), (1.0, 0.0)))
    assert seg2.rms_perp == pytest.approx(0.05)
    assert seg2.max_perp == pytest.approx(0.05)
    assert seg2.rms_perp <= seg2.max_perp


def test_rms_perp_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = 100
        t = np.arange(n) * DT
        xs = rng.normal(size=n)
        ys = rng.normal(size=n)
        p0 = tuple(rng.normal(size=2))
        p1 = tuple(rng.normal(size=2))
        if math.hypot(p1[0] - p0[0], p1[1] - p0[1]) < 1e-6:
            continue
        log = make_log(t, x=xs, y=ys)
        seg = rms_perpendicular_error(log, (p0, p1))
        # oracle: pointwise distance to the parametric infinite line
        dx, dy = p1[0] - p0[0], p1[1] - p0[1]
        norm = math.hypot(dx, dy)
        dists = [abs(dx * (y - p0[1]) - dy * (x - p0[0])) / norm
                 for x, y in zip(xs, ys)]
        rms = math.sqrt(sum(d * d for d in dists) / n)
        assert seg.rms_perp == pytest.approx(rms, rel=1e-12)
        assert seg.max_perp == pytest.approx(max(dists), rel=1e-12)


def test_rms_perp_window_edges_pick_the_masked_rows():
    # each window is one searchsorted slice of the increasing t; it must
    # pick the rows the masks t >= t0 - 1e-12 and t <= t1 + 1e-12 pick (and
    # t >= start, t < ts, t <= end for the settled step change), also when
    # an edge sits within a few ulps of a sample plus or minus 1e-12
    t = np.empty(500)
    now = 0.0
    for i in range(len(t)):  # accumulated as run_mission does
        t[i] = now
        now += DT
    rng = np.random.default_rng(7)
    log = make_log(t, x=rng.normal(size=len(t)), y=rng.normal(size=len(t)),
                   psi_hat=rng.normal(size=len(t)))
    psi = np.unwrap(log.psi_hat)
    (x0, y0), (x1, y1) = segment = ((0.1, -0.2), (1.0, 0.3))
    length = math.hypot(x1 - x0, y1 - y0)
    for k0, k1 in ((0, 499), (17, 18), (123, 321), (250, 250)):
        for e0, e1 in itertools.product(_near_edges(t[k0]), _near_edges(t[k1])):
            mask = (t >= e0 - 1e-12) & (t <= e1 + 1e-12)
            if e0 <= e1:
                xs, ys = log.x[mask], log.y[mask]
                path = float(np.sum(np.hypot(np.diff(xs), np.diff(ys))))
                assert travel_during_turn(log, e0, e1) == (path if len(xs) > 1 else 0.0)
            window = t[-1] - e0
            if 0.0 < window <= t[-1] - t[0] + 1e-9:
                tail = t >= t[-1] - window - 1e-12
                assert orbit_radius(log, (x0, y0), window) == float(
                    np.mean(np.hypot(log.x[tail] - x0, log.y[tail] - y0)))
            bounds = [0.0, e0, e1, float(t[-1])]
            changes = []
            for start, ts, end in zip(bounds, bounds[1:], bounds[2:]):
                before = (t >= start + 0.75 * (ts - start)) & (t < ts)
                after = (t >= ts + 0.75 * (end - ts)) & (t <= end)
                changes.append(float(np.mean(psi[after]) - np.mean(psi[before]))
                               if np.any(before) and np.any(after) else math.nan)
            got = settled_step_changes(log, [(e0, 0.1), (e1, 0.1)])
            assert [c.hex() for c in got] == [c.hex() for c in changes]
            if not np.any(mask):
                continue
            perp = np.abs((x1 - x0) * (log.y[mask] - y0)
                          - (y1 - y0) * (log.x[mask] - x0)) / length
            seg = rms_perpendicular_error(log, segment, (e0, e1))
            assert seg.rms_perp == float(np.sqrt(np.mean(perp * perp)))
            assert seg.max_perp == float(np.max(perp))


def _near_edges(x):
    """x, x - 1e-12 and x + 1e-12, each with the floats up to 3 ulps away."""
    return [y for c in (x - 1e-12, x, x + 1e-12) for y in within_ulps(c, 3)]


def test_rms_perp_endpoint_swap_invariant():
    t = grid(1.0)
    rng = np.random.default_rng(1)
    log = make_log(t, x=rng.normal(size=len(t)), y=rng.normal(size=len(t)))
    a = rms_perpendicular_error(log, ((0.1, -0.3), (2.0, 1.0)))
    b = rms_perpendicular_error(log, ((2.0, 1.0), (0.1, -0.3)))
    assert a.rms_perp == pytest.approx(b.rms_perp, rel=1e-12)
    assert a.max_perp == pytest.approx(b.max_perp, rel=1e-12)


def test_rms_perp_degenerate_segment():
    log = make_log(grid(0.1))
    with pytest.raises(DegenerateSegment):
        rms_perpendicular_error(log, ((1.0, 1.0), (1.0, 1.0 + 1e-12)))


def test_rms_perp_rigid_motion_invariance():
    t = grid(1.0)
    rng = np.random.default_rng(9)
    xs, ys = rng.normal(size=len(t)), rng.normal(size=len(t))
    p0, p1 = (0.0, 0.0), (1.0, 0.5)
    base = rms_perpendicular_error(make_log(t, x=xs, y=ys), (p0, p1))
    rho, ox, oy = 0.8, 3.0, -2.0
    c, s = math.cos(rho), math.sin(rho)

    def mv(x, y):
        return c * x - s * y + ox, s * x + c * y + oy

    xr, yr = mv(xs, ys)
    moved = rms_perpendicular_error(make_log(t, x=xr, y=yr),
                                    (mv(*p0), mv(*p1)))
    assert moved.rms_perp == pytest.approx(base.rms_perp, rel=1e-12)
    assert moved.max_perp == pytest.approx(base.max_perp, rel=1e-12)


def test_orbit_radius_constant_and_alternating():
    t = grid(10.0)
    log = make_log(t, x=np.full_like(t, 0.2), y=np.zeros_like(t))
    assert orbit_radius(log, (0.0, 0.0), 5.0) == pytest.approx(0.2)
    r, a = 0.3, 0.05
    radii = np.where(np.arange(len(t)) % 2 == 0, r - a, r + a)
    log2 = make_log(t, x=radii)
    # odd sample counts leave one unpaired sample: tolerance a / n
    assert orbit_radius(log2, (0.0, 0.0), 10.0) == pytest.approx(r, abs=a / len(t) * 2)


def test_orbit_radius_sampled_circle():
    t = grid(20.0)
    r = 0.11
    ang = 0.7 * t
    log = make_log(t, x=2.0 + r * np.cos(ang), y=-1.0 + r * np.sin(ang))
    assert orbit_radius(log, (2.0, -1.0), 10.0) == pytest.approx(r, abs=1e-6)


def test_orbit_radius_window_validation():
    log = make_log(grid(1.0))
    with pytest.raises(ValueError):
        orbit_radius(log, (0.0, 0.0), 2.0)
    with pytest.raises(ValueError):
        orbit_radius(log, (0.0, 0.0), 0.0)


def test_quartiles_convention():
    q1, med, q3 = quartiles([1.0, 2.0, 3.0, 4.0])
    assert (q1, med, q3) == (1.75, 2.5, 3.25)
    q1, med, q3 = quartiles([5.0])
    assert q1 == med == q3 == 5.0
    with pytest.raises(ValueError):
        quartiles([])


def test_rolling_mean_trailing_boxcar():
    t = grid(2.0)
    vals = np.ones_like(t)
    assert np.allclose(rolling_mean(t, vals, 1.0), 1.0)
    ramp = t.copy()
    rm = rolling_mean(t, ramp, 1.0)
    # steady-state trailing mean of a ramp sits half a window behind
    assert rm[-1] == pytest.approx(t[-1] - 0.5, abs=DT)
