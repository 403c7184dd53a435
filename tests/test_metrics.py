import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import make_log, rise_time_reference, rolling_mean, tick_times, within_ulps
from paddlesim import metrics
from paddlesim.metrics import (_RISE_WINDOW, RISE_FRACTION, DegenerateSegment, NotSettled,
                               measure_turn, orbit_radius, quartiles, rise_time,
                               rms_perpendicular_error, settled_step_changes,
                               travel_during_turn)

DT = 1.0 / 250.0


def grid(duration):
    """The tick grid's times from 0 to duration, which a log's t holds."""
    return tick_times(round(duration / DT) + 1)


def test_rise_time_instantaneous_step():
    # commanded at a row's time, which the summed grid puts just past 1 s
    t = grid(5.0)
    ts = t[250]
    psi = np.where(t > ts, 1.0, 0.0)
    log = make_log(len(t), psi_hat=psi)
    assert rise_time(log, ts, 1.0) == pytest.approx(DT)


def test_rise_time_first_order_response():
    tau_c = 0.8
    delta = 1.2
    t = grid(12.0)
    psi = np.where(t > 2.0, delta * (1.0 - np.exp(-(t - 2.0) / tau_c)), 0.0)
    log = make_log(len(t), psi_hat=psi)
    # oracle: closed form, 90% crossing of a first-order response
    expected = tau_c * math.log(10.0)
    assert rise_time(log, 2.0, delta) == pytest.approx(expected, abs=DT)


def test_rise_time_monotone_ramp():
    t = grid(10.0)
    t_star = 3.0
    psi = np.clip(t / t_star, 0.0, 1.0) * 0.9  # hits 0.9*delta exactly at t*
    log = make_log(len(t), psi_hat=psi)
    assert rise_time(log, 0.0, 1.0) == pytest.approx(t_star, abs=DT + 1e-9)


def test_rise_time_negative_delta():
    t = grid(8.0)
    ts = t[250]
    psi = np.where(t > ts, -0.5, 0.0)
    log = make_log(len(t), psi_hat=psi)
    assert rise_time(log, ts, -0.5) == pytest.approx(DT)


def test_rise_time_not_settled():
    t = grid(5.0)
    log = make_log(len(t), psi_hat=np.zeros_like(t))
    with pytest.raises(NotSettled):
        rise_time(log, 0.0, 1.0)


def test_rise_time_hold_requirement_rejects_blip():
    t = grid(6.0)
    psi = np.zeros_like(t)
    blip = (t > 1.0) & (t < 1.2)        # short excursion into the band
    psi[blip] = 1.0
    psi[t >= 3.0] = 1.0                  # real settle later
    log = make_log(len(t), psi_hat=psi)
    rt = rise_time(log, 0.0, 1.0)
    assert 2.9 < rt < 3.1


def _rise_outcome(rise, log, command_time, delta):
    try:
        return rise(log, command_time, delta).hex()
    except NotSettled:
        return "not settled"


def _frac_trace(rng, kind, t, t_c):
    """A response from t_c on as a share of the commanded change, of one of
    four kinds."""
    n = len(t)
    if kind == "step":
        return np.where(t > t_c, 1.0, 0.0) + rng.normal(0.0, rng.uniform(0.0, 0.04), n)
    if kind == "plateau":  # a first-order rise onto a noisy plateau
        rise = 1.0 - np.exp(-np.clip(t - t_c, 0.0, None) / rng.uniform(0.05, 1.0))
        return rise + rng.normal(0.0, rng.uniform(0.005, 0.04), n)
    if kind == "walk":  # drifting up to three times the change
        return np.cumsum(rng.normal(rng.uniform(0.0, 3.0) / n, rng.uniform(0.003, 0.03), n))
    # kind == "crossing": ringing about the target that enters and leaves
    # the band and the threshold many times before it decays, if it does
    ring = rng.uniform(0.05, 0.4) * np.exp(-np.clip(t - t_c, 0.0, None)
                                           / rng.uniform(0.2, 5.0))
    return np.where(t > t_c, 1.0 + ring * np.sin(t * rng.uniform(5.0, 40.0)), 0.0)


def test_rise_time_answers_as_the_reference_loop():
    # the rise search runs on the rows from the command on and reads the
    # log's kept unwrap; the reference unwraps the whole column and scans
    # with absolute indices, so every answer and every NotSettled must agree
    rng = np.random.default_rng(2024)
    kinds = ("step", "plateau", "walk", "crossing")
    outcomes = {kind: [] for kind in kinds}
    rescans = late = 0
    for trial in range(400):
        kind = kinds[trial % 4]
        t = tick_times(int(rng.integers(200, 1500)))
        t_c = rng.uniform(0.0, 0.3 * t[-1])
        delta = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0)
        # wrapped as psi_hat is, so the unwrap matters
        psi = rng.uniform(-np.pi, np.pi) + delta * _frac_trace(rng, kind, t, t_c)
        log = make_log(len(t), psi_hat=np.angle(np.exp(1j * psi)),
                       period=rng.uniform(0.05, 1.0))
        for command_time in (t[0], t[int(rng.integers(np.searchsorted(t, t_c) + 1))],
                             rng.uniform(t[0], t_c)):
            got = _rise_outcome(rise_time, log, command_time, delta)
            assert got == _rise_outcome(rise_time_reference, log, command_time, delta)
            outcomes[kind].append(got)
            if got != "not settled":  # settled later than its first candidate
                base = np.searchsorted(t, command_time, side="right") - 1
                frac = (log.psi_unwrapped - log.psi_unwrapped[base]) / delta
                first = base + 1 + np.argmax(frac[base + 1:] >= RISE_FRACTION)
                rescans += float.fromhex(got) > t[first] - command_time
                # found past the search's first window
                late += command_time + float.fromhex(got) > t[min(base + _RISE_WINDOW, len(t) - 1)]
    # holds that end within a few 1e-9 s of the log's end, where the search
    # stops for want of rows
    t = grid(3.0)
    log = make_log(len(t), psi_hat=np.where(t > 1.0, 0.5, 0.0))
    for off in (-3e-9, -2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 1.5e-9, 2e-9, 3e-9):
        log = replace(log, period=t[-1] - t[251] + off)
        got = _rise_outcome(rise_time, log, 1.0, 0.5)
        assert got == _rise_outcome(rise_time_reference, log, 1.0, 0.5)
        outcomes["step"].append(got)
    # every kind both settles and does not, and many answers come from a
    # later candidate than the first or a later window than the first
    for kind, got in outcomes.items():
        assert 0 < sum(o != "not settled" for o in got) < len(got), kind
    assert rescans >= 100 and late >= 100, (rescans, late)


def test_rise_time_answers_as_the_reference_loop_on_nan_and_inf_rows():
    # the search stops once the extreme from a row on cannot reach the
    # threshold; NaN rows are skipped by that extreme and fail every compare
    # in the scan, and +-inf rows pass or fail it as the scan's rows do, so
    # the answers and every NotSettled must still agree.  The log keeps the
    # column given it, and the reference scans that same column.
    rng = np.random.default_rng(2025)
    kinds = ("step", "plateau", "walk", "crossing")
    outcomes = {"scattered": [], "nan tail": [], "both": []}
    at_nonfinite = 0
    for trial in range(600):
        t = tick_times(int(rng.integers(200, 1500)))
        n = len(t)
        t_c = rng.uniform(0.0, 0.3 * t[-1])
        delta = (-1.0, 1.0)[trial % 2] * rng.uniform(0.05, 3.0)
        psi = rng.uniform(-np.pi, np.pi) + delta * _frac_trace(rng, kinds[trial % 4], t, t_c)
        layout = tuple(outcomes)[trial // 2 % 3]
        if layout != "nan tail":  # a few to a few hundred rows of NaN, inf, -inf
            rows = rng.choice(n, int(rng.integers(1, n // 4)), replace=False)
            psi[rows] = rng.choice([np.nan, np.inf, -np.inf], len(rows))
        if layout != "scattered":
            psi[int(rng.integers(np.searchsorted(t, t_c), n)):] = np.nan
        log = make_log(len(t), period=rng.uniform(0.05, 1.0))
        # the kept trace lives in the instance dict, where cached_property
        # keeps it; the frozen log refuses a plain assignment
        object.__setattr__(log, "psi_unwrapped", psi)
        reference = functools.partial(rise_time_reference, psi=log.psi_unwrapped)
        for command_time in (t[0], t[int(rng.integers(np.searchsorted(t, t_c) + 1))],
                             rng.uniform(t[0], t_c), t[int(rng.integers(n))]):
            # inf - inf is NaN in both, with numpy's warning
            with np.errstate(invalid="ignore"):
                got = _rise_outcome(rise_time, log, command_time, delta)
                assert got == _rise_outcome(reference, log, command_time, delta)
            outcomes[layout].append(got)
            at_nonfinite += not np.isfinite(psi[np.searchsorted(t, command_time, "right") - 1])
    # each layout both settles and does not; some commands sit on a
    # non-finite row
    for layout, got in outcomes.items():
        assert 0 < sum(o != "not settled" for o in got) < len(got), layout
    assert at_nonfinite >= 50, at_nonfinite


class _CountingNumpy:
    """numpy, counting the rows handed to np.nonzero."""

    def __init__(self):
        self.rows = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def nonzero(self, a):
        self.rows += len(a)
        return np.nonzero(a)


def test_rise_search_scans_no_row_for_a_step_that_never_rises(monkeypatch):
    # 200 commands of +-0.3 rad in a 40 s log whose response reaches only
    # half of each, then a 0.1 rad one that it follows, which no earlier
    # threshold (0.27 and -0.12 rad) reaches: the unsettled ones must stop
    # before any window scan, and the last must still be found
    t = grid(40.0)
    steps = [(1.0 + 0.1 * k, 0.3 if k % 2 == 0 else -0.3) for k in range(200)]
    psi = np.zeros_like(t)
    for ts, delta in steps:
        psi[t > ts] += 0.5 * delta
    psi[t > t[7500]] += 0.1  # after the row at 30 s
    log = make_log(len(t), psi_hat=psi)
    counting = _CountingNumpy()
    monkeypatch.setattr(metrics, "np", counting)
    for ts, delta in steps:
        with pytest.raises(NotSettled):
            rise_time(log, ts, delta)
    assert counting.rows == 0
    assert rise_time(log, t[7500], 0.1) == pytest.approx(DT)
    # the one window that holds the rise and the hold after it
    assert 0 < counting.rows <= _RISE_WINDOW + round(log.period / DT) + 1


def test_travel_during_turn_stationary():
    t = grid(2.0)
    log = make_log(len(t))
    assert travel_during_turn(log, 0.0, 2.0) == 0.0


def test_travel_during_turn_straight_motion():
    t = grid(4.0)
    v = 0.13
    log = make_log(len(t), x=v * t)
    assert travel_during_turn(log, 1.0, 3.0) == pytest.approx(v * 2.0, rel=1e-9)


def test_travel_during_turn_quarter_circle():
    t = grid(1.0)
    ang = (math.pi / 2) * t  # quarter arc of the unit circle over one second
    log = make_log(len(t), x=np.cos(ang), y=np.sin(ang))
    # oracle: analytic arc length pi/2; chordal sampling is slightly short
    assert travel_during_turn(log, 0.0, 1.0) == pytest.approx(math.pi / 2, abs=1e-3)


def test_travel_during_turn_additive():
    t = grid(4.0)
    log = make_log(len(t), x=np.sin(t), y=0.2 * t)
    whole = travel_during_turn(log, 0.0, 4.0)
    parts = travel_during_turn(log, 0.0, 2.0) + travel_during_turn(log, 2.0, 4.0)
    assert whole == pytest.approx(parts, rel=1e-12)


def test_measure_turn_composes():
    t = grid(10.0)
    delta = 1.0
    ts = t[500]
    psi = np.where(t > ts, delta, 0.0)
    v = 0.1
    log = make_log(len(t), psi_hat=psi, x=v * t, body_length=0.15)
    ev = measure_turn(log, ts, delta)
    assert ev.rise_time == pytest.approx(DT)
    assert ev.travel_distance == pytest.approx(v * ev.rise_time, rel=1e-6)
    assert ev.travel_BL == pytest.approx(ev.travel_distance / 0.15, rel=1e-12)


def test_rms_perp_on_line_and_offset():
    t = grid(1.0)
    log = make_log(len(t), x=0.3 * t, y=np.zeros_like(t))
    seg = rms_perpendicular_error(log, ((0.0, 0.0), (1.0, 0.0)))
    assert seg.rms_perp == 0.0 and seg.max_perp == 0.0
    log2 = make_log(len(t), x=0.3 * t, y=np.full_like(t, 0.05))
    seg2 = rms_perpendicular_error(log2, ((0.0, 0.0), (1.0, 0.0)))
    assert seg2.rms_perp == pytest.approx(0.05)
    assert seg2.max_perp == pytest.approx(0.05)
    assert seg2.rms_perp <= seg2.max_perp


def test_rms_perp_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = 100
        xs = rng.normal(size=n)
        ys = rng.normal(size=n)
        p0 = tuple(rng.normal(size=2))
        p1 = tuple(rng.normal(size=2))
        if math.hypot(p1[0] - p0[0], p1[1] - p0[1]) < 1e-6:
            continue
        log = make_log(n, x=xs, y=ys)
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
    # t >= start, t < ts, t <= end for the settled step change, whose spans
    # must last a period), also when an edge sits within a few ulps of a
    # sample plus or minus 1e-12
    t = tick_times(500)
    rng = np.random.default_rng(7)
    # a one-tick period, so that spans of a tick or more still reach the windows
    log = make_log(len(t), x=rng.normal(size=len(t)), y=rng.normal(size=len(t)),
                   psi_hat=rng.normal(size=len(t)), period=DT)
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
                long_enough = min(ts - start, end - ts) >= log.period
                changes.append(float(np.mean(psi[after]) - np.mean(psi[before]))
                               if long_enough and np.any(before) and np.any(after)
                               else math.nan)
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
    log = make_log(len(t), x=rng.normal(size=len(t)), y=rng.normal(size=len(t)))
    a = rms_perpendicular_error(log, ((0.1, -0.3), (2.0, 1.0)))
    b = rms_perpendicular_error(log, ((2.0, 1.0), (0.1, -0.3)))
    assert a.rms_perp == pytest.approx(b.rms_perp, rel=1e-12)
    assert a.max_perp == pytest.approx(b.max_perp, rel=1e-12)


def test_rms_perp_degenerate_segment():
    log = make_log(len(grid(0.1)))
    with pytest.raises(DegenerateSegment):
        rms_perpendicular_error(log, ((1.0, 1.0), (1.0, 1.0 + 1e-12)))


def test_rms_perp_rigid_motion_invariance():
    t = grid(1.0)
    rng = np.random.default_rng(9)
    xs, ys = rng.normal(size=len(t)), rng.normal(size=len(t))
    p0, p1 = (0.0, 0.0), (1.0, 0.5)
    base = rms_perpendicular_error(make_log(len(t), x=xs, y=ys), (p0, p1))
    rho, ox, oy = 0.8, 3.0, -2.0
    c, s = math.cos(rho), math.sin(rho)

    def mv(x, y):
        return c * x - s * y + ox, s * x + c * y + oy

    xr, yr = mv(xs, ys)
    moved = rms_perpendicular_error(make_log(len(t), x=xr, y=yr),
                                    (mv(*p0), mv(*p1)))
    assert moved.rms_perp == pytest.approx(base.rms_perp, rel=1e-12)
    assert moved.max_perp == pytest.approx(base.max_perp, rel=1e-12)


def test_orbit_radius_constant_and_alternating():
    t = grid(10.0)
    log = make_log(len(t), x=np.full_like(t, 0.2), y=np.zeros_like(t))
    assert orbit_radius(log, (0.0, 0.0), 5.0) == pytest.approx(0.2)
    r, a = 0.3, 0.05
    radii = np.where(np.arange(len(t)) % 2 == 0, r - a, r + a)
    log2 = make_log(len(t), x=radii)
    # odd sample counts leave one unpaired sample: tolerance a / n
    assert orbit_radius(log2, (0.0, 0.0), 10.0) == pytest.approx(r, abs=a / len(t) * 2)


def test_orbit_radius_sampled_circle():
    t = grid(20.0)
    r = 0.11
    ang = 0.7 * t
    log = make_log(len(t), x=2.0 + r * np.cos(ang), y=-1.0 + r * np.sin(ang))
    assert orbit_radius(log, (2.0, -1.0), 10.0) == pytest.approx(r, abs=1e-6)


def test_orbit_radius_window_validation():
    log = make_log(len(grid(1.0)))
    with pytest.raises(ValueError):
        orbit_radius(log, (0.0, 0.0), 2.0)
    with pytest.raises(ValueError):
        orbit_radius(log, (0.0, 0.0), 0.0)


_LOG = make_log(len(grid(2.0)), x=0.1 * grid(2.0),
                psi_hat=np.where(grid(2.0) > 0.5, 1.0, 0.0))


# each call once returned a number, warned or raised another exception; the
# refusal names the argument at fault
@pytest.mark.parametrize("call, argument", [
    pytest.param(lambda: travel_during_turn(_LOG, math.nan, 1.0), "command_time",
                 id="travel-nan-command"),
    pytest.param(lambda: travel_during_turn(_LOG, 0.5, math.nan), "settle_time",
                 id="travel-nan-settle"),
    pytest.param(lambda: orbit_radius(_LOG, (0.0, 0.0), math.nan), "window",
                 id="orbit-nan-window"),
    pytest.param(lambda: orbit_radius(make_log(0), (0.0, 0.0), 1.0), "log",
                 id="orbit-empty-log"),
    pytest.param(lambda: orbit_radius(_LOG, (math.nan, 0.0), 1.0), "center",
                 id="orbit-nan-center"),
    pytest.param(lambda: orbit_radius(_LOG, (0.0, -math.inf), 1.0), "center",
                 id="orbit-inf-center"),
    pytest.param(lambda: settled_step_changes(_LOG, ((math.nan, 1.0),)), "step_schedule",
                 id="settled-nan-time"),
    pytest.param(lambda: settled_step_changes(_LOG, ((0.5, 1.0), (1.0, math.nan))),
                 "step_schedule", id="settled-nan-change"),
    pytest.param(lambda: rise_time(_LOG, 0.5, math.nan), "delta", id="rise-nan-delta"),
    pytest.param(lambda: rise_time(_LOG, 0.5, math.inf), "delta", id="rise-inf-delta"),
    pytest.param(lambda: rise_time(_LOG, math.nan, 1.0), "command_time",
                 id="rise-nan-command"),
    pytest.param(lambda: rms_perpendicular_error(_LOG, ((0.0, 0.0), (math.nan, 1.0))),
                 "segment", id="rms-nan-end"),
    pytest.param(lambda: rms_perpendicular_error(_LOG, ((0.0, math.inf), (1.0, 1.0))),
                 "segment", id="rms-inf-end"),
])
def test_metrics_refuse_what_they_cannot_measure(call, argument):
    with pytest.raises(ValueError, match=rf"\b{argument}\b"):
        call()


def test_quartiles_convention():
    q1, med, q3 = quartiles([1.0, 2.0, 3.0, 4.0])
    assert (q1, med, q3) == (1.75, 2.5, 3.25)
    q1, med, q3 = quartiles([5.0])
    assert q1 == med == q3 == 5.0
    with pytest.raises(ValueError):
        quartiles([])


def test_quartiles_match_numpy_percentile_bit_for_bit():
    # numpy's linear percentile is the oracle, down to the sign of a zero
    # quartile and the bits of a NaN one
    rng = np.random.default_rng(17)
    specials = np.array([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, 5e-324,
                         -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
    nans, signed_zeros = 0, set()
    for _ in range(3000):
        n = int(rng.integers(1, 101))
        values = np.select(
            [rng.random(n) < 0.01, rng.random(n) < 0.4, rng.random(n) < 0.5],
            [rng.choice([math.nan, -math.nan], n), rng.choice(specials, n),
             rng.uniform(-1.0, 1.0, n)],
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)).tolist()
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.percentile(values, [25.0, 50.0, 75.0], method="linear")
        got = np.array(quartiles(values))
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist(), values
        nans += math.isnan(got[0])
        signed_zeros.update(np.signbit(got[got == 0.0]).tolist())
    assert nans > 100 and signed_zeros == {False, True}


def test_rolling_mean_trailing_boxcar():
    t = grid(2.0)
    vals = np.ones_like(t)
    assert np.allclose(rolling_mean(t, vals, 1.0), 1.0)
    ramp = t.copy()
    rm = rolling_mean(t, ramp, 1.0)
    # steady-state trailing mean of a ramp sits half a window behind
    assert rm[-1] == pytest.approx(t[-1] - 0.5, abs=DT)
