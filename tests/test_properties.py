"""Property tests: the estimator's trimmed history, angle wrapping, float parsing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paddlesim.cli import _parse_float
from paddlesim.control import wrap_to_pi
from paddlesim.estimation import TravelEstimator

# bounded and reproducible: the same examples on every run
FAST = settings(max_examples=60, deadline=None, derandomize=True)

# gaps in periods: mostly short and irregular, some past the 2.5-period pose
# horizon so that one arrival trims several samples at once
_GAPS = st.lists(st.one_of(st.floats(0.02, 0.6), st.floats(2.6, 4.0)),
                 min_size=10, max_size=120)


@FAST
@given(gaps=_GAPS, period=st.floats(0.25, 2.0),
       speed=st.floats(0.01, 1.0), heading=st.floats(-math.pi, math.pi),
       t0=st.floats(-50.0, 50.0), x0=st.floats(-10.0, 10.0),
       y0=st.floats(-10.0, 10.0), offset=st.floats(-3.0, 3.0))
def test_trimmed_estimator_exact_at_constant_velocity(gaps, period, speed, heading,
                                                     t0, x0, y0, offset):
    vx, vy = speed * math.cos(heading), speed * math.sin(heading)
    # the warm-start fallback lies within a half turn of the true heading
    est = TravelEstimator(period, theta_des_fallback=heading + offset)
    t = t0
    first_heading_t = None  # the first pose at least one period after t0
    checked = 0
    # a closing stretch of short steps makes sure the heading window fills
    for gap in [0.0] + gaps + [0.1] * 30:
        t += gap * period
        est.add_pose(t, x0 + vx * (t - t0), y0 + vy * (t - t0))
        if first_heading_t is None and t - t0 >= period - 1e-12:
            first_heading_t = t
        # the pose buffer holds nothing older than the last sample a query
        # one period back can interpolate from
        assert len(est._pt) == 1 or est._pt[1] > t - 2.5 * period
        assert len(est._ht) <= 1 or est._ht[1] > t - 1.5 * period
        # before a full period has passed, the displacement since t0 still
        # divides by the whole period
        got_vx, got_vy = est.periodwise_velocity(t)
        span = min(t - t0, period)
        assert got_vx == pytest.approx(vx * span / period, abs=1e-9)
        assert got_vy == pytest.approx(vy * span / period, abs=1e-9)
        if first_heading_t is not None and t - period >= first_heading_t:
            err = wrap_to_pi(est.travel_direction(t) - heading)
            assert err == pytest.approx(0.0, abs=1e-9)
            checked += 1
        else:
            # warm start: the window before the first heading sample holds
            # the fallback, the rest of it the true heading
            pad_end = t if first_heading_t is None else first_heading_t
            pad = pad_end - (t - period)
            expected = heading + offset * pad / period
            err = wrap_to_pi(est.travel_direction(t) - expected)
            assert err == pytest.approx(0.0, abs=1e-9)
    assert checked > 0


@FAST
@given(st.floats(-1e4, 1e4) | st.sampled_from(
    [k * math.pi for k in range(-7, 8)] + [math.pi, -math.pi, 0.0, -0.0]))
def test_wrap_to_pi_range_and_congruence(angle):
    wrapped = wrap_to_pi(angle)
    assert -math.pi < wrapped <= math.pi
    turns = (angle - wrapped) / math.tau
    assert turns == pytest.approx(round(turns), abs=1e-9)


@FAST
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_parse_float_round_trips_every_finite_float(x):
    assert _parse_float(repr(x)) == x


@pytest.mark.parametrize("text", ["nan", "NaN", "-nan", "inf", "-inf", "+inf",
                                  "Infinity", "1e309", "-1e400"])
def test_parse_float_rejects_non_finite(text):
    with pytest.raises(ValueError, match="finite"):
        _parse_float(text)
