"""Property tests: the plant step, the estimator's trimmed history, angle
wrapping, float parsing."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rk4_step_reference
from paddlesim.cli import _parse_float
from paddlesim.control import wrap_to_pi
from paddlesim.dynamics import BoatParams, SimState, rk4_step
from paddlesim.estimation import TravelEstimator

# bounded and reproducible: the same examples on every run
FAST = settings(max_examples=60, deadline=None, derandomize=True)


def _signed(bound):
    """Floats in [-bound, bound], zeros of both signs drawn often."""
    return st.sampled_from([0.0, -0.0]) | st.floats(-bound, bound)


_PARAMS = st.builds(
    BoatParams, I_b=st.floats(1e-7, 1e-2), I_t=st.floats(1e-5, 1e-1),
    C_f=st.just(0.0) | st.floats(0.0, 1e-2), C_r=st.just(0.0) | st.floats(0.0, 1e-2),
    mass=st.floats(0.05, 20.0), C_v=st.just(0.0) | st.floats(0.0, 50.0))
_STATES = st.builds(
    SimState, t=st.floats(0.0, 1e4), theta=_signed(100.0), theta_dot=_signed(50.0),
    phi=_signed(1e3), phi_dot=_signed(200.0), pos=st.tuples(_signed(10.0), _signed(10.0)),
    vel=st.just((0.0, 0.0)) | st.tuples(_signed(2.0), _signed(2.0)))


def _hex_fields(state):
    return [state.t.hex(), state.theta.hex(), state.theta_dot.hex(),
            state.phi.hex(), state.phi_dot.hex(),
            *(v.hex() for v in state.pos), *(v.hex() for v in state.vel)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(params=_PARAMS, state=_STATES, torque=_signed(1e3),
       heading=_signed(20.0), dt=st.sampled_from([1.0 / 250.0, 1e-3, 0.05]),
       thrust=st.just(0.0) | st.floats(0.0, 1.0))
def test_rk4_step_equals_stagewise_reference_bit_for_bit(params, state, torque,
                                                         heading, dt, thrust):
    # float.hex tells -0.0 from 0.0, which == would not
    fast = rk4_step(params, state, torque, heading, dt, thrust)
    ref = rk4_step_reference(params, state, torque, heading, dt, thrust)
    assert _hex_fields(fast) == _hex_fields(ref)


def test_rk4_step_equals_stagewise_reference_on_seeded_states():
    # A reordered sum inside one stage changes the step's last bit in well
    # under 1% of states, so volume matters more than edge cases here.
    rng = random.Random(0)
    u = rng.uniform
    for _ in range(20_000):
        params = BoatParams(I_b=u(1e-6, 1e-4), I_t=u(1e-4, 1e-2), C_f=u(0.0, 1e-3),
                            C_r=u(0.0, 1e-3), mass=u(0.1, 5.0), C_v=u(0.0, 10.0))
        state = SimState(t=u(0.0, 100.0), theta=u(-10.0, 10.0),
                         theta_dot=u(-20.0, 20.0), phi=u(-100.0, 100.0),
                         phi_dot=u(-50.0, 50.0), pos=(u(-5.0, 5.0), u(-5.0, 5.0)),
                         vel=(u(-0.5, 0.5), u(-0.5, 0.5)))
        args = (params, state, u(-100.0, 100.0), u(-10.0, 10.0), 1.0 / 250.0,
                u(0.0, 0.1))
        assert _hex_fields(rk4_step(*args)) == _hex_fields(rk4_step_reference(*args))


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
