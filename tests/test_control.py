import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import Plant
from paddlesim.control import (ControlMode, ControllerConfig, ReferenceState,
                               desaturate_reference, desaturated_torque,
                               limit_cycle_torque, outer_loop_reference,
                               resonant_beta, wrap_to_pi)
from paddlesim.dynamics import INNER_DT, BoatParams, rk4_step


def test_wrap_to_pi_examples():
    assert wrap_to_pi(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_to_pi(math.pi) == math.pi  # boundary belongs to the interval
    assert wrap_to_pi(-5 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_to_pi(0.0) == 0.0


def test_wrap_to_pi_range_and_congruence():
    rng = np.random.default_rng(7)
    for angle in rng.uniform(-50.0, 50.0, size=500):
        w = wrap_to_pi(float(angle))
        assert -math.pi < w <= math.pi
        k = (angle - w) / math.tau
        assert k == pytest.approx(round(k), abs=1e-9)


def test_limit_cycle_torque_term_by_term():
    cfg = ControllerConfig()
    # sin(omega t) = 0 and zero error
    assert limit_cycle_torque(cfg, 0.0, 1.2, 1.2) == 0.0
    # sin(omega t) = 1 at t = T/4, zero error: forcing term only
    t_quarter = 0.25  # omega = 2*pi
    assert limit_cycle_torque(cfg, t_quarter, 0.0, 0.0) == pytest.approx(-15.0)
    # zero forcing, half-pi error: convergence term only
    assert limit_cycle_torque(cfg, 0.0, 0.0, math.pi / 2) == pytest.approx(-40.0)


def test_resonant_beta_bench_value():
    val = resonant_beta(math.tau, 5.2e-6, 1.0e-3)
    # oracle: direct arithmetic
    assert val == pytest.approx(math.tau ** 2 * (1.0e-3 + 5.2e-6) / 1.0e-3, rel=1e-12)
    assert val == pytest.approx(39.68, abs=5e-3)  # four significant digits


def test_resonant_beta_limit_cases():
    assert resonant_beta(math.tau, 1e-15, 1.0e-3) == pytest.approx(math.tau ** 2)
    assert resonant_beta(1.0, 2.0, 2.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        resonant_beta(1.0, 0.0, 1.0)


def _unwind_drive(theta, theta_r):
    """desaturated_torque's unwind drive xi at t = 0, where the forcing
    vanishes and the torque is -beta * (sin(theta_r - theta) + xi)."""
    cfg = ControllerConfig()
    xi = -desaturated_torque(cfg, 0.0, theta, theta_r) / cfg.beta - math.sin(theta_r - theta)
    assert xi == pytest.approx(round(xi), abs=1e-9)
    return round(xi)


def test_desaturated_torque_unwind_drive_examples():
    assert _unwind_drive(0.0, math.pi / 4) == 0
    assert _unwind_drive(0.0, 3 * math.pi / 2) == 1
    assert _unwind_drive(0.0, -3 * math.pi / 2) == -1
    assert _unwind_drive(0.0, math.tau) == 1  # full turn still drives


def test_desaturated_torque_unwind_drive_antisymmetry():
    rng = np.random.default_rng(11)
    for diff in rng.uniform(-12.0, 12.0, size=500):
        if abs(abs(wrap_to_pi(diff)) - math.pi) < 1e-6:
            continue  # exclude the boundary where the interval is one-sided
        assert _unwind_drive(0.0, float(diff)) == -_unwind_drive(0.0, float(-diff))
        assert _unwind_drive(0.0, float(diff)) in (-1, 0, 1)


def test_desaturated_torque_examples():
    cfg = ControllerConfig()
    assert desaturated_torque(cfg, 0.0, 0.0, 0.0) == pytest.approx(0.0)
    # at 3*pi/2 separation the sine and the override momentarily cancel
    assert desaturated_torque(cfg, 0.0, 0.0, 3 * math.pi / 2) == pytest.approx(0.0, abs=1e-12)
    # a full-turn separation is still driven
    assert desaturated_torque(cfg, 0.0, 0.0, math.tau) == pytest.approx(-40.0, abs=1e-9)


def test_desaturated_reduces_to_limit_cycle_when_wrapped():
    cfg = ControllerConfig()
    rng = np.random.default_rng(3)
    for _ in range(300):
        t = float(rng.uniform(0.0, 5.0))
        theta = float(rng.uniform(-20.0, 20.0))
        diff = float(rng.uniform(-math.pi + 1e-9, math.pi))
        theta_r = theta + diff
        assert desaturated_torque(cfg, t, theta, theta_r) == pytest.approx(
            limit_cycle_torque(cfg, t, theta, theta_r), abs=1e-12)


def test_desaturate_reference_threshold_and_interval():
    cfg = ControllerConfig()
    ref = ReferenceState(theta_r=0.5, last_desat_time=-math.inf)
    # below threshold: unchanged
    assert desaturate_reference(ref, 0.0, 10.0, cfg) is ref
    assert desaturate_reference(ref, 2.9, 10.0, cfg) is ref
    # above threshold, interval elapsed: one full positive turn
    out = desaturate_reference(ref, 5.0, 10.0, cfg)
    assert out.theta_r == pytest.approx(0.5 + math.tau)
    assert out.last_desat_time == 10.0
    # negative accumulation subtracts the turn
    out = desaturate_reference(ref, -5.0, 10.0, cfg)
    assert out.theta_r == pytest.approx(0.5 - math.tau)
    # interval not elapsed: unchanged regardless of velocity
    recent = ReferenceState(theta_r=0.5, last_desat_time=9.0)
    assert desaturate_reference(recent, 50.0, 10.0, cfg) is recent


def test_desaturate_reference_pending_change_gate():
    cfg = ControllerConfig()
    ref = ReferenceState(theta_r=0.0, last_desat_time=-math.inf)
    # a pending positive reference change already slows a positive rate: skip
    assert desaturate_reference(ref, 5.0, 10.0, cfg, pending_delta=0.2) is ref
    # a pending change in the unhelpful direction does not block the unwind
    out = desaturate_reference(ref, 5.0, 10.0, cfg, pending_delta=-0.2)
    assert out.theta_r == pytest.approx(math.tau)


def _mean_top_rate_change(jump_sign):
    """Closed-loop transient: full-turn reference jump, sign of rate change."""
    params = BoatParams()
    cfg = ControllerConfig()
    dt = INNER_DT
    t = 0.0
    state = Plant()
    phi_dot = 5.0  # reaction mass already spinning
    theta_r = jump_sign * math.tau
    rates = []
    for i in range(round(8.0 / dt)):
        tau = desaturated_torque(cfg, t, state.theta, theta_r)
        state = Plant(*rk4_step(params, *state, tau, 0.0, 0.0))
        phi_dot += tau * dt  # as run_mission sums it
        t += dt
        rates.append(state.theta_dot + phi_dot)
    settled = np.mean(rates[-250:])
    return settled - 5.0


def test_full_turn_jump_steers_reaction_rate():
    # a positive reference jump lowers the top-body rate, a negative one
    # raises it; the positive jump is the one that opposes the +5 rad/s bias
    down = _mean_top_rate_change(+1)
    up = _mean_top_rate_change(-1)
    assert down < 0.0 < up


def test_outer_loop_reference_examples():
    cfg = ControllerConfig()
    assert outer_loop_reference(cfg, 0.7, 0.7) == pytest.approx(0.7)
    # oracle: explicit vector arithmetic
    expected = math.atan2(-1.5, 2.5)
    assert outer_loop_reference(cfg, 0.0, math.pi / 2) == pytest.approx(expected)
    # opposing travel commands full-strength thrust along the desired heading
    assert outer_loop_reference(cfg, 0.0, math.pi) == pytest.approx(0.0, abs=1e-12)


def test_outer_loop_reference_always_finite():
    rng = np.random.default_rng(5)
    for _ in range(500):
        cfg = ControllerConfig(K_p=float(rng.uniform(0.0, 10.0)))
        out = outer_loop_reference(cfg, float(rng.uniform(-10, 10)),
                                   float(rng.uniform(-10, 10)))
        assert math.isfinite(out)
        assert -math.pi <= out <= math.pi


def test_zero_mean_steady_torque(converge_log):
    # with a constant reference the commanded torque has no net component
    # once the oscillation settles
    mask = converge_log.t >= 29.0  # final full period
    mean_tau = float(np.mean(converge_log.tau[mask]))
    assert abs(mean_tau) < 0.5  # forcing amplitude is 15, peaks near 55


def test_table_gain_is_near_resonance():
    assert abs(resonant_beta(math.tau, 5.2e-6, 1.0e-3) - 40.0) / 40.0 < 0.01


@pytest.mark.parametrize("kwargs", [
    dict(omega=0.0), dict(K=0.0), dict(beta=-1.0), dict(K_p=-0.1),
    dict(desat_interval=0.5), dict(desat_threshold=-1.0),
    dict(desat_threshold=math.nan), dict(K=math.nan), dict(K_p=math.inf),
    dict(desat_interval=math.nan), dict(mode="desaturated"), dict(mode=None),
])
def test_controller_config_validation(kwargs):
    with pytest.raises(ValueError):
        ControllerConfig(**kwargs)


def test_omega_cap_is_the_inner_loop_nyquist_rate():
    assert ControllerConfig(omega=math.pi / INNER_DT).omega == pytest.approx(785.398, abs=1e-3)
    with pytest.raises(ValueError, match="Nyquist"):
        ControllerConfig(omega=math.nextafter(math.pi / INNER_DT, math.inf))


def test_replace_rederives_the_default_desat_interval():
    # the default interval is two periods of the omega in force, not a stored value
    assert replace(ControllerConfig(), omega=4 * math.pi) == ControllerConfig(omega=4 * math.pi)
    slow = replace(ControllerConfig(), omega=1.0)  # one period is 2*pi s
    assert slow.desat_interval is None
    ref = ReferenceState(theta_r=0.0, last_desat_time=0.0)
    assert desaturate_reference(ref, 5.0, 4 * math.pi - 1e-6, slow) is ref
    assert desaturate_reference(ref, 5.0, 4 * math.pi, slow) is not ref


def test_mode_round_trip_by_value():
    assert ControlMode("limit_cycle") is ControlMode.LIMIT_CYCLE_ONLY
    assert ControlMode("desaturated") is ControlMode.DESATURATED_THRUST_DIRECTION
