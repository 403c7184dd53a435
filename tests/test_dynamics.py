import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from helpers import Plant, pendulum_reference, rk4_step_controlled
from paddlesim.control import ControlMode, ControllerConfig, limit_cycle_torque
from paddlesim.dynamics import (INNER_DT, BoatParams, motor_angles, motor_rates,
                                orientation_accel, rk4_step)
from paddlesim.mission import MissionKind, MissionSpec, run_mission

BENCH = dict(I_b=5.2e-6, I_t=1.0e-3, C_f=1.0e-4, C_r=0.0)


def test_orientation_accel_rest_stays_at_rest():
    assert orientation_accel(BoatParams(), 0.0, 0.0) == 0.0


def test_orientation_accel_drag_only():
    p = BoatParams(**BENCH)
    # oracle: direct arithmetic on the orientation equation
    expected = -1.0e-4 * 1.0 * 1.0 / (5.2e-6 + 1.0e-3)
    assert orientation_accel(p, 1.0, 0.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-0.09948, abs=5e-6)


def test_orientation_accel_reaction_only():
    p = BoatParams(**BENCH)
    expected = -1.0e-3 * 40.0 / (5.2e-6 + 1.0e-3)
    assert orientation_accel(p, 0.0, 40.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-39.79, abs=5e-3)


def test_orientation_accel_sign_of_zero_rate():
    # only the commanded term survives at zero rate, regardless of C_f
    p = BoatParams(C_f=123.0, **{k: v for k, v in BENCH.items() if k != "C_f"})
    assert orientation_accel(p, 0.0, 0.0) == 0.0


def test_orientation_accel_quadratic_drag_is_odd():
    p = BoatParams(**BENCH)
    assert orientation_accel(p, 2.0, 0.0) == -orientation_accel(p, -2.0, 0.0)


def test_heading_step_travel_lags_command():
    # after a +pi/2 thrust-heading step from steady state, the velocity is the
    # vector sum of the decaying old velocity and the new thrust, so the
    # travel direction sits below the commanded one for a while
    p = BoatParams()
    thrust = p.k_thrust * 15.0
    v_ss = math.sqrt(thrust / p.C_v)
    state = Plant(vx=v_ss)
    heading = math.pi / 2
    for _ in range(500):  # 2 s
        state = Plant(*rk4_step(p, *state, 0.0, thrust * math.cos(heading),
                                thrust * math.sin(heading)))
        travel = math.atan2(state.vy, state.vx)
        assert travel - heading < 0.0
    # and it converges toward the command eventually
    assert heading - math.atan2(state.vy, state.vx) < 0.4 * heading


def test_rk4_step_rest_is_fixed_point():
    p = BoatParams()
    s0 = Plant(theta=0.3, x=2.0, y=-1.0)
    phi_dot = 0.0
    assert rk4_step(p, *s0, 0.0, 0.0, 0.0) == s0
    phi_dot += 0.0 * INNER_DT  # the motor rate, summed as run_mission sums it
    assert phi_dot == 0.0


def test_rk4_step_constant_motor_accel_is_exact():
    # the log integrates the motor: a constant acceleration gives the exact
    # quadratic from rest
    c = 3.7
    tau = np.full(100, c)
    rates = motor_rates(tau, 0.0)
    angles = motor_angles(tau, rates, 0.0)
    t = np.arange(101) * INNER_DT
    assert rates[0] == angles[0] == 0.0
    assert rates[1:] == pytest.approx(c * t[1:], rel=1e-12)
    assert angles[1:] == pytest.approx(0.5 * c * t[1:] * t[1:], rel=1e-12)


def test_rk4_step_steps_inner_dt():
    # a free hull turning at 1 rad/s and a free point mass moving at 1 m/s
    # cover one step's length a step, whatever the caller's time
    p = BoatParams(C_f=0.0, C_r=0.0, C_v=0.0)
    state = Plant(theta_dot=1.0, vx=1.0)
    for k in range(1, 251):
        state = Plant(*rk4_step(p, *state, 0.0, 0.0, 0.0))
        assert state.theta == pytest.approx(k * INNER_DT, rel=1e-13)
        assert state.x == pytest.approx(k * INNER_DT, rel=1e-13)
    assert state.theta_dot == state.vx == 1.0 and state.y == state.vy == 0.0
    assert INNER_DT == 0.004


def test_free_spin_momentum_conserved_without_drag():
    # zero drag, zero torque: total angular momentum is constant
    p = BoatParams(C_f=0.0, C_r=0.0)
    state = Plant(theta_dot=2.5)
    phi_dot = -1.0
    h0 = (p.I_b + p.I_t) * state.theta_dot + p.I_t * phi_dot
    for _ in range(2500):
        state = Plant(*rk4_step(p, *state, 0.0, 0.0, 0.0))
        phi_dot += 0.0 * INNER_DT  # as run_mission sums it
    assert (p.I_b + p.I_t) * state.theta_dot + p.I_t * phi_dot == pytest.approx(h0, abs=1e-12)


def test_hull_rate_decays_with_drag_and_no_torque():
    p = BoatParams()
    state = Plant(theta_dot=3.0)
    phi_dot = 0.0
    prev = abs(state.theta_dot)
    for _ in range(1000):
        state = Plant(*rk4_step(p, *state, 0.0, 0.0, 0.0))
        phi_dot += 0.0 * INNER_DT  # as run_mission sums it
        cur = abs(state.theta_dot)
        assert cur < prev and phi_dot == 0.0
        prev = cur


def test_closed_loop_matches_pendulum_form():
    # the full plant under the oscillatory torque law and the substituted
    # heading-error pendulum are the same ODE; both must agree with a
    # fine-step reference to integrator tolerance
    params = BoatParams(**BENCH)
    cfg = ControllerConfig()
    theta_r = 0.0
    psi0 = -math.pi / 2
    dt = 1.0 / 250.0
    n = 2500  # 10 s

    t, theta, theta_dot = 0.0, psi0, 0.0
    full = np.empty(n + 1)
    full[0] = theta
    torque = lambda t, th, td: limit_cycle_torque(cfg, t, th, theta_r)
    for i in range(n):
        theta, theta_dot = rk4_step_controlled(params, t, theta, theta_dot, torque, dt)
        t += dt
        full[i + 1] = theta

    pend = pendulum_reference(params, cfg, psi0, dt, n)
    ref = pendulum_reference(params, cfg, psi0, dt / 16.0, n * 16)[::16]
    assert np.max(np.abs(full - ref)) < 1e-6
    assert np.max(np.abs(pend - ref)) < 1e-6
    assert np.max(np.abs(full - pend)) < 1e-9


def test_rk4_global_error_is_fourth_order():
    # linear (smooth) drag so the observed order is the method's own
    params = BoatParams(C_f=0.0, C_r=2.0e-4)
    cfg = ControllerConfig()
    horizon = 2.0

    def endpoint(dt):
        t, theta, theta_dot = 0.0, -math.pi / 2, 0.0
        torque = lambda t, th, td: limit_cycle_torque(cfg, t, th, 0.0)
        for _ in range(round(horizon / dt)):
            theta, theta_dot = rk4_step_controlled(params, t, theta, theta_dot,
                                                   torque, dt)
            t += dt
        return theta

    ref = endpoint(1.0 / 16000.0)
    e1 = abs(endpoint(1.0 / 250.0) - ref)
    e2 = abs(endpoint(1.0 / 500.0) - ref)
    assert math.log2(e1 / e2) > 3.7


@pytest.mark.parametrize("kwargs", [
    dict(I_b=0.0), dict(I_t=-1.0), dict(mass=0.0), dict(C_f=-1e-9),
    dict(C_v=-1.0), dict(body_length=0.0), dict(k_thrust=-0.1),
    dict(mass=math.nan), dict(C_v=math.inf),
])
def test_boat_params_validation(kwargs):
    with pytest.raises(ValueError):
        BoatParams(**kwargs)


def _oracle_rhs(params, tau, heading, thrust):
    """The plant equations for one hold, written out from the model."""
    inertia = params.I_b + params.I_t
    tx, ty = thrust * math.cos(heading), thrust * math.sin(heading)

    def rhs(t, s):
        _, w, _, pd, _, _, vx, vy = s
        drag = params.C_f * w * abs(w) + params.C_r * w
        speed = math.hypot(vx, vy)
        return [w, -(drag + params.I_t * tau) / inertia, pd, tau, vx, vy,
                (tx - params.C_v * speed * vx) / params.mass,
                (ty - params.C_v * speed * vy) / params.mass]
    return rhs


@pytest.mark.parametrize("mode, disturbances", [
    (ControlMode.LIMIT_CYCLE_ONLY, ()),
    (ControlMode.THRUST_DIRECTION, ()),
    (ControlMode.DESATURATED_THRUST_DIRECTION, ()),
    (ControlMode.DESATURATED_THRUST_DIRECTION, ((1.0, (0.0, 0.05)),)),
], ids=["limit_cycle", "thrust_direction", "desaturated", "desaturated-impulse"])
def test_rk4_step_matches_adaptive_oracle(mode, disturbances):
    # every mission runs rk4_step; replay its sampled torque and thrust
    # heading through a tight adaptive integrator, hold by hold
    params = BoatParams()
    cfg = ControllerConfig(mode=mode)
    spec = MissionSpec(kind=MissionKind.STEP_TEST, duration=5.0,
                       initial_theta=-math.pi / 2,
                       step_schedule=((2.0, -3 * math.pi / 2),),
                       disturbances=disturbances)
    log = run_mission(params, cfg, spec)
    names = ("theta", "theta_dot", "phi", "phi_dot", "x", "y", "vx", "vy")
    plant = np.column_stack([log.column(name) for name in names])
    oracle = np.empty_like(plant)
    oracle[0] = s = plant[0]
    thrust = params.k_thrust * cfg.K
    pending = list(disturbances)
    for i in range(len(log) - 1):
        t0, t1 = log.t[i], log.t[i + 1]
        sol = solve_ivp(_oracle_rhs(params, log.tau[i], log.theta_r[i], thrust),
                        (t0, t1), s, method="DOP853", rtol=1e-12, atol=1e-14)
        s = sol.y[:, -1]
        while pending and pending[0][0] <= t1 + 1e-12:  # as run_mission does
            s[6:] += pending.pop(0)[1]
        oracle[i + 1] = s
    gap = np.max(np.abs(plant - oracle), axis=0)
    assert gap[:2].max() < 1e-6    # theta, theta_dot: the step's own error
    assert gap[2:4].max() < 1e-10  # phi, phi_dot: exact up to rounding
    assert gap[4:].max() < 1e-12   # x, y, vx, vy
