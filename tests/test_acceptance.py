"""Acceptance suite.

One test per criterion, each at its stated tolerance, each printing a
PASS line with the measured margin (run with -s to see them inline).
"""

import contextlib
import hashlib
import io
import math
import time

import numpy as np
import pytest

from conftest import SLOW_WATER
from paddlesim.cli import main, preset_names
from paddlesim.control import (ControlMode, ControllerConfig,
                               limit_cycle_torque, resonant_beta, wrap_to_pi)
from paddlesim.dynamics import BoatParams
from paddlesim.metrics import (measure_turn, orbit_radius, rise_time,
                               rms_perpendicular_error)
from paddlesim.mission import MissionKind, MissionSpec, run_mission
from helpers import (make_log, pendulum_reference, rk4_step_controlled,
                     rolling_mean, run_step_test, tick_times)

BENCH = dict(I_b=5.2e-6, I_t=1.0e-3, C_f=1.0e-4, C_r=0.0)
STEP_DELTAS = (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3)

# sha256 of each preset's telemetry and metrics report, (csv, _metrics.dat)
PRESET_SHA256 = {
    "congruent-step": (
        "ae725d98997725dfe876e2d940456f2e3f2ee3214246d2c6f652709051c03d05",
        "0b700103264a08d4b31a1ffea566e5ed77622af23d4366ea7a469f0ab6fcfd4b"),
    "converge": (
        "f6913007fc94ab9c218e459cf482284b344f2111665c7d62decc9e28903eb308",
        "cd44cfeba3d9390442bd66f9ed12956d548cc967349a41ae5285d41a4235369c"),
    "defaults": (
        "81d71f02dc1205a38804278cd6053e6506fdac3cc320a96d4278d741964974ed",
        "ebc208f773b49958251efd4af0be6e9c00e2d1338602ba883cbb82a9c5a4eaea"),
    "disturbance-rejection": (
        "d9a1839c12c67df565b44e53f3110c80a3099f06f352b4f3a46e45cf745af4c4",
        "8c64c3f432107b76225c33f84105238d2411084d968b80ffee33884fa1a35c18"),
    "station-keep": (
        "7563407907a503fa3eddea3a5bfbac720db13d3f99679ec4ee89b7917bb08440",
        "4e454329d07ea545ef2e732d003e43b2ea16ea24cb853503aef656c7f446bd34"),
    "step-response": (
        "d851bed47bd535c00c9ac930dd11d714640bcff4f915eac3d55a04e4ab052e9d",
        "bc9aec490dfe33729417c6936f2fd37c73a79ebeabf7d8daea5782cf366199c1"),
    "waypoint-square": (
        "bb46090881a98333ce2be6a4ebe3af1c1d4e9571287038c6580196409acd37c2",
        "ee3b1e9a3545db4a1c0ea4957115ec2ee62c61a4e05fdd1f59af0a0f79a3512d"),
}


def _passline(num, detail):
    print(f"criterion {num:2d} PASS  {detail}")


@pytest.fixture(scope="module")
def bench_converge():
    cfg = ControllerConfig(mode=ControlMode.LIMIT_CYCLE_ONLY)
    spec = MissionSpec(kind=MissionKind.CONVERGE, duration=30.0, heading=0.0,
                       initial_theta=-math.pi / 2)
    t0 = time.perf_counter()
    log = run_mission(BoatParams(**BENCH), cfg, spec)
    return log, time.perf_counter() - t0


def test_criterion_01_convergence_to_reference(bench_converge):
    log, elapsed = bench_converge
    period_avg = rolling_mean(log.t, log.theta, log.period)
    final = log.t >= 20.0
    worst = float(np.max(np.abs(period_avg[final])))
    assert worst < 0.05
    # bounded oscillation: the final amplitude is no larger than mid-run
    mid = (log.t >= 10.0) & (log.t < 20.0)
    amp_final = float(np.max(np.abs(log.theta[final] - period_avg[final])))
    amp_mid = float(np.max(np.abs(log.theta[mid] - period_avg[mid])))
    assert amp_final <= 1.05 * amp_mid + 0.01
    assert elapsed < 5.0
    _passline(1, f"period-avg error {worst:.2e} rad < 0.05, amplitude "
                 f"{amp_final:.2f} rad bounded, runtime {elapsed:.2f}s < 5s")


def test_criterion_02_no_drag_does_not_settle():
    cfg = ControllerConfig(mode=ControlMode.LIMIT_CYCLE_ONLY)
    spec = MissionSpec(kind=MissionKind.CONVERGE, duration=30.0, heading=0.0,
                       initial_theta=-math.pi / 2)
    log = run_mission(BoatParams(I_b=5.2e-6, I_t=1.0e-3, C_f=0.0, C_r=0.0),
                      cfg, spec)
    period_avg = rolling_mean(log.t, log.theta, log.period)
    worst = float(np.max(np.abs(period_avg[log.t >= 20.0])))
    assert worst >= 0.05  # the drag-free loop fails the settling test
    _passline(2, f"drag-free period-avg error reaches {worst:.2f} rad >= 0.05")


def test_criterion_03_pendulum_equivalence():
    params = BoatParams(**BENCH)
    cfg = ControllerConfig()
    psi0 = -math.pi / 2
    dt = 1.0 / 250.0
    n = 2500  # 10 s

    t, theta, theta_dot = 0.0, psi0, 0.0
    torque = lambda t, th, td: limit_cycle_torque(cfg, t, th, 0.0)
    full = np.empty(n + 1)
    full[0] = theta
    for i in range(n):
        theta, theta_dot = rk4_step_controlled(params, t, theta, theta_dot, torque, dt)
        t += dt
        full[i + 1] = theta

    pend = pendulum_reference(params, cfg, psi0, dt, n)
    ref = pendulum_reference(params, cfg, psi0, dt / 16.0, 16 * n)[::16]
    err_full = float(np.max(np.abs(full - ref)))
    err_pend = float(np.max(np.abs(pend - ref)))
    assert err_full < 1e-6 and err_pend < 1e-6
    _passline(3, f"both forms within {max(err_full, err_pend):.1e} rad of the "
                 f"dt/16 reference over 10 s (tol 1e-6)")


def test_criterion_04_resonance_consistency():
    val = resonant_beta(math.tau, 5.2e-6, 1.0e-3)
    assert 39.2 <= val <= 40.8          # within 2% of the published gain 40
    assert val == pytest.approx(39.68, abs=0.005)  # 4 significant digits
    _passline(4, f"resonant gain {val:.4f} in [39.2, 40.8], rounds to 39.68")


def test_criterion_05_desaturation_sign_control():
    cfg = ControllerConfig(mode=ControlMode.LIMIT_CYCLE_ONLY)
    params = BoatParams(**BENCH)
    outcome = {}
    for label, delta in (("short", math.pi / 2), ("long", -3 * math.pi / 2)):
        spec = MissionSpec(kind=MissionKind.STEP_TEST, duration=40.0,
                           heading=0.0, step_schedule=((15.0, delta),))
        log = run_mission(params, cfg, spec)
        mean_rate = rolling_mean(log.t, log.theta_t_dot, log.period)
        avg_theta = rolling_mean(log.t, log.theta, log.period)
        before = int(np.searchsorted(log.t, 15.0)) - 1
        outcome[label] = (wrap_to_pi(float(avg_theta[-1])),
                          float(mean_rate[-1] - mean_rate[before]))
    head_diff = abs(wrap_to_pi(outcome["short"][0] - outcome["long"][0]))
    assert head_diff < 0.02
    assert outcome["short"][1] * outcome["long"][1] < 0.0
    _passline(5, f"final headings agree to {head_diff:.1e} rad; rate changes "
                 f"{outcome['short'][1]:+.2f} vs {outcome['long'][1]:+.2f} rad/s")


def test_criterion_06_step_response_drift():
    params = BoatParams(**SLOW_WATER)
    details = []
    for delta in STEP_DELTAS:
        _, obs_inner = run_step_test(
            params, ControllerConfig(mode=ControlMode.LIMIT_CYCLE_ONLY), delta)
        _, obs_outer = run_step_test(
            params, ControllerConfig(mode=ControlMode.THRUST_DIRECTION), delta)
        err_inner = obs_inner - delta
        err_outer = obs_outer - delta
        assert err_inner < 0.0, f"delta={delta}"
        assert abs(err_outer) <= 0.5 * abs(err_inner), f"delta={delta}"
        details.append(f"{err_inner:+.3f}->{err_outer:+.3f}")
    _passline(6, "inner-loop drift vs corrected: " + ", ".join(details))


def test_criterion_07_disturbance_rejection():
    params = BoatParams(**SLOW_WATER)
    v_ss = math.sqrt(params.k_thrust * 15.0 / params.C_v)
    t_imp = 20.0
    spec = MissionSpec(kind=MissionKind.CONVERGE, duration=35.0, heading=0.0,
                       disturbances=((t_imp, (0.0, v_ss)),))
    horizon = 10.0  # ten periods at the default forcing frequency
    recovered = {}
    for mode in (ControlMode.THRUST_DIRECTION, ControlMode.LIMIT_CYCLE_ONLY):
        log = run_mission(params, ControllerConfig(mode=mode), spec)
        win = (log.t > t_imp) & (log.t <= t_imp + horizon)
        err = np.abs([wrap_to_pi(v) for v in log.psi_hat[win]])
        exceed = log.t[win][err > 0.1]
        # recovered iff the error re-enters 0.1 rad and stays through the window
        recovered[mode] = (len(exceed) == 0 or
                           exceed[-1] < t_imp + horizon - 1e-9) and err[-1] <= 0.1
        if mode is ControlMode.THRUST_DIRECTION:
            back_at = float(exceed[-1] - t_imp) if len(exceed) else 0.0
    assert recovered[ControlMode.THRUST_DIRECTION]
    assert not recovered[ControlMode.LIMIT_CYCLE_ONLY]
    _passline(7, f"outer loop back inside 0.1 rad at +{back_at:.1f}s; "
                 f"inner loop alone still outside after 10 periods")


def test_criterion_08_station_keeping_boundedness():
    cfg = ControllerConfig(mode=ControlMode.DESATURATED_THRUST_DIRECTION)
    spec = MissionSpec(kind=MissionKind.STATION_KEEP, duration=75.0,
                       waypoints=((0.0, 1.5),))
    log = run_mission(BoatParams(), cfg, spec)
    dist = np.hypot(log.x - 0.0, log.y - 1.5)
    assert float(dist[log.t >= 45.0].max()) < 1.0  # bounded orbit
    first = float(np.mean(dist[(log.t >= 45.0) & (log.t < 60.0)]))
    second = float(np.mean(dist[log.t >= 60.0]))
    rel = abs(first - second) / max(first, second)
    assert rel < 0.10
    # the orbit is centred on the waypoint: trailing-mean position inside
    # the transition tolerance
    tail = log.t >= 45.0
    centroid_off = math.hypot(float(np.mean(log.x[tail])) - 0.0,
                              float(np.mean(log.y[tail])) - 1.5)
    assert centroid_off < spec.tolerance_radius
    radius = orbit_radius(log, (0.0, 1.5), 30.0)
    _passline(8, f"trailing means {first:.4f}/{second:.4f} m differ {rel:.1%} "
                 f"< 10% (orbit radius {radius:.3f} m, not asserted)")


def test_criterion_09_desaturation_bounds_rate():
    # fixed ten-turn heading script, seed-free by construction
    script = (2.0, 1.5, 2.2, 1.8, 2.4, 1.6, 2.1, 1.9, 2.3, 1.7)
    schedule = tuple((8.0 + 8.0 * i, d) for i, d in enumerate(script))
    spec = MissionSpec(kind=MissionKind.STEP_TEST, duration=8.0 * 11,
                       heading=0.0, step_schedule=schedule)
    params = BoatParams()
    peaks = {}
    for mode in (ControlMode.THRUST_DIRECTION,
                 ControlMode.DESATURATED_THRUST_DIRECTION):
        log = run_mission(params, ControllerConfig(mode=mode), spec)
        mean_rate = rolling_mean(log.t, log.theta_t_dot, log.period)
        peaks[mode] = float(np.max(np.abs(mean_rate)))
    assert (peaks[ControlMode.DESATURATED_THRUST_DIRECTION]
            < peaks[ControlMode.THRUST_DIRECTION])
    _passline(9, f"max |mean top rate| {peaks[ControlMode.DESATURATED_THRUST_DIRECTION]:.1f} "
                 f"(desaturated) < {peaks[ControlMode.THRUST_DIRECTION]:.1f} rad/s")


def test_criterion_10_metrics_oracles():
    dt = 1.0 / 250.0
    # cross-track error against a brute-force point-to-line oracle
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    for _ in range(100):
        n = 100
        xs, ys = rng.normal(size=n), rng.normal(size=n)
        p0, p1 = rng.normal(size=2), rng.normal(size=2)
        if math.hypot(*(p1 - p0)) < 1e-6:
            continue
        log = make_log(n, x=xs, y=ys)
        got = rms_perpendicular_error(log, (tuple(p0), tuple(p1))).rms_perp
        dx, dy = p1 - p0
        norm = math.hypot(dx, dy)
        dists = np.abs(dx * (ys - p0[1]) - dy * (xs - p0[0])) / norm
        want = math.sqrt(float(np.mean(dists ** 2)))
        worst_rel = max(worst_rel, abs(got - want) / want)
    assert worst_rel < 1e-12

    # orbit radius on an analytic circle
    t = tick_times(round(20.0 / dt) + 1)
    log = make_log(len(t), x=0.11 * np.cos(0.8 * t), y=0.11 * np.sin(0.8 * t))
    r = orbit_radius(log, (0.0, 0.0), 10.0)
    assert r == pytest.approx(0.11, abs=1e-6)

    # rise time against the first-order closed form
    tau_c, delta = 0.7, 1.3
    t = tick_times(round(10.0 / dt) + 1)
    psi = np.where(t > 1.0, delta * (1.0 - np.exp(-(t - 1.0) / tau_c)), 0.0)
    rt = rise_time(make_log(len(t), psi_hat=psi), 1.0, delta)
    assert rt == pytest.approx(tau_c * math.log(10.0), abs=dt)
    _passline(10, f"rms oracle rel err {worst_rel:.1e} < 1e-12; circle radius "
                  f"to 1e-6; rise time within one sample of closed form")


def test_criterion_11_integrator_order():
    params = BoatParams(I_b=5.2e-6, I_t=1.0e-3, C_f=0.0, C_r=2.0e-4)
    cfg = ControllerConfig()
    horizon = 5.0

    def endpoint(dt):
        t, theta, theta_dot = 0.0, -math.pi / 2, 0.0
        torque = lambda t, th, td: limit_cycle_torque(cfg, t, th, 0.0)
        for _ in range(round(horizon / dt)):
            theta, theta_dot = rk4_step_controlled(params, t, theta, theta_dot,
                                                   torque, dt)
            t += dt
        return theta

    ref = endpoint(1.0 / 16000.0)  # dt/16 of the finest grid below
    errs = [abs(endpoint(dt) - ref) for dt in (1 / 250, 1 / 500, 1 / 1000)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.7
    _passline(11, f"observed orders {orders[0]:.2f}, {orders[1]:.2f} >= 3.7")


def test_criterion_12_preset_determinism_and_runtime(tmp_path):
    names = preset_names()
    assert names, "presets must ship with the package"
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for sub in ("a", "b"):
            for name in names:
                code = main(["presets", "run", name,
                             "--out-dir", str(tmp_path / sub)])
                assert code == 0, name
    elapsed = time.perf_counter() - t0
    for name in names:
        a = (tmp_path / "a" / f"{name}.csv").read_bytes()
        b = (tmp_path / "b" / f"{name}.csv").read_bytes()
        assert a == b, f"{name} telemetry differs between runs"
    assert sorted(PRESET_SHA256) == names
    for name, digests in PRESET_SHA256.items():
        for suffix, digest in zip((".csv", "_metrics.dat"), digests):
            data = (tmp_path / "a" / f"{name}{suffix}").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, f"{name}{suffix}"
    assert elapsed < 60.0
    _passline(12, f"{len(names)} presets byte-identical across runs and to the "
                  f"pinned digests, double suite in {elapsed:.1f}s < 60s")


def test_criterion_13_thrust_direction_turns_faster_and_tighter():
    # the paper's headline result: steering the thrust direction turns the
    # boat faster and in less room than driving the hull reference alone
    params = BoatParams(**SLOW_WATER)
    modes = (ControlMode.LIMIT_CYCLE_ONLY, ControlMode.THRUST_DIRECTION)
    details = []
    for delta in STEP_DELTAS:
        spec = MissionSpec(kind=MissionKind.STEP_TEST, duration=60.0, heading=0.0,
                           step_schedule=((15.0, delta),))
        inner, outer = (measure_turn(run_mission(params, ControllerConfig(mode=mode),
                                                 spec), 15.0, delta)
                        for mode in modes)
        rise_ratio = outer.rise_time / inner.rise_time
        travel_ratio = outer.travel_BL / inner.travel_BL
        assert rise_ratio <= 0.6, f"delta={delta}"
        assert travel_ratio <= 0.5, f"delta={delta}"
        details.append(f"{rise_ratio:.2f}/{travel_ratio:.2f}")
    _passline(13, "thrust-direction / limit-cycle rise / travel: "
                  + ", ".join(details) + " <= 0.60/0.50")


def test_criterion_14_desaturation_keeps_the_actuator_rate_bounded():
    # the abstract's third claim as worded: without desaturation the
    # reaction-mass rate keeps growing while the boat keeps turning, with it
    # the rate stays bounded.  Eleven +pi/2 steps, one every 10 s; the figure
    # is the largest |one-period mean rate| in each half of the run.
    spec = MissionSpec(kind=MissionKind.STEP_TEST, duration=120.0, heading=0.0,
                       step_schedule=tuple((10.0 * k, math.pi / 2) for k in range(1, 12)))
    halves, unwinds = {}, {}
    for mode in (ControlMode.THRUST_DIRECTION, ControlMode.DESATURATED_THRUST_DIRECTION):
        log = run_mission(BoatParams(), ControllerConfig(mode=mode), spec)
        mean_rate = np.abs(rolling_mean(log.t, log.theta_t_dot, log.period))
        second = log.t >= spec.duration / 2
        halves[mode] = (float(np.max(mean_rate[~second])), float(np.max(mean_rate[second])))
        unwinds[mode] = int(np.sum(np.abs(np.diff(log.theta_r)) > math.pi))
    (free_1, free_2), (desat_1, desat_2) = halves.values()
    # measured 22.6 -> 49.4 and 7.1 -> 6.2 rad/s, with 18 unwinds
    assert free_2 >= 1.5 * free_1
    assert desat_2 <= desat_1 and max(desat_1, desat_2) <= 0.5 * free_1
    assert unwinds[ControlMode.THRUST_DIRECTION] == 0
    assert unwinds[ControlMode.DESATURATED_THRUST_DIRECTION] >= 1
    _passline(14, f"max |mean top rate| by half: thrust_direction {free_1:.1f} -> "
                  f"{free_2:.1f} rad/s (x{free_2 / free_1:.2f} >= 1.5), desaturated "
                  f"{desat_1:.1f} -> {desat_2:.1f} rad/s (x{desat_2 / desat_1:.2f} <= 1, "
                  f"<= 0.5 x {free_1:.1f}), "
                  f"{unwinds[ControlMode.DESATURATED_THRUST_DIRECTION]} unwinds")
