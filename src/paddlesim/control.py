"""Torque and reference-heading laws for the oscillatory paddling controller.

The inner loop oscillates the hull about a reference heading; paddling
thrust then points, on average, along that reference.  The outer loop
steers the reference so the measured direction of travel tracks the desired
one, and the unwind logic keeps the reaction mass from spinning up by
commanding full-turn-offset (congruent) references.
"""

import math
from dataclasses import dataclass
from enum import Enum
from math import floor, sin

from .dynamics import INNER_DT, ConfigError, check_fields

_WRAP_EPS = 1e-9  # slack for the wrapped-equality test at the +/- pi boundary
_TAU, _PI = math.tau, math.pi  # bound once: the wrap and torque laws run every tick


class ControlMode(Enum):
    """Which control layers a mission runs."""

    LIMIT_CYCLE_ONLY = "limit_cycle"
    THRUST_DIRECTION = "thrust_direction"
    DESATURATED_THRUST_DIRECTION = "desaturated"


@dataclass(frozen=True)
class ControllerConfig:
    """Gains and switches for the controller variants."""

    omega: float = math.tau       # forcing angular frequency, rad/s
    K: float = 15.0               # forcing amplitude
    beta: float = 40.0            # convergence gain
    K_p: float = 1.5              # outer-loop proportional gain
    mode: ControlMode = ControlMode.THRUST_DIRECTION
    desat_interval: float | None = None   # min time between reference
                                          # unwinds, s; None: two periods
    desat_threshold: float = 3.0  # |mean top rate| that arms an unwind, rad/s

    def __post_init__(self):
        if not isinstance(self.mode, ControlMode):
            raise ConfigError(f"unknown control mode: {self.mode!r}")
        check_fields(self, positive=("omega", "K", "beta"),
                     non_negative=("K_p", "desat_threshold"))
        if self.omega > math.pi / INNER_DT:
            raise ConfigError(f"omega must be at most {math.pi / INNER_DT:g} rad/s, "
                              f"the inner loop's Nyquist rate")
        if self.desat_interval is not None and self.desat_interval < self.period:
            raise ConfigError("desat_interval must be at least one period")

    @property
    def period(self) -> float:
        """Oscillation period, s."""
        return math.tau / self.omega


@dataclass
class ReferenceState:
    """Unwrapped reference heading plus the unwind rate-limit bookkeeping."""

    theta_r: float = 0.0
    last_desat_time: float = -math.inf


def wrap_to_pi(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    if -3.0 < angle < 3.0:
        # floor((angle + pi) / tau) is 0 here, so the formula gives angle back
        return angle
    wrapped = angle - _TAU * floor((angle + _PI) / _TAU)
    if wrapped <= -_PI:  # floor maps +pi to -pi; the boundary belongs at +pi
        wrapped += _TAU
    return wrapped


def limit_cycle_torque(cfg: ControllerConfig, t: float, theta: float,
                       theta_r: float) -> float:
    """Motor acceleration command: sinusoidal forcing plus convergence term."""
    return -cfg.K * sin(cfg.omega * t) - cfg.beta * sin(theta_r - theta)


def resonant_beta(cfg_omega: float, I_b: float, I_t: float) -> float:
    """Convergence gain that puts the forced oscillation at resonance."""
    if I_b <= 0.0 or I_t <= 0.0:
        raise ValueError("moments of inertia must be positive")
    return cfg_omega * cfg_omega * (I_t + I_b) / I_t


def desaturated_torque(cfg: ControllerConfig, t: float, theta: float,
                       theta_r: float) -> float:
    """Wrap-aware torque command; equals limit_cycle_torque inside +/- pi.

    While the raw heading error lies outside (-pi, pi], an unwind drive of
    +/-1 toward the unwrapped reference joins the convergence term; once
    theta is within a half turn of the reference, the plain term takes over.
    """
    diff = theta_r - theta
    # wrap_to_pi returns an error in (-3, 3) unchanged, so no unwind drives it
    if -3.0 < diff < 3.0 or abs(wrap_to_pi(diff) - diff) < _WRAP_EPS:
        xi = 0.0
    else:
        xi = 1.0 if diff > 0.0 else -1.0
    return -cfg.K * sin(cfg.omega * t) - cfg.beta * (sin(diff) + xi)


def desaturate_reference(ref: ReferenceState, mean_top_velocity: float, t: float,
                         cfg: ControllerConfig, pending_delta: float = 0.0) -> ReferenceState:
    """Offset the reference by a full turn when the reaction mass runs fast.

    A positive reference change spins the reaction mass down and vice versa,
    so the offset takes the sign of the accumulated rate.  The jump is
    skipped while the rate is small, inside the rate-limit interval, or when
    the pending reference change this tick already pushes the rate the right
    way (pending_delta and the mean rate sharing a sign).
    """
    if abs(mean_top_velocity) <= cfg.desat_threshold:
        return ref
    interval = cfg.desat_interval
    if t - ref.last_desat_time < (2.0 * cfg.period if interval is None else interval):
        return ref
    if pending_delta * mean_top_velocity > 0.0:
        return ref
    jump = math.tau if mean_top_velocity > 0.0 else -math.tau
    return ReferenceState(ref.theta_r + jump, t)


def outer_loop_reference(cfg: ControllerConfig, theta_des: float, psi_hat: float) -> float:
    """Reference heading that steers the travel direction toward theta_des.

    Works on unit vectors d and p, so the output stays well behaved for any
    error magnitude: w = (1 + K_p) d - K_p p has length at least 1 for the
    finite K_p >= 0 that ControllerConfig guarantees.
    """
    dx, dy = math.cos(theta_des), math.sin(theta_des)
    px, py = math.cos(psi_hat), math.sin(psi_hat)
    wx = dx + cfg.K_p * (dx - px)
    wy = dy + cfg.K_p * (dy - py)
    return math.atan2(wy, wx)
