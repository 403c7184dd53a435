"""Planar rigid-body plant for a single-motor oscillating surface swimmer.

The hull (bottom body) carries the passive flippers and exchanges angular
momentum with the reaction mass (top body) through the motor, so commanding
a motor acceleration produces an opposite hull acceleration.  Orientation
follows a damped rotational ODE; planar translation is approximated as a
point mass pushed along the commanded heading against quadratic drag.
"""

from math import cos, hypot, sin
from dataclasses import dataclass, fields
from sys import float_info

INNER_RATE = 250.0  # Hz, the plant step and motor command rate
INNER_DT = 1.0 / INNER_RATE  # fixed integration step, s


class ConfigError(ValueError):
    """Raised when a setting or scenario specification is invalid."""


def check_fields(settings, positive=(), non_negative=()) -> None:
    """Reject a settings dataclass holding a bool or a non-finite number,
    nested tuples included, then any `positive` field not > 0 or
    `non_negative` one not >= 0.  The ConfigError names the first field that
    fails."""
    for f in fields(settings):
        values = [getattr(settings, f.name)]
        for value in values:  # a tuple's items are appended and visited in turn
            if isinstance(value, tuple):
                values.extend(value)
            elif isinstance(value, bool):
                raise ConfigError(f"{f.name} must be a number, not a bool")
            # int and float compare exactly, so an int too large for a float
            # fails here as NaN and the infinities do
            elif (isinstance(value, (int, float))
                  and not -float_info.max <= value <= float_info.max):
                raise ConfigError(f"{f.name} must be finite")
    for name in positive:
        if not getattr(settings, name) > 0.0:
            raise ConfigError(f"{name} must be positive")
    for name in non_negative:
        if not getattr(settings, name) >= 0.0:
            raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class BoatParams:
    """Physical constants of the plant.

    The rotational constants default to the test platform's identified
    values; the translational ones are model choices (steady speed is
    sqrt(k_thrust * K / C_v), 0.1 m/s at the default gains).
    """

    I_b: float = 5.2e-6          # hull moment of inertia, kg m^2
    I_t: float = 1.0e-3          # reaction-mass moment of inertia, kg m^2
    C_f: float = 1.0e-4          # flipper drag constant (quadratic), N m s^2
    C_r: float = 0.0             # cylindrical drag constant (linear), N m s
    mass: float = 1.0            # kg
    C_v: float = 5.0             # translational quadratic drag, kg/m
    k_thrust: float = 0.05 / 15.0  # thrust per unit forcing amplitude, N
    body_length: float = 0.15    # m, normalisation for BL metrics

    def __post_init__(self):
        check_fields(self, positive=("I_b", "I_t", "mass", "body_length"),
                     non_negative=("C_f", "C_r", "C_v", "k_thrust"))


@dataclass(slots=True)
class SimState:
    """Full continuous state at one time instant.  Treated as a value."""

    t: float = 0.0
    theta: float = 0.0       # hull orientation, rad, unwrapped
    theta_dot: float = 0.0   # rad/s
    phi: float = 0.0         # motor angle, rad
    phi_dot: float = 0.0     # rad/s
    pos: tuple[float, float] = (0.0, 0.0)   # m
    vel: tuple[float, float] = (0.0, 0.0)   # m/s

    @property
    def top_rate(self) -> float:
        """Angular velocity of the reaction mass (hull rate + motor rate)."""
        return self.theta_dot + self.phi_dot


def orientation_accel(params: BoatParams, theta_dot: float, phi_ddot: float) -> float:
    """Hull angular acceleration for a given hull rate and motor acceleration.

    theta_dot * abs(theta_dot) realises the signed quadratic drag with
    sign(0) = 0.
    """
    drag = params.C_f * theta_dot * abs(theta_dot) + params.C_r * theta_dot
    return -(drag + params.I_t * phi_ddot) / (params.I_b + params.I_t)


def rk4_step(params: BoatParams, state: SimState, control_torque: float,
             thrust_heading: float, dt: float, thrust_mag: float = 0.0) -> SimState:
    """Advance the state by one classical fourth-order step.

    The commanded motor acceleration and the thrust vector are held constant
    across the step (zero-order hold); time advances by exactly dt.

    The stages are written out over local constants because this runs on
    every tick; each stage repeats orientation_accel's arithmetic for the
    rotation and a point mass under quadratic drag for the translation.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    a = control_torque  # motor acceleration, constant over the step
    C_f, C_r, C_v, mass = params.C_f, params.C_r, params.C_v, params.mass
    I_t = params.I_t
    inertia = params.I_b + I_t
    motor = I_t * a
    w = state.theta_dot
    half = 0.5 * dt
    sixth = dt / 6.0

    # rotational stages: theta's stage derivative is the stage value of theta_dot
    k1 = -(C_f * w * abs(w) + C_r * w + motor) / inertia
    s2 = w + half * k1
    k2 = -(C_f * s2 * abs(s2) + C_r * s2 + motor) / inertia
    s3 = w + half * k2
    k3 = -(C_f * s3 * abs(s3) + C_r * s3 + motor) / inertia
    s4 = w + dt * k3
    k4 = -(C_f * s4 * abs(s4) + C_r * s4 + motor) / inertia
    theta = state.theta + sixth * (w + 2.0 * s2 + 2.0 * s3 + s4)
    theta_dot = w + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    # translational stages under a thrust vector held over the step
    tx = thrust_mag * cos(thrust_heading)
    ty = thrust_mag * sin(thrust_heading)
    vx, vy = state.vel
    cd = C_v * hypot(vx, vy)
    ax1, ay1 = (tx - cd * vx) / mass, (ty - cd * vy) / mass
    ux2, uy2 = vx + half * ax1, vy + half * ay1
    cd = C_v * hypot(ux2, uy2)
    ax2, ay2 = (tx - cd * ux2) / mass, (ty - cd * uy2) / mass
    ux3, uy3 = vx + half * ax2, vy + half * ay2
    cd = C_v * hypot(ux3, uy3)
    ax3, ay3 = (tx - cd * ux3) / mass, (ty - cd * uy3) / mass
    ux4, uy4 = vx + dt * ax3, vy + dt * ay3
    cd = C_v * hypot(ux4, uy4)
    ax4, ay4 = (tx - cd * ux4) / mass, (ty - cd * uy4) / mass
    x, y = state.pos

    # constant motor acceleration integrates exactly
    phi_dot = state.phi_dot
    return SimState(state.t + dt, theta, theta_dot,
                    state.phi + phi_dot * dt + 0.5 * a * dt * dt, phi_dot + a * dt,
                    (x + sixth * (vx + 2.0 * ux2 + 2.0 * ux3 + ux4),
                     y + sixth * (vy + 2.0 * uy2 + 2.0 * uy3 + uy4)),
                    (vx + sixth * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4),
                     vy + sixth * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4)))
