"""Planar rigid-body plant for a single-motor oscillating surface swimmer.

The hull (bottom body) carries the passive flippers and exchanges angular
momentum with the reaction mass (top body) through the motor, so commanding
a motor acceleration produces an opposite hull acceleration.  Orientation
follows a damped rotational ODE; planar translation is approximated as a
point mass pushed along the commanded heading against quadratic drag.
"""

from math import hypot
from dataclasses import dataclass, fields
from enum import EnumMeta
from sys import float_info
from types import UnionType
from typing import get_args

import numpy as np

INNER_RATE = 250.0  # Hz, the plant step and motor command rate
INNER_DT = 1.0 / INNER_RATE  # fixed integration step, s


class ConfigError(ValueError):
    """Raised when a setting or scenario specification is invalid."""


def _check_value(name: str, value, kind) -> None:
    """Raise a ConfigError naming the field `name` unless value fits its
    annotation `kind`: float takes a finite int or float but not a bool,
    float | None takes None too, tuple[X, ...] any number of X, and any other
    tuple[...] exactly its items."""
    if kind is float:
        if isinstance(value, bool):
            raise ConfigError(f"{name} must be a number, not a bool")
        if isinstance(value, (int, float)):
            # int and float compare exactly, so an int too large for a float
            # fails here as NaN and the infinities do
            if not -float_info.max <= value <= float_info.max:
                raise ConfigError(f"{name} must be finite")
            return
    elif isinstance(kind, UnionType):  # float | None
        if value is not None:
            _check_value(name, value, get_args(kind)[0])
        return
    elif isinstance(value, tuple):
        args = get_args(kind)
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        if len(value) == len(args):
            for item, arg in zip(value, args):
                _check_value(name, item, arg)
            return
    raise ConfigError(f"{name} holds {value!r} where "
                      f"{'a number' if kind is float else kind} is due")


def check_fields(settings, positive=(), non_negative=()) -> None:
    """Reject a settings dataclass whose field does not fit its annotation
    (enum fields aside: the class tests those), then any `positive` field
    not > 0 or `non_negative` one not >= 0.  The ConfigError names the first
    field that fails."""
    for f in fields(settings):
        if not isinstance(f.type, EnumMeta):
            _check_value(f.name, getattr(settings, f.name), f.type)
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
        # what rk4_step reads on every call, built once: the total inertia
        # negated, then the step and its half and sixth; not a field, so it
        # is no config key and equality and hashing ignore it.  replace()
        # rebuilds it, and copies and pickles carry it with the fields.
        object.__setattr__(self, "_step_constants",
                           (self.C_f, self.C_r, self.C_v, self.mass, self.I_t,
                            -(self.I_b + self.I_t), INNER_DT, 0.5 * INNER_DT,
                            INNER_DT / 6.0))


def orientation_accel(params: BoatParams, theta_dot: float, phi_ddot: float) -> float:
    """Hull angular acceleration for a given hull rate and motor acceleration.

    theta_dot * abs(theta_dot) realises the signed quadratic drag with
    sign(0) = 0.
    """
    drag = params.C_f * theta_dot * abs(theta_dot) + params.C_r * theta_dot
    return -(drag + params.I_t * phi_ddot) / (params.I_b + params.I_t)


def rk4_step(params: BoatParams, theta: float, theta_dot: float, x: float,
             y: float, vx: float, vy: float, control_torque: float, thrust_x: float,
             thrust_y: float) -> tuple[float, ...]:
    """Advance the hull angle and rate (theta unwrapped), the position and
    the velocity by one classical fourth-order step of INNER_DT, returning
    the six new values in that order.  The motor acceleration and the thrust
    vector (thrust_x, thrust_y), in N, are held over the step; the caller
    advances time and the motor rate.  The motor angle is the log's to
    integrate (motor_rates, motor_angles).

    The stages are written out over local constants, unpacked from the
    tuple BoatParams builds once, because this runs on every tick: a point
    mass under quadratic drag for the translation and, for the rotation,
    orientation_accel's result bit for bit, though not op for op.  Two
    equalities make that so.  x / -y equals -(x / y) exactly, so each stage
    divides by the negated inertia instead of negating.  (s if s > 0.0 else
    -s) equals abs(s) except at s = +0.0, where it gives -0.0; the + C_r * s
    that follows is then +0.0 and restores the sign.  With >= instead, the
    sum at s = -0.0 would be +0.0 where abs gives -0.0.
    """
    C_f, C_r, C_v, mass, I_t, neg_inertia, dt, half, sixth = params._step_constants
    motor = I_t * control_torque  # the motor acceleration, constant over the step
    w = theta_dot

    # rotational stages: theta's stage derivative is the stage value of theta_dot
    k1 = (C_f * w * (w if w > 0.0 else -w) + C_r * w + motor) / neg_inertia
    s2 = w + half * k1
    k2 = (C_f * s2 * (s2 if s2 > 0.0 else -s2) + C_r * s2 + motor) / neg_inertia
    s3 = w + half * k2
    k3 = (C_f * s3 * (s3 if s3 > 0.0 else -s3) + C_r * s3 + motor) / neg_inertia
    s4 = w + dt * k3
    k4 = (C_f * s4 * (s4 if s4 > 0.0 else -s4) + C_r * s4 + motor) / neg_inertia

    # translational stages under the held thrust vector
    tx, ty = thrust_x, thrust_y
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

    return (theta + sixth * (w + 2.0 * s2 + 2.0 * s3 + s4),
            w + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
            x + sixth * (vx + 2.0 * ux2 + 2.0 * ux3 + ux4),
            y + sixth * (vy + 2.0 * uy2 + 2.0 * uy3 + uy4),
            vx + sixth * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4),
            vy + sixth * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4))


# The plant's step order over arrays, for a log that keeps the hull rate and
# the motor command and derives the angles from them.  hull_angles repeats
# rk4_step's theta update op for op, and an accumulated sum adds in order, so
# it gives its Python floats bit for bit; the motor is integrated here alone,
# its rate summed as run_mission sums it.  Python floats overflow to inf and
# give NaN without a warning, so their callers turn numpy's overflow and
# invalid warnings off.

def hull_angles(params: BoatParams, theta_dot: np.ndarray, tau: np.ndarray,
                theta: float) -> np.ndarray:
    """The hull angle from theta on under the hull rates theta_dot and the
    motor accelerations tau, at each row of tau and one past it: rk4_step's
    theta update, k4 unused."""
    C_f, C_r, _, _, I_t, neg_inertia, dt, half, sixth = params._step_constants
    w = theta_dot
    motor = I_t * tau
    # each stage's rate s and acceleration k, written in place with
    # rk4_step's operands in its order
    s, k, scratch = np.empty(len(tau)), np.empty(len(tau)), np.empty(len(tau))
    angles = np.empty(len(tau) + 1)
    angles[0] = theta
    inc = angles[1:]

    def accel(v):
        """k = (C_f * v * (v if v > 0.0 else -v) + C_r * v + motor) / neg_inertia"""
        np.multiply(C_f, v, out=k)
        np.negative(v, out=scratch)
        np.copyto(scratch, v, where=v > 0.0)
        np.multiply(k, scratch, out=k)
        np.add(k, np.multiply(C_r, v, out=scratch), out=k)
        np.add(k, motor, out=k)
        np.divide(k, neg_inertia, out=k)

    accel(w)
    np.add(w, np.multiply(half, k, out=k), out=s)          # s2
    np.add(w, np.multiply(2.0, s, out=inc), out=inc)      # w + 2.0 * s2
    accel(s)
    np.add(w, np.multiply(half, k, out=k), out=s)          # s3
    inc += np.multiply(2.0, s, out=k)
    accel(s)
    np.add(w, np.multiply(dt, k, out=k), out=s)           # s4
    inc += s
    np.multiply(sixth, inc, out=inc)
    return np.add.accumulate(angles, out=angles)


def motor_rates(tau: np.ndarray, phi_dot: float) -> np.ndarray:
    """The motor rate from phi_dot on, at each row of tau and one past it:
    phi_dot + tau * dt, tau held over each step, as run_mission sums it."""
    rates = np.empty(len(tau) + 1)
    rates[0] = phi_dot
    np.multiply(tau, INNER_DT, out=rates[1:])
    return np.add.accumulate(rates, out=rates)


def motor_angles(tau: np.ndarray, rates: np.ndarray, phi: float) -> np.ndarray:
    """The motor angle from phi on under tau and its rates (motor_rates), at
    each row of tau and one past it, as a strided view: phi + phi_dot * dt +
    0.5 * tau * dt * dt, exact for tau held over the step."""
    # phi, then each step's two terms in that order
    terms = np.empty(2 * len(tau) + 1)
    terms[0] = phi
    np.multiply(rates[:-1], INNER_DT, out=terms[1::2])
    half = terms[2::2]
    np.multiply(tau, 0.5, out=half)
    half *= INNER_DT
    half *= INNER_DT
    return np.add.accumulate(terms, out=terms)[::2]
