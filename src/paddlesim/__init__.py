"""Planar simulator and scenario harness for a single-motor paddling swimmer."""

from .control import (ControlMode, ControllerConfig, ReferenceState,
                      desaturate_reference, desaturated_torque,
                      limit_cycle_torque, outer_loop_reference, resonant_beta,
                      wrap_override, wrap_to_pi)
from .dynamics import INNER_DT, BoatParams, orientation_accel, rk4_step
from .estimation import TravelEstimator
from .metrics import (DegenerateSegment, NotSettled, SegmentError, TurnEvent,
                      measure_turn, orbit_radius, quartiles,
                      rms_perpendicular_error, rise_time, travel_during_turn)
from .mission import (ConfigError, MissionKind, MissionSpec, TelemetryLog,
                      run_mission, waypoint_heading)

__version__ = "0.1.0"
