"""Planar simulator and scenario harness for a single-motor paddling swimmer."""

from .control import ControlMode, ControllerConfig
from .dynamics import BoatParams
from .estimation import TravelEstimator
from .metrics import (DegenerateSegment, NotSettled, SegmentError, TurnEvent,
                      measure_turn, orbit_radius, quartiles,
                      rms_perpendicular_error, rise_time, travel_during_turn)
from .mission import ConfigError, MissionKind, MissionSpec, TelemetryLog, run_mission

__version__ = "0.1.0"
