import math

import pytest
from hypothesis import settings

from paddlesim import BoatParams, ControllerConfig
from paddlesim.control import ControlMode
from paddlesim.mission import MissionKind, MissionSpec, run_mission

# slow-water translational constants used by the step / disturbance scenarios:
# same 0.1 m/s steady speed, but cross-track velocity decays slowly enough
# that drift is visible at the measurement window
SLOW_WATER = dict(C_v=1.4, k_thrust=1.4 * 0.01 / 15.0)

# every property test draws the same examples on every run, with no timing
# gate; a test sets only its example count
settings.register_profile("paddlesim", derandomize=True, deadline=None)
settings.load_profile("paddlesim")


@pytest.fixture(scope="session")
def bench_params():
    """Published rotational constants (also the defaults)."""
    return BoatParams()


@pytest.fixture(scope="session")
def converge_log(bench_params):
    """30 s inner-loop-only convergence run from a quarter-turn offset."""
    cfg = ControllerConfig(mode=ControlMode.LIMIT_CYCLE_ONLY)
    spec = MissionSpec(kind=MissionKind.CONVERGE, duration=30.0, heading=0.0,
                       initial_theta=-math.pi / 2)
    return run_mission(bench_params, cfg, spec)


@pytest.fixture(scope="session")
def square_log(bench_params):
    """Waypoint square under the desaturating controller."""
    cfg = ControllerConfig(mode=ControlMode.DESATURATED_THRUST_DIRECTION)
    spec = MissionSpec(kind=MissionKind.WAYPOINTS, duration=60.0,
                       waypoints=((1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)))
    return run_mission(bench_params, cfg, spec)
