"""Workload inputs, generated from the benchmark seed.

The program only ever sees what these functions build: preset names, a
config text, or plant/controller/mission objects.  ``random.Random`` with an
integer seed gives the same stream on every CPython version, so one seed
gives one input everywhere.
"""

import math
import random

WORKLOADS = ("presets-cli", "sweep-batch", "long-mission")

INNER_RATE = 250.0

# The presets shipped with the package, pinned so that adding a preset to the
# package does not silently change the workload.  Durations sum to 330 s.
PRESETS = {
    "congruent-step": 40.0,
    "converge": 30.0,
    "defaults": 20.0,
    "disturbance-rejection": 35.0,
    "station-keep": 75.0,
    "step-response": 30.0,
    "waypoint-square": 100.0,
}

SWEEP_DURATION = 40.0
SWEEP_K = (10.0, 15.0)
SWEEP_C_V = (3.5, 5.0)
SWEEP_REPEATS = 3
SWEEP_BASENAME = "sweep"

LONG_DURATION = 600.0


def rows_for(duration: float) -> int:
    """Telemetry rows one run of the given duration delivers."""
    return round(INNER_RATE * duration) + 1


def _impulses(rng: random.Random, n: int, t0: float, t1: float) -> list:
    times = sorted(rng.uniform(t0, t1) for _ in range(n))
    return [(t, rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)) for t in times]


def _fmt(*values: float) -> str:
    return " ".join(repr(v) for v in values)


def sweep_config(seed: int) -> str:
    """Config text for sweep-batch: a desaturated waypoint mission swept 2x2.

    Legs of 0.5-0.8 m at about 0.1 m/s make sure the first waypoint is reached
    well inside the 40 s run, so every sweep point produces a report.
    """
    rng = random.Random(seed)
    x = y = 0.0
    heading = rng.uniform(-math.pi, math.pi)
    waypoints = []
    for k in range(4):
        if k:
            heading += rng.uniform(-2.0, 2.0)
        leg = rng.uniform(0.5, 0.8)
        x, y = x + leg * math.cos(heading), y + leg * math.sin(heading)
        waypoints.append((x, y))
    lines = [
        f"# sweep-batch, seed {seed}",
        "control.mode = desaturated",
        "mission.kind = waypoints",
        f"mission.duration = {SWEEP_DURATION!r}",
        "mission.waypoints = " + "; ".join(_fmt(*p) for p in waypoints),
        "mission.disturbances = "
        + "; ".join(_fmt(*d) for d in _impulses(rng, 2, 5.0, 35.0)),
        f"output.basename = {SWEEP_BASENAME}",
        f"batch.repeats = {SWEEP_REPEATS}",
        "sweep.control.K = " + ", ".join(repr(v) for v in SWEEP_K),
        "sweep.boat.C_v = " + ", ".join(repr(v) for v in SWEEP_C_V),
    ]
    return "\n".join(lines) + "\n"


def sweep_outputs() -> dict[str, list[str]]:
    """Files each sweep point writes: stem -> one CSV per repeat, then reports.

    Mirrors the CLI's naming: ``<basename>_<field>=<value:g>_..._r<k>.csv``.
    """
    out = {}
    for k in SWEEP_K:
        for c_v in SWEEP_C_V:
            stem = f"{SWEEP_BASENAME}_K={k:g}_C_v={c_v:g}"
            out[stem] = [f"{stem}_r{r}.csv" for r in range(SWEEP_REPEATS)]
    return out


def long_mission(seed: int):
    """(BoatParams, ControllerConfig, MissionSpec) for long-mission.

    A seeded pentagon-ish circuit of 0.6-1.0 m radius, repeated for more laps
    than 600 s at about 0.1 m/s can finish, so the boat is always under way.
    """
    from paddlesim import (BoatParams, ControllerConfig, ControlMode,
                           MissionKind, MissionSpec)
    rng = random.Random(seed)
    n = 5
    base = rng.uniform(-math.pi, math.pi)
    circuit = []
    for k in range(n):
        angle = base + math.tau * (k + rng.uniform(-0.2, 0.2)) / n
        radius = rng.uniform(0.6, 1.0)
        circuit.append((radius * math.cos(angle), radius * math.sin(angle)))
    waypoints = tuple(circuit * 16)
    disturbances = tuple((t, (dvx, dvy))
                         for t, dvx, dvy in _impulses(rng, 6, 20.0, 580.0))
    spec = MissionSpec(kind=MissionKind.WAYPOINTS, duration=LONG_DURATION,
                       waypoints=waypoints, disturbances=disturbances)
    cfg = ControllerConfig(mode=ControlMode.DESATURATED_THRUST_DIRECTION)
    return BoatParams(), cfg, spec


def requested_rows(workload: str) -> int:
    """Telemetry rows one pass of the workload asks for."""
    if workload == "presets-cli":
        return sum(rows_for(d) for d in PRESETS.values())
    if workload == "sweep-batch":
        runs = len(SWEEP_K) * len(SWEEP_C_V) * SWEEP_REPEATS
        return runs * rows_for(SWEEP_DURATION)
    if workload == "long-mission":
        return rows_for(LONG_DURATION)
    raise ValueError(f"unknown workload {workload!r}")
