"""Span tracing from outside the package, by wrapping its public functions.

Each wrapper is installed on the namespace the caller resolves the name in
(``paddlesim.mission.rk4_step``, ``paddlesim.cli.write_telemetry_csv``, the
``TravelEstimator`` class), so nothing in the package changes.  A span is
(name, start, end, parent); spans live in flat arrays while the pass runs and
are aggregated, and optionally saved, when it ends.  cProfile is not used: it
roughly doubles the cost of this call-heavy loop.
"""

import functools
import os
import time
from array import array

import numpy as np

# (layer, owner the caller resolves the name on, function name) of every timed function
SPANNED = (
    ("dynamics", "mission", "rk4_step"),
    ("control", "mission", "limit_cycle_torque"),
    ("control", "mission", "desaturated_torque"),
    ("control", "mission", "outer_loop_reference"),
    ("control", "mission", "desaturate_reference"),
    ("estimation", "TravelEstimator", "add_pose"),
    ("estimation", "TravelEstimator", "travel_direction"),
    ("mission", "mission", "run_mission"),
    ("metrics", "cli", "report_metrics"),
    ("cli", "cli", "parse_scenario"),
    ("cli", "cli", "write_telemetry_csv"),
    ("cli", "cli", "main"),
)


class Tracer:
    """Records spans and event counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: array = array("i")
        self._parent: array = array("i")
        self._start: array = array("d")
        self._end: array = array("d")
        self._stack = [-1]
        # spans before this index were recorded during set-up
        self._pass_start = 0
        self.counters = {"control.desat_unwinds": 0, "mission.duplicate_runs": 0,
                         "mission.ticks": 0, "mission.waypoint_calls": 0,
                         "metrics.not_settled": 0,
                         "cli.write_csv.rows": 0, "cli.write_csv.bytes": 0}
        self._run_keys: list[tuple] = []

    # ---------------------------------------------------------------- spans

    def span(self, name: str, fn):
        """Return fn wrapped so that each call records one span."""
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends = (self._name_id, self._parent,
                                      self._start, self._end)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return traced

    def start_pass(self) -> None:
        """Mark the end of set-up: later spans belong to the timed pass."""
        self._pass_start = len(self._name_id)

    def summary(self, spans: slice = slice(None)) -> dict:
        """Per-span-name call counts and self seconds of the given spans.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the pass is single-threaded.
        """
        ids = np.frombuffer(self._name_id, dtype=np.intc)
        parent = np.frombuffer(self._parent, dtype=np.intc)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        own = (dur - covered)[spans]
        ids = ids[spans]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=own, minlength=n)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span to an .npz file (names, parent, start, end)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self._name_id, dtype=np.intc),
                 parent=np.frombuffer(self._parent, dtype=np.intc),
                 start=np.frombuffer(self._start), end=np.frombuffer(self._end))

    # ------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap the package's layer entry points and event sources in place."""
        from paddlesim import cli, mission
        from paddlesim.estimation import TravelEstimator
        from paddlesim.metrics import NotSettled
        owners = {"mission": mission, "cli": cli, "TravelEstimator": TravelEstimator}
        wrapped = {}
        for layer, owner, fname in SPANNED:
            wrapped[fname] = self.span(f"{layer}.{fname}",
                                       getattr(owners[owner], fname))
            setattr(owners[owner], fname, wrapped[fname])
        counters = self.counters
        run_keys = self._run_keys

        traced_desat = wrapped["desaturate_reference"]

        def desaturate_reference(ref, *args, **kwargs):
            out = traced_desat(ref, *args, **kwargs)
            if out.theta_r != ref.theta_r:
                counters["control.desat_unwinds"] += 1
            return out
        mission.desaturate_reference = desaturate_reference

        traced_run = wrapped["run_mission"]

        def run_mission(params, cfg, spec):
            key = (params, cfg, spec)
            if key in run_keys:  # dataclass equality, field by field
                counters["mission.duplicate_runs"] += 1
            else:
                run_keys.append(key)
            log = traced_run(params, cfg, spec)
            counters["mission.ticks"] += len(log)
            return log
        # cli resolves run_mission in its own namespace
        mission.run_mission = cli.run_mission = run_mission

        waypoint_heading = mission.waypoint_heading

        def counted_waypoint_heading(*args, **kwargs):
            counters["mission.waypoint_calls"] += 1
            return waypoint_heading(*args, **kwargs)
        mission.waypoint_heading = counted_waypoint_heading

        measure_turn = cli.measure_turn

        def counted_measure_turn(*args, **kwargs):
            try:
                return measure_turn(*args, **kwargs)
            except NotSettled:
                counters["metrics.not_settled"] += 1
                raise
        cli.measure_turn = counted_measure_turn

        traced_write = wrapped["write_telemetry_csv"]

        def write_telemetry_csv(log, path):
            traced_write(log, path)
            counters["cli.write_csv.rows"] += len(log)
            counters["cli.write_csv.bytes"] += os.path.getsize(path)
        cli.write_telemetry_csv = write_telemetry_csv

    # ------------------------------------------------------------- metrics

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass, keyed by BENCHMARK.json names."""
        setup = self.summary(slice(None, self._pass_start))
        spans = self.summary(slice(self._pass_start, None))
        c = self.counters

        def self_s(*names):
            return sum(spans[n]["self_s"] for n in names)

        def calls(name):
            return spans[name]["calls"]

        def per(value, base, scale):
            return value * scale / base if base else 0.0

        control = ("control.limit_cycle_torque", "control.desaturated_torque",
                   "control.outer_loop_reference", "control.desaturate_reference")
        estimation = ("estimation.add_pose", "estimation.travel_direction")
        runs = calls("mission.run_mission")
        rk4_calls = calls("dynamics.rk4_step")
        outer_ticks = calls("estimation.add_pose")
        ticks = c["mission.ticks"]
        m = {
            "dynamics.rk4_calls": rk4_calls,
            "dynamics.self_s": self_s("dynamics.rk4_step"),
            "control.calls": sum(calls(n) for n in control),
            "control.self_s": self_s(*control),
            "control.desat_unwinds": c["control.desat_unwinds"],
            "estimation.add_pose_calls": outer_ticks,
            "estimation.direction_calls": calls("estimation.travel_direction"),
            "estimation.self_s": self_s(*estimation),
            "mission.runs": runs,
            "mission.duplicate_runs": c["mission.duplicate_runs"],
            "mission.duplicate_run_ratio": per(c["mission.duplicate_runs"], runs, 1.0),
            "mission.ticks": ticks,
            "mission.outer_ticks": outer_ticks,
            "mission.waypoint_calls": c["mission.waypoint_calls"],
            "mission.self_s": self_s("mission.run_mission"),
            "metrics.report_calls": calls("metrics.report_metrics"),
            "metrics.self_s": self_s("metrics.report_metrics"),
            "metrics.not_settled": c["metrics.not_settled"],
            # the CLI workloads parse their configs once in set-up and the
            # CLI parses them again inside the pass
            "cli.parse_ms": 1e3 * setup["cli.parse_scenario"]["self_s"],
            "cli.pass_parse_ms": 1e3 * self_s("cli.parse_scenario"),
            "cli.write_csv.rows": c["cli.write_csv.rows"],
            "cli.write_csv.bytes": c["cli.write_csv.bytes"],
            "cli.write_csv.self_s": self_s("cli.write_telemetry_csv"),
            "cli.self_s": self_s("cli.main"),
        }
        m["dynamics.us_per_call"] = per(m["dynamics.self_s"], rk4_calls, 1e6)
        m["control.us_per_tick"] = per(m["control.self_s"], ticks, 1e6)
        m["estimation.us_per_outer_tick"] = per(m["estimation.self_s"], outer_ticks, 1e6)
        m["mission.self_us_per_tick"] = per(m["mission.self_s"], ticks, 1e6)
        m["metrics.ms_per_run"] = per(m["metrics.self_s"], runs, 1e3)
        m["cli.write_csv.us_per_row"] = per(m["cli.write_csv.self_s"],
                                            m["cli.write_csv.rows"], 1e6)
        return m
