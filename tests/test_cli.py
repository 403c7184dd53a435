import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paddlesim
from helpers import make_log
from paddlesim.cli import (CSV_HEADER, load_preset, main, parse_scenario,
                           preset_names, report_metrics, render_report_dat,
                           render_report_text, write_telemetry_csv)
from paddlesim.control import ControlMode
from paddlesim.mission import (MAX_TICKS, TELEMETRY_COLUMNS, ConfigError,
                               MissionKind, MissionSpec, TelemetryLog,
                               run_mission)
from paddlesim.dynamics import BoatParams
from paddlesim.control import ControllerConfig

MINIMAL = """
# smallest valid scenario
mission.kind = converge
mission.duration = 1.0
"""


def test_parse_minimal_config():
    cfg = parse_scenario(MINIMAL)
    (label, _, _, mission), = cfg.points
    assert label == ""
    assert mission.kind is MissionKind.CONVERGE
    assert mission.duration == 1.0
    assert cfg.repeats == 1 and cfg.basename == "run"


def test_parse_full_config():
    text = """
    boat.I_t = 2.0e-3
    boat.C_v = 1.4
    control.K = 10
    control.mode = desaturated
    mission.kind = waypoints
    mission.duration = 5.0
    mission.waypoints = 0.5 0; 0.5 0.5
    mission.tolerance_radius = 0.05
    mission.start = 0.1 -0.1
    output.dir = out
    output.basename = sq
    batch.repeats = 3
    """
    cfg = parse_scenario(text)
    (_, boat, control, mission), = cfg.points
    assert boat.I_t == 2.0e-3 and boat.C_v == 1.4
    assert control.K == 10.0
    assert control.mode is ControlMode.DESATURATED_THRUST_DIRECTION
    assert mission.waypoints == ((0.5, 0.0), (0.5, 0.5))
    assert mission.start == (0.1, -0.1)
    assert (cfg.out_dir, cfg.basename, cfg.repeats) == ("out", "sq", 3)


@pytest.mark.parametrize("line,fragment", [
    ("boat.bogus = 1", "unknown key"),
    ("nonsense = 1", "unknown key"),
    ("mission.kind = quux\nmission.duration = 1", "bad value"),
    ("boat.I_t = fast", "bad value"),
    ("mission.kind converge", "expected"),
    ("mission.duration = 1\nmission.duration = 2", "duplicate"),
    ("sweep.boat = 1, 2", "sweep keys look like"),
    ("sweep.control.mode = 1, 2", "only scalar"),
    ("sweep.control.nope = 1, 2", "unknown sweep target"),
    ("mission.waypoints = 1 0; 1 1 1", "bad value"),
    ("mission.step_schedule = 5.0", "bad value"),
    ("mission.disturbances = 1.0 0.1", "bad value"),
    ("mission.start = 1 2 3", "bad value"),
    ("mission.start = 1 2; 3 4", "bad value"),
    ("boat.mass = nan", "finite"),
    ("control.omega = inf", "finite"),
    ("mission.tolerance_radius = nan", "finite"),
    ("sweep.boat.mass = 1, nan", "finite"),
    ("sweep.boat.mass = 1, -1", "mass must be positive"),
    ("control.desat_interval = 2\nsweep.control.omega = 6.283185307179586, 1",
     "desat_interval must be at least one period"),
    ("batch.repeats = 0", "repeats must be at least 1"),
    ("mission.controller_mode = limit_cycle", "unknown key"),
    ("mission.step_schedule = -1.0 0.5", "non-negative"),
    ("mission.waypoints = 0.3 0; 0.3 0; 0.3 0.3", "must not coincide"),
    ("output.basename =", "bad value"),
    ("output.basename = a/b", "bad value"),
    ("output.basename = ../escaped", "bad value"),
    ("output.basename = ..", "bad value"),
    ("mission.kind = step\nmission.duration = 2\nmission.step_schedule = 5 1",
     "at most duration"),
    ("mission.disturbances = 5 0 0.1", "at most duration"),
    ("sweep.control.K = 5, 6\nsweep.control.K = 5, 6", "duplicate key"),
    ("sweep.control.K = 5, 5", "must differ"),
    ("sweep.boat.mass = 0.1000001, 0.1000002", "must differ"),
    ("control.omega = 1e300", "Nyquist"),
    ("sweep.control.omega = 6.283185307179586, 800", "Nyquist"),
    ("control.desat_threshold = -1", "desat_threshold must be non-negative"),
    ("mission.warm_start = false", "unknown key"),
    ("control.thrust_from_mean_heading = true", "unknown key"),
    ("mission.heading = 1e308", "at most 1e+06 rad"),
    ("mission.initial_theta = 1e308", "at most 1e+06 rad"),
    ("mission.kind = step\nmission.duration = 2\nmission.step_schedule = 1 -1e7",
     "at most 1e+06 rad"),
    ("mission.kind = station_keep\nmission.duration = 1\n"
     "mission.waypoints = 1e-300 1e-300; 1e-300 1e308",
     "waypoints coordinates must be at most 1e+06 m"),
    ("mission.start = -2e6 0", "start coordinates must be at most 1e+06 m"),
    ("boat.body_radius = 0.075", "unknown key"),
])
def test_parse_rejects_bad_lines(line, fragment):
    with pytest.raises(ConfigError) as err:
        parse_scenario(f"mission.kind = converge\nmission.duration = 1\n{line}"
                       if "mission.kind" not in line and "mission.duration" not in line
                       else line)
    assert fragment in str(err.value)


def test_parse_builds_every_sweep_point():
    cfg = parse_scenario(MINIMAL + "mission.waypoints = 1 0; 1 1\n"
                         "mission.disturbances = 0.5 0 0.1\n"
                         f"sweep.control.omega = {math.tau!r}, {2 * math.tau!r}\n")
    labels = [label for label, *_ in cfg.points]
    assert labels == ["omega=6.28319", "omega=12.5664"]
    for *_, mission in cfg.points:
        assert mission.waypoints == ((1.0, 0.0), (1.0, 1.0))
        assert mission.disturbances == ((0.5, (0.0, 0.1)),)
    # an unset desat_interval stays unset; each point's own period derives it
    assert [control.desat_interval for _, _, control, _ in cfg.points] == [None, None]


def test_parse_sweep_supplies_a_required_key():
    # only the sweep points are runs, so the unswept keys need not form a
    # valid run of their own
    cfg = parse_scenario("mission.kind = converge\n"
                         "sweep.mission.duration = 10, 20\n")
    assert [(label, mission.duration) for label, _, _, mission in cfg.points] == [
        ("duration=10", 10.0), ("duration=20", 20.0)]


@pytest.mark.parametrize("lines", [
    pytest.param(lines, id=lines) for lines in (
        "boat.mass = nan",
        "control.omega = inf",
        "mission.tolerance_radius = nan",
        "sweep.boat.mass = 1, -1",
        "control.desat_interval = 2\nsweep.control.omega = 6.283185307179586, 1",
        "batch.repeats = 0",
        "mission.kind = step\nmission.duration = 6\n"
        "mission.step_schedule = -1.0 0.5",
        "mission.kind = waypoints\nmission.duration = 6\n"
        "mission.waypoints = 0.3 0; 0.3 0; 0.3 0.3",
        "output.basename =",
        "output.basename = a/b",
        "output.basename = ../escaped",
        "mission.kind = step\nmission.duration = 2\nmission.step_schedule = 5 1",
        "sweep.control.K = 5, 6\nsweep.control.K = 5, 6",
        "sweep.control.K = 5, 5",
        "sweep.boat.mass = 0.1000001, 0.1000002",
        "control.omega = 1e300",
        "control.desat_threshold = -1",
        "mission.warm_start = false",
        "control.thrust_from_mean_heading = true",
        "mission.heading = 1e308",
        "mission.initial_theta = 1e308",
        "mission.kind = station_keep\nmission.duration = 1\n"
        "mission.waypoints = 1e-300 1e-300; 1e-300 1e308",
        "boat.body_radius = 0.075",
    )
])
def test_bad_config_exits_2_and_writes_nothing(tmp_path, lines):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text((lines if "mission.kind" in lines else MINIMAL + lines)
                        + "\n")
    out = tmp_path / "out"
    assert main(["validate", str(cfg_path)]) == 2
    assert main(["run", str(cfg_path), "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert sorted(tmp_path.iterdir()) == [cfg_path]  # nothing escaped it either


def test_repeats_flag_is_rejected(tmp_path):
    # batch.repeats is the one holder of the repeat count
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text(MINIMAL)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out-dir", str(out), "--repeats", "2"]) == 2
    assert sorted(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("lines", [
    "control.K = 1e300",
    "boat.mass = 1e-300",
    "control.mode = desaturated\ncontrol.beta = 1e300",
])
def test_diverging_run_exits_2_without_its_csv(tmp_path, capsys, lines):
    # the values are finite and parse, but the plant overflows within a few ticks
    cfg_path = tmp_path / "wild.cfg"
    cfg_path.write_text(MINIMAL + lines + "\n")
    out = tmp_path / "out"
    assert main(["validate", str(cfg_path)]) == 0
    assert main(["run", str(cfg_path), "--out-dir", str(out)]) == 2
    assert "diverged at t = " in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_diverging_sweep_point_keeps_earlier_points(tmp_path):
    cfg_path = tmp_path / "wild.cfg"
    cfg_path.write_text(MINIMAL + "sweep.control.K = 15, 1e300\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out-dir", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir()) == [
        "run_K=15.csv", "run_K=15_metrics.dat", "run_K=15_metrics.txt"]


def test_settings_are_frozen():
    cfg = parse_scenario(MINIMAL)
    (_, boat, control, mission), = cfg.points
    for settings, field in ((boat, "mass"), (control, "omega"),
                            (mission, "duration"), (cfg, "basename")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(settings, field, getattr(settings, field))


def test_duration_cap_rejected_at_parse(tmp_path, capsys):
    # checked through the parser only: an over-cap run is never started
    head = "mission.kind = converge\n"
    cap = MAX_TICKS / 250.0
    (*_, mission), = parse_scenario(head + f"mission.duration = {cap!r}\n").points
    assert mission.duration == cap
    for text in (f"mission.duration = {cap + 0.004!r}",
                 "mission.duration = 1e9",
                 "mission.duration = 1e308",
                 "mission.duration = 1\nsweep.mission.duration = 1, 1e9"):
        with pytest.raises(ConfigError, match="duration must be at most"):
            parse_scenario(head + text + "\n")
    cfg_path = tmp_path / "long.cfg"
    cfg_path.write_text(head + "mission.duration = 1e9\n")
    assert main(["validate", str(cfg_path)]) == 2
    assert "duration must be at most" in capsys.readouterr().err


def test_parse_requires_kind_and_duration():
    with pytest.raises(ConfigError):
        parse_scenario("mission.duration = 1.0")
    with pytest.raises(ConfigError):
        parse_scenario("boat.I_t = 1e-3")


def test_parse_validates_physical_values():
    with pytest.raises(ConfigError):
        parse_scenario("mission.kind = converge\nmission.duration = 1\nboat.mass = -1")
    with pytest.raises(ConfigError):
        parse_scenario("mission.kind = waypoints\nmission.duration = 1")


def test_csv_empty_and_single_record(tmp_path):
    empty = make_log(np.array([]))
    path = tmp_path / "empty.csv"
    write_telemetry_csv(empty, path)
    assert path.read_text() == CSV_HEADER + "\n"

    one = make_log(np.array([0.0]))
    path2 = tmp_path / "one.csv"
    write_telemetry_csv(one, path2)
    lines = path2.read_text().splitlines()
    assert len(lines) == 2 and lines[0] == CSV_HEADER


def test_csv_round_trip(tmp_path):
    spec = MissionSpec(kind=MissionKind.CONVERGE, duration=2.0,
                       initial_theta=-0.5)
    log = run_mission(BoatParams(), ControllerConfig(), spec)
    path = tmp_path / "rt.csv"
    write_telemetry_csv(log, path)
    assert path.read_text().partition("\n")[0] == CSV_HEADER
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    for i, name in enumerate(TELEMETRY_COLUMNS):
        assert np.allclose(log.column(name), back[:, i], rtol=1e-8, atol=1e-14), name


def test_csv_final_newline_and_9_digits(tmp_path):
    log = make_log(np.array([1.0 / 3.0]))
    path = tmp_path / "digits.csv"
    write_telemetry_csv(log, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert text.splitlines()[1].startswith("0.333333333,")


def reference_csv(log):
    """The per-value formatter the chunked writer must reproduce byte for byte."""
    cols = [log.column(name) for name in TELEMETRY_COLUMNS[:-1]]
    lines = [CSV_HEADER]
    for i in range(len(log)):
        lines.append(",".join(f"{col[i]:.9g}" for col in cols)
                     + f",{log.waypoint_index[i]:d}")
    return "\n".join(lines) + "\n"


EDGE_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
               math.nan, math.inf, -math.inf, 1.0 / 3.0, 123456789.5, 1e-300)


@pytest.mark.parametrize("n_rows", [1, 4096, 4097, 8193])
def test_csv_bytes_match_reference_formatter(tmp_path, n_rows):
    # row counts straddle the writer's chunk edges
    rng = np.random.default_rng(n_rows)
    cols = {}
    for k, name in enumerate(TELEMETRY_COLUMNS[:-1]):
        col = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-20, 20, n_rows)
        col[(np.arange(len(EDGE_VALUES)) * 7 + k) % n_rows] = EDGE_VALUES
        cols[name] = col
    idx = rng.integers(0, 50, n_rows)
    idx[-1] = np.iinfo(np.int64).max
    idx[0] = 10**15
    log = TelemetryLog(**cols, waypoint_index=idx)
    path = tmp_path / "edge.csv"
    write_telemetry_csv(log, path)
    assert path.read_bytes() == reference_csv(log).encode()


def test_run_command_end_to_end(tmp_path):
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text("mission.kind = converge\n"
                        "mission.duration = 2.0\n"
                        "output.basename = demo\n")
    out = tmp_path / "out"
    code = main(["run", str(cfg_path), "--out-dir", str(out)])
    assert code == 0
    assert (out / "demo.csv").exists()
    assert (out / "demo_metrics.txt").exists()
    assert (out / "demo_metrics.dat").exists()
    dat = (out / "demo_metrics.dat").read_text()
    assert "steady_speed_mps.median" in dat


def test_validate_command_writes_nothing(tmp_path):
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text("mission.kind = converge\nmission.duration = 1.0\n")
    code = main(["validate", str(cfg_path)])
    assert code == 0
    assert list(tmp_path.glob("*.csv")) == []


def test_validate_rejects_bad_config(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("mission.kind = converge\nmission.duration = 1.0\n"
                        "boat.warp = 9\n")
    assert main(["validate", str(cfg_path)]) == 2


def test_presets_ship_and_validate():
    names = preset_names()
    assert "converge" in names and "station-keep" in names
    assert main(["presets", "list"]) == 0
    # dry-run validation of a preset by name: exit 0, no files written
    assert main(["validate", "defaults"]) == 0
    assert main(["validate", "not-a-preset"]) == 2
    # each preset names its own output files
    for name in names:
        assert parse_scenario(load_preset(name)).basename == name


def test_presets_run_unknown_name():
    assert main(["presets", "run", "no-such-preset"]) == 2


def test_repeats_and_degenerate_iqr(tmp_path):
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text("mission.kind = converge\nmission.duration = 1.0\n"
                        "batch.repeats = 2\n")
    out = tmp_path / "o"
    code = main(["run", str(cfg_path), "--out-dir", str(out)])
    assert code == 0
    assert (out / "run_r0.csv").exists() and (out / "run_r1.csv").exists()
    # deterministic repeats: identical files, degenerate quartiles
    assert (out / "run_r0.csv").read_bytes() == (out / "run_r1.csv").read_bytes()
    dat = dict(line.split(" = ") for line in
               (out / "run_metrics.dat").read_text().splitlines())
    assert dat["steady_speed_mps.q1"] == dat["steady_speed_mps.q3"]
    assert dat["steady_speed_mps.n"] == "2"


def test_sweep_produces_monotone_speed(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("mission.kind = converge\n"
                        "mission.duration = 10.0\n"
                        "sweep.control.K = 5, 10, 15\n")
    out = tmp_path / "s"
    assert main(["run", str(cfg_path), "--out-dir", str(out)]) == 0
    speeds = []
    for k in (5, 10, 15):
        dat = dict(line.split(" = ") for line in
                   (out / f"run_K={k}_metrics.dat").read_text().splitlines())
        speeds.append(float(dat["steady_speed_mps.median"]))
    assert speeds[0] < speeds[1] < speeds[2]


def test_zero_delta_step_reports_direction_error_only(tmp_path):
    # nothing turns, so there is no rise time or travel to measure, but the
    # settled direction error is still defined
    cfg_path = tmp_path / "zero.cfg"
    cfg_path.write_text("mission.kind = step\n"
                        "mission.duration = 10.0\n"
                        "mission.step_schedule = 5.0 0\n")
    out = tmp_path / "o"
    for flags in ([], ["--strict-settle"]):
        assert main(["run", str(cfg_path), "--out-dir", str(out), *flags]) == 0
        dat = (out / "run_metrics.dat").read_text()
        assert "rise_time_s" not in dat and "travel_m" not in dat
        assert "direction_error_rad.median" in dat


def test_strict_settle_exit_code(tmp_path):
    # inner-loop-only step in slow water never holds the 90% band
    cfg_path = tmp_path / "step.cfg"
    cfg_path.write_text("boat.C_v = 1.4\n"
                        "boat.k_thrust = 9.333333333333334e-4\n"
                        "control.mode = limit_cycle\n"
                        "mission.kind = step\n"
                        "mission.duration = 12.0\n"
                        "mission.step_schedule = 5.0 1.0471975511965976\n")
    out = tmp_path / "o"
    assert main(["run", str(cfg_path), "--out-dir", str(out)]) == 0
    strict_out = tmp_path / "strict"
    assert main(["run", str(cfg_path), "--out-dir", str(strict_out),
                 "--strict-settle"]) == 3
    assert not (strict_out / "run.csv").exists()  # a failed point writes nothing


def test_report_metrics_empty_and_quartiles():
    assert report_metrics([], MissionSpec(kind=MissionKind.CONVERGE,
                                          duration=1.0)) == {}
    report = {"m": {"median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4.0}}
    text = render_report_text(report)
    assert "m" in text and "2.5" in text
    dat = render_report_dat(report)
    assert "m.q1 = 1.75" in dat and "m.n = 4" in dat


def test_empty_report_exits_nonzero(tmp_path):
    # a zero-duration station-keep yields no metrics at all
    cfg_path = tmp_path / "none.cfg"
    cfg_path.write_text("mission.kind = station_keep\n"
                        "mission.duration = 0.0\n"
                        "mission.waypoints = 0 1\n"
                        "control.mode = desaturated\n")
    out = tmp_path / "x"
    assert main(["run", str(cfg_path), "--out-dir", str(out)]) == 1
    assert not (out / "run.csv").exists()  # a failed point writes nothing


def test_missing_config_file_is_io_error():
    assert main(["run", "/nonexistent/path.cfg"]) == 1


def test_non_utf8_config_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_bytes(MINIMAL.encode() + b"\xff\xfe\n")
    out = tmp_path / "out"
    assert main(["validate", str(cfg_path)]) == 2
    assert main(["run", str(cfg_path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.count("config error:") == 2
    assert sorted(tmp_path.iterdir()) == [cfg_path]


def test_runtime_imports_only_numpy():
    # scipy and hypothesis are test dependencies; the package must not pull them in
    code = ("import sys, paddlesim, paddlesim.cli; "
            "print(sorted({'scipy', 'hypothesis'} & set(sys.modules)))")
    src = str(Path(paddlesim.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
