import dataclasses
import hashlib
import math
import os
import re
import resource
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import paddlesim
from conftest import SLOW_WATER
from helpers import (cap_scenarios, make_log, refused, stored_bytes, telemetry_log,
                     tick_times, traced_peak)
from paddlesim import cli
from paddlesim.cli import (_CSV_CHUNK_ROWS, CSV_HEADER, MAX_NAME_BYTES, MAX_POINTS,
                           MAX_TOTAL_TICKS, load_preset, main, parse_scenario,
                           preset_names, report_metrics, render_report_dat,
                           render_report_text, write_telemetry_csv)
from paddlesim.control import ControlMode, wrap_to_pi
from paddlesim.csvtext import csv_rows
from paddlesim.metrics import NotSettled, _rows_within
from paddlesim.mission import (HELD_COLUMNS, MAX_TICKS, STORED_COLUMNS,
                               TELEMETRY_COLUMNS, ConfigError, MissionKind, MissionSpec,
                               TelemetryLog, log_bytes, run_mission)
from paddlesim.dynamics import BoatParams
from paddlesim.control import ControllerConfig

MINIMAL = """
# smallest valid scenario
mission.kind = converge
mission.duration = 1.0
"""


def test_parse_minimal_config():
    cfg = parse_scenario(MINIMAL)
    (stem, _, _, mission), = cfg.points
    assert stem == "run"
    assert mission.kind is MissionKind.CONVERGE
    assert mission.duration == 1.0
    assert cfg.repeats == 1


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
    (stem, boat, control, mission), = cfg.points
    assert boat.I_t == 2.0e-3 and boat.C_v == 1.4
    assert control.K == 10.0
    assert control.mode is ControlMode.DESATURATED_THRUST_DIRECTION
    assert mission.waypoints == ((0.5, 0.0), (0.5, 0.5))
    assert mission.start == (0.1, -0.1)
    assert (cfg.out_dir, stem, cfg.repeats) == ("out", "sq", 3)


# every config the parser must reject, with a fragment of its message; a row
# that names neither mission.kind nor mission.duration runs as a 1 s converge
REJECTED_CONFIGS = [
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
    ("mission.start = 1 2;", "bad value"),  # a fixed tuple is one item, no ';'
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
    # each value is in range, but the commanded heading leaves it after the
    # second step
    ("mission.kind = step\nmission.duration = 2\nmission.heading = 1e6\n"
     "mission.step_schedule = 0.5 -1e6; 1 1e6; 1.5 1e6", "at most 1e+06 rad"),
    ("mission.kind = station_keep\nmission.duration = 1\n"
     "mission.waypoints = 1e-300 1e-300; 1e-300 1e308",
     "waypoints coordinates must be at most 1e+06 m"),
    ("mission.start = -2e6 0", "start coordinates must be at most 1e+06 m"),
    ("boat.body_radius = 0.075", "unknown key"),
    ("output.basename = a\0b", "NUL byte"),
    ("output.dir = a\0b", "NUL byte"),
    ("batch.repeats = 100000000000000000000", "more than 10000"),
    ("mission.duration = 1.0", "mission.kind and mission.duration are required"),
    ("mission.kind = converge", "mission.kind and mission.duration are required"),
    ("boat.mass = -1", "mass must be positive"),
    ("mission.kind = waypoints\nmission.duration = 1", "needs at least one waypoint"),
    ("mission.kind = step\nmission.duration = 6\nmission.step_schedule = -1.0 0.5",
     "non-negative"),
    ("mission.kind = waypoints\nmission.duration = 6\n"
     "mission.waypoints = 0.3 0; 0.3 0; 0.3 0.3", "must not coincide"),
]


def _rejected_config_text(line):
    if "mission.kind" in line or "mission.duration" in line:
        return line
    return f"mission.kind = converge\nmission.duration = 1\n{line}"


@pytest.mark.parametrize("line,fragment", REJECTED_CONFIGS)
def test_parse_rejects_bad_lines(line, fragment):
    with pytest.raises(ConfigError) as err:
        parse_scenario(_rejected_config_text(line))
    assert fragment in str(err.value)


@pytest.mark.parametrize("line,fragment", [
    pytest.param(line, fragment, id=line) for line, fragment in REJECTED_CONFIGS])
def test_bad_config_exits_2_and_writes_nothing(tmp_path, capsys, line, fragment):
    # the CLI rejects it as the parser does, before any file or directory is made
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(_rejected_config_text(line) + "\n")
    out = tmp_path / "out"
    assert main(["validate", str(cfg_path)]) == 2
    assert main(["run", str(cfg_path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.count(fragment) == 2
    assert sorted(tmp_path.iterdir()) == [cfg_path]  # nothing escaped it either


def test_parse_builds_every_sweep_point():
    cfg = parse_scenario(MINIMAL + "mission.waypoints = 1 0; 1 1\n"
                         "mission.disturbances = 0.5 0 0.1\n"
                         f"sweep.control.omega = {math.tau!r}, {2 * math.tau!r}\n")
    stems = [stem for stem, *_ in cfg.points]
    assert stems == ["run_omega=6.28319", "run_omega=12.5664"]
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
    assert [(stem, mission.duration) for stem, _, _, mission in cfg.points] == [
        ("run_duration=10", 10.0), ("run_duration=20", 20.0)]


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
    # finite throughout, but the hull angle runs past where wrap_to_pi is
    # exact, and the wrapped heading error read 3.7e283
    "boat.C_f = 0\nboat.mass = 1e300\ncontrol.K = 1e300",
    # with no thrust and no rotational drag the hull angle runs away while its
    # rate stays finite; the torque law's sin must never see it
    "control.mode = thrust_direction\ncontrol.omega = 0.01\ncontrol.K = 1e304\n"
    "boat.k_thrust = 0\nboat.C_f = 0",
    # the one row has no next state to show it, but an error of 2.5 pi and
    # an unwind drive overflow its torque
    "control.mode = limit_cycle\ncontrol.K = 1e308\ncontrol.beta = 1e308\n"
    "mission.kind = converge\nmission.duration = 0\n"
    "mission.initial_theta = -7.853981633974483",
])
def test_diverging_run_exits_2_without_its_csv(tmp_path, capsys, lines):
    # the values are finite and parse, but the plant overflows or runs away
    # within a few ticks
    cfg_path = tmp_path / "wild.cfg"
    cfg_path.write_text((lines if "mission.kind" in lines else MINIMAL + lines) + "\n")
    out = tmp_path / "out"
    assert main(["validate", str(cfg_path)]) == 0
    assert main(["run", str(cfg_path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "diverged at t = " in err and "Traceback" not in err
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
                            (mission, "duration"), (cfg, "out_dir")):
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


@pytest.mark.parametrize("cap, side", sorted(cap_scenarios()))
def test_scenario_caps_are_inclusive(cap, side):
    # checked through the parser only, so no run starts
    text = cap_scenarios()[cap, side]
    if side == "over":
        with pytest.raises(ConfigError, match="more than"):
            parse_scenario(text)
        return
    cfg = parse_scenario(text)
    # the point and tick caps count every repeat
    kind = cap.partition("-")[0]
    limit = {"points": MAX_POINTS, "ticks": MAX_TOTAL_TICKS, "name": MAX_NAME_BYTES}[kind]
    size = {"points": len(cfg.points) * cfg.repeats,
            "ticks": sum(round(m.duration * 250) for *_, m in cfg.points) * cfg.repeats,
            "name": max(len(f"{stem}_metrics.txt".encode()) for stem, *_ in cfg.points)}[kind]
    assert size == (limit if side == "at" else limit - 1)


def test_long_output_name_exits_2_before_any_point_runs(tmp_path, capsys):
    # the second point's report would be named in 261 bytes; the first
    # point's files fit, but no point may write until all of them do
    cfg_path = tmp_path / "long.cfg"
    cfg_path.write_text(MINIMAL + "output.basename = " + "b" * 235 + "\n"
                        "sweep.control.K = 1, 1.23457e-05\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out-dir", str(out)]) == 2
    assert "has 261 bytes" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [cfg_path]


def test_run_indices_count_toward_the_name_limit():
    # at the most repeats the run cap allows, the last CSV's name,
    # <stem>_r9999.csv, is still shorter than the reports', which meet the
    # name limit first
    head = MINIMAL + f"batch.repeats = {MAX_POINTS}\noutput.basename = "
    parse_scenario(head + "b" * 243 + "\n")  # run_metrics.txt: 255 bytes
    with pytest.raises(ConfigError, match=r"_metrics\.txt' has 256 bytes"):
        parse_scenario(head + "b" * 244 + "\n")
    with pytest.raises(ConfigError, match="more than 10000"):
        parse_scenario(MINIMAL + f"batch.repeats = {MAX_POINTS + 1}\n")


def test_csv_empty_and_single_record(tmp_path):
    empty = make_log(0)
    path = tmp_path / "empty.csv"
    write_telemetry_csv(empty, path)
    assert path.read_text() == CSV_HEADER + "\n"

    one = make_log(1)
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
    log = make_log(1, x=[1.0 / 3.0])
    path = tmp_path / "digits.csv"
    write_telemetry_csv(log, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert text.splitlines()[1].split(",")[TELEMETRY_COLUMNS.index("x")] == "0.333333333"


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


@pytest.mark.parametrize("n_rows", sorted({1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1,
                                           2 * _CSV_CHUNK_ROWS + 1,
                                           1024, 1025, 2049}))
def test_csv_bytes_match_reference_formatter(tmp_path, n_rows):
    # row counts straddle the writer's chunk edges, both for the current chunk
    # size and as fixed counts that stay put when the chunk size changes
    rng = np.random.default_rng(n_rows)
    cols = []
    for k in range(len(TELEMETRY_COLUMNS) - 1):
        col = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-20, 20, n_rows)
        col[(np.arange(len(EDGE_VALUES)) * 7 + k) % n_rows] = EDGE_VALUES
        cols.append(col)
    idx = rng.integers(0, 50, n_rows)
    idx[-1] = np.iinfo(np.int64).max
    idx[0] = 10**15
    # every column through the formatter as given, the motor state included,
    # which a log derives from tau
    floats = np.stack(cols, axis=1)
    assert csv_rows(floats, idx) == "".join(
        ",".join(f"{v:.9g}" for v in row) + f",{k:d}\n"
        for row, k in zip(floats.tolist(), idx.tolist())).encode()
    # the log derives t on the tick grid; the edge values reach the writer
    # through the stored and held columns
    floats[:, 0] = tick_times(n_rows)
    log = telemetry_log(floats, idx)
    path = tmp_path / "edge.csv"
    write_telemetry_csv(log, path)
    assert path.read_bytes() == reference_csv(log).encode()


@pytest.mark.parametrize("n_rows", [_CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1,
                                    2 * _CSV_CHUNK_ROWS - 1, 2 * _CSV_CHUNK_ROWS,
                                    2 * _CSV_CHUNK_ROWS + 1])
def test_csv_of_a_desaturated_run_at_chunk_edges(tmp_path, n_rows):
    # the writer carries the motor state from chunk to chunk; the reference
    # reads the columns integrated over the whole log
    spec = MissionSpec(kind=MissionKind.STEP_TEST, duration=(n_rows - 1) / 250.0,
                       initial_theta=-1.0, step_schedule=((1.0, 2.5),))
    log = run_mission(BoatParams(), ControllerConfig(
        mode=ControlMode.DESATURATED_THRUST_DIRECTION), spec)
    assert len(log) == n_rows and np.ptp(log.phi_dot) > 1.0
    path = tmp_path / "desaturated.csv"
    write_telemetry_csv(log, path)
    assert path.read_bytes() == reference_csv(log).encode()


def test_csv_is_written_from_the_log_row_block(tmp_path):
    # the writer's row sources are log.rows and log.held, with the index
    # from log.waypoint_steps, and no column can be rebound away from them,
    # so neither the CSV nor the cached psi_unwrapped can go stale against
    # the columns a metric reads
    spec = MissionSpec(kind=MissionKind.CONVERGE, duration=5.0, initial_theta=-0.5)
    log = run_mission(BoatParams(), ControllerConfig(), spec)
    assert len(log) > 2 * _CSV_CHUNK_ROWS
    path = tmp_path / "block.csv"
    expected = reference_csv(log).encode()
    for written in (log, dataclasses.replace(log)):
        write_telemetry_csv(written, path)
        assert path.read_bytes() == expected
    for name in ("x", "psi_hat", "theta_t_dot", "waypoint_index"):
        with pytest.raises(AttributeError):
            setattr(log, name, log.column(name) + 1)
    assert all(log.column(name).base is log.rows for name in STORED_COLUMNS)
    # the computed columns refuse a write, which would be lost
    for name in ("phi", "phi_dot", "theta_t_dot", "waypoint_index", *HELD_COLUMNS):
        with pytest.raises(ValueError, match="read-only"):
            log.column(name)[0] = 1


def test_csv_index_fallback_in_one_chunk_only(tmp_path):
    # only the first chunk holds indices past the 0..9999 lookup table
    n_rows = 2 * _CSV_CHUNK_ROWS
    idx = np.arange(n_rows) % 10_000
    idx[[0, _CSV_CHUNK_ROWS - 1]] = (-1, 10_000)
    log = make_log(n_rows, index=idx)
    path = tmp_path / "index.csv"
    write_telemetry_csv(log, path)
    assert path.read_bytes() == reference_csv(log).encode()
    lines = path.read_text().splitlines()
    assert (lines[1].endswith(",-1") and lines[_CSV_CHUNK_ROWS].endswith(",10000")
            and lines[-1].endswith(f",{n_rows - 1}"))


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


def test_validate_reports_the_largest_log_and_the_csv_rows(tmp_path, capsys):
    # the 2 s point's log: 501 rows, 241 outer ticks and one waypoint step,
    # 501 * 48 + 241 * 24 + 16 bytes; 251 + 501 CSV rows, as the run writes them
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("mission.kind = converge\nmission.duration = 1.0\n"
                        "sweep.mission.duration = 2, 1\n")
    assert main(["validate", str(cfg_path)]) == 0
    assert capsys.readouterr().out == (
        f"{cfg_path}: ok: the largest point's log needs up to 29,848 bytes (48 a tick, "
        f"24 an outer tick, 16 a waypoint); 752 CSV rows in all\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out-dir", str(out)]) == 0
    assert sum(len(csv.read_text().splitlines()) - 1 for csv in out.glob("*.csv")) == 752
    assert max(len(run_mission(BoatParams(), ControllerConfig(), mission).held)
               for *_, mission in parse_scenario(cfg_path.read_text()).points) == 241


def test_validate_rejects_bad_config(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("mission.kind = converge\nmission.duration = 1.0\n"
                        "boat.warp = 9\n")
    assert main(["validate", str(cfg_path)]) == 2


def test_validate_names_a_missing_config_file(tmp_path, capsys):
    # neither a file nor a preset: the message names both, not a preset alone
    missing = tmp_path / "missing.cfg"
    assert main(["validate", str(missing)]) == 2
    assert main(["validate", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    for target in (missing, tmp_path):
        assert f"no config file or preset named {str(target)!r}" in err
    assert "unknown preset" not in err


def test_shared_parser_still_runs_after_a_bad_flag_and_help(tmp_path, capsys):
    # main builds its parser once per process; an error exit and --help
    # leave it able to parse the next command
    assert main(["--bogus"]) == 2
    assert main(["presets", "run", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out
    cfg_path = tmp_path / "ok.cfg"
    cfg_path.write_text(MINIMAL)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["run.csv", "run_metrics.dat",
                                                     "run_metrics.txt"]


def test_interrupt_exits_130_without_a_traceback(tmp_path, monkeypatch, capsys):
    def interrupted(*args):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "run_mission", interrupted)
    cfg_path = tmp_path / "ok.cfg"
    cfg_path.write_text(MINIMAL)
    assert main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 130
    assert capsys.readouterr().err == "interrupted\n"  # one line, no traceback


def test_presets_ship_and_validate():
    names = preset_names()
    assert "converge" in names and "station-keep" in names
    assert main(["presets", "list"]) == 0
    # dry-run validation of a preset by name: exit 0, no files written
    assert main(["validate", "defaults"]) == 0
    assert main(["validate", "not-a-preset"]) == 2
    # each preset names its own output files
    for name in names:
        assert [stem for stem, *_ in parse_scenario(load_preset(name)).points] == [name]


def test_every_preset_goes_through_the_names_the_benchmark_counts(tmp_path, monkeypatch):
    # the benchmark counts CSV writes, rows and NotSettled by wrapping these
    # names on cli; a CLI that went round one of them would count nothing
    calls = {"writes": 0, "rows": 0, "reports": 0, "not_settled": 0}
    write, report, measure = cli.write_telemetry_csv, cli.report_metrics, cli.measure_turn

    def counted_write(log, path):
        calls["writes"] += 1
        calls["rows"] += len(log)
        return write(log, path)

    def counted_report(*args, **kwargs):
        calls["reports"] += 1
        return report(*args, **kwargs)

    def counted_measure(*args, **kwargs):
        try:
            return measure(*args, **kwargs)
        except NotSettled:
            calls["not_settled"] += 1
            raise
    monkeypatch.setattr(cli, "write_telemetry_csv", counted_write)
    monkeypatch.setattr(cli, "report_metrics", counted_report)
    monkeypatch.setattr(cli, "measure_turn", counted_measure)
    for name in preset_names():
        assert main(["presets", "run", name, "--out-dir", str(tmp_path)]) == 0, name
    assert calls == {"writes": 7, "rows": 82_507, "reports": 7, "not_settled": 2}


def test_presets_run_unknown_name():
    assert main(["presets", "run", "no-such-preset"]) == 2


def test_preset_name_that_is_a_path_exits_2_and_writes_nothing(tmp_path):
    # a valid config outside the package, named relative to the presets
    # directory; it must not run as a preset or validate as one
    (tmp_path / "evil.cfg").write_text(
        "mission.kind = converge\nmission.duration = 0.1\noutput.basename = evil\n")
    presets_dir = Path(paddlesim.__file__).parent / "presets"
    name = os.path.relpath(tmp_path / "evil", presets_dir)
    out = tmp_path / "out"
    assert main(["presets", "run", name, "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert main(["validate", name]) == 2
    with pytest.raises(ConfigError, match="unknown preset"):
        load_preset(name)


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


@pytest.mark.parametrize("step_time, reported", [("2", False), ("1.996", False),
                                                  ("1", True)])
def test_step_less_than_a_period_from_the_end_reports_no_direction_error(
        tmp_path, step_time, reported):
    # the travel estimate averages over one period, so rows less than a
    # period after the step cannot show its settled direction
    cfg_path = tmp_path / "late.cfg"
    cfg_path.write_text("mission.kind = step\nmission.duration = 2\n"
                        f"mission.step_schedule = {step_time} 1.0\n")
    out = tmp_path / "o"
    assert main(["run", str(cfg_path), "--out-dir", str(out)]) == 0
    dat = (out / "run_metrics.dat").read_text()
    assert "steady_speed_mps.median" in dat
    assert ("direction_error_rad.median" in dat) == reported


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


def test_report_metrics_unwraps_once_per_log(monkeypatch):
    # rise_time and settled_step_changes share the log's unwrapped travel
    # direction, computed on first use; a converge report never needs it
    spec = MissionSpec(kind=MissionKind.STEP_TEST, duration=24.0,
                       step_schedule=((4.0, 0.5), (10.0, -0.8), (17.0, 0.3)))
    log = run_mission(BoatParams(), ControllerConfig(), spec)
    converge = MissionSpec(kind=MissionKind.CONVERGE, duration=2.0)
    plain = run_mission(BoatParams(), ControllerConfig(), converge)
    unwrap, calls = np.unwrap, []
    monkeypatch.setattr(np, "unwrap", lambda *a, **k: calls.append(1) or unwrap(*a, **k))
    report = report_metrics([log], spec)
    assert len(calls) == 1
    assert report["rise_time_s"]["n"] == report["direction_error_rad"]["n"] == 3
    assert report_metrics([log], spec) == report and len(calls) == 1
    report_metrics([plain], converge)
    assert len(calls) == 1


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


def test_one_waypoint_mission_reports_no_completion_time(tmp_path, capsys):
    # its one waypoint is the target from the first row, so no row marks an
    # arrival at the one before it; the boat never reaches it in 5 s
    cfg_path = tmp_path / "one.cfg"
    cfg_path.write_text("control.mode = desaturated\nmission.kind = waypoints\n"
                        "mission.duration = 5\nmission.waypoints = 3 0\n")
    out = tmp_path / "o"
    assert main(["run", str(cfg_path), "--out-dir", str(out)]) == 1
    assert "no metrics produced for run" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# sha256 of the run.csv and run_metrics.dat of a 40 s desaturated mission that
# starts on its first waypoint, recorded when the log stored a per-row index
START_ON_WAYPOINT_SHA256 = {
    "0 0; 1 0": ("271fc8e25860bafca32fb55e7ea1cda4ad51afe5919b251d00e445bc937ca666",
                 "e77f6ee8c994bd51e0de5a5c0eeedf80db86c30fc67e57b74e805d436575a130"),
    "0 0; 1 0.5; 0 1": (
        "d3d41be755f6709c9953c686fb70e725baa7b36d598c7279d6bc581a669b7009",
        "18546240b2990313dc0792200c754a15156bc43f950c5065da20bdf511932562"),
}


@pytest.mark.parametrize("waypoints", sorted(START_ON_WAYPOINT_SHA256))
def test_mission_starting_on_its_first_waypoint(tmp_path, waypoints):
    # the first outer tick, on row 0, arrives at waypoints[0] and makes the
    # next one the target, so row 0 already holds index 1
    cfg_path = tmp_path / "start.cfg"
    cfg_path.write_text("control.mode = desaturated\nmission.kind = waypoints\n"
                        f"mission.duration = 40\nmission.waypoints = {waypoints}\n"
                        "mission.tolerance_radius = 0.1\n")
    out = tmp_path / "o"
    assert main(["run", str(cfg_path), "--out-dir", str(out)]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("run.csv", "run_metrics.dat"))
    assert digests == START_ON_WAYPOINT_SHA256[waypoints]


# sha256 of the _metrics.dat report of criterion 13's pi/2 step in each mode:
# no preset's step settles, so these pin the bytes of the rise-time and
# travel path (limit_cycle rises in 16.5 s over 9.52 BL, thrust_direction in
# 8.16 s over 3.54 BL)
SETTLED_STEP_SHA256 = {
    "limit_cycle": "8cf63a6f5cedf5e03ac38b588cb94f55edf2e7046cc319a86fecc613c882af0b",
    "thrust_direction": "0c85ee51951838724557c51925117c942b7187477a3ab62fcba9a41c9b61e87a",
}


@pytest.mark.parametrize("mode", sorted(SETTLED_STEP_SHA256))
def test_settled_step_report_bytes(mode):
    spec = MissionSpec(kind=MissionKind.STEP_TEST, duration=60.0, heading=0.0,
                       step_schedule=((15.0, math.pi / 2),))
    log = run_mission(BoatParams(**SLOW_WATER), ControllerConfig(mode=ControlMode(mode)),
                      spec)
    dat = render_report_dat(report_metrics([log], spec, strict_settle=True))
    assert "rise_time_s.median" in dat and "travel_bl.median" in dat
    assert hashlib.sha256(dat.encode()).hexdigest() == SETTLED_STEP_SHA256[mode], dat


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


def test_every_export_is_documented():
    # the package exports only what the README names as code, so a new
    # export fails here until it is documented
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    exported = {name for name, value in vars(paddlesim).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert "run_mission" in exported and "TelemetryLog" in exported
    assert sorted(name for name in exported if f"`{name}`" not in readme) == []


def test_every_log_attribute_is_documented():
    # each public field, method and property of a log is named in a code
    # span or block of the README, so a second way to read its rows cannot
    # creep in undocumented
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    parts = re.split(r"^```.*$", readme, flags=re.M)  # prose, then a code block, ...
    code = [*parts[1::2], *(span for prose in parts[0::2]
                            for span in re.findall(r"`([^`]+)`", prose))]
    named = {word for text in code for word in re.findall(r"\w+", text)}
    public = {field.name for field in dataclasses.fields(TelemetryLog)} | {
        name for name in dir(TelemetryLog) if not name.startswith("_")}
    assert "column" in public and "float_chunks" in public
    assert sorted(public - named) == []


def test_csv_tables_are_built_on_the_first_write(tmp_path):
    # importing the CLI does not build the formatter's tables, so a library
    # run that only reports metrics never pays for them
    cfg_path = tmp_path / "ok.cfg"
    cfg_path.write_text(MINIMAL)
    code = ("import sys, paddlesim.cli as cli; "
            "print('paddlesim.csvtext' in sys.modules); "
            f"cli.main(['run', {str(cfg_path)!r}, '--out-dir', {str(tmp_path)!r}]); "
            "print('paddlesim.csvtext' in sys.modules)")
    src = str(Path(paddlesim.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.split()[0] == "False" and out.split()[-1] == "True"


def test_reports_never_import_numpy_ma(tmp_path):
    # np.percentile imports numpy.ma through np.unique; the quartiles of a
    # report do without it
    cfg_path = tmp_path / "ok.cfg"
    cfg_path.write_text(MINIMAL)
    code = ("import sys, paddlesim.cli as cli; "
            f"cli.main(['run', {str(cfg_path)!r}, '--out-dir', {str(tmp_path)!r}]); "
            "print('numpy.ma' in sys.modules)")
    src = str(Path(paddlesim.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert (tmp_path / "run_metrics.dat").exists() and out.split()[-1] == "False"


def test_csv_writer_peak_memory_is_a_few_chunks(tmp_path):
    # the formatter frees each chunk-sized temporary once it is dead; numpy
    # reports its buffers to tracemalloc, so the peak is exact
    rng = np.random.default_rng(3)
    n_rows = 5 * _CSV_CHUNK_ROWS + 7
    log = make_log(n_rows, x=rng.standard_normal(n_rows),
                   y=rng.standard_normal(n_rows) * 1e-3, index=np.arange(n_rows) % 7)
    path = tmp_path / "peak.csv"
    write_telemetry_csv(log, path)  # the formatter's tables, built once
    _, peak = traced_peak(lambda: write_telemetry_csv(log, path))
    assert peak < 12 * _CSV_CHUNK_ROWS * 14 * 8  # about 7.9 chunks of floats


def test_converge_report_reads_the_last_reference_from_its_run():
    # the heading error reads the last row's theta_r from the last run of
    # held; repeating the whole column to read one value peaked at 2.2
    # columns of floats.  The tail speeds are freed before the tail's hull
    # angles are derived, a chunk at a time from row 0, so the peak is one
    # tail array and a chunk's temporaries, about 0.27 columns
    spec = MissionSpec(kind=MissionKind.CONVERGE, duration=600.0)
    log = run_mission(BoatParams(), ControllerConfig(), spec)
    report, peak = traced_peak(lambda: report_metrics([log], spec))
    tail = log.t >= 0.75 * log.t[-1]
    err = wrap_to_pi(float(np.mean(log.theta[tail])) - float(log.theta_r[-1]))
    assert report["heading_error_rad"]["median"] == abs(err)
    assert peak <= 0.3 * 8 * len(log)


def test_converge_report_runs_no_motor_integration(monkeypatch):
    # its tail's hull angles need theta_dot and tau alone
    from paddlesim import mission
    spec = MissionSpec(kind=MissionKind.CONVERGE, duration=10.0)
    log = run_mission(BoatParams(), ControllerConfig(
        mode=ControlMode.DESATURATED_THRUST_DIRECTION), spec)
    report = report_metrics([log], spec)
    for name in ("motor_rates", "motor_angles"):
        monkeypatch.setattr(mission, name, refused(name))
    assert report_metrics([dataclasses.replace(log)], spec) == report
    assert log.theta.tobytes() == log.column("theta", 0, len(log)).tobytes()


def test_waypoint_report_builds_no_time_column():
    # the report reads row times and searches them through the log's lookup,
    # which keeps the time of every 512th row; reading log.t whole cost a
    # column.  A 600 s circuit of 48 one-metre legs, each measured.
    spec = MissionSpec(kind=MissionKind.WAYPOINTS, duration=600.0,
                       waypoints=((1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)) * 12)
    log = run_mission(BoatParams(), ControllerConfig(
        mode=ControlMode.DESATURATED_THRUST_DIRECTION), spec)
    report, peak = traced_peak(lambda: report_metrics([log], spec))
    assert report["rms_perp_m"]["n"] >= 20
    assert peak < 0.25 * 8 * len(log)


def test_waypoint_legs_are_the_rows_within_their_times():
    # the report measures each leg on its step's rows first..end - 1, which
    # it holds; searching the times of those rows found the same rows.  Every
    # waypoint preset and a 600 s circuit of 48 legs.
    runs = [point[1:] for name in preset_names()
            for point in parse_scenario(load_preset(name)).points
            if point[3].kind is MissionKind.WAYPOINTS]
    runs.append((BoatParams(), ControllerConfig(mode=ControlMode.DESATURATED_THRUST_DIRECTION),
                 MissionSpec(kind=MissionKind.WAYPOINTS, duration=600.0, waypoints=(
                     (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)) * 12)))
    legs = 0
    for boat, control, mission in runs:
        log = run_mission(boat, control, mission)
        steps = log.waypoint_steps[:, 0].tolist()
        for first, end in zip(steps, steps[1:]):
            rows = _rows_within(log, log.time_at(first), log.time_at(end - 1))
            assert (rows.start, rows.stop) == (first, end)
            legs += 1
    assert len(runs) >= 2 and legs >= 20


def test_a_run_that_does_not_fit_in_memory_exits_2(tmp_path):
    # under a 500 MB address-space cap, set in the child alone, numpy still
    # imports (about 0.1 GB) but a 40,000 s log (about 0.6 GB) cannot be
    # allocated
    cfg_path = tmp_path / "huge.cfg"
    cfg_path.write_text("mission.kind = converge\nmission.duration = 40000\n")
    cap = 500 * 10**6

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(paddlesim.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "paddlesim.cli", "run", str(cfg_path), "--out-dir",
         str(tmp_path / "out")], env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=limit, capture_output=True, text=True, timeout=120)
    needed = log_bytes(parse_scenario(cfg_path.read_text()).points[0][3])
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr == (f"config error: run: out of memory: the run's log needs up to "
                           f"{needed:,} bytes (48 a tick, 24 an outer tick, 16 a waypoint)\n")
    assert needed > cap


@pytest.mark.parametrize("stage", ["report", "csv"])
def test_a_point_out_of_memory_after_its_run_leaves_no_files(tmp_path, monkeypatch,
                                                             capsys, stage):
    # the log was allocated, so the message does not blame its size; a CSV
    # cut short after its first chunk is removed, the first point's files kept
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("mission.kind = converge\nmission.duration = 10.0\n"
                        "sweep.control.K = 10, 15\n")
    from paddlesim import csvtext
    points = []

    def short_of_memory(real):
        def run(*args):
            points.append(stage)
            if len(points) > (1 if stage == "report" else 3):
                raise MemoryError
            return real(*args)
        return run

    if stage == "report":
        monkeypatch.setattr(cli, "report_metrics", short_of_memory(cli.report_metrics))
    else:  # raises in the second point's second chunk
        monkeypatch.setattr(csvtext, "csv_rows", short_of_memory(csvtext.csv_rows))
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 2000)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: run_K=15: out of memory reporting "
                                       "or writing the run, beside its log\n")
    assert len(points) == (2 if stage == "report" else 4)
    assert sorted(p.name for p in out.iterdir()) == [
        "run_K=10.csv", "run_K=10_metrics.dat", "run_K=10_metrics.txt"]


def test_sweep_holds_one_point_log_at_a_time(tmp_path):
    # each point's log is freed before the next point simulates, so the
    # peak is one log plus the report and CSV-chunk temporaries, about
    # 0.46 MB that do not shrink with the log; with the first log still
    # alive it was about 2.3 logs
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("control.mode = desaturated\nmission.kind = converge\n"
                        "mission.duration = 60.0\nsweep.control.K = 10, 15\n")
    warm_path = tmp_path / "warm.cfg"
    warm_path.write_text(MINIMAL)
    # the parser and the formatter's tables, built once
    assert main(["run", str(warm_path), "--out-dir", str(tmp_path / "warm")]) == 0
    code, peak = traced_peak(
        lambda: main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out")]))
    assert code == 0 and len(list((tmp_path / "out").glob("*.csv"))) == 2
    one_log = stored_bytes(run_mission(BoatParams(), ControllerConfig(
        mode=ControlMode.DESATURATED_THRUST_DIRECTION, K=10.0),
        MissionSpec(kind=MissionKind.CONVERGE, duration=60.0)))
    assert peak < one_log + 470_000


@pytest.mark.parametrize("argv", [
    ["run", "ok.cfg", "--out-dir", "x\0y"],
    ["run", "a\0b"],
    ["presets", "run", "defaults", "--out-dir", "x\0y"],
], ids=["run-out-dir", "run-config", "presets-out-dir"])
def test_nul_byte_in_argv_path_exits_2_and_writes_nothing(tmp_path, monkeypatch,
                                                          capsys, argv):
    # a shell cannot pass a NUL in argv, but a library caller of main can
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "ok.cfg"
    cfg_path.write_text("mission.kind = converge\nmission.duration = 0.1\n")
    assert main(argv) == 2
    assert "NUL byte" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [cfg_path]
