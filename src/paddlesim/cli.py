"""Scenario-runner command line tool.

Loads flat ``section.key = value`` scenario configs (strict schema, unknown
keys rejected), runs the missions they describe, and writes one telemetry
CSV per run plus a metrics report in aligned text and ``key = value`` form.
Ships presets mirroring the bench scenarios; see ``paddlesim presets list``.
"""

import argparse
import dataclasses
import functools
import itertools
import math
import os
import shutil
import sys
from enum import EnumMeta
from importlib import resources
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from .control import ControllerConfig, wrap_to_pi
from .dynamics import INNER_RATE, BoatParams
from .metrics import (NotSettled, _segment_error, measure_turn, orbit_radius, quartiles,
                      settled_step_changes)
from .mission import (TELEMETRY_COLUMNS, ConfigError, MissionKind, MissionSpec,
                      TelemetryLog, log_bytes, log_bytes_text, run_mission)

CSV_HEADER = ",".join(TELEMETRY_COLUMNS)
# rows formatted at a time: a larger chunk's temporaries make the allocator
# hand its heap top back and fault it in again on every chunk, about 190
# minor faults per 1,000 rows at 1,024 rows against 0-170 at 512 (none at
# 256, which was no faster)
_CSV_CHUNK_ROWS = 512
# Inclusive caps on a whole scenario, checked before any point runs: UTF-8
# bytes in an output file name (the usual file-system limit), runs (sweep
# points times repeats, one CSV file each; a point takes 45 us to build)
# and ticks of all runs (one CSV row each; 15 min at 8 us a tick, a cost
# that does not grow with the number of steps)
MAX_NAME_BYTES = 255
MAX_POINTS = 10_000
MAX_TOTAL_TICKS = 10**8


# --------------------------------------------------------------------- values

def _leaves(kind) -> int:
    """How many numbers a value of the annotation `kind` holds."""
    return sum(map(_leaves, get_args(kind))) if get_args(kind) else 1


def _nest(kind, numbers):
    """The next numbers of an iterator, nested as the annotation `kind` nests them."""
    args = get_args(kind)
    return tuple(_nest(arg, numbers) for arg in args) if args else next(numbers)


def _parse_tuple(kind, text: str) -> tuple:
    """A value of the tuple annotation `kind`: for tuple[X, ...], an X per
    ';'-separated item, empty ones skipped; else as many numbers as it holds,
    nested as it nests them."""
    if get_args(kind)[-1] is Ellipsis:
        return tuple(_parse_tuple(get_args(kind)[0], item)
                     for item in text.split(";") if item.strip())
    if len(text.split()) != _leaves(kind):
        raise ValueError(f"expected {_leaves(kind)} numbers per item, got {text.strip()!r}")
    return _nest(kind, map(float, text.split()))


def _parse_dir(text: str) -> str:
    """A path the OS accepts: no NUL byte."""
    if "\0" in text:
        raise ValueError(f"a path cannot hold a NUL byte, got {text!r}")
    return text


def _path_arg(text: str) -> str:
    """A path from the command line, held to _parse_dir's rule; argparse
    turns the error into exit code 2 before anything runs."""
    try:
        return _parse_dir(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_basename(text: str) -> str:
    """A plain file-name stem: output files must land in the output directory."""
    if text in ("", ".", "..") or "/" in text or os.sep in text:
        raise ValueError(f"expected a file name without a directory, got {text!r}")
    return _parse_dir(text)


def _keys(cls) -> dict:
    """Each field of a settings class mapped to its config value parser, read
    from its annotation; the class checks the values when a point is built."""
    return {f.name: f.type if isinstance(f.type, EnumMeta) else float
            if get_origin(f.type) is not tuple else functools.partial(_parse_tuple, f.type)
            for f in dataclasses.fields(cls)}


_SECTIONS = {
    "boat": _keys(BoatParams),
    "control": _keys(ControllerConfig),
    "mission": _keys(MissionSpec),
    "output": {"dir": _parse_dir, "basename": _parse_basename},
    "batch": {"repeats": int},
}


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """One parsed scenario: its run points plus output and batch settings."""

    points: tuple   # (stem, boat, control, mission) per run point
    out_dir: str
    repeats: int


def _file_names(stem: str, repeats: int) -> list[str]:
    """Every file a point writes: its CSV, one per run when `repeats` > 1,
    then its two reports."""
    csvs = [f"{stem}_r{k}.csv" for k in range(repeats)] if repeats > 1 else [f"{stem}.csv"]
    return [*csvs, f"{stem}_metrics.txt", f"{stem}_metrics.dat"]


def parse_scenario(text: str, name: str = "<config>") -> ScenarioConfig:
    """Parse the flat key = value format; reject unknown or malformed keys."""
    raw: dict[str, dict] = {section: {} for section in _SECTIONS}
    seen = set()
    axes = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{name}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        swept = key.startswith("sweep.")
        section, _, field = key.removeprefix("sweep.").partition(".")
        schema = _SECTIONS.get(section, {})
        if field not in schema:
            if swept:
                raise ConfigError(f"{name}:{lineno}: unknown sweep target {key!r}; "
                                  f"sweep keys look like sweep.<section>.<field>")
            raise ConfigError(f"{name}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{name}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        if swept and schema[field] is not float:
            raise ConfigError(f"{name}:{lineno}: only scalar fields can be swept")
        try:
            if not swept:
                raw[section][field] = schema[field](value)
                continue
            # each value carries its label part, which names the output files
            axis = [(section, field, v, f"{field}={v:g}")
                    for v in map(float, value.split(","))]
        except ValueError as exc:
            raise ConfigError(f"{name}:{lineno}: bad value for {key!r}: {exc}") from exc
        if len({part for *_, part in axis}) < len(axis):
            raise ConfigError(f"{name}:{lineno}: the values of {key!r} must differ "
                              f"in 6 significant digits, which name their output files")
        axes.append(axis)

    basename = raw["output"].get("basename", "run")

    def build(combo):
        """One point, its file stem first: the parsed keys with the combo's values on top."""
        keys = {section: dict(raw[section]) for section in ("boat", "control", "mission")}
        for section, field, value, _ in combo:
            keys[section][field] = value
        label = "_".join(part for *_, part in combo)
        stem = f"{basename}_{label}" if label else basename
        try:
            return (stem, BoatParams(**keys["boat"]),
                    ControllerConfig(**keys["control"]), MissionSpec(**keys["mission"]))
        except TypeError as exc:
            raise ConfigError(f"{name}: mission.kind and mission.duration are "
                              f"required ({exc})") from exc
        except ValueError as exc:
            where = f" sweep point {label}:" if label else ""
            raise ConfigError(f"{name}:{where} {exc}") from exc

    repeats = raw["batch"].get("repeats", 1)
    if repeats < 1:
        raise ConfigError(f"{name}: batch.repeats must be at least 1")
    n_points = math.prod(map(len, axes))
    if n_points * repeats > MAX_POINTS:
        raise ConfigError(f"{name}: {n_points} sweep point(s) x {repeats} repeat(s) "
                          f"= {n_points * repeats} runs, more than {MAX_POINTS}")
    # with no sweep axes the product is one empty combo: the unswept run
    points = tuple(build(combo) for combo in itertools.product(*axes))
    ticks = sum(round(mission.duration * INNER_RATE) for *_, mission in points)
    if ticks * repeats > MAX_TOTAL_TICKS:
        raise ConfigError(f"{name}: {ticks} ticks x {repeats} repeat(s) = "
                          f"{ticks * repeats} ticks in all, more than {MAX_TOTAL_TICKS}")
    size, longest = max((len(file.encode()), file) for stem, *_ in points
                        for file in _file_names(stem, repeats))
    if size > MAX_NAME_BYTES:
        raise ConfigError(f"{name}: output file name {longest!r} has {size} bytes, "
                          f"more than {MAX_NAME_BYTES}")
    return ScenarioConfig(points=points, out_dir=raw["output"].get("dir", "runs"),
                          repeats=repeats)


# ------------------------------------------------------------------ telemetry

def write_telemetry_csv(log: TelemetryLog, path) -> None:
    """Write the fixed-header CSV: each float as '%.9g', the index as '%d'."""
    # imported here, so a run that writes no CSV never builds its tables
    from .csvtext import csv_rows
    # one chunk of the float columns, refilled for every chunk
    chunk = np.empty((_CSV_CHUNK_ROWS, len(TELEMETRY_COLUMNS) - 1))
    with open(path, "wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        for floats, index in log.float_chunks(chunk):
            fh.write(csv_rows(floats, index))


# -------------------------------------------------------------------- metrics

def _collect_metrics(log: TelemetryLog, spec: MissionSpec,
                     strict_settle: bool) -> dict[str, list[float]]:
    vals: dict[str, list[float]] = {}
    span = log.time_at(-1)  # row 0's time is 0.0
    first = log.search_time(0.75 * span, "left")

    if spec.kind in (MissionKind.CONVERGE, MissionKind.STEP_TEST):
        speed = np.hypot(log.vx[first:], log.vy[first:])
        vals["steady_speed_mps"] = [float(np.mean(speed))]
        del speed  # freed before the hull angles of the tail

    if spec.kind is MissionKind.CONVERGE:
        # only the tail's hull angles; theta_r of the last run, which holds
        # the last row
        theta = log.column("theta", first)
        err = wrap_to_pi(float(np.mean(theta)) - float(log.held[-1, 0]))
        vals["heading_error_rad"] = [abs(err)]

    if spec.kind is MissionKind.STEP_TEST:
        rises, travels, travels_bl = [], [], []
        for ts, delta in spec.step_schedule:
            if delta == 0.0:
                continue  # nothing turns, so there is no rise or travel
            try:
                ev = measure_turn(log, ts, delta)
            except NotSettled:
                if strict_settle:
                    raise
                continue
            rises.append(ev.rise_time)
            travels.append(ev.travel_distance)
            travels_bl.append(ev.travel_BL)
        if rises:
            vals["rise_time_s"] = rises
            vals["travel_m"] = travels
            vals["travel_bl"] = travels_bl
        changes = settled_step_changes(log, spec.step_schedule)
        errs = [observed - delta for observed, (_, delta)
                in zip(changes, spec.step_schedule) if not math.isnan(observed)]
        if errs:
            vals["direction_error_rad"] = errs

    if spec.kind is MissionKind.WAYPOINTS:
        steps = log.waypoint_steps.tolist()
        # waypoint k is the target from the row of its step to the next step
        rms, peak = [], []
        for (start, k), (end, _) in zip(steps, steps[1:]):
            p0 = spec.waypoints[k - 1] if k > 0 else (float(log.x[0]), float(log.y[0]))
            seg = _segment_error(log, (p0, spec.waypoints[k]), slice(start, end))
            rms.append(seg.rms_perp)
            peak.append(seg.max_perp)
        if rms:
            vals["rms_perp_m"] = rms
            vals["max_perp_m"] = peak
        # the last step's row made the last waypoint the target, on arrival
        # at the one before it; a one-waypoint mission has no such row
        last_row, last = steps[-1]
        if 0 < last == len(spec.waypoints) - 1:
            vals["completion_time_s"] = [log.time_at(last_row)]

    if spec.kind is MissionKind.STATION_KEEP:
        window = min(30.0, 0.5 * span) if span > 0 else 0.0
        if window > 0.0:
            vals["orbit_radius_m"] = [
                orbit_radius(log, spec.waypoints[-1], window)]

    return vals


def report_metrics(logs: list[TelemetryLog], spec: MissionSpec,
                   strict_settle: bool = False) -> dict[str, dict[str, float]]:
    """Median and interquartile range per metric across the given runs."""
    pooled: dict[str, list[float]] = {}
    for log in logs:
        for name, values in _collect_metrics(log, spec, strict_settle).items():
            pooled.setdefault(name, []).extend(values)
    report = {}
    for name in sorted(pooled):
        q1, med, q3 = quartiles(pooled[name])
        report[name] = {"median": med, "q1": q1, "q3": q3,
                        "n": float(len(pooled[name]))}
    return report


def render_report_text(report: dict) -> str:
    width = max([len(k) for k in report], default=6)
    lines = [f"{'metric'.ljust(width)}  {'median':>12}  {'q1':>12}  {'q3':>12}  {'n':>4}"]
    for name, stats in report.items():
        lines.append(f"{name.ljust(width)}  {stats['median']:>12.6g}  "
                     f"{stats['q1']:>12.6g}  {stats['q3']:>12.6g}  "
                     f"{int(stats['n']):>4d}")
    return "\n".join(lines) + "\n"


def render_report_dat(report: dict) -> str:
    lines = []
    for name, stats in report.items():
        for key in ("median", "q1", "q3", "n"):
            lines.append(f"{name}.{key} = {stats[key]:.9g}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------------- presets

def preset_names() -> list[str]:
    root = resources.files("paddlesim.presets")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def load_preset(name: str) -> str:
    # a name, never a path: "../x" must not reach a .cfg outside the package
    if name not in preset_names():
        raise ConfigError(f"unknown preset {name!r}; see 'presets list'")
    return (resources.files("paddlesim.presets") / f"{name}.cfg").read_text()


def _preset_summary(text: str) -> str:
    for line in text.splitlines():
        if line.startswith("#"):
            return line.lstrip("# ").strip()
    return ""


# ------------------------------------------------------------------- commands

def _execute(cfg: ScenarioConfig, out_dir: str | None, strict_settle: bool) -> int:
    n_runs = cfg.repeats
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stem, boat, control, mission in cfg.points:
        # runs are bit-deterministic: simulate and write once, copy per repeat
        try:
            log = run_mission(boat, control, mission)
        except ConfigError as exc:  # the run diverged
            raise ConfigError(f"{stem}: {exc}") from exc
        except MemoryError:
            raise ConfigError(f"{stem}: out of memory: the run's log needs up to "
                              f"{log_bytes_text(mission)}") from None
        # reported before anything is written, so a failed point leaves no files
        first, *copies, text_name, dat_name = _file_names(stem, n_runs)
        try:
            report = report_metrics([log] * n_runs, mission, strict_settle)
            if not report:
                print(f"error: no metrics produced for {stem}", file=sys.stderr)
                return 1
            write_telemetry_csv(log, out / first)
        except MemoryError:
            (out / first).unlink(missing_ok=True)  # a CSV cut short
            raise ConfigError(f"{stem}: out of memory reporting or writing the run, "
                              f"beside its log") from None
        del log  # freed before the next point allocates its own: one log at a time
        for copy in copies:
            shutil.copyfile(out / first, out / copy)
        (out / text_name).write_text(render_report_text(report))
        (out / dat_name).write_text(render_report_dat(report))
        print(f"{stem}: {n_runs} run(s), {len(report)} metric(s) -> {out}")
    return 0


def _read_config(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _cmd_run(args) -> int:
    text = _read_config(Path(args.config))
    cfg = parse_scenario(text, name=str(args.config))
    return _execute(cfg, args.out_dir, args.strict_settle)


def _cmd_validate(args) -> int:
    path = Path(args.config)
    if path.is_file():
        cfg = parse_scenario(_read_config(path), name=str(path))
    elif args.config in preset_names():  # also a preset, for dry-run validation
        cfg = parse_scenario(load_preset(args.config), name=f"preset:{args.config}")
    else:
        raise ConfigError(f"no config file or preset named {args.config!r}; "
                          f"see 'presets list'")
    missions = [mission for *_, mission in cfg.points]
    # a row a tick and the tick at 0, in each copy a repeat writes
    rows = cfg.repeats * sum(round(mission.duration * INNER_RATE) + 1 for mission in missions)
    print(f"{args.config}: ok: the largest point's log needs up to "
          f"{log_bytes_text(max(missions, key=log_bytes))}; {rows:,} CSV rows in all")
    return 0


def _cmd_presets(args) -> int:
    if args.action == "list":
        for name in preset_names():
            print(f"{name:24s} {_preset_summary(load_preset(name))}")
        return 0
    text = load_preset(args.name)
    cfg = parse_scenario(text, name=f"preset:{args.name}")
    return _execute(cfg, args.out_dir, args.strict_settle)


# built on the first main() call and shared by later ones: parsing reads the
# parser and never changes it
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paddlesim",
        description="Deterministic scenario runner for the paddling swimmer")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out-dir", default=None, type=_path_arg,
                       help="output directory (overrides output.dir)")
        p.add_argument("--strict-settle", action="store_true",
                       help="treat an unsettled rise-time as a fatal error")

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", type=_path_arg)
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="parse and validate a config")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_pre = sub.add_parser("presets", help="list or run shipped presets")
    pre_sub = p_pre.add_subparsers(dest="action", required=True)
    pre_sub.add_parser("list")
    p_pre_run = pre_sub.add_parser("run")
    p_pre_run.add_argument("name")
    add_common(p_pre_run)
    p_pre.set_defaults(func=_cmd_presets)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # a bad flag (2) or --help (0): return, not raise
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NotSettled as exc:
        print(f"not settled: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
