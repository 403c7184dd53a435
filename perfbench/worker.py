"""One benchmark pass in a fresh process: set up, run, check, report.

run.py starts this once per pass, one process at a time:

    python3 -I perfbench/worker.py --workload W --seed N --trace 0|1 \
        --work DIR --started T

``--started`` is the runner's ``time.monotonic()`` just before it spawned the
process (CLOCK_MONOTONIC is system-wide on Linux), so set-up time covers
interpreter start, ``import paddlesim`` and building the workload's configs.
The last line of standard output is one JSON object describing the pass.
"""

import argparse
import contextlib
import hashlib
import json
import math
import resource
import signal
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

DIGESTS = HERE / "digests.json"

# Times are reported at a reference host speed: one on which
# calibration_s() with its default 100,000 steps takes CALIBRATION_REF_S.
CALIBRATION_STEPS = 100_000
CALIBRATION_REF_S = 0.25
# During a pass a short kernel is timed this often (wall seconds) ...
SAMPLE_INTERVAL_S = 0.05
# ... with this many steps, which take SAMPLE_REF_S at the reference speed.
SAMPLE_STEPS = 800
SAMPLE_REF_S = CALIBRATION_REF_S * SAMPLE_STEPS / CALIBRATION_STEPS


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def calibration_s(steps: int = CALIBRATION_STEPS) -> float:
    """Host seconds for a fixed pure-Python kernel that does not use the package.

    RK4 of a damped pendulum plus one formatted row per step: the same mix of
    interpreted float arithmetic, calls, small tuples and string formatting
    as the simulation and the CSV writer.  Timed after set-up and sampled
    during the pass, it tells how fast the host runs Python at that moment.
    """
    t0 = time.perf_counter()
    th, w, dt = 0.5, 0.0, 0.004
    h = dt / 2

    def f(th, w):
        return w, -math.sin(th) - 0.1 * w
    for _ in range(steps):
        a = f(th, w)
        b = f(th + h * a[0], w + h * a[1])
        c = f(th + h * b[0], w + h * b[1])
        d = f(th + dt * c[0], w + dt * c[1])
        th += dt / 6 * (a[0] + 2 * b[0] + 2 * c[0] + d[0])
        w += dt / 6 * (a[1] + 2 * b[1] + 2 * c[1] + d[1])
        row = f"{th:.9g},{w:.9g}"  # noqa: F841
    return time.perf_counter() - t0


@contextlib.contextmanager
def speed_samples():
    """Time a short calibration kernel every SAMPLE_INTERVAL_S of the pass.

    The host's speed for Python code flips within seconds on shared machines,
    so a kernel timed only before and after a pass misses what happened in
    between.  The kernel runs from a SIGALRM handler, which Python calls
    between two bytecodes of the pass in the same thread.  Yields
    (count, total seconds, sum of SAMPLE_REF_S / seconds) of the samples, as
    raw doubles: a float object kept alive from inside the pass would pin
    the allocator arena it landed in and raise the pass's peak memory.
    """
    samples = array("d", [0.0, 0.0, 0.0])

    def sample(signum, frame):
        seconds = calibration_s(SAMPLE_STEPS)
        samples[0] += 1
        samples[1] += seconds
        samples[2] += SAMPLE_REF_S / seconds
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ------------------------------------------------------------------ set-up
# Each set-up returns (run, check).  run() is the timed pass and returns what
# check() needs; check(result, expected) -> (outputs, per-run ok flags), where
# outputs maps each output to its sha256 and expected is the recorded digest
# map for this seed, or None to fall back to structural checks.

def _cli_call(cli, argv) -> int | None:
    """Exit code of one in-process CLI invocation, None if it raised."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code or 0
    except Exception as exc:  # a failed run is counted, not fatal to the pass
        print(f"run raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def _csv_ok(path: Path, duration: float) -> bool:
    import numpy as np
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return len(data) == workloads.rows_for(duration) and bool(np.isfinite(data).all())


def _dat_ok(path: Path) -> bool:
    values = [float(line.split("=", 1)[1]) for line in path.read_text().splitlines()]
    return bool(values) and all(math.isfinite(v) for v in values)


def _files_ok(out: Path, files: dict[str, float | None], expected, outputs) -> bool:
    """Hash each file into outputs; check it against expected or structurally.

    files maps a file name to its run duration (CSV) or None (report).
    """
    ok = True
    for name, duration in files.items():
        path = out / name
        if not path.is_file():
            return False
        outputs[name] = sha256(path.read_bytes())
        if expected is not None:
            ok &= expected.get(name) == outputs[name]
        elif duration is not None:
            ok &= _csv_ok(path, duration)
        elif name.endswith(".dat"):
            ok &= _dat_ok(path)
    return ok


def setup_presets(seed, work: Path):
    from paddlesim import cli
    out = work / "out"
    for name in workloads.PRESETS:
        cli.parse_scenario(cli.load_preset(name), name=f"preset:{name}")

    def run():
        return {name: _cli_call(cli, ["presets", "run", name, "--out-dir", str(out)])
                for name in workloads.PRESETS}

    def check(codes, expected):
        outputs, flags = {}, []
        for name, duration in workloads.PRESETS.items():
            files = {f"{name}.csv": duration, f"{name}_metrics.txt": None,
                     f"{name}_metrics.dat": None}
            flags.append(codes[name] == 0
                         and _files_ok(out, files, expected, outputs))
        return outputs, flags

    return run, check


def setup_sweep(seed, work: Path):
    from paddlesim import cli
    out = work / "out"
    text = workloads.sweep_config(seed)
    cli.parse_scenario(text, name="sweep-batch")
    config = work / "sweep-batch.cfg"
    config.write_text(text)

    def run():
        return _cli_call(cli, ["run", str(config), "--out-dir", str(out)])

    def check(code, expected):
        outputs, flags = {}, []
        for stem, csvs in workloads.sweep_outputs().items():
            reports_ok = code == 0 and _files_ok(
                out, {f"{stem}_metrics.txt": None, f"{stem}_metrics.dat": None},
                expected, outputs)
            for csv in csvs:
                flags.append(reports_ok and _files_ok(
                    out, {csv: workloads.SWEEP_DURATION}, expected, outputs))
        return outputs, flags

    return run, check


def setup_long(seed, work: Path):
    from paddlesim import cli, mission
    boat, control, spec = workloads.long_mission(seed)

    def run():
        try:
            log = mission.run_mission(boat, control, spec)
            return log, cli.report_metrics([log], spec)
        except Exception as exc:  # a failed run is counted, not fatal to the pass
            print(f"run raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def check(result, expected):
        if result is None:
            return {}, [False]
        import numpy as np
        log, report = result
        outputs = {f"column.{name}": sha256(np.ascontiguousarray(log.column(name)).tobytes())
                   for name in mission.TELEMETRY_COLUMNS}
        outputs["report"] = sha256(json.dumps(report, sort_keys=True).encode())
        if expected is not None:
            ok = outputs == expected
        else:
            stats = [v for entry in report.values() for v in entry.values()]
            ok = (len(log) == workloads.rows_for(spec.duration)
                  and all(np.isfinite(log.column(n)).all()
                          for n in mission.TELEMETRY_COLUMNS)
                  and bool(stats) and all(math.isfinite(v) for v in stats))
        return outputs, [ok]

    return run, check


SETUPS = {"presets-cli": setup_presets, "sweep-batch": setup_sweep,
          "long-mission": setup_long}


def recorded_digests(workload: str, seed: int):
    """Digest map recorded for this workload and seed, or None."""
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text()).get(workload, {})
    return table.get(str(seed), table.get("*"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--started", type=float, required=True)
    args = parser.parse_args(argv)

    import paddlesim
    if not Path(paddlesim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"paddlesim was not imported from {ROOT / 'src'}", file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    args.work.mkdir(parents=True, exist_ok=True)
    run, check = SETUPS[args.workload](args.seed, args.work)
    setup_s = time.monotonic() - args.started

    # the host's speed just after set-up scales set-up time
    calibration = calibration_s()
    if tracer is not None:
        tracer.start_pass()
    with speed_samples() as samples:
        t0 = time.perf_counter()
        result = run()
        wall_s = time.perf_counter() - t0
    count, sampled_s, speed_sum = samples
    # the samples ran inside the timed pass; their time is not the package's
    wall_s -= sampled_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # speed of the host during the pass relative to the reference speed
    speed = speed_sum / count

    expected = recorded_digests(args.workload, args.seed)
    outputs, flags = check(result, expected)
    report = {
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "calibration_s": calibration, "speed_samples": int(count), "speed": speed,
        "ref_setup_s": setup_s * CALIBRATION_REF_S / calibration,
        "ref_wall_s": wall_s * speed,
        "rows": workloads.requested_rows(args.workload),
        "attempted": len(flags), "failed": flags.count(False),
        "checked_against": "recorded digests" if expected is not None else "structure",
        "outputs_sha256": sha256("\n".join(f"{k} {v}" for k, v in
                                           sorted(outputs.items())).encode()),
        "outputs": outputs,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        tracer.save(ROOT / ".perfbench" / f"spans-{args.workload}.npz")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
