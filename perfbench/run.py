"""paddlesim benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload presets-cli --seed 1 --seconds 30 --trace 0

Closed loop, one caller: each pass runs in a fresh worker process
(perfbench/worker.py), started only after the previous one has ended, so the
package's own single-threaded loop never shares the CPU with the benchmark.
Passes repeat until --seconds have elapsed; every timing is the median over
the passes.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 untraced and traced passes alternate and the metrics are the
per-layer ones, taken from the traced passes.  The last line of standard
output is the result; the lines before it record the environment and every
pass.  Exits non-zero without a result if a worker cannot run at all, for
instance because the package source is missing.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORKER_TIMEOUT_S = 150.0
# no new pass starts this late, so the whole run ends well inside 180 s
LAST_START_S = 120.0

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class WorkerError(RuntimeError):
    """A pass could not run at all; the benchmark gives no result."""


def run_pass(workload: str, seed: int, traced: bool, work: Path) -> dict:
    cmd = [sys.executable, "-I", str(WORKER), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--work", str(work)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd + ["--started", repr(started)], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def environment(workload: str, seed: int) -> dict:
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu or platform.processor(),
            "git_commit": git_commit(), "workload": workload, "seed": seed}


def git_commit() -> str | None:
    """HEAD of the checkout's own .git; None if it has none or git is missing."""
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list]:
    work = ROOT / ".perfbench" / f"pass-{os.getpid()}"
    plain, traced = [], []
    t_begin = time.monotonic()
    while True:
        plain.append(run_pass(workload, seed, False, work))
        if trace:
            traced.append(run_pass(workload, seed, True, work))
        elapsed = time.monotonic() - t_begin
        if elapsed >= seconds or elapsed >= LAST_START_S:
            break

    med = statistics.median
    if trace:
        metrics = {name: med(p["layers"][name] for p in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (med(p["ref_wall_s"] for p in traced)
                                       - med(p["ref_wall_s"] for p in plain))
    else:
        metrics = {
            "wall_s": med(p["ref_wall_s"] for p in plain),
            "ticks_per_s": med(p["rows"] / p["ref_wall_s"] for p in plain),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
            "setup_s": med(p["ref_setup_s"] for p in plain),
        }
    passes = [dict({k: v for k, v in p.items() if k not in ("outputs", "layers")},
                   traced=is_traced)
              for group, is_traced in ((plain, False), (traced, True)) for p in group]
    return metrics, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        metrics, passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    declared = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({"environment": environment(args.workload, args.seed)}))
    print(json.dumps({"passes": passes}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
