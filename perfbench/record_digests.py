"""Record the output digests the benchmark checks each pass against.

    python3 perfbench/record_digests.py

Runs one untraced pass per workload and seed (presets-cli once, its input has
no seed) and writes perfbench/digests.json.  Re-record only when a change to
the package is meant to change its outputs, and say why in CHANGES.md.
"""

import json
import sys

from run import ROOT, run_pass
from worker import DIGESTS

# seeds of the seeded workloads whose outputs are recorded
RECORDED_SEEDS = range(32)


def main() -> int:
    work = ROOT / ".perfbench" / "record"
    table = {"presets-cli": {"*": run_pass("presets-cli", 0, False, work)["outputs"]}}
    for workload in ("sweep-batch", "long-mission"):
        table[workload] = {str(seed): run_pass(workload, seed, False, work)["outputs"]
                           for seed in RECORDED_SEEDS}
        print(f"{workload}: {len(RECORDED_SEEDS)} seeds", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
