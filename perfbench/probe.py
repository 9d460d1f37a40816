"""Set-up probe: a fresh interpreter imports circhad, then builds one workload's inputs.

    python3 perfbench/probe.py WORKLOAD SEED DIR

Prints `ready <import seconds>` once the inputs are in DIR. circhad is imported
before anything else of size, so the import time includes numpy's.
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import circhad.cli

    import_s = time.perf_counter() - t0
    from run import Runner
    from workloads import WORKLOADS

    WORKLOADS[workload](work, seed).build_inputs(Runner(circhad.cli.main))
    print(f"ready {import_s!r}", flush=True)
