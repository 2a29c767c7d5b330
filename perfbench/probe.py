"""Set-up probe: time ``import repro`` and one build in a fresh interpreter.

Usage: python3 perfbench/probe.py <workload> <seed>

Prints one JSON object ``{"import_s": ..., "build_s": ...}``. ``run.py``
starts this several times per benchmark run, because every CLI invocation
of the simulator pays exactly this cost.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports nothing from repro)


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    seed = int(sys.argv[2])
    t0 = perf_counter()
    import repro.core  # noqa: F401
    import repro.harness  # noqa: F401

    t1 = perf_counter()
    workload.build(seed)
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))


if __name__ == "__main__":
    main()
