"""Fresh-interpreter probes, started one at a time by run.py.

    python3 perfbench/probe.py setup WORKLOAD   import shellqm, one warm-up operation
    python3 perfbench/probe.py imports          print import times as JSON

The caller puts the package's sources on PYTHONPATH and times `setup` from
spawn to exit.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    if sys.argv[1] == "imports":
        t0 = time.perf_counter()
        import numpy  # noqa: F401
        t1 = time.perf_counter()
        import shellqm.cli  # noqa: F401
        t2 = time.perf_counter()
        print(json.dumps({"numpy_import_s": t1 - t0, "import_s": t2 - t0}))
        return 0
    import shellqm  # noqa: F401
    from workloads import warmup

    warmup(sys.argv[2], Path(__file__).resolve().parent.parent)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
