"""Set up one workload in a fresh process and say when it is ready.

``run.py`` times this script from process start to the "ready" line: that
is importing homlab, parsing the workload's rings and resolving each ring's
residue field.  The line also carries the ``time.perf_counter()`` reading
taken once the imports are done (the clock is system-wide), so that the
two phases can be told apart.  Usage: python3 perfbench/probe.py <workload>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, State  # noqa: E402  (needs the path above)

if __name__ == "__main__":
    imported = time.perf_counter()
    State(WORKLOADS[sys.argv[1]])
    print("ready", imported, flush=True)
