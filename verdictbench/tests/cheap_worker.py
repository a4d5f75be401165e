"""worker.py with every round cut to a few cheap commands.

    python3 verdictbench/tests/cheap_worker.py run --workload W --seed N

Takes the same arguments as worker.py; the benchmark's own tests use it to
run the whole benchmark in seconds.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import worker  # noqa: E402
import workloads  # noqa: E402

_next_round = workloads.Workload.next_round


def cheap_round(self):
    ops = _next_round(self)
    witness = [op for op in ops if "--witness" in op["argv"]]
    cheap = [op for op in ops
             if op["command"] in ("feasible", "subdiff", "duality weak")]
    return witness[:1] + cheap[:2]


workloads.Workload.next_round = cheap_round

if __name__ == "__main__":
    sys.exit(worker.main())
