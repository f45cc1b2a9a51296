"""One benchmark set-up in a fresh interpreter, timed.

    python3 perfbench/setup_probe.py <workload> <seed> <work dir>

Imports the package from the checkout's ``src/``, builds the workload's
seeded inputs under ``<work dir>`` and prints the seconds both took, as a
user starting the benchmark pays them.  ``run.py`` starts it several times
per run and reports the median as ``setup_s``.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](Path(sys.argv[3])).setup(int(sys.argv[2]))
print(time.perf_counter() - T0)
