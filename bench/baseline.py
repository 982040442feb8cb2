"""Time the ROADMAP baseline CLI commands end to end, as fresh processes.

    python3 bench/baseline.py

Prints the median wall time of each command over REPEAT runs.  The
figures are informational (bench/README.md); the gated metrics come from
bench/run.py.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REPEAT = 3
COMMANDS = (
    "weight eval --seq powlog:a=1,b=2 --grid 1:1e6:50",
    "weight coeffs --seq power:a=2 --n 2 --K 40",
    "criteria omega6 --seq powlog:a=1,b=2",
    "cx contradict --seq powlog:a=1,b=2 --j-max 60",
    "cx scan --seq powlog:a=1,b=2",
)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for command in COMMANDS:
        times = []
        for _ in range(REPEAT):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "weightlab.cli", *command.split()],
                           env=env, stdout=subprocess.DEVNULL, check=True, timeout=600)
            times.append(time.perf_counter() - start)
        print(f"{statistics.median(times):7.2f} s  weightlab {command}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
