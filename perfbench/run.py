"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload serve-long --seed 1 --seconds 10 --trace 0

The program under test is the ``repro`` package in ``src/`` next to this
directory; the benchmark refuses to run (exit status 2) without it.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    # The checkout's own sources, never an installed copy; and the
    # repository root instead of this script's directory, so the
    # benchmark's modules import as the ``perfbench`` package.
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.harness import main as run

    return run(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
