"""One set-up, in a fresh process: interpreter start, imports, ``build_world``
and, past ``pretrain``, the checkpoint load. ``run.py`` times this process
from the outside several times and reports the median as ``setup_s``.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.setup(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
