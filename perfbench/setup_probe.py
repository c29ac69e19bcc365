"""Set-up probe: what every fresh process pays before its first operation.

Imports resum (with mpmath, numpy and scipy) from the checkout's ``src`` and
builds one workload's inputs, then exits.  ``run.py`` times whole runs of
this script to measure ``setup_s``::

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path above)

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.make(workload, seed, workdir).prepare()
