"""Set up one workload in a fresh interpreter and exit: what ``setup_s`` times.

``python setup_probe.py WORKLOAD SEED`` imports minkgeom from the checkout's
``src/`` and builds the workload's norms (with their validation pass, which
also builds the jet spaces of the taylor families), fields and inputs.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

# minkgeom first, so that -X importtime charges numpy and scipy to it
import minkgeom  # noqa: E402,F401
import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), HERE.parent)
