"""Cold-start probe for ``setup_s``: import, configure, say ``ready``.

Spawned by the benchmark with the pinned environment and
``PYTHONPATH=<checkout>/src``; the parent times spawn to the ``ready``
line.  It imports nothing of the benchmark, so only the program's own
start-up is measured.
"""

import os
import sys


def main() -> int:
    import repro
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src", "repro")
    if os.path.dirname(os.path.abspath(repro.__file__)) != src:
        print(f"repro imported from {repro.__file__}", file=sys.stderr)
        return 2
    from repro import api  # noqa: F401 -- the import is the work
    from repro.config import paper_cluster_config
    from repro.core.policies import SCHEDULER_NAMES
    config = paper_cluster_config(num_servers=100, seed=7)
    config.validate()
    print("ready", len(SCHEDULER_NAMES), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
