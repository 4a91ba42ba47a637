"""Set-up probe: what a fresh interpreter does before its first sweep.

Imports kraussim from the checkout, builds the seeded workload config
and parses it, then prints ``time.monotonic()`` at that moment, so the
caller can time spawn-to-ready.  Usage: ``setup_probe.py <workload> <seed>``.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from kraussim.cli import parse_config

    import workloads

    parse_config(workloads.make_config(sys.argv[1], int(sys.argv[2])))
    print(time.monotonic())


if __name__ == "__main__":
    main()
