"""Set-up cost a CLI user pays: import torusgauge.cli and load every config.

    python3 setup_probe.py CONFIG_DIR

Prints the seconds from interpreter start-up being done (this line) to the
last config parsed, then the median time of REFERENCE_REPS reference runs
taken right after, which rescales it to the nominal host (calibrate.py).
Run in a fresh interpreter each time.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

from torusgauge.cli import load_scenario  # noqa: E402

REFERENCE_REPS = 15


def main(config_dir):
    names = sorted(n for n in os.listdir(config_dir) if n.endswith(".json"))
    for name in names:
        load_scenario(os.path.join(config_dir, name))
    elapsed = time.perf_counter() - T0
    # imported only now, so that the set-up time leaves them out
    import statistics

    from calibrate import time_reference

    print(elapsed, statistics.median(time_reference() for _ in range(REFERENCE_REPS)))
    return 0 if names else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
