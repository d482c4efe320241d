"""Set-up of one benchmark workload in a fresh process.

Imports flowcurv and its CLI, builds the workload's models and solves the
fixed points that an `fp` slice needs, then prints `time.monotonic()` at the
moment the process is ready for its first command.  The parent process
subtracts the monotonic time at which it started this one.

    python3 perfbench/setup_probe.py [--fp MODEL ...] MODEL ...
    python3 perfbench/setup_probe.py --all
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import flowcurv.cli  # noqa: E402,F401  (the CLI's imports are part of set-up)
from flowcurv import models  # noqa: E402


def main(argv):
    names, solve = [], set()
    args = iter(argv)
    for arg in args:
        if arg == "--all":
            names += models.registry()
        elif arg == "--fp":
            names.append(next(args))
            solve.add(names[-1])
        else:
            names.append(arg)
    for name in names:
        model = models.get_model(name)
        if name in solve:
            models.fixed_points(model)
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
