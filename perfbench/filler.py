"""Keep one CPU busy at the lowest priority for the length of a run.

    python3 perfbench/filler.py CPU SECONDS

On a virtual machine an idle CPU halts, and the wake-up that follows costs
a time that depends on what the host ran on that core meanwhile. The burst
workload idles between bursts, so without this its figures drift by a
third from one minute to the next. Under SCHED_IDLE the loop gives way at
once to any other thread that wants the CPU, so it only takes time that
would otherwise be idle. It exits at once if it cannot get SCHED_IDLE,
and ends by itself after SECONDS or when its parent is gone.
"""

import os
import sys
import time


def main() -> int:
    cpu, seconds = int(sys.argv[1]), float(sys.argv[2])
    try:
        os.sched_setaffinity(0, {cpu})
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        return 1
    parent = os.getppid()
    end = time.monotonic() + seconds
    while time.monotonic() < end and os.getppid() == parent:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
