"""Time a cold set-up in a fresh interpreter: import hhcycles, build K=50 operators.

Usage: python3 bench/setup_probe.py SRC_DIR
Prints two numbers: the set-up time in reference-speed seconds (see
speedclock.py) and in wall seconds.  run.py starts this a few times per run
and reports the median of the first as setup_s.  numpy is imported before
the clock starts, because the clock's reference computation needs it.
"""

import os
import sys
import time


def main():
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from speedclock import SpeedClock

    clock = SpeedClock(interval=0.02)   # dense: the set-up lasts about 0.4 s
    clock.start()
    try:
        t0, w0 = clock.now(), time.perf_counter()
        sys.path.insert(0, sys.argv[1])
        import hhcycles.cli  # noqa: F401  (imports every solver module)
        from hhcycles import hb
        hb.build_operators(50)
        t1, w1 = clock.now(), time.perf_counter()
    finally:
        clock.stop()
    print(repr(t1 - t0), repr(w1 - w0))


if __name__ == "__main__":
    main()
