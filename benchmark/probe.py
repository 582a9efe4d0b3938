"""The speed probe: a fixed pure-Python loop timed on the process CPU clock.

It imports nothing but built-in modules, so a fresh interpreter can run it
before `import degmatch` without loading anything degmatch would load.
"""
import gc
import time

PROBES = 3  # probe runs per reading


def _loop() -> int:
    d: dict = {}
    for i in range(2000):
        key = (i, i * 7 % 13)
        d[key] = d.get(key[1], 0) + len(str(i))
    return max(d.values())


def probe() -> list[float]:
    """CPU seconds of PROBES runs of the loop, with the garbage collector off.

    With the collector off, the program's live objects cannot lengthen a run.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PROBES):
            t0 = time.process_time()
            _loop()
            times.append(time.process_time() - t0)
        return times
    finally:
        if enabled:
            gc.enable()
