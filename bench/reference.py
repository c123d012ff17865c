"""Fixed reference work that gauges how fast the machine runs right now.

The benchmark shares its host, and whole minutes run tens of percent faster
or slower than others.  The time of this work, measured between task
executions, tracks that drift, so end-to-end times can be reported at one
fixed machine speed (see `Run.speed` in run.py).

The work is plain Python of the kind the `ears` hot loops do: tuple keys,
dict lookups and list appends, over a table of about 20 MB that is probed
in a scattered order.  A working set that size feels contention for the
caches and memory the way the tasks do; a loop over a few kilobytes tracked
them worse.  It never imports `ears`, so no change to the program can move
it.
"""

from __future__ import annotations

import time

# Seconds the reference takes at the nominal speed.  Scaled times are wall
# times multiplied by NOMINAL_S / (the run's median reference time).
NOMINAL_S = 0.3
ENTRIES = 60000
PROBES = 120000


def _work() -> int:
    table: dict[tuple, list[int]] = {}
    keys = []
    x = 12345
    for i in range(ENTRIES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 7, (x >> 3) % 11, (x >> 7) % 13, (x >> 11) % 17, (x >> 15) % 19, i)
        table[key] = [i, x]
        keys.append(key)
    acc = 0
    for j in range(PROBES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        entry = table[keys[x % ENTRIES]]
        acc += entry[0] & 7
        if j % 3 == 0:
            entry.append(j)
    return acc


def seconds() -> float:
    """Wall time of one fixed run of the reference work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(seconds()))
