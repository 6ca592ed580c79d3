"""Host-speed reference: a fixed pure-Python kernel timed beside the workload.

The benchmark's hosts are shared, and their speed drifts by up to 2x
over minutes, for every process at once (CPU time grows with wall
time, so it is contention, not descheduling).  A round therefore times
this kernel between its groups, and the end-to-end times are scaled to
a host on which the kernel takes :data:`REFERENCE_S`.  The kernel does
what the simulator's interpreter time goes to: dict probes, indexed
reads and writes and integer arithmetic, over a working set larger
than a core's private caches (a kernel that stays in those caches
tracked the simulator's slowdowns less well).  It imports nothing from
``repro``, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import time
from array import array

#: Seconds the kernel takes on the reference host; a time scaled by it
#: reads as seconds on that host.
REFERENCE_S = 0.1

#: Entries in the kernel's table: several MB, more than a core's private
#: caches hold, as the simulator's own working set is.
TABLE_ENTRIES = 200_000


class Kernel:
    """The reference kernel and its table.

    The table is a dict of int keys to int slots, the keys in an array,
    and one counter per slot.  It holds only atomic values and arrays:
    the collector neither tracks nor traverses any of it, so the table
    cannot slow the program's own collections.
    """

    def __init__(self) -> None:
        self.table = {(index * 2654435761) & 0xFFFFFFF: index
                      for index in range(TABLE_ENTRIES)}
        self.keys = array("q", self.table)
        self.counts = array("q", bytes(8 * TABLE_ENTRIES))

    def run(self, steps: int = 60_000) -> int:
        """Run the kernel; returns a checksum of its state.

        Each step draws a pseudo-random key, probes the dict for its
        slot, bumps the slot's counter and reads its neighbour's.
        """
        table, keys, counts = self.table, self.keys, self.counts
        state = 12345
        total = 0
        for _ in range(steps):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            slot = table[keys[state % TABLE_ENTRIES]]
            counts[slot] += 1
            if state & 3:
                total += counts[slot - 1] & 7
            else:
                total ^= slot
        return total

    def measure(self) -> float:
        """Seconds one run takes here, now, with the collector off so
        that the program's garbage-collector settings cannot move it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self.run()
            return time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()
