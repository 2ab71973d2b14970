"""Host-speed calibration: a fixed reference task timed next to every solve.

On a shared host, co-tenants slow every CPU at once, by up to about half,
in spells that last from a fraction of a second to over a minute.  A spell
that covers much of a run moves the median solve of that run, and runs with
different seeds then disagree by more than any change worth detecting.  So
the benchmark times a short slice of a reference task (its own heap
Dijkstra on a fixed graph, pure Python like the library) right after every
timed solve or set-up, and reports the median over the run of

    raw time × REFERENCE_S / reference time of the slice next to it,

that is, the time in *reference seconds*.  A spell slows a solve and its
slice alike, so it cancels.  The reference task is benchmark code that no
change to the library touches, so a slower or faster library still shows in
full.  ``REFERENCE_S`` only fixes the scale: it is the reference task's time
on an unloaded host, so that a reported time is close to the raw one there.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List, Sequence, Tuple

from inputs import asymmetric_arcs, partial_ktree_edges
from oracle import adjacency, dijkstra

_clock = time.perf_counter

#: Reference task time on a 2-vCPU x86-64 VM with CPython 3.11, unloaded.
REFERENCE_S = 0.0085


class HostSpeed:
    """The reference task, and every sample of it taken in one run."""

    def __init__(self) -> None:
        # A few MB of dicts and tuples, so that it competes for caches the
        # way the solves do.
        edges = partial_ktree_edges(4000, 3, 0.7)
        self._adj = adjacency(asymmetric_arcs(edges, random.Random(0), 1, 100))
        self.samples: List[float] = []

    def slice(self, seconds: float) -> float:
        """Run the reference task for at least ``seconds``; its median time."""
        own: List[float] = []
        end = _clock() + seconds
        while not own or _clock() < end:
            t0 = _clock()
            dijkstra(self._adj, 0)
            own.append(_clock() - t0)
        self.samples.extend(own)
        return statistics.median(own)

    def describe(self) -> str:
        return (f"reference task {len(self.samples)}x: median "
                f"{statistics.median(self.samples):.6f} s, fastest {min(self.samples):.6f} s "
                f"(REFERENCE_S {REFERENCE_S} s)")


def reference_seconds(pairs: Sequence[Tuple[float, float]]) -> float:
    """Median of raw time / the reference time next to it, in reference seconds."""
    return statistics.median(raw / ref for raw, ref in pairs) * REFERENCE_S
