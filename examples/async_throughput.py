#!/usr/bin/env python3
"""Async-tier throughput: the bucketed calendar queue vs the reference heap.

The event-driven tier (the fourth, ``engine="async"``) simulates one
envelope per arc per pulse, so its wall-clock cost is dominated by the event
queue.  This demo runs the same Bellman-Ford instances under both queues
(``scheduler="heap"`` and the default ``scheduler="bucketed"``), verifies
the runs are bit-for-bit identical, and compares the ``events_per_sec``
figure each run reports in ``SimulationResult.async_stats``.  The demo runs
under unit delay, the one schedule where markers fuse: a silent node's whole
run of pulse markers plus its self-tick is one range-tick event, and every
other envelope is one event per arc.  The deep path graph is the bucketed
queue's best case — most nodes are silent in most pulses — while the dense
complete graph is payload-bound and gains less.

Run:  python examples/async_throughput.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.congest.bellman_ford import distributed_bellman_ford
from repro.graphs import generators

REPS = 3  # best-of, to damp wall-clock noise


def measure(instance, source, scheduler):
    best = None
    for _ in range(REPS):
        run = distributed_bellman_ford(
            instance, source, engine="async", scheduler=scheduler
        )
        if best is None or (run.simulation.async_stats["events_per_sec"]
                            > best.simulation.async_stats["events_per_sec"]):
            best = run
    return best


def main() -> None:
    cases = [
        ("deep path (n=600)", generators.path_graph(600), "both"),
        ("dense K_80", generators.complete_graph(80), "asymmetric"),
    ]
    for label, graph, orientation in cases:
        instance = generators.to_directed_instance(
            graph, weight_range=(1, 9), orientation=orientation, seed=7
        )
        source = min(instance.nodes(), key=str)

        heap = measure(instance, source, "heap")
        bucketed = measure(instance, source, "bucketed")

        if bucketed.distances != heap.distances:
            raise SystemExit(f"{label}: the two queues disagree on distances")
        if bucketed.parents != heap.parents:
            raise SystemExit(f"{label}: the two queues disagree on parents")
        if bucketed.simulation.virtual_time != heap.simulation.virtual_time:
            raise SystemExit(f"{label}: the two queues disagree on virtual time")
        if (bucketed.simulation.async_stats["events_processed"]
                != heap.simulation.async_stats["events_processed"]):
            raise SystemExit(f"{label}: the two queues processed different events")

        events = heap.simulation.async_stats["events_processed"]
        eps_heap = heap.simulation.async_stats["events_per_sec"]
        eps_bucket = bucketed.simulation.async_stats["events_per_sec"]
        print(f"{label}: {bucketed.rounds} rounds, {events} events "
              f"(identical under both queues)")
        print(f"  scheduler='heap'     {eps_heap:>12,.0f} events/s")
        print(f"  scheduler='bucketed' {eps_bucket:>12,.0f} events/s "
              f"({eps_bucket / eps_heap:.2f}x)\n")

    print("Same events, same order, same results -- the calendar queue just "
          "releases each pulse's batch in one pop.")


if __name__ == "__main__":
    main()
