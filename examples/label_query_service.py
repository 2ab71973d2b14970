#!/usr/bin/env python3
"""Distance-label query service: build a corpus, serve it, batch-query it.

The end-to-end serving story (see ``docs/serving.md``): a seeded corpus of
low-treewidth directed instances is labelled with the paper's construction
and persisted as packed ``.rplb`` files (``LabelStore.build``), two worker
processes memory-map the same store (``ServerPool`` — zero label copies),
and clients compare the three ways to ask for distances:

* point queries, one request frame and one packed merge per pair;
* client-side batches, one frame and one vectorized kernel call per
  request;
* the local packed decode, as the ground truth the served answers must
  equal bit for bit.

Run:  python examples/label_query_service.py
"""

import os
import random
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.serving import LabelStore, QueryClient, ServerPool, seeded_corpus

SEED = 7
N = 60          # corpus graph size
POINTS = 400    # point queries per graph
BATCH = 5_000   # pairs per batched request


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = os.path.join(tmp, "store")

        t0 = time.perf_counter()
        store = LabelStore.build(seeded_corpus(SEED, N), store_dir)
        build_s = time.perf_counter() - t0
        print(f"built + packed {len(store.graphs())} labelings "
              f"in {build_s:.2f}s -> {store_dir}")
        for name in store.graphs():
            packed = store.get(name)
            print(f"  {name:>16}: {len(packed)} vertices, "
                  f"{packed.total_entries} entries, "
                  f"{packed.array_bytes} array bytes")

        rng = random.Random(SEED + 1)
        with ServerPool(store_dir, num_workers=2) as pool:
            print(f"\n2 workers serving at {pool.addresses}")
            name = store.graphs()[0]
            vertices = list(store.get(name).vertices())
            pairs = [(rng.choice(vertices), rng.choice(vertices))
                     for _ in range(max(POINTS, BATCH))]

            with QueryClient(pool.addresses[0]) as client:
                t0 = time.perf_counter()
                point_vals = [client.point(name, u, v)
                              for u, v in pairs[:POINTS]]
                point_s = time.perf_counter() - t0

                us = [u for u, _ in pairs[:BATCH]]
                vs = [v for _, v in pairs[:BATCH]]
                t0 = time.perf_counter()
                batch_vals = client.query(name, us, vs)
                batch_s = time.perf_counter() - t0

            packed = store.get(name)
            local = [packed.distance(u, v) for u, v in pairs[:BATCH]]
            assert point_vals == local[:POINTS]
            assert batch_vals == local

            # Both workers map the same file once they serve it: the
            # zero-copy contract (labels are never copied to worker heaps).
            for worker, address in enumerate(pool.addresses):
                with QueryClient(address) as client:
                    client.query(name, us[:10], vs[:10])
                    stats = client.server_stats()
                print(f"  worker {worker}: pid {stats['pid']}, "
                      f"mapped {stats['store']['mapped_bytes']} B, "
                      f"copied {stats['store']['copied_label_bytes']} B")

            print(f"\nserved answers == local packed decode ({name})")
            print(f"  point   : {POINTS} queries in {point_s:.3f}s "
                  f"({POINTS / point_s:,.0f} qps)")
            print(f"  batched : {BATCH} pairs in {batch_s:.3f}s "
                  f"({BATCH / batch_s:,.0f} qps, one kernel call)")
            print(f"  batched/point speedup: "
                  f"{(BATCH / batch_s) / (POINTS / point_s):.1f}x")


if __name__ == "__main__":
    main()
