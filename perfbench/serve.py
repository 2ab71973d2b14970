"""The ``serve_mixed`` workload: a label server under open-loop mixed traffic.

Set-up builds the distance labelings of a three-graph corpus, packs them into
a ``LabelStore`` and starts ``ServerPool(num_workers=1)``.  This process is
then the single load generator, over two pipelined connections: 90% point
queries and 10% client batches of 256 pairs, every reply checked against the
in-process ``PackedLabeling.distance`` of the same store.

* A closed loop answers a fixed request list as fast as the server allows
  (16 requests in flight per connection); its wall time is ``solve_s``.
* The open loop sends on a fixed schedule and times each request from when
  it was due, so a stall is charged to every request queued behind it.  It
  runs at the nominal point rate, then up a fixed ladder of point rates
  until two steps in a row miss the limit.  A step meets the limit when its
  point p99 is at most 5 ms, nothing failed and the backlog did not grow; a
  step where the generator itself ran late is marked invalid, because then
  the generator and not the server set the latency.
"""

from __future__ import annotations

import gc
import math
import os
import pickle
import random
import selectors
import socket
import struct
import time
from collections import deque
from typing import Dict, List, Optional

from inputs import (
    asymmetric_arcs, caterpillar_edges, digraph, grid_edges, nodes_of, partial_ktree_edges,
)
from oracle import adjacency, dijkstra

_LEN = struct.Struct("!I")
_clock = time.perf_counter

BATCH_PAIRS = 256
BATCH_EVERY = 10            # every 10th request is a client batch
WINDOW = 16                 # closed-loop requests in flight per connection
CLOSED_REQUESTS = 2000
POOL_PAIRS = 4096
NOMINAL_POINT_RATE = 2000.0
LADDER = (1000, 1500, 2000, 2500, 3000, 3500, 4000, 5000, 6000, 8000, 10000, 12000, 16000)
P99_LIMIT_MS = 5.0
#: Generator lateness is part of every measured latency; past half the
#: limit a missed step could not be blamed on the server.
GEN_LAG_LIMIT_MS = P99_LIMIT_MS / 2
KERNEL_PAIRS = 20000


def corpus_edges():
    """Three fixed topologies with different label sizes."""
    return {
        "ktree1000": partial_ktree_edges(1000, 3, 0.6),
        "grid5x200": grid_edges(5, 200),
        "caterpillar500": caterpillar_edges(500),
    }


def percentile(sorted_vals: List[float], p: float) -> float:
    if not sorted_vals:
        return math.nan
    k = min(len(sorted_vals) - 1, max(0, math.ceil(p / 100.0 * len(sorted_vals)) - 1))
    return sorted_vals[k]


class Traffic:
    """Seeded request frames with the answers the server must give."""

    def __init__(self, seed: int, store) -> None:
        rng = random.Random(seed * 7919 + 17)
        self.names = list(store.graphs())
        self.pairs: Dict[str, List[tuple]] = {}
        self.expected: Dict[str, List[float]] = {}
        for name in self.names:
            packed = store.get(name)
            vertices = list(packed.vertices())
            pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(POOL_PAIRS)]
            self.pairs[name] = pairs
            self.expected[name] = [float(packed.distance(u, v)) for u, v in pairs]
        self.rng = rng

    def requests(self, count: int):
        """``count`` (frame, expected answer, is_batch) triples."""
        out = []
        for i in range(count):
            name = self.names[self.rng.randrange(len(self.names))]
            pairs, expected = self.pairs[name], self.expected[name]
            if i % BATCH_EVERY == BATCH_EVERY - 1:
                lo = self.rng.randrange(POOL_PAIRS - BATCH_PAIRS)
                chunk = pairs[lo:lo + BATCH_PAIRS]
                req = ("query", name, [u for u, _ in chunk], [v for _, v in chunk])
                out.append((req, expected[lo:lo + BATCH_PAIRS], True))
            else:
                j = self.rng.randrange(POOL_PAIRS)
                u, v = pairs[j]
                out.append((("point", name, u, v), expected[j], False))
        return [(_frame(req), exp, is_batch) for req, exp, is_batch in out]


def _frame(request) -> bytes:
    blob = pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
    return _LEN.pack(len(blob)) + blob


class _Conn:
    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.waiting: deque = deque()

    def close(self) -> None:
        self.sock.close()


class Step:
    """Outcome of one traffic phase."""

    def __init__(self, n: int) -> None:
        self.latency: List[Optional[float]] = [None] * n
        self.lag: List[float] = [0.0] * n
        self.failed = 0
        self.backlog = 0
        self.wall_s = 0.0


def drive(conns: List[_Conn], reqs, times: Optional[List[float]], checks,
          grace_s: float = 5.0) -> Step:
    """Send ``reqs`` round-robin over ``conns``; read and check every reply.

    ``times`` are offsets from the start at which each request is due (open
    loop); ``None`` sends whenever a connection has fewer than ``WINDOW``
    requests in flight (closed loop).  Latency runs from the due time, or
    from the send time in the closed loop.
    """
    n = len(reqs)
    step = Step(n)
    due = [0.0] * n
    sel = selectors.SelectSelector()  # microsecond timeouts; epoll rounds to ms
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    gc.disable()  # a collection pause would show up as generator lateness
    start = _clock()
    nxt = received = 0
    deadline = None
    try:
        while received < n:
            now = _clock()
            while nxt < n:
                conn = conns[nxt % len(conns)]
                if times is None:
                    if len(conn.waiting) >= WINDOW:
                        break
                    due[nxt] = now
                else:
                    t = start + times[nxt]
                    if t > now:
                        break
                    due[nxt] = t
                    step.lag[nxt] = now - t
                conn.out += reqs[nxt][0]
                conn.waiting.append(nxt)
                nxt += 1
                if nxt == n:
                    step.backlog = nxt - received
                    deadline = now + grace_s
            for c in conns:
                if c.out:
                    try:
                        sent = c.sock.send(c.out)
                    except BlockingIOError:
                        sent = 0
                    del c.out[:sent]
            if deadline is not None and now > deadline:
                break
            if times is not None and nxt < n:
                wait = max(0.0, start + times[nxt] - _clock())
            else:
                wait = 0.05
            if any(c.out for c in conns):
                wait = min(wait, 0.0005)
            for key, _ in sel.select(wait):
                received += _receive(key.data, reqs, due, step, checks)
    finally:
        gc.enable()
        sel.close()
    step.wall_s = _clock() - start
    lost = n - received
    if lost:
        step.failed += lost
        for _ in range(lost):
            checks.record(False, "request timed out")
    return step


def _receive(conn: _Conn, reqs, due, step: Step, checks) -> int:
    try:
        data = conn.sock.recv(1 << 20)
    except BlockingIOError:
        return 0
    if not data:
        raise ConnectionError("server closed the connection")
    now = _clock()
    conn.inbuf += data
    got = 0
    buf = conn.inbuf
    while len(buf) >= 4:
        (length,) = _LEN.unpack_from(buf, 0)
        if len(buf) < 4 + length:
            break
        status, value = pickle.loads(bytes(buf[4:4 + length]))
        del buf[:4 + length]
        i = conn.waiting.popleft()
        got += 1
        expected = reqs[i][1]
        ok = status == "ok" and (
            [float(x) for x in value] == expected if reqs[i][2] else float(value) == expected
        )
        if checks.record(ok, f"served answer {i}: {status} {value!r:.60}"):
            step.latency[i] = now - due[i]
        else:
            step.failed += 1
    return got


def open_loop(conns, traffic: Traffic, point_rate: float, seconds: float, checks) -> dict:
    total_rate = point_rate * BATCH_EVERY / (BATCH_EVERY - 1)
    count = max(BATCH_EVERY, int(total_rate * seconds))
    reqs = traffic.requests(count)
    step = drive(conns, reqs, [i / total_rate for i in range(count)], checks)
    points = sorted(l for (_, _, b), l in zip(reqs, step.latency) if not b and l is not None)
    batches = sorted(l for (_, _, b), l in zip(reqs, step.latency) if b and l is not None)
    lag = sorted(step.lag)
    res = {
        "rate": point_rate,
        "points": len(points),
        "batches": len(batches),
        "point_p50_ms": percentile(points, 50) * 1e3,
        "point_p99_ms": percentile(points, 99) * 1e3,
        "batch_p99_ms": percentile(batches, 99) * 1e3,
        "gen_lag_p99_ms": percentile(lag, 99) * 1e3,
        "backlog": step.backlog,
        "failed": step.failed,
    }
    res["valid"] = res["gen_lag_p99_ms"] <= GEN_LAG_LIMIT_MS
    res["meets"] = (
        res["point_p99_ms"] <= P99_LIMIT_MS and step.failed == 0
        and step.backlog <= max(4, total_rate * P99_LIMIT_MS / 1e3)
    )
    return res


def kernel_rates(store, traffic: Traffic) -> Dict[str, float]:
    """In-process pairs/s of the packed batch kernel and scalar dict decode."""
    from repro.labeling.labels import decode_distance

    name = max(traffic.names, key=lambda n: store.get(n).max_entries)
    packed, labeling = store.get(name), store.labeling(name)
    pool = traffic.pairs[name]
    pairs = [pool[i % POOL_PAIRS] for i in range(KERNEL_PAIRS)]
    us, vs = [u for u, _ in pairs], [v for _, v in pairs]
    t0 = _clock()
    packed.query(us, vs)
    kernel_s = _clock() - t0
    t0 = _clock()
    for u, v in pairs:
        decode_distance(labeling.label(u), labeling.label(v))
    scalar_s = _clock() - t0
    return {"kernel": KERNEL_PAIRS / kernel_s, "scalar": KERNEL_PAIRS / scalar_s}


def build_server(seed: int, workdir: str, tag: str):
    """One set-up: corpus → labelings → packed store → one-worker pool."""
    from repro.core.config import FrameworkConfig
    from repro.labeling.construction import build_distance_labeling
    from repro.serving import LabelStore, ServerPool

    t0 = _clock()
    corpus, arcs, counts = {}, {}, {"rounds": 0, "label_entries_max": 0}
    for i, (name, edges) in enumerate(corpus_edges().items()):
        arcs[name] = asymmetric_arcs(edges, random.Random(seed * 31 + i), 1, 9)
        result = build_distance_labeling(
            digraph(nodes_of(edges), arcs[name]), config=FrameworkConfig(seed=seed + i)
        )
        counts["rounds"] += result.rounds
        counts["label_entries_max"] = max(
            counts["label_entries_max"], result.labeling.max_entries()
        )
        corpus[name] = result.labeling
    store_dir = os.path.join(workdir, tag)
    LabelStore.build(corpus, store_dir)
    del corpus
    gc.collect()
    t1 = _clock()
    pool = ServerPool(store_dir, num_workers=1)
    t2 = _clock()
    return pool, store_dir, arcs, counts, {"store_build_s": t1 - t0, "start_s": t2 - t1}


def check_corpus(store, arcs, seed: int, checks) -> None:
    """Packed labels of every corpus graph against Dijkstra from two sources."""
    rng = random.Random(seed)
    for name, graph_arcs in arcs.items():
        packed = store.get(name)
        adj = adjacency(graph_arcs)
        vertices = list(packed.vertices())
        for s in rng.sample(vertices, 2):
            row = dijkstra(adj, s)
            checks.record(
                all(packed.distance(s, v) == row.get(v, math.inf) for v in vertices),
                f"corpus {name} labels from {s}",
            )
