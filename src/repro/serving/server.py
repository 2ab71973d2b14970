"""`QueryServer`: a long-running distance-query server over a `LabelStore`.

The server speaks the transport layer's length-prefixed frame idiom
(:mod:`repro.congest.transport`: a ``!I`` byte-length prefix followed by a
pickled tuple) over localhost TCP.  Requests and responses are tuples:

==============================  ==============================================
request                         ``("ok", ...)`` payload
==============================  ==============================================
``("ping",)``                   ``"pong"``
``("graphs",)``                 list of corpus names
``("point", name, u, v)``       ``float`` distance
``("query", name, us, vs)``     list of floats (one batched kernel call)
``("stats",)``                  counters + store residency + RSS
``("shutdown",)``               ``"bye"``; the serve loop then exits
==============================  ==============================================

Application-level failures (unknown graph, unknown vertex, malformed
request object, wrongly typed fields) answer ``("err", message)`` and the
connection stays up.

Micro-batching contract
-----------------------
The serve loop is a tick loop.  Each tick reads **at most one frame from
every readable client**, then flushes: all ``point`` requests that arrived
in the tick are coalesced *per graph* into **one** vectorized
``label_query_batch`` kernel call, and every client still gets its own
individual reply frame.  Concurrent point traffic therefore costs one
kernel dispatch per graph per tick instead of one per query — the
``batch_calls`` / ``max_batch`` counters in ``stats()`` make the
coalescing observable.  ``query`` (client-side batches) and the control
verbs are answered inside the tick, before the flush.

Fault containment mirrors the socket transport's tests: a listener that
cannot bind raises :class:`~repro.congest.transport.TransportSetupError`
from the constructor; a client that disconnects mid-frame (or stalls past
``client_timeout``) is dropped and counted while the server keeps serving;
a frame whose declared length exceeds ``max_frame_bytes`` drops that
connection without reading the body; an undecodable or non-tuple payload
gets an ``("err", ...)`` reply.
"""

from __future__ import annotations

import os
import pickle
import selectors
import socket as socket_mod
from typing import Dict, List, Tuple

from repro.congest.transport import (
    _LEN,
    TransportBrokenError,
    TransportSetupError,
    _recv_exact,
    _send_frame,
)
from repro.errors import LabelingError
from repro.serving.store import LabelStore

#: Default cap on a single request/response frame (8 MiB ≈ 500k pairs).
DEFAULT_MAX_FRAME_BYTES = 8 << 20


class _OversizedFrame(Exception):
    """A client announced a frame larger than ``max_frame_bytes``."""


def _rss_kb() -> int:
    """Current resident set size in KiB (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") // 1024
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-linux
        return 0


class QueryServer:
    """Serve distance queries for a :class:`LabelStore` over localhost TCP.

    The constructor binds and listens (``port=0`` picks a free port;
    ``self.address`` is the bound ``(host, port)``).  Drive it either with
    :meth:`serve_forever` (a thread/process loop) or tick by tick with
    :meth:`tick` — the unit tests drive ticks directly to make the
    micro-batch flush deterministic.
    """

    def __init__(
        self,
        store: LabelStore,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        client_timeout: float = 5.0,
        decode: str = "packed",
    ) -> None:
        if decode not in ("packed", "scalar"):
            raise LabelingError(
                f"unknown decode mode {decode!r}; expected 'packed' or 'scalar'"
            )
        self.store = store
        self.max_frame_bytes = int(max_frame_bytes)
        self.client_timeout = float(client_timeout)
        #: ``"packed"`` serves through the vectorized packed kernel with
        #: per-tick micro-batching; ``"scalar"`` is the benchmark baseline —
        #: dict-form ``decode_distance`` one pair at a time, no batching.
        self.decode = decode
        listener = socket_mod.socket(socket_mod.AF_INET, socket_mod.SOCK_STREAM)
        try:
            listener.setsockopt(
                socket_mod.SOL_SOCKET, socket_mod.SO_REUSEADDR, 1
            )
            listener.bind((host, port))
            listener.listen(128)
        except OSError as exc:
            listener.close()
            raise TransportSetupError(
                f"query server cannot listen on {host}:{port}: {exc}"
            ) from None
        listener.setblocking(False)
        self._listener = listener
        self.address: Tuple[str, int] = listener.getsockname()[:2]
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ)
        self._shutdown = False
        self._closed = False
        self._counters: Dict[str, int] = {
            "ticks": 0,
            "requests": 0,
            "point_queries": 0,
            "batched_queries": 0,
            "batch_calls": 0,
            "max_batch": 0,
            "accepted_clients": 0,
            "dropped_clients": 0,
            "oversized_frames": 0,
            "malformed_requests": 0,
        }

    # ------------------------------------------------------------------ #
    # Frame plumbing
    # ------------------------------------------------------------------ #
    def _read_request(self, conn) -> bytes:
        header = _recv_exact(conn, _LEN.size)
        (length,) = _LEN.unpack(header)
        if length > self.max_frame_bytes:
            raise _OversizedFrame(
                f"frame of {length} bytes exceeds max_frame_bytes="
                f"{self.max_frame_bytes}"
            )
        return _recv_exact(conn, length)

    def _reply(self, conn, response) -> bool:
        """Send one response frame; drops the client on a broken pipe."""
        blob = pickle.dumps(response, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            _send_frame(conn, blob)
            return True
        except TransportBrokenError:
            self._drop(conn)
            return False

    def _drop(self, conn) -> None:
        self._counters["dropped_clients"] += 1
        try:
            self._selector.unregister(conn)
        except (KeyError, ValueError):
            pass
        try:
            conn.close()
        except OSError:  # pragma: no cover - close best-effort
            pass

    # ------------------------------------------------------------------ #
    # The tick loop
    # ------------------------------------------------------------------ #
    def tick(self, timeout: float = 0.05) -> int:
        """One serve tick; returns the number of requests processed.

        Accepts ready clients, reads at most one frame per readable
        client, answers control/batched verbs inline, then flushes all
        pending point queries with one kernel call per graph.
        """
        self._counters["ticks"] += 1
        events = self._selector.select(timeout)
        # graph name -> ([(conn, u, v)], ...) collected this tick
        pending: Dict[str, List[Tuple[object, object, object]]] = {}
        served = 0
        for key, _mask in events:
            if key.fileobj is self._listener:
                self._accept()
                continue
            conn = key.fileobj
            try:
                payload = self._read_request(conn)
            except _OversizedFrame:
                self._counters["oversized_frames"] += 1
                self._drop(conn)
                continue
            except TransportBrokenError:
                self._drop(conn)
                continue
            served += 1
            self._counters["requests"] += 1
            self._dispatch(conn, payload, pending)
        self._flush_points(pending)
        return served

    def _accept(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except BlockingIOError:
                return
            except OSError:  # pragma: no cover - listener torn down
                return
            conn.settimeout(self.client_timeout)
            self._selector.register(conn, selectors.EVENT_READ)
            self._counters["accepted_clients"] += 1

    def _dispatch(self, conn, payload: bytes, pending) -> None:
        try:
            request = pickle.loads(payload)
        except Exception as exc:
            self._counters["malformed_requests"] += 1
            self._reply(conn, ("err", f"undecodable request frame: {exc}"))
            return
        if not isinstance(request, tuple) or not request:
            self._counters["malformed_requests"] += 1
            self._reply(conn, ("err", f"malformed request: {request!r}"))
            return
        verb = request[0]
        try:
            if verb == "point" and len(request) == 4:
                _, name, u, v = request
                self.store.path(name)  # unknown graph answers now, not at flush
                pending.setdefault(name, []).append((conn, u, v))
            elif verb == "query" and len(request) == 4:
                _, name, us, vs = request
                self.store.path(name)
                vals = self._decode_batch(name, us, vs)
                self._counters["batched_queries"] += len(vals)
                self._reply(conn, ("ok", vals))
            elif verb == "ping" and len(request) == 1:
                self._reply(conn, ("ok", "pong"))
            elif verb == "graphs" and len(request) == 1:
                self._reply(conn, ("ok", list(self.store.graphs())))
            elif verb == "stats" and len(request) == 1:
                self._reply(conn, ("ok", self.stats()))
            elif verb == "shutdown" and len(request) == 1:
                self._shutdown = True
                self._reply(conn, ("ok", "bye"))
            else:
                self._counters["malformed_requests"] += 1
                self._reply(conn, ("err", f"unknown request: {request!r}"))
        except LabelingError as exc:
            self._reply(conn, ("err", str(exc)))

    def _decode_batch(self, name: str, us, vs) -> List[float]:
        """One batch of distances in the active decode mode."""
        for side in (us, vs):
            if not isinstance(side, (list, tuple)):
                raise LabelingError(
                    f"query needs lists of vertices, got {type(side).__name__}"
                )
        if len(us) != len(vs):
            raise LabelingError(
                f"query needs pairs: got {len(us)} sources, {len(vs)} targets"
            )
        if self.decode == "scalar":
            from repro.labeling.labels import decode_distance

            labeling = self.store.labeling(name)
            return [
                float(decode_distance(labeling.label(u), labeling.label(v)))
                for u, v in zip(us, vs)
            ]
        vals = self.store.get(name).query(us, vs)
        return [float(x) for x in vals]

    def _flush_points(self, pending) -> None:
        for name, items in pending.items():
            us = [u for _conn, u, _v in items]
            vs = [v for _conn, _u, v in items]
            try:
                vals = self._decode_batch(name, us, vs)
            except LabelingError:
                # e.g. an unknown vertex poisons the batch: answer each
                # pair individually so good queries still succeed.
                for conn, u, v in items:
                    try:
                        val = self.store.get(name).distance(u, v)
                    except LabelingError as exc:
                        self._reply(conn, ("err", str(exc)))
                    else:
                        self._counters["point_queries"] += 1
                        self._reply(conn, ("ok", float(val)))
                continue
            self._counters["point_queries"] += len(items)
            self._counters["batch_calls"] += 1
            if len(items) > self._counters["max_batch"]:
                self._counters["max_batch"] = len(items)
            for (conn, _u, _v), val in zip(items, vals):
                self._reply(conn, ("ok", float(val)))

    def serve_forever(self, stop=None, tick_timeout: float = 0.05) -> None:
        """Tick until a ``shutdown`` request arrives or ``stop`` is set."""
        while not self._shutdown and (stop is None or not stop.is_set()):
            self.tick(tick_timeout)

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        return {
            "address": list(self.address),
            "decode": self.decode,
            "counters": dict(self._counters),
            "store": self.store.stats(),
            "rss_kb": _rss_kb(),
            "pid": os.getpid(),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for key in list(self._selector.get_map().values()):
            try:
                self._selector.unregister(key.fileobj)
            except (KeyError, ValueError):  # pragma: no cover
                pass
            try:
                key.fileobj.close()
            except OSError:  # pragma: no cover
                pass
        self._selector.close()
        self._listener = None

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# Multi-worker process serving
# --------------------------------------------------------------------------- #
def _worker_main(store_dir, conn, mmap, backend, max_frame_bytes, decode):
    store = LabelStore(store_dir, mmap=mmap, backend=backend)
    try:
        server = QueryServer(
            store, max_frame_bytes=max_frame_bytes, decode=decode
        )
    except TransportSetupError as exc:  # pragma: no cover - port 0 binds
        conn.send(("err", str(exc)))
        conn.close()
        return
    conn.send(("ok", server.address))
    conn.close()
    try:
        server.serve_forever()
    finally:
        server.close()


class ServerPool:
    """N worker processes, each a :class:`QueryServer` over the same store.

    Every worker opens (and memory-maps) the same store directory — the
    zero-copy sharing the bench asserts via each worker's
    ``stats()["store"]["copied_label_bytes"] == 0``.  ``close()`` sends
    each worker a ``shutdown`` request and joins it.
    """

    def __init__(
        self,
        store_dir,
        num_workers: int = 2,
        mmap: bool = True,
        backend: str = "auto",
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        decode: str = "packed",
    ) -> None:
        from repro.congest.engine import _mp_context

        ctx = _mp_context()
        self.processes = []
        self.addresses: List[Tuple[str, int]] = []
        try:
            for _ in range(int(num_workers)):
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        os.fspath(store_dir), child_conn, mmap, backend,
                        max_frame_bytes, decode,
                    ),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                status, value = parent_conn.recv()
                parent_conn.close()
                if status != "ok":
                    raise TransportSetupError(value)
                self.processes.append(proc)
                self.addresses.append(tuple(value))
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        from repro.serving.client import QueryClient

        for address in self.addresses:
            try:
                with QueryClient(address, timeout=5.0) as client:
                    client.shutdown()
            except (OSError, TransportBrokenError):  # pragma: no cover
                pass
        self.addresses = []
        for proc in self.processes:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - shutdown is cooperative
                proc.terminate()
                proc.join(timeout=5.0)
        self.processes = []

    def __enter__(self) -> "ServerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
