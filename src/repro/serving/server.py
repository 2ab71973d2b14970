"""`QueryServer`: a long-running distance-query server over a `LabelStore`.

The server speaks length-prefixed frames (:mod:`repro.serving.frames`: a
``!I`` byte-length prefix followed by a pickled tuple) over localhost TCP.
Requests and responses are tuples:

==============================  ==============================================
request                         ``("ok", ...)`` payload
==============================  ==============================================
``("ping",)``                   ``"pong"``
``("graphs",)``                 list of corpus names
``("point", name, u, v)``       ``float`` distance
``("query", name, us, vs)``     list of floats (one batched decode call)
``("stats",)``                  counters + store residency + RSS
``("shutdown",)``               ``"bye"``; the serve loop then exits
==============================  ==============================================

Application-level failures (unknown graph, unknown vertex, malformed
request object, wrongly typed fields) answer ``("err", message)`` and the
connection stays up.

Serve loop
----------
The serve loop is a tick loop.  Each tick reads **at most one frame from
every readable client** and answers it before reading the next, so every
request is answered in the tick that reads it.  Each request kind has one
decode path per ``decode`` mode: a ``point`` is one
:meth:`~repro.labeling.packed.PackedLabeling.distance` merge (``"packed"``)
or one :func:`~repro.labeling.labels.decode_distance` (``"scalar"``); a
``query`` is one :meth:`~repro.labeling.packed.PackedLabeling.query` kernel
call (``"packed"``) or a ``decode_distance`` loop (``"scalar"``).

Fault containment: a listener that cannot bind raises
:class:`~repro.serving.frames.TransportSetupError` from the constructor; a
client that disconnects mid-frame (or stalls past ``client_timeout``) is
dropped and counted while the server keeps serving; a frame whose declared
length exceeds ``max_frame_bytes`` drops that connection without reading
the body; an undecodable or non-tuple payload gets an ``("err", ...)``
reply.
"""

from __future__ import annotations

import os
import pickle
import selectors
import socket as socket_mod
from typing import Dict, List, Tuple

from repro.errors import LabelingError
from repro.labeling.labels import decode_distance
from repro.serving.frames import (
    _LEN,
    TransportBrokenError,
    TransportSetupError,
    _recv_exact,
    _send_frame,
)
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
    :meth:`tick` — the unit tests drive ticks directly.
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
        #: ``"packed"`` decodes from the packed arrays; ``"scalar"`` is the
        #: benchmark baseline — dict-form ``decode_distance`` one pair at a
        #: time, batches included.
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

        Accepts ready clients, then reads and answers at most one frame
        per readable client.
        """
        self._counters["ticks"] += 1
        events = self._selector.select(timeout)
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
            self._dispatch(conn, payload)
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

    def _dispatch(self, conn, payload: bytes) -> None:
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
                val = self._decode_point(name, u, v)
                self._counters["point_queries"] += 1
                # One decode call per point (perfbench reads both keys).
                self._counters["batch_calls"] += 1
                self._counters["max_batch"] = 1
                self._reply(conn, ("ok", val))
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

    def _decode_point(self, name: str, u, v) -> float:
        """One distance in the active decode mode."""
        if self.decode == "scalar":
            labeling = self.store.labeling(name)
            return float(decode_distance(labeling.label(u), labeling.label(v)))
        return self.store.get(name).distance(u, v)

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
            return [self._decode_point(name, u, v) for u, v in zip(us, vs)]
        vals = self.store.get(name).query(us, vs)
        return [float(x) for x in vals]

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
def _worker_main(store, conn, decode):
    try:
        server = QueryServer(store, decode=decode)
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


def _mp_context():
    """The multiprocessing context of the server worker processes.

    Prefer fork on Linux: workers inherit the parent's imports for free.
    Elsewhere keep the platform default (macOS documents fork as unsafe —
    Accelerate/Objective-C state does not survive it); the spawn path works
    too, it just re-imports.
    """
    import multiprocessing as mp
    import sys

    if sys.platform == "linux" and "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


class ServerPool:
    """N worker processes, each a :class:`QueryServer` over the same store.

    The store directory is opened once here, so a missing directory raises
    :class:`~repro.errors.LabelingError` before any worker starts; a worker
    that exits before reporting its address raises
    :class:`~repro.serving.frames.TransportSetupError` with its exit code.
    Every worker memory-maps the same store files — the zero-copy sharing
    the bench asserts via each worker's
    ``stats()["store"]["copied_label_bytes"] == 0``.  ``close()`` sends
    each worker a ``shutdown`` request and joins it.
    """

    def __init__(self, store_dir, num_workers: int = 2, decode: str = "packed") -> None:
        store = LabelStore(store_dir)
        ctx = _mp_context()
        self.processes = []
        self.addresses: List[Tuple[str, int]] = []
        try:
            for _ in range(int(num_workers)):
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(store, child_conn, decode),
                    daemon=True,
                )
                proc.start()
                self.processes.append(proc)
                child_conn.close()
                try:
                    status, value = parent_conn.recv()
                except EOFError:
                    proc.join(timeout=5.0)
                    raise TransportSetupError(
                        f"server worker exited with code {proc.exitcode} "
                        "before reporting its address"
                    ) from None
                finally:
                    parent_conn.close()
                if status != "ok":
                    raise TransportSetupError(value)
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
