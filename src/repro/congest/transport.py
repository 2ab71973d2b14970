"""Pluggable boundary-exchange transports of the sharded CONGEST tier.

:func:`repro.congest.engine.run_sharded` partitions the node space with a
:class:`~repro.graphs.sharding.ShardPlan` and runs one worker process per
shard in a publish → verdict → gather lockstep.  Everything the parent and
the workers exchange per round — the published send mask/word slices, the
packed ``boundary_out`` payload values, the RUN/STOP verdict and the final
state merge — flows through the :class:`Transport` chosen for the run, so
the engine itself never touches an arena or a socket:

* :class:`SharedMemoryTransport` (default, ``transport="shm"``) — the
  in-host flavour.  One ``multiprocessing.shared_memory`` arena holds the
  double-banked mask/word/boundary-value segments and the shard-local state
  rows; rounds are paced by the pool barrier (two waits per round) and the
  bank flip keeps publish and gather race-free.  Zero copies cross process
  boundaries beyond the arena writes themselves.

* :class:`SocketTransport` (``transport="socket"``) — the wire flavour.
  Workers hold **no** shared memory: each keeps its state private and talks
  over localhost TCP with length-prefixed frames (a ``!I`` byte-count
  prefix).  Per worker there is one *control* connection to the parent —
  a pickled ``("hello", shard, port)`` handshake answered by the parent's
  ``("ports", {shard: port})`` broadcast, then per round one pickled
  ``("pub", shard, sent_idx, words, halted_count, halted_census)`` frame
  replacing the publish barrier and a raw 1-byte ``b"R"``/``b"S"`` verdict
  frame replacing the verdict barrier, and finally one pickled
  ``("fin", shard, state_arrays, peer_bytes)`` frame carrying the declared
  state rows for the parent-side merge.  Per :class:`PeerExchange` pair
  there is one raw peer connection (the lower-index shard dials the
  higher's ephemeral listener) carrying ``packbits(mask[src_local])``
  followed by the masked payload values, field by field — O(boundary)
  bytes per round, no indices on the wire, because the sender's
  ``ShardPlan.peer_links`` table is parallel to the receiver's
  ``PeerExchange``, which makes the byte stream bit-for-bit identical to
  the shared-memory gather.

Both transports drive the same worker loop and the same parent accounting,
so all five engine tiers stay bit-for-bit equivalent under either.  Use the
shared-memory flavour for speed on one host; use the socket flavour to
measure boundary traffic as a real network cost (``shard_stats`` gains
``wire_bytes_by_peer``/``wire_bytes_total``) or as the stepping stone to
true multi-host runs.
"""

from __future__ import annotations

import pickle
import socket as socket_mod
import struct
import time
from typing import Any, Dict, Optional

from repro.congest.engine import (
    _CMD_RUN,
    _CMD_STOP,
    _arena_layout,
    _arena_views,
    _attach_arena,
    _sharded_specs,
)
from repro.congest.kernels import PackedInbox
from repro.errors import SimulationError

__all__ = [
    "Transport",
    "SharedMemoryTransport",
    "SocketTransport",
    "TransportBrokenError",
    "TransportSetupError",
    "resolve_transport",
]


class TransportBrokenError(RuntimeError):
    """A transport connection failed mid-run (peer death, timeout, EOF)."""


class TransportSetupError(RuntimeError):
    """The transport could not be set up at all (e.g. an unbindable listener).

    Raised before any worker is committed to the run, so the engine can fall
    back to :class:`SharedMemoryTransport` with one ``EngineFallbackWarning``.
    """


def resolve_transport(transport) -> "Transport":
    """Resolve a ``transport=`` argument to a :class:`Transport` instance.

    ``None``/``"shm"``/``"shared_memory"`` → :class:`SharedMemoryTransport`;
    ``"socket"``/``"tcp"`` → :class:`SocketTransport`; an existing
    :class:`Transport` passes through unchanged.
    """
    if transport is None:
        return SharedMemoryTransport()
    if isinstance(transport, Transport):
        return transport
    if isinstance(transport, str):
        key = transport.lower().replace("-", "_")
        if key in ("shm", "shared_memory"):
            return SharedMemoryTransport()
        if key in ("socket", "tcp"):
            return SocketTransport()
    raise SimulationError(
        f"unknown shard transport {transport!r}; expected 'shm', 'socket', "
        "or a Transport instance"
    )


# --------------------------------------------------------------------------- #
# Length-prefixed frames
# --------------------------------------------------------------------------- #

_LEN = struct.Struct("!I")
_UNSET = object()


def _send_frame(sock, payload: bytes) -> int:
    """Send one ``!I``-length-prefixed frame; returns the bytes on the wire."""
    try:
        sock.sendall(_LEN.pack(len(payload)) + payload)
    except (OSError, ValueError) as exc:
        raise TransportBrokenError(
            f"transport connection lost while sending: {exc}"
        ) from None
    return _LEN.size + len(payload)


def _recv_exact(sock, nbytes: int) -> bytes:
    buf = bytearray()
    while len(buf) < nbytes:
        try:
            chunk = sock.recv(nbytes - len(buf))
        except socket_mod.timeout:
            raise TransportBrokenError(
                "timed out waiting for a transport frame"
            ) from None
        except OSError as exc:
            raise TransportBrokenError(
                f"transport connection lost: {exc}"
            ) from None
        if not chunk:
            raise TransportBrokenError("transport connection closed mid-stream")
        buf.extend(chunk)
    return bytes(buf)


def _recv_frame(sock) -> bytes:
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    return _recv_exact(sock, length)


#: Peer-mesh dial retry policy: a freshly announced listener port can refuse
#: connections for a beat if the OS is still installing the backlog (or the
#: accept side is briefly descheduled under load), so a refused dial is
#: retried with exponential backoff before the run is declared broken.
_DIAL_ATTEMPTS = 5
_DIAL_BACKOFF_BASE = 0.05  # seconds; doubles per attempt (~0.75 s total)


def _dial_peer(host: str, port: int, timeout: float, what: str):
    """Connect to ``(host, port)``, retrying refused dials with backoff.

    Only ``ConnectionRefusedError`` is retried — it is the one transient
    outcome of racing a listener that is provably coming up (the port was
    read from its hello frame).  Timeouts and other socket errors indicate a
    genuinely broken mesh and fail fast as before.
    """
    delay = _DIAL_BACKOFF_BASE
    for attempt in range(_DIAL_ATTEMPTS):
        try:
            return socket_mod.create_connection((host, port), timeout=timeout)
        except ConnectionRefusedError as exc:
            if attempt == _DIAL_ATTEMPTS - 1:
                raise TransportBrokenError(
                    f"cannot reach {what} at {host}:{port} after "
                    f"{_DIAL_ATTEMPTS} attempts: {exc}"
                ) from None
            time.sleep(delay)
            delay *= 2
        except OSError as exc:
            raise TransportBrokenError(
                f"cannot reach {what} at {host}:{port}: {exc}"
            ) from None


# --------------------------------------------------------------------------- #
# Transport interface
# --------------------------------------------------------------------------- #

class Transport:
    """A strategy for moving one sharded run's boundary exchange.

    ``create_parent`` returns the parent-side session (see
    :class:`_ShmParentSession` for the full protocol: ``descriptor`` /
    ``begin`` / ``wait_published`` / ``send_verdict`` / ``collect_states`` /
    ``wire_stats`` / ``abort`` / ``close``).  The session's ``descriptor()``
    is pickled into the run header; inside each worker its ``connect``
    builds the worker-side session (``adopt_state`` / ``publish`` /
    ``wait_verdict`` / ``gather`` / ``check_state`` / ``finish`` /
    ``close``) that :func:`repro.congest.engine._shard_worker_run` drives.
    """

    name = "?"

    def create_parent(self, plan, schema, state_schema, csr, *, timeout,
                      want_census, barrier=None):
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# Worker-side common machinery
# --------------------------------------------------------------------------- #

def _boundary_hits(mask, src_idx, slots_tab, val_idx_tab, hitbuf):
    """For every position t with ``mask[src_idx[t]]`` set, collect
    ``slots_tab[t]`` / ``val_idx_tab[t]`` (in t order) and mark
    ``hitbuf[slot] = True``."""
    got = mask[src_idx]
    slots = slots_tab[got]
    hitbuf[slots] = True
    return slots, val_idx_tab[got]


class _WorkerSessionBase:
    """Shared worker-session state: exchange tables and the gather buffers.

    The interior gather (slots fed by this shard's own previous sends) never
    crosses a transport — both flavours read it from the worker-private
    ``prev`` sends object, exactly as the original arena worker did.
    """

    def __init__(self, plan, shard_index, kernel, want_census) -> None:
        import numpy as np

        self._np = np
        self._plan = plan
        self._csr = plan.csr
        self._shard_index = shard_index
        self._shard = plan.shard(shard_index)
        self._exchange = plan.exchange(shard_index)
        self._kernel = kernel
        self._state_schema = kernel.state_schema(self._csr)
        self._field_names = [name for name, _ in kernel.schema.fields]
        self._field_dtypes = dict(kernel.schema.fields)
        self._size_words = kernel.schema.size_words
        self._alo = self._shard.arc_lo
        self._want_census = want_census
        self._has_halted = any(v.name == "halted" for v in self._state_schema)
        self._gather_buf = {
            f: np.empty(self._shard.num_arcs, dtype=np.dtype(d))
            for f, d in kernel.schema.fields
        }
        self._hitbuf = np.zeros(self._shard.num_arcs, dtype=bool)
        self._empty_idx = np.empty(0, dtype=np.int64)

    # Hooks a flavour may leave as no-ops ---------------------------------- #
    def adopt_state(self, state) -> None:
        return

    def check_state(self, state) -> None:
        return

    def finish(self, state) -> None:
        return

    def close(self) -> None:
        return

    # Gather helpers shared by both flavours ------------------------------- #
    def _gather_interior(self, prev) -> None:
        hitbuf = self._hitbuf
        hitbuf[:] = False
        exchange = self._exchange
        if prev is not None and exchange.int_src.shape[0]:
            # Collect the receiver-side slots fed by this shard's own sends
            # and mark them hit.
            slots, src = _boundary_hits(
                prev.mask, exchange.int_src, exchange.int_slots,
                exchange.int_src, hitbuf,
            )
            for f in self._field_names:
                self._gather_buf[f][slots] = prev.values[f][src]

    def _finish_gather(self):
        np = self._np
        hit = np.flatnonzero(self._hitbuf)
        arcs = self._alo + hit
        inbox = PackedInbox(
            arcs, {f: self._gather_buf[f][hit] for f in self._field_names}
        )
        return inbox, self._csr.indices[arcs]


# --------------------------------------------------------------------------- #
# Shared-memory flavour
# --------------------------------------------------------------------------- #

class _ShmWorkerFactory:
    """Picklable worker-side entry point of the shared-memory transport."""

    name = "shm"

    def __init__(self, shm_name, layout) -> None:
        self.shm_name = shm_name
        self.layout = layout

    def connect(self, plan, shard_index, kernel, barrier, timeout, want_census):
        return _ShmWorkerSession(
            self, plan, shard_index, kernel, barrier, timeout, want_census
        )


class _ShmWorkerSession(_WorkerSessionBase):
    """Worker side of the arena exchange (the original two-barrier lockstep).

    The banks alternate per publish (double buffering), which is what removes
    the third barrier of the original design: a worker publishing round
    ``r+1`` writes the opposite bank from the one its peers are still
    gathering round ``r`` from, so publish and gather never race.
    """

    def __init__(self, factory, plan, shard_index, kernel, barrier, timeout,
                 want_census) -> None:
        super().__init__(plan, shard_index, kernel, want_census)
        self._barrier = barrier
        self._timeout = timeout
        self._shm = _attach_arena(factory.shm_name)
        views = _arena_views(self._shm.buf, factory.layout)
        self._views = views
        s = shard_index
        fns = self._field_names
        self._ctrl = views["ctrl"]
        self._my_mask = [views[f"mask:{s}:{b}"] for b in (0, 1)]
        self._my_words = [views[f"words:{s}:{b}"] for b in (0, 1)]
        self._my_bval = [
            {f: views[f"bvalue:{s}:{f}:{b}"] for f in fns} for b in (0, 1)
        ]
        self._peer_mask = {
            p.peer: [views[f"mask:{p.peer}:{b}"] for b in (0, 1)]
            for p in self._exchange.peers
        }
        self._peer_bval = {
            p.peer: [
                {f: views[f"bvalue:{p.peer}:{f}:{b}"] for f in fns}
                for b in (0, 1)
            ]
            for p in self._exchange.peers
        }
        self._bout_local = plan.boundary_out(s) - self._alo
        self._state_views: Dict[str, Any] = {}
        self._bank = 0
        self._published = False

    def adopt_state(self, state) -> None:
        # Copy this shard's rows into the arena segments and rebind so every
        # subsequent kernel write lands in shared memory.
        for vec in self._state_schema:
            seg = self._views[f"state:{self._shard_index}:{vec.name}"]
            local = state[vec.name]
            if tuple(local.shape) != tuple(seg.shape):
                raise SimulationError(
                    f"kernel {type(self._kernel).__name__} allocated state "
                    f"vector {vec.name!r} with shape {tuple(local.shape)}; "
                    f"the shard-local contract requires {tuple(seg.shape)} "
                    f"(shard {self._shard_index})"
                )
            seg[...] = local
            state[vec.name] = seg
            self._state_views[vec.name] = seg

    def publish(self, sends, state) -> None:
        if self._published:
            self._bank ^= 1
        else:
            self._published = True
        bank = self._bank
        mask = self._my_mask[bank]
        if sends is None:
            mask[:] = False
        else:
            mask[:] = sends.mask
            words = self._my_words[bank]
            if sends.words is None:
                words[:] = self._size_words
            else:
                words[:] = sends.words
            if self._bout_local.shape[0]:
                bvals = self._my_bval[bank]
                for f in self._field_names:
                    bvals[f][:] = sends.values[f][self._bout_local]
        self._barrier.wait(self._timeout)

    def wait_verdict(self) -> bool:
        self._barrier.wait(self._timeout)
        return self._ctrl[0] != _CMD_STOP

    def gather(self, prev):
        bank = self._bank
        self._gather_interior(prev)
        for p in self._exchange.peers:
            slots, packed = _boundary_hits(
                self._peer_mask[p.peer][bank], p.src_local, p.recv_slots,
                p.src_packed, self._hitbuf,
            )
            if not slots.shape[0]:
                continue
            bvals = self._peer_bval[p.peer][bank]
            for f in self._field_names:
                self._gather_buf[f][slots] = bvals[f][packed]
        return self._finish_gather()

    def check_state(self, state) -> None:
        # Declared vectors must be mutated in place: a rebind would silently
        # detach this worker from the arena (the vectorized tier re-reads the
        # dict, so the bug would not show there).
        for vec in self._state_schema:
            if state[vec.name] is not self._state_views[vec.name]:
                raise SimulationError(
                    f"kernel rebound declared state vector {vec.name!r} "
                    "during round(); sharded kernels must write declared "
                    "state in place"
                )

    def close(self) -> None:
        self._views = None
        self._ctrl = None
        self._my_mask = self._my_words = self._my_bval = None
        self._peer_mask = self._peer_bval = None
        self._state_views = {}
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - state views still referenced
            pass


class _ShmPublishBatch:
    """One published round of the arena, read bank-aware from live views."""

    __slots__ = ("_sess", "_bank", "_hc")

    def __init__(self, sess, bank) -> None:
        self._sess = sess
        self._bank = bank
        self._hc = _UNSET

    def parts(self):
        sess = self._sess
        np = sess._np
        bank = self._bank
        for s in range(sess._k):
            idx = np.flatnonzero(sess._mask[s][bank])
            if idx.shape[0]:
                yield sess._arc_lo[s] + idx, sess._words[s][bank][idx]

    @property
    def halted_count(self) -> Optional[int]:
        if self._hc is _UNSET:
            sess = self._sess
            self._hc = (
                sum(int(hv.sum()) for hv in sess._halted)
                if sess._halted is not None
                else None
            )
        return self._hc

    def fill_halted(self, out) -> None:
        self._sess._np.concatenate(self._sess._halted, out=out)


class _ShmParentSession:
    """Parent side of the arena exchange: owns the block, reads live views."""

    name = "shm"

    def __init__(self, plan, schema, state_schema, csr, timeout, want_census,
                 barrier) -> None:
        import numpy as np
        from multiprocessing import shared_memory

        if barrier is None:
            raise SimulationError(
                "the shared-memory transport requires the pool barrier"
            )
        specs, state_bytes, exchange_bytes = _sharded_specs(
            plan, schema, state_schema, csr
        )
        layout, total = _arena_layout(specs)
        self._np = np
        self._plan = plan
        self._csr = csr
        self._state_schema = state_schema
        self._timeout = timeout
        self._barrier = barrier
        self._layout = layout
        # Created before the engine marks the pool busy: an allocation
        # failure here (e.g. ENOSPC on /dev/shm) must leave the pool
        # reusable, and it propagates as-is (no socket-style fallback below
        # shared memory exists).
        self._shm = shared_memory.SharedMemory(create=True, size=total)
        k = plan.num_shards
        self._k = k
        views = _arena_views(self._shm.buf, layout)
        self._views = views
        self._ctrl = views["ctrl"]
        self._mask = [[views[f"mask:{s}:{b}"] for b in (0, 1)] for s in range(k)]
        self._words = [
            [views[f"words:{s}:{b}"] for b in (0, 1)] for s in range(k)
        ]
        self._halted = (
            [views[f"state:{s}:halted"] for s in range(k)]
            if any(v.name == "halted" for v in state_schema)
            else None
        )
        self._arc_lo = [int(x) for x in plan.arc_starts[:-1]]
        self._bank = 0
        self._started = False
        self.state_bytes = [int(b) for b in state_bytes]
        self.exchange_bytes = [int(b) for b in exchange_bytes]
        self.arena_bytes = int(total)

    def descriptor(self):
        return _ShmWorkerFactory(self._shm.name, self._layout)

    def begin(self) -> None:
        return

    def wait_published(self):
        if self._started:
            self._bank ^= 1
        else:
            self._started = True
        self._barrier.wait(self._timeout)
        return _ShmPublishBatch(self, self._bank)

    def send_verdict(self, stop: bool) -> None:
        self._ctrl[0] = _CMD_STOP if stop else _CMD_RUN
        self._barrier.wait(self._timeout)

    def collect_states(self):
        np = self._np
        merged: Dict[str, Any] = {}
        for vec in self._state_schema:
            full = np.empty(vec.shape(self._csr), dtype=np.dtype(vec.dtype))
            for s in range(self._k):
                full[vec.row_slice(self._plan.shard(s))] = self._views[
                    f"state:{s}:{vec.name}"
                ]
            merged[vec.name] = full
        return merged

    def wire_stats(self):
        return {
            "wire_bytes_by_peer": {},
            "wire_control_bytes": 0,
            "wire_bytes_total": 0,
        }

    def abort(self) -> None:
        try:
            self._barrier.abort()
        except Exception:
            pass

    def close(self) -> None:
        # Drop our arena views before closing; if an in-flight exception's
        # traceback still pins one, unlink alone is enough (the mapping dies
        # with the last reference, the name is gone now).
        self._views = None
        self._ctrl = None
        self._mask = self._words = self._halted = None
        try:
            self._shm.close()
        except BufferError:
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double cleanup
            pass


class SharedMemoryTransport(Transport):
    """The default in-host transport: one shared-memory arena, pool barrier."""

    name = "shm"

    def create_parent(self, plan, schema, state_schema, csr, *, timeout,
                      want_census, barrier=None):
        return _ShmParentSession(
            plan, schema, state_schema, csr, timeout, want_census, barrier
        )


# --------------------------------------------------------------------------- #
# Socket flavour
# --------------------------------------------------------------------------- #

class _SocketWorkerFactory:
    """Picklable worker-side entry point of the socket transport."""

    name = "socket"

    def __init__(self, host, port) -> None:
        self.host = host
        self.port = port

    def connect(self, plan, shard_index, kernel, barrier, timeout, want_census):
        # The pool barrier is deliberately unused: rounds are paced by
        # control/peer frames so workers hold no shared synchronization
        # primitive beyond the job pipe.
        return _SocketWorkerSession(
            self, plan, shard_index, kernel, timeout, want_census
        )


class _SocketWorkerSession(_WorkerSessionBase):
    """Worker side of the TCP exchange: control frames + one conn per peer."""

    def __init__(self, factory, plan, shard_index, kernel, timeout,
                 want_census) -> None:
        super().__init__(plan, shard_index, kernel, want_census)
        np = self._np
        self._timeout = timeout
        self._ctrl = None
        self._listener = None
        self._peer_conns: Dict[int, Any] = {}
        s = shard_index
        host = factory.host
        # Send-side tables: parallel to each receiver's PeerExchange, so the
        # wire carries mask[src_local] + masked values and no indices.
        self._links = list(plan.peer_links(s))
        self._peer_sent: Dict[int, int] = {t: 0 for t, _ in self._links}
        self._zero_got = {
            t: np.zeros(src_local.shape[0], dtype=bool)
            for t, src_local in self._links
        }
        try:
            self._listener = socket_mod.create_server((host, 0))
            self._listener.settimeout(timeout)
            my_port = self._listener.getsockname()[1]
            try:
                self._ctrl = socket_mod.create_connection(
                    (host, factory.port), timeout=timeout
                )
            except OSError as exc:
                raise TransportBrokenError(
                    f"cannot reach the shard parent at {host}:{factory.port}: "
                    f"{exc}"
                ) from None
            self._ctrl.settimeout(timeout)
            _send_frame(
                self._ctrl,
                pickle.dumps(
                    ("hello", s, my_port), protocol=pickle.HIGHEST_PROTOCOL
                ),
            )
            _tag, ports = pickle.loads(_recv_frame(self._ctrl))
            # Build the peer mesh: the lower-index shard of each pair dials
            # the higher's listener (connects complete via the TCP backlog,
            # so dial-then-accept cannot deadlock) and identifies itself
            # with a 4-byte shard-index frame.
            peer_ids = sorted(self._peer_sent)
            for t in peer_ids:
                if t > s:
                    conn = _dial_peer(
                        host, ports[t], timeout, f"peer shard {t}"
                    )
                    conn.settimeout(timeout)
                    _send_frame(conn, _LEN.pack(s))
                    self._peer_conns[t] = conn
            for _ in range(sum(1 for t in peer_ids if t < s)):
                try:
                    conn, _addr = self._listener.accept()
                except socket_mod.timeout:
                    raise TransportBrokenError(
                        "timed out waiting for a peer shard connection"
                    ) from None
                except OSError as exc:
                    raise TransportBrokenError(
                        f"peer accept failed: {exc}"
                    ) from None
                conn.settimeout(timeout)
                (peer,) = _LEN.unpack(_recv_frame(conn))
                self._peer_conns[int(peer)] = conn
            self._listener.close()
            self._listener = None
        except BaseException:
            self.close()
            raise

    def publish(self, sends, state) -> None:
        np = self._np
        if sends is None:
            idx = self._empty_idx
            words = None
        else:
            idx = np.flatnonzero(sends.mask)
            words = (
                None
                if sends.words is None
                else np.ascontiguousarray(sends.words[idx])
            )
        hc = int(state["halted"].sum()) if self._has_halted else None
        census = (
            np.packbits(state["halted"]).tobytes()
            if (self._want_census and self._has_halted)
            else None
        )
        _send_frame(
            self._ctrl,
            pickle.dumps(
                ("pub", self._shard_index, idx, words, hc, census),
                protocol=pickle.HIGHEST_PROTOCOL,
            ),
        )
        for t, src_local in self._links:
            got = self._zero_got[t] if sends is None else sends.mask[src_local]
            chunks = [np.packbits(got).tobytes()]
            if sends is not None:
                gsel = src_local[got]
                if gsel.shape[0]:
                    for f in self._field_names:
                        chunks.append(
                            np.ascontiguousarray(sends.values[f][gsel]).tobytes()
                        )
            self._peer_sent[t] += _send_frame(
                self._peer_conns[t], b"".join(chunks)
            )

    def wait_verdict(self) -> bool:
        return _recv_frame(self._ctrl) == b"R"

    def gather(self, prev):
        np = self._np
        self._gather_interior(prev)
        for p in self._exchange.peers:
            frame = _recv_frame(self._peer_conns[p.peer])
            ln = p.recv_slots.shape[0]
            mask_bytes = (ln + 7) >> 3
            got = np.unpackbits(
                np.frombuffer(frame, dtype=np.uint8, count=mask_bytes),
                count=ln,
            ).astype(bool)
            count = int(got.sum())
            if count == 0:
                continue
            slots = p.recv_slots[got]
            self._hitbuf[slots] = True
            offset = mask_bytes
            for f in self._field_names:
                dt = np.dtype(self._field_dtypes[f])
                self._gather_buf[f][slots] = np.frombuffer(
                    frame, dtype=dt, count=count, offset=offset
                )
                offset += count * dt.itemsize
        return self._finish_gather()

    def finish(self, state) -> None:
        # Ship the declared state rows for the parent-side merge, plus this
        # worker's per-peer wire tally (only a clean STOP reaches here, so
        # aborted runs simply report no wire stats).
        arrays = {vec.name: state[vec.name] for vec in self._state_schema}
        peer_bytes = {
            f"{self._shard_index}->{t}": int(nbytes)
            for t, nbytes in sorted(self._peer_sent.items())
        }
        _send_frame(
            self._ctrl,
            pickle.dumps(
                ("fin", self._shard_index, arrays, peer_bytes),
                protocol=pickle.HIGHEST_PROTOCOL,
            ),
        )

    def close(self) -> None:
        for conn in self._peer_conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._peer_conns = {}
        if self._ctrl is not None:
            try:
                self._ctrl.close()
            except OSError:
                pass
            self._ctrl = None
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None


class _SocketPublishBatch:
    """One published round assembled from the workers' pub frames."""

    __slots__ = ("_sess", "_pubs")

    def __init__(self, sess, pubs) -> None:
        self._sess = sess
        self._pubs = pubs

    def parts(self):
        np = self._sess._np
        sess = self._sess
        for s, (idx, words, _hc, _census) in enumerate(self._pubs):
            if idx.shape[0] == 0:
                continue
            # words=None means every message is the schema's fixed size —
            # exactly what the arena flavour writes into its words bank.
            w = (
                words
                if words is not None
                else np.full(idx.shape[0], sess._size_words, dtype=np.int64)
            )
            yield sess._arc_lo[s] + idx, w

    @property
    def halted_count(self) -> Optional[int]:
        if not self._sess._has_halted:
            return None
        return sum(int(p[2]) for p in self._pubs)

    def fill_halted(self, out) -> None:
        np = self._sess._np
        plan = self._sess._plan
        for s, (_idx, _w, _hc, census) in enumerate(self._pubs):
            shard = plan.shard(s)
            bits = np.unpackbits(
                np.frombuffer(census, dtype=np.uint8), count=shard.num_nodes
            )
            out[shard.node_lo:shard.node_hi] = bits.astype(bool)


class _SocketParentSession:
    """Parent side of the TCP exchange: the listener and k control conns."""

    name = "socket"

    def __init__(self, host, plan, schema, state_schema, csr, timeout,
                 want_census) -> None:
        import numpy as np

        self._np = np
        self._host = host
        self._plan = plan
        self._csr = csr
        self._state_schema = state_schema
        self._timeout = timeout
        self._k = plan.num_shards
        self._has_halted = any(v.name == "halted" for v in state_schema)
        self._size_words = schema.size_words
        self._arc_lo = [int(x) for x in plan.arc_starts[:-1]]
        self._conns: Dict[int, Any] = {}
        self._ctrl_bytes = 0
        self._peer_bytes: Dict[str, int] = {}
        self._pub = [None] * self._k
        try:
            self._listener = socket_mod.create_server((host, 0))
        except OSError as exc:
            raise TransportSetupError(
                f"cannot listen on {host!r} for shard workers: {exc}"
            ) from None
        self._listener.settimeout(timeout)
        self._port = self._listener.getsockname()[1]
        # The socket flavour allocates no arena; the per-shard declared
        # state footprint is still reported so memory assertions hold.
        self.state_bytes = [
            int(state_schema.local_nbytes(plan.shard(s)))
            for s in range(self._k)
        ]
        self.exchange_bytes = [0] * self._k
        self.arena_bytes = 0

    def descriptor(self):
        return _SocketWorkerFactory(self._host, self._port)

    def begin(self) -> None:
        ports: Dict[int, int] = {}
        for _ in range(self._k):
            try:
                conn, _addr = self._listener.accept()
            except socket_mod.timeout:
                raise TransportBrokenError(
                    "timed out waiting for shard workers to connect"
                ) from None
            except OSError as exc:
                raise TransportBrokenError(
                    f"worker accept failed: {exc}"
                ) from None
            conn.settimeout(self._timeout)
            frame = _recv_frame(conn)
            self._ctrl_bytes += _LEN.size + len(frame)
            _tag, s, peer_port = pickle.loads(frame)
            self._conns[s] = conn
            ports[s] = peer_port
        blob = pickle.dumps(("ports", ports), protocol=pickle.HIGHEST_PROTOCOL)
        for s in range(self._k):
            self._ctrl_bytes += _send_frame(self._conns[s], blob)

    def wait_published(self):
        for s in range(self._k):
            frame = _recv_frame(self._conns[s])
            self._ctrl_bytes += _LEN.size + len(frame)
            _tag, _s, idx, words, hc, census = pickle.loads(frame)
            self._pub[s] = (idx, words, hc, census)
        return _SocketPublishBatch(self, list(self._pub))

    def send_verdict(self, stop: bool) -> None:
        frame = b"S" if stop else b"R"
        for s in range(self._k):
            self._ctrl_bytes += _send_frame(self._conns[s], frame)

    def collect_states(self):
        np = self._np
        parts = [None] * self._k
        for s in range(self._k):
            frame = _recv_frame(self._conns[s])
            self._ctrl_bytes += _LEN.size + len(frame)
            _tag, _s, arrays, peer_bytes = pickle.loads(frame)
            parts[s] = arrays
            for key, nbytes in peer_bytes.items():
                self._peer_bytes[key] = self._peer_bytes.get(key, 0) + int(nbytes)
        merged: Dict[str, Any] = {}
        for vec in self._state_schema:
            full = np.empty(vec.shape(self._csr), dtype=np.dtype(vec.dtype))
            for s in range(self._k):
                full[vec.row_slice(self._plan.shard(s))] = parts[s][vec.name]
            merged[vec.name] = full
        return merged

    def wire_stats(self):
        peer_total = sum(self._peer_bytes.values())
        return {
            "wire_bytes_by_peer": dict(sorted(self._peer_bytes.items())),
            "wire_control_bytes": int(self._ctrl_bytes),
            "wire_bytes_total": int(self._ctrl_bytes + peer_total),
        }

    def abort(self) -> None:
        # Tearing the connections down wakes every worker blocked on a frame
        # (their recv raises TransportBrokenError and they park or exit).
        self.close()

    def close(self) -> None:
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._conns = {}
        try:
            self._listener.close()
        except OSError:
            pass


class SocketTransport(Transport):
    """Localhost-TCP transport: shard workers hold no shared memory.

    ``host`` is the interface both the parent listener and every worker
    listener bind to (default loopback).  Construction is cheap; the
    listener is bound per run in ``create_parent``, and a bind failure
    raises :class:`TransportSetupError` so the engine can degrade to
    :class:`SharedMemoryTransport` with a single ``EngineFallbackWarning``.
    """

    name = "socket"

    def __init__(self, host: str = "127.0.0.1") -> None:
        self.host = host

    def create_parent(self, plan, schema, state_schema, csr, *, timeout,
                      want_census, barrier=None):
        return _SocketParentSession(
            self.host, plan, schema, state_schema, csr, timeout, want_census
        )
