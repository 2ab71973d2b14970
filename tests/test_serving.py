"""Tests for the serving subsystem (:mod:`repro.serving`).

Covers the :class:`LabelStore` corpus lifecycle (build → persist → reopen
memory-mapped, residency accounting), the :class:`QueryServer` protocol
round trips and its point path (driven tick by tick: every point is
answered in the tick that reads it, by one decode call), the
fault-containment paths — an unbindable listener raises a clean
:class:`~repro.serving.frames.TransportSetupError`, clients that
disconnect mid-frame or announce oversized frames are dropped and counted
while the server keeps serving, malformed payloads answer ``("err", …)``
without killing the connection — the frame helpers of
:mod:`repro.serving.frames` and the client's
:class:`~repro.serving.frames.TransportBrokenError` paths, and the
multi-process :class:`ServerPool` zero-copy contract and its start-up
errors.  Everything here must pass with and without numpy (the
pure-python packed fallback serves the same floats).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import socket
import threading

import pytest

from repro.congest.kernels import vectorized_available
from repro.errors import LabelingError
from repro.graphs import generators
from repro.labeling.labels import DistanceLabel, DistanceLabeling
from repro.labeling.packed import PackedLabeling
from repro.serving import (
    LabelStore,
    QueryClient,
    QueryRejectedError,
    QueryServer,
    ServerPool,
    seeded_corpus,
)
from repro.serving import server as server_mod
from repro.serving.frames import (
    _LEN,
    TransportBrokenError,
    TransportSetupError,
    _recv_frame,
    _send_frame,
)
from repro.serving.server import _mp_context
from repro.serving.store import STORE_SUFFIX
from test_packed_labeling import assert_plain_mapped_views

N = 14  # corpus graph size: small enough that every test is tier-1 fast


def _instance(master_seed, n=N):
    graph = generators.partial_k_tree(n, 3, 0.6, seed=master_seed)
    return generators.to_directed_instance(
        graph, weight_range=(1, 9), orientation="asymmetric", seed=master_seed
    )


@pytest.fixture()
def store(tmp_path, master_seed):
    return LabelStore.build(
        {"ktree": _instance(master_seed)}, tmp_path / "store"
    )


def _send_request(sock, request) -> None:
    _send_frame(sock, pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL))


def _read_reply(sock):
    return pickle.loads(_recv_frame(sock))


def _connected(server, count=1):
    """Raw client sockets, accepted by the server (one tick)."""
    socks = [socket.create_connection(server.address, timeout=5.0) for _ in range(count)]
    for s in socks:
        s.settimeout(5.0)
    server.tick(timeout=0.2)  # accept them
    assert server.stats()["counters"]["accepted_clients"] >= count
    return socks if count > 1 else socks[0]


# --------------------------------------------------------------------------- #
# LabelStore
# --------------------------------------------------------------------------- #
class TestLabelStore:
    def test_build_persists_and_reopens(self, store, tmp_path):
        assert store.graphs() == ("ktree",)
        assert store.path("ktree").endswith("ktree" + STORE_SUFFIX)
        packed = store.get("ktree")
        assert store.get("ktree") is packed  # cached
        labeling = store.labeling("ktree")
        assert store.labeling("ktree") is labeling
        for u in list(packed.vertices())[:5]:
            for v in packed.vertices():
                assert packed.distance(u, v) == labeling.distance(u, v)
        # A fresh handle on the same directory serves identical answers.
        reopened = LabelStore(tmp_path / "store")
        assert reopened.graphs() == ("ktree",)
        u, v = list(packed.vertices())[:2]
        assert reopened.get("ktree").distance(u, v) == packed.distance(u, v)

    def test_unknown_graph_names_available(self, store):
        with pytest.raises(LabelingError, match="ktree"):
            store.path("nope")
        with pytest.raises(LabelingError, match="unknown graph"):
            store.get("nope")

    def test_non_str_names_are_unknown_graphs(self, store):
        for bad in (5, None, ("ktree",), {"x": 1}, ["ktree"]):
            with pytest.raises(LabelingError, match="unknown graph"):
                store.path(bad)
            with pytest.raises(LabelingError, match="unknown graph"):
                store.get(bad)
            with pytest.raises(LabelingError, match="unknown graph"):
                store.labeling(bad)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(LabelingError, match="not found"):
            LabelStore(tmp_path / "absent")

    def test_invalid_names_rejected(self, tmp_path, master_seed):
        instance = _instance(master_seed, n=6)
        for bad in ("../escape", "a/b", "", ".hidden", 7):
            with pytest.raises(LabelingError, match="name"):
                LabelStore.build({bad: instance}, tmp_path / "bad")

    def test_corpus_value_types(self, tmp_path, master_seed):
        rng = random.Random(master_seed)
        lab = DistanceLabel("x")
        lab.set_entry("x", 0.0, 0.0)
        labeling = DistanceLabeling({"x": lab})
        corpus = {
            "packed": PackedLabeling.from_labeling(labeling),
            "dictform": labeling,
            "digraph": _instance(master_seed, n=6),
            "undirected": generators.cycle_graph(5),
        }
        built = LabelStore.build(corpus, tmp_path / "mixed")
        assert built.graphs() == tuple(sorted(corpus))
        for name in corpus:
            assert len(built.get(name)) > 0
        with pytest.raises(LabelingError, match="unsupported type"):
            LabelStore.build({"bogus": rng}, tmp_path / "mixed")

    def test_stats_accounting(self, store):
        before = store.stats()
        assert before["graphs"] == 1 and before["opened"] == 0
        packed = store.get("ktree")
        after = store.stats()
        assert after["opened"] == 1
        per = after["per_graph"]["ktree"]
        assert per["file_bytes"] > per["array_bytes"] > 0
        if vectorized_available():
            assert_plain_mapped_views(packed)
            assert after["copied_label_bytes"] == 0
            assert after["mapped_bytes"] == packed.array_bytes
        else:
            assert after["mapped_bytes"] == 0

    def test_unmapped_store_copies(self, tmp_path, store):
        if not vectorized_available():
            pytest.skip("heap-vs-mapped accounting needs numpy")
        heap_store = LabelStore(store.directory, mmap=False)
        heap_store.get("ktree")
        stats = heap_store.stats()
        assert stats["mapped_bytes"] == 0
        assert stats["copied_label_bytes"] > 0

    def test_seeded_corpus_shape(self, master_seed):
        corpus = seeded_corpus(master_seed, 12)
        assert len(corpus) == 3
        assert any(name.startswith("ktree") for name in corpus)
        # Deterministic: the same seed rebuilds the same instances.
        again = seeded_corpus(master_seed, 12)
        for name in corpus:
            assert sorted(
                (e.tail, e.head, e.weight) for e in corpus[name].edges()
            ) == sorted((e.tail, e.head, e.weight) for e in again[name].edges())


# --------------------------------------------------------------------------- #
# Protocol round trips (server on a thread)
# --------------------------------------------------------------------------- #
class TestQueryServerProtocol:
    @pytest.fixture(params=["packed", "scalar"])
    def running(self, request, store):
        with QueryServer(store, decode=request.param) as server:
            stop = threading.Event()
            thread = threading.Thread(
                target=server.serve_forever,
                kwargs={"stop": stop, "tick_timeout": 0.01},
                daemon=True,
            )
            thread.start()
            try:
                yield server
            finally:
                stop.set()
                thread.join(timeout=5.0)
                assert not thread.is_alive()

    def test_round_trips(self, running, store):
        packed = store.get("ktree")
        vertices = list(packed.vertices())
        us = vertices[:6] * 2
        vs = vertices[-6:] * 2
        expected = [packed.distance(u, v) for u, v in zip(us, vs)]
        with QueryClient(running.address) as client:
            assert client.ping() == "pong"
            assert client.graphs() == ["ktree"]
            assert client.query("ktree", us, vs) == expected
            for u, v, want in list(zip(us, vs, expected))[:4]:
                assert client.point("ktree", u, v) == want
            stats = client.server_stats()
        assert stats["decode"] == running.decode
        assert stats["counters"]["batched_queries"] == len(us)
        assert stats["counters"]["point_queries"] == 4
        assert stats["pid"] != 0

    def test_application_refusals_keep_connection(self, running, store):
        vertices = list(store.get("ktree").vertices())
        u = vertices[0]
        with QueryClient(running.address) as client:
            with pytest.raises(QueryRejectedError, match="unknown graph"):
                client.query("nope", [u], [u])
            with pytest.raises(QueryRejectedError, match="unknown graph"):
                client.point("nope", u, u)
            with pytest.raises(QueryRejectedError, match="no label"):
                client.query("ktree", [u] * 6, ["ghost"] * 6)
            with pytest.raises(QueryRejectedError, match="no label"):
                client.point("ktree", u, "ghost")
            with pytest.raises(QueryRejectedError, match="pairs"):
                client.query("ktree", [u, u], [u])
            with pytest.raises(QueryRejectedError, match="unknown request"):
                client._call(("warp", 9))
            # The connection survived every refusal.
            assert client.ping() == "pong"
            counters = client.server_stats()["counters"]
        assert counters["malformed_requests"] == 1
        assert counters["dropped_clients"] == 0

    def test_mixed_good_and_bad_points_in_one_tick(self, running, store):
        """A point naming an unknown vertex gets its own ``err`` reply and
        a concurrent good point on the same graph is still answered."""
        vertices = list(store.get("ktree").vertices())
        u, v = vertices[0], vertices[-1]
        want = store.get("ktree").distance(u, v)
        with QueryClient(running.address) as good, QueryClient(
            running.address
        ) as bad:
            results = {}

            def ask_bad():
                with pytest.raises(QueryRejectedError, match="no label"):
                    bad.point("ktree", u, "ghost")
                results["bad"] = True

            t = threading.Thread(target=ask_bad, daemon=True)
            t.start()
            assert good.point("ktree", u, v) == want
            t.join(timeout=5.0)
            assert results.get("bad")

    def test_scalar_and_packed_servers_agree(self, store):
        packed = store.get("ktree")
        vertices = list(packed.vertices())
        us = [vertices[i % len(vertices)] for i in range(10)]
        vs = [vertices[(3 * i) % len(vertices)] for i in range(10)]
        answers = {}
        for decode in ("packed", "scalar"):
            with QueryServer(store, decode=decode) as server:
                sock = _connected(server)
                _send_request(sock, ("query", "ktree", us, vs))
                server.tick(timeout=0.2)
                status, answers[decode] = _read_reply(sock)
                assert status == "ok"
                sock.close()
        assert answers["packed"] == answers["scalar"]

    def test_unknown_decode_mode_rejected(self, store):
        with pytest.raises(LabelingError, match="decode"):
            QueryServer(store, decode="quantum")


# --------------------------------------------------------------------------- #
# The point path (driven tick by tick)
# --------------------------------------------------------------------------- #
#: The counter keys the repo benchmark reads from ``stats()`` (perfbench/run.py).
PERFBENCH_COUNTERS = {
    "requests", "point_queries", "batch_calls", "max_batch", "ticks",
    "dropped_clients",
}


class TestPointPath:
    @pytest.mark.parametrize("decode", ["packed", "scalar"])
    def test_each_point_is_one_decode_call_in_its_tick(
        self, store, decode, monkeypatch
    ):
        packed = store.get("ktree")
        vertices = list(packed.vertices())
        pairs = [(vertices[i], vertices[-1 - i]) for i in range(4)]
        expected = [packed.distance(u, v) for u, v in pairs]
        calls = []

        def spy(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(
            PackedLabeling, "distance", spy("distance", PackedLabeling.distance)
        )
        monkeypatch.setattr(
            PackedLabeling, "query", spy("query", PackedLabeling.query)
        )
        monkeypatch.setattr(
            server_mod, "decode_distance",
            spy("decode_distance", server_mod.decode_distance),
        )
        with QueryServer(store, decode=decode) as server:
            socks = _connected(server, count=4)
            before = server.stats()["counters"]
            calls.clear()
            for sock, (u, v) in zip(socks, pairs):
                _send_request(sock, ("point", "ktree", u, v))
            assert server.tick(timeout=0.5) == 4  # all four read in one tick
            after = server.stats()["counters"]
            for sock, want in zip(socks, expected):
                assert _read_reply(sock) == ("ok", want)
            for sock in socks:
                sock.close()
        # One decode call per point, on the mode's one point path.
        one_path = "distance" if decode == "packed" else "decode_distance"
        assert calls == [one_path] * 4
        assert after["point_queries"] - before["point_queries"] == 4
        assert after["batch_calls"] - before["batch_calls"] == 4
        assert after["max_batch"] == 1
        assert PERFBENCH_COUNTERS <= set(after)


# --------------------------------------------------------------------------- #
# Fault containment
# --------------------------------------------------------------------------- #
class TestFaultPaths:
    def test_unbindable_listener_raises_transport_setup_error(self, store):
        # TEST-NET-3 (RFC 5737): never assigned to a local interface, so the
        # bind fails with EADDRNOTAVAIL without touching any real network.
        try:
            server = QueryServer(store, host="203.0.113.1")
        except TransportSetupError as exc:
            assert "cannot listen" in str(exc)
        else:  # pragma: no cover - platform quirk
            server.close()
            pytest.skip("host unexpectedly bindable on this platform")

    def test_client_disconnect_mid_frame_is_dropped_not_fatal(self, store):
        packed = store.get("ktree")
        u, v = list(packed.vertices())[:2]
        with QueryServer(store, client_timeout=1.0) as server:
            bad, good = _connected(server, count=2)
            # Announce a 100-byte frame, deliver 10 bytes, vanish.
            bad.sendall(_LEN.pack(100) + b"\x00" * 10)
            bad.close()
            _send_request(good, ("point", "ktree", u, v))
            server.tick(timeout=0.5)
            server.tick(timeout=0.2)  # in case bad/good landed in one tick
            counters = server.stats()["counters"]
            assert counters["dropped_clients"] == 1
            # The survivor still got its answer.
            assert _read_reply(good) == ("ok", packed.distance(u, v))
            good.close()

    def test_truncated_header_is_dropped(self, store):
        with QueryServer(store, client_timeout=1.0) as server:
            sock = _connected(server)
            sock.sendall(b"\x00\x01")  # half a length prefix, then EOF
            sock.close()
            server.tick(timeout=0.5)
            assert server.stats()["counters"]["dropped_clients"] == 1

    def test_oversized_frame_dropped_without_reading_body(self, store):
        packed = store.get("ktree")
        u, v = list(packed.vertices())[:2]
        with QueryServer(store, max_frame_bytes=1024) as server:
            sock = _connected(server)
            # The body never needs to exist: the declared length alone
            # condemns the frame.
            sock.sendall(_LEN.pack(50_000_000))
            server.tick(timeout=0.5)
            counters = server.stats()["counters"]
            assert counters["oversized_frames"] == 1
            assert counters["dropped_clients"] == 1
            # The server dropped the connection (EOF on our side)…
            assert sock.recv(1) == b""
            sock.close()
            # …and keeps serving new clients.
            fresh = _connected(server)
            _send_request(fresh, ("point", "ktree", u, v))
            server.tick(timeout=0.5)
            assert _read_reply(fresh) == ("ok", packed.distance(u, v))
            fresh.close()

    def test_malformed_payloads_answer_err_and_survive(self, store):
        u, v = list(store.get("ktree").vertices())[:2]
        mistyped = (
            ("query", "ktree", 5, 6),
            ("point", "ktree", [1], [2]),
            ("query", "ktree", [[1]], [[2]]),
            ("point", {"x": 1}, u, v),
            ("query", {"x": 1}, [u], [v]),
        )
        for decode in ("packed", "scalar"):
            with QueryServer(store, decode=decode) as server:
                sock = _connected(server)
                # Undecodable bytes.
                _send_frame(sock, b"\x80\x05this is not a pickle")
                server.tick(timeout=0.5)
                status, message = _read_reply(sock)
                assert status == "err" and "undecodable" in message
                # Decodable but not a request tuple.
                _send_request(sock, {"verb": "ping"})
                server.tick(timeout=0.5)
                status, message = _read_reply(sock)
                assert status == "err" and "malformed" in message
                # The connection is still healthy.
                _send_request(sock, ("ping",))
                server.tick(timeout=0.5)
                assert _read_reply(sock) == ("ok", "pong")
                # Well-framed requests with wrongly typed fields answer
                # "err", and the connection stays healthy after each.
                for request in mistyped:
                    _send_request(sock, request)
                    server.tick(timeout=0.5)
                    assert _read_reply(sock)[0] == "err", (decode, request)
                    _send_request(sock, ("ping",))
                    server.tick(timeout=0.5)
                    assert _read_reply(sock) == ("ok", "pong")
                counters = server.stats()["counters"]
                assert counters["malformed_requests"] == 2
                assert counters["dropped_clients"] == 0
                sock.close()


# --------------------------------------------------------------------------- #
# Frame helpers and client failure paths
# --------------------------------------------------------------------------- #
def _scripted_server(reply):
    """A one-connection listener that reads one request frame, then answers
    ``reply`` as a frame (``None``: closes without replying)."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5.0)

    def serve():
        with listener:
            conn, _ = listener.accept()
            with conn:
                _recv_frame(conn)
                if reply is not None:
                    _send_frame(conn, pickle.dumps(reply))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname()[:2], thread


class TestFrames:
    def test_send_to_closed_peer_raises_broken(self):
        a, b = socket.socketpair()
        b.close()
        with a, pytest.raises(TransportBrokenError, match="while sending"):
            _send_frame(a, b"x" * 64)

    def test_recv_past_timeout_raises_broken(self):
        a, b = socket.socketpair()
        a.settimeout(0.05)
        with a, b, pytest.raises(TransportBrokenError, match="timed out"):
            _recv_frame(a)

    def test_ping_when_server_closes_without_reply_raises_broken(self):
        address, thread = _scripted_server(None)
        with QueryClient(address, timeout=5.0) as client:
            with pytest.raises(TransportBrokenError, match="closed mid-stream"):
                client.ping()
        thread.join(5.0)
        assert not thread.is_alive()

    def test_ping_with_non_pair_reply_raises_broken(self):
        address, thread = _scripted_server("pong")
        with QueryClient(address, timeout=5.0) as client:
            with pytest.raises(TransportBrokenError, match="malformed server reply"):
                client.ping()
        thread.join(5.0)
        assert not thread.is_alive()


# --------------------------------------------------------------------------- #
# Multi-process pool
# --------------------------------------------------------------------------- #
class TestServerPool:
    def test_two_workers_share_one_mapped_store(self, store, tmp_path):
        packed = store.get("ktree")
        vertices = list(packed.vertices())
        us, vs = vertices[:6], vertices[-6:]
        expected = [packed.distance(u, v) for u, v in zip(us, vs)]
        with ServerPool(store.directory, num_workers=2) as pool:
            assert len(pool.addresses) == 2
            assert len({addr for addr in pool.addresses}) == 2
            pids = set()
            for address in pool.addresses:
                with QueryClient(address) as client:
                    assert client.query("ktree", us, vs) == expected
                    stats = client.server_stats()
                pids.add(stats["pid"])
                if vectorized_available():
                    # The zero-copy contract: every worker maps the same
                    # file; no label bytes are copied into worker heaps.
                    assert stats["store"]["copied_label_bytes"] == 0
                    assert stats["store"]["mapped_bytes"] == packed.array_bytes
            assert len(pids) == 2  # genuinely separate processes
            procs = list(pool.processes)
        for proc in procs:  # close() shut every worker down
            assert not proc.is_alive()

    def test_pool_shutdown_is_idempotent(self, store):
        pool = ServerPool(store.directory, num_workers=1)
        pool.close()
        pool.close()
        assert pool.addresses == [] and pool.processes == []

    def test_missing_store_raises_labeling_error_before_any_worker(
        self, tmp_path
    ):
        missing = tmp_path / "absent"
        before = len(multiprocessing.active_children())
        with pytest.raises(LabelingError, match="absent.*not found"):
            ServerPool(missing, num_workers=1)
        assert len(multiprocessing.active_children()) == before

    @pytest.mark.skipif(
        _mp_context().get_start_method() != "fork",
        reason="a monkeypatched worker entry reaches only forked workers",
    )
    def test_worker_exiting_before_it_reports_raises_setup_error(
        self, store, monkeypatch
    ):
        monkeypatch.setattr(server_mod, "_worker_main", lambda *args: os._exit(3))
        with pytest.raises(TransportSetupError, match="exited with code 3"):
            ServerPool(store.directory, num_workers=2)
