"""Differential schedule-fuzz harness for the asynchronous engine tier.

The async tier's defining invariant (``src/repro/congest/scheduler.py``):

* under :class:`UnitDelay` the whole run — results, message/word/bandwidth
  ledger, round traces — is **bit-for-bit identical** to the three
  synchronous tiers (legacy, fast, vectorized), asserted here on
  the same ~30 seeded graph families as ``test_engine_equivalence.py``;
* under *any* seeded delay model, protocol outputs (distances, parents,
  labels, leaders) and the full message ledger are **schedule-invariant**,
  asserted across multiple independently seeded schedules per family via
  the :class:`ScheduleFuzzer` fixture (``conftest.py``), whose seeds all
  derive from the session ``--seed``;
* the event streams themselves — per family and delay model, under both
  event queues — are pinned to sha256 digests (:class:`TestEventStreamDigest`).

The heavy multi-seed sweeps are marked ``fuzz`` (deselected by default; CI
runs them in a dedicated step via ``-m fuzz``); a small-seed subset runs in
the default job.  The module also checks that the async tier runs every
:class:`DelayModel` instance without falling back, and the
:class:`EngineFallbackWarning` message contract of the one remaining
fallback, ``vectorized`` → ``fast`` (both tiers must be named).
"""

from __future__ import annotations

import hashlib
import random
import warnings

import pytest

from test_engine_equivalence import FAMILIES, _assert_identical, _pseudo_labeling

from repro.congest.bellman_ford import distributed_bellman_ford
from repro.congest.engine import EngineFallbackWarning, SimulationTrace
from repro.congest.kernels import vectorized_available
from repro.congest.network import CongestNetwork
from repro.congest.node import BroadcastAll, NodeAlgorithm
from repro.congest.primitives import (
    FloodBroadcastNode,
    broadcast,
    build_bfs_tree,
    convergecast_sum,
    elect_leader,
    flood_chunks,
)
from repro.congest.scheduler import (
    DelayModel,
    EventRecord,
    PerArcDelay,
    SlowLinkDelay,
    UniformDelay,
    UnitDelay,
)
from repro.errors import (
    BandwidthExceededError,
    ConvergenceError,
    GraphError,
    SimulationError,
)
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.labeling.sssp import LabelBroadcastNode, measured_label_broadcast

#: Families exercised by the default-job schedule-invariance subset (the
#: ``fuzz``-marked sweep covers every family).
SMALL_SWEEP = (
    "path_12",
    "cycle_9",
    "star_15",
    "grid_4x5",
    "random_tree_0",
    "partial_k_tree_1",
    "series_parallel_0",
    "glued_0",
)

def _deterministic_stats(simulation):
    """``async_stats`` minus its single wall-clock entry (``events_per_sec``
    measures this run's throughput and is never reproducible)."""
    stats = dict(simulation.async_stats)
    stats.pop("events_per_sec", None)
    return stats


class ZeroDelayModel(DelayModel):
    """A contract-violating model (module-level so it stays picklable)."""

    def delay(self, arc, pulse):
        return 0


class BoolDelayModel(DelayModel):
    """Another contract violation: bool is not an accepted delay type."""

    def delay(self, arc, pulse):
        return True


class NumpyIntDelay(DelayModel):
    """Delays as numpy integers — any integral type must be accepted."""

    def delay(self, arc, pulse):
        import numpy as np

        return np.int64(1 + (arc + pulse) % 3)


@pytest.fixture(params=[name for name, _ in FAMILIES])
def family_graph(request, master_seed):
    name = request.param
    builder = dict(FAMILIES)[name]
    graph = builder(master_seed + len(name))
    assert graph.num_nodes() > 0
    return graph


@pytest.fixture(params=SMALL_SWEEP)
def sweep_graph(request, master_seed):
    builder = dict(FAMILIES)[request.param]
    return builder(master_seed + len(request.param))


def _bf_instance(graph, master_seed):
    return generators.to_directed_instance(
        graph, weight_range=(1, 9), orientation="asymmetric", seed=master_seed
    )


# --------------------------------------------------------------------------- #
# Unit-delay: bit-for-bit against all three synchronous tiers
# --------------------------------------------------------------------------- #
class TestUnitDelayEquivalence:
    """``engine="async"`` + :class:`UnitDelay` ≡ legacy ≡ fast ≡ vectorized:
    results, ledger and round traces, on every equivalence family."""

    def test_bellman_ford_four_tiers(self, family_graph, master_seed):
        instance = _bf_instance(family_graph, master_seed)
        source = min(family_graph.nodes(), key=str)
        engines = ["fast", "legacy"]
        if vectorized_available():
            engines.append("vectorized")
        traces = {e: SimulationTrace() for e in engines + ["async"]}
        runs = {
            e: distributed_bellman_ford(instance, source, engine=e, trace=traces[e])
            for e in engines
        }
        runs["async"] = distributed_bellman_ford(
            instance, source, engine="async", delay_model=UnitDelay(),
            trace=traces["async"],
        )
        asy = runs["async"]
        assert asy.simulation.engine == "async"
        _assert_identical(*(r.simulation for r in runs.values()))
        for r in runs.values():
            assert r.distances == asy.distances
            assert r.parents == asy.parents
        for e in engines:
            assert traces[e].as_dicts() == traces["async"].as_dicts()
        # Unit delays are the synchronous clock: virtual time == rounds.
        assert asy.simulation.virtual_time == asy.rounds
        assert asy.simulation.async_stats["max_arc_in_flight"] <= 1

    def test_chunk_flood_unit_delay(self, family_graph, master_seed):
        rng = random.Random(master_seed + family_graph.num_edges())
        root = min(family_graph.nodes(), key=str)
        chunks = [("chunk", k, rng.randint(0, 99)) for k in range(rng.randint(1, 7))]
        net = CongestNetwork(family_graph, words_per_message=8)
        ref_trace, async_trace = SimulationTrace(), SimulationTrace()
        ref_received, ref = flood_chunks(
            net, root, chunks, engine="fast", trace=ref_trace
        )
        received, run = flood_chunks(
            net, root, chunks, engine="async", trace=async_trace
        )
        assert run.engine == "async"
        _assert_identical(ref, run)
        assert received == ref_received
        assert async_trace.as_dicts() == ref_trace.as_dicts()
        assert run.virtual_time == run.rounds

    def test_bfs_broadcast_leader_unit_delay(self, family_graph):
        net = CongestNetwork(family_graph)
        root = min(family_graph.nodes(), key=str)
        p_ref, d_ref, ref = build_bfs_tree(net, root, engine="fast")
        p_run, d_run, run = build_bfs_tree(net, root, engine="async")
        assert run.engine == "async"
        _assert_identical(ref, run)
        assert (p_run, d_run) == (p_ref, d_ref)

        vals_ref, bref = broadcast(net, root, ("payload", 1), engine="fast")
        vals_run, brun = broadcast(net, root, ("payload", 1), engine="async")
        _assert_identical(bref, brun)
        assert vals_run == vals_ref

        if family_graph.is_connected():
            leader_ref, eref = elect_leader(net, engine="fast")
            leader_run, erun = elect_leader(net, engine="async")
            _assert_identical(eref, erun)
            assert leader_run == leader_ref

    def test_label_broadcast_unit_delay(self, family_graph, master_seed):
        rng = random.Random(master_seed + family_graph.num_nodes())
        labeling = _pseudo_labeling(family_graph, rng)
        source = min(family_graph.nodes(), key=str)
        net = CongestNetwork(family_graph, words_per_message=16)
        ref_trace, async_trace = SimulationTrace(), SimulationTrace()
        ref = measured_label_broadcast(
            net, labeling, source, engine="fast", trace=ref_trace
        )
        run = measured_label_broadcast(
            net, labeling, source, engine="async", trace=async_trace
        )
        assert run.engine == "async"
        _assert_identical(ref, run)
        assert run.outputs == ref.outputs
        assert async_trace.as_dicts() == ref_trace.as_dicts()


# --------------------------------------------------------------------------- #
# Schedule invariance: small-seed subset (default job)
# --------------------------------------------------------------------------- #
class TestScheduleInvariance:
    """Outputs (and, with the α-synchronizer, the whole ledger) must not
    depend on the schedule: every seeded delay model reproduces the fast
    tier's results exactly, only the timing statistics move."""

    @pytest.mark.parametrize("kind", ("uniform", "adversarial"))
    def test_bellman_ford_invariant_small_sweep(
        self, sweep_graph, master_seed, schedule_fuzzer, kind
    ):
        instance = _bf_instance(sweep_graph, master_seed)
        source = min(sweep_graph.nodes(), key=str)
        ref = distributed_bellman_ford(instance, source, engine="fast")
        case = f"bf-{sweep_graph.num_nodes()}-{sweep_graph.num_edges()}"
        for model in schedule_fuzzer.models(kind, case, 2):
            run = distributed_bellman_ford(
                instance, source, engine="async", delay_model=model
            )
            assert run.simulation.engine == "async", model
            assert run.distances == ref.distances, model
            assert run.parents == ref.parents, model
            _assert_identical(ref.simulation, run.simulation)
            assert run.simulation.virtual_time >= run.rounds, model

    def test_same_seed_same_schedule(self, sweep_graph, master_seed, schedule_fuzzer):
        """Determinism: re-running one seeded model reproduces the timing
        statistics exactly (the reproducibility contract of the fuzzer)."""
        instance = _bf_instance(sweep_graph, master_seed)
        source = min(sweep_graph.nodes(), key=str)
        case = "determinism"
        first = distributed_bellman_ford(
            instance, source, engine="async",
            delay_model=schedule_fuzzer.model("uniform", case),
        )
        again = distributed_bellman_ford(
            instance, source, engine="async",
            delay_model=schedule_fuzzer.model("uniform", case),
        )
        assert first.simulation.virtual_time == again.simulation.virtual_time
        assert _deterministic_stats(first.simulation) == _deterministic_stats(
            again.simulation
        )
        assert first.distances == again.distances


# --------------------------------------------------------------------------- #
# Heap vs bucketed event queue
# --------------------------------------------------------------------------- #
class TestSchedulerCrossCheck:
    """The bucketed calendar queue (the default) and the reference min-heap
    (``scheduler="heap"``) must be operationally indistinguishable: same
    outputs, ledger, traces, event streams, virtual time and deterministic
    async statistics, under every schedule kind."""

    def test_unknown_scheduler_rejected(self):
        net = CongestNetwork(generators.path_graph(4))
        with pytest.raises(SimulationError, match="scheduler"):
            net.run(
                lambda u: BroadcastAll(value=u), engine="async",
                scheduler="calendar",
            )

    def test_scheduler_requires_async_engine(self):
        net = CongestNetwork(generators.path_graph(4))
        with pytest.raises(SimulationError, match="scheduler"):
            net.run(lambda u: BroadcastAll(value=u), engine="fast", scheduler="heap")

    @pytest.mark.parametrize("kind", ("unit", "uniform", "adversarial"))
    def test_bellman_ford_heap_vs_bucketed(
        self, sweep_graph, master_seed, schedule_fuzzer, kind
    ):
        instance = _bf_instance(sweep_graph, master_seed)
        source = min(sweep_graph.nodes(), key=str)
        case = f"xcheck-{sweep_graph.num_nodes()}-{sweep_graph.num_edges()}"
        count = 1 if kind == "unit" else 2
        for model in schedule_fuzzer.models(kind, case, count):
            runs, traces = {}, {}
            for sched in ("heap", "bucketed"):
                traces[sched] = SimulationTrace(record_events=True)
                runs[sched] = distributed_bellman_ford(
                    instance, source, engine="async", delay_model=model,
                    scheduler=sched, trace=traces[sched],
                )
            heap, bucketed = runs["heap"].simulation, runs["bucketed"].simulation
            _assert_identical(heap, bucketed)
            assert runs["heap"].distances == runs["bucketed"].distances
            assert runs["heap"].parents == runs["bucketed"].parents
            assert heap.virtual_time == bucketed.virtual_time
            assert _deterministic_stats(heap) == _deterministic_stats(bucketed)
            # The strongest check: the recorded event streams are identical,
            # delivery by delivery.
            assert traces["heap"].events == traces["bucketed"].events
            assert traces["heap"].as_dicts() == traces["bucketed"].as_dicts()

    def test_primitives_heap_vs_bucketed(self, sweep_graph, master_seed):
        net = CongestNetwork(sweep_graph)
        root = min(sweep_graph.nodes(), key=str)
        model = UniformDelay(1, 4, seed=master_seed)
        for helper in (
            lambda sched: build_bfs_tree(
                net, root, engine="async", delay_model=model, scheduler=sched
            )[2],
            lambda sched: broadcast(
                net, root, ("payload", 2), engine="async", delay_model=model,
                scheduler=sched,
            )[1],
        ):
            heap, bucketed = helper("heap"), helper("bucketed")
            _assert_identical(heap, bucketed)
            assert heap.virtual_time == bucketed.virtual_time
            assert _deterministic_stats(heap) == _deterministic_stats(bucketed)

    def test_events_per_sec_reported(self, master_seed):
        net = CongestNetwork(generators.grid_graph(4, 4))
        run = net.run(lambda u: BroadcastAll(value=u), engine="async")
        stats = run.async_stats
        assert stats["events_per_sec"] > 0.0
        assert stats["events_processed"] > 0


# --------------------------------------------------------------------------- #
# Pinned event streams
# --------------------------------------------------------------------------- #
#: Families whose node ids are ints or tuples of ints, so no run depends on
#: ``PYTHONHASHSEED`` (string hashes are salted per process).
DIGEST_FAMILIES = (
    "path_40",
    "cycle_9",
    "star_15",
    "grid_6x7",
    "grid_diag_5x5",
    "random_tree_2",
    "partial_k_tree_1",
    "k_tree_1",
    "series_parallel_1",
    "cycle_chords_1",
)

DIGEST_MODELS = {
    "unit": UnitDelay,
    "uniform": lambda: UniformDelay(1, 4),
    "slow_link": lambda: SlowLinkDelay(0.3, 7),
}


def _async_digest(graph, model, scheduler):
    """sha256 over six protocols run on the async tier on ``graph``.

    Each run contributes its outputs, ledger, round trace, recorded
    :class:`EventRecord` stream, ``virtual_time`` and deterministic
    ``async_stats``.  Inputs are seeded from the graph alone, never from
    ``--seed``, so the digest is a fixed function of the scheduler's code.
    """
    rng = random.Random(graph.num_nodes())
    net = CongestNetwork(graph, words_per_message=16)
    root = min(graph.nodes())
    instance = _bf_instance(graph, graph.num_edges())
    chunks = [("chunk", k, rng.randint(0, 99)) for k in range(rng.randint(1, 7))]
    labeling = _pseudo_labeling(graph, rng)
    src_label = labeling.label(root)
    parent = graph.spanning_tree(root)
    values = {u: rng.randint(-50, 50) for u in parent}
    kw = dict(engine="async", delay_model=model, scheduler=scheduler)
    calls = {
        "bellman_ford": lambda t: distributed_bellman_ford(
            instance, root, trace=t, **kw
        ).simulation,
        "bfs_tree": lambda t: build_bfs_tree(net, root, trace=t, **kw)[-1],
        "chunk_flood": lambda t: flood_chunks(net, root, chunks, trace=t, **kw)[-1],
        "convergecast": lambda t: convergecast_sum(
            net, parent, values, trace=t, **kw
        )[-1],
        # measured_label_broadcast takes no scheduler=, so run its protocol.
        "label_broadcast": lambda t: net.run(
            lambda u: LabelBroadcastNode(u, root, src_label, labeling.label(u)),
            trace=t, **kw,
        ),
        "leader": lambda t: elect_leader(net, trace=t, **kw)[-1],
    }
    digest = hashlib.sha256()
    for name, call in calls.items():
        trace = SimulationTrace(record_events=True)
        run = call(trace)
        record = (
            name,
            run.outputs,
            (run.rounds, run.messages_sent, run.words_sent,
             run.max_words_per_edge_round, run.max_message_words, run.halted),
            trace.as_dicts(),
            [(e.time, e.kind, e.node, e.pulse, e.peer, e.words) for e in trace.events],
            run.virtual_time,
            _deterministic_stats(run),
        )
        digest.update(repr(record).encode())
    return digest.hexdigest()


class TestEventStreamDigest:
    """The async tier's runs pinned to sha256 literals.

    Heap-vs-bucketed checks cannot see a bug in the per-arc send loop or in
    delivery, because both queues share that code; a pinned digest can.
    Re-pin a literal only in a change that means to alter the async tier's
    event stream, and say why in CHANGES.md.
    """

    PINNED = {
        ("path_40", "unit"):
            "243591db54f4683d39719a0044849cb59c53596d5e4eb82b3b1461bbd7fb4790",
        ("path_40", "uniform"):
            "117631269953e23c795a06f043a49fa42af24cb5f978e220007aec74d183b8b0",
        ("path_40", "slow_link"):
            "584375faef442a2a5afdc31ffecf658f3ebf56c4b7a45132a07bcd7831985b40",
        ("cycle_9", "unit"):
            "79ab0b91ab8a368791b550364754401e48d4ff5627d0dc028b4ab1f0fde67f9c",
        ("cycle_9", "uniform"):
            "8037b9d0e1da4f9decaa66e544948e392e04d45b23e5b879c93f9e01ac274833",
        ("cycle_9", "slow_link"):
            "e165f3037142108c6225f51ec46de29256fb87e48e2c13addb8504de406e7781",
        ("star_15", "unit"):
            "29332362f623d27619b6b7e22fb31d9dc9a4046a25d9c9a871a0ba080d2cf7b4",
        ("star_15", "uniform"):
            "05c1ac714f0bc877957f0172b261f1b8c9f394cfe8c497218de9c49ad3779a40",
        ("star_15", "slow_link"):
            "de5406f3174c22e8e57646d0fcd99c33a3dca3e38975a073286fa19c4714c5c7",
        ("grid_6x7", "unit"):
            "4767017768881230c984e92470a72ca5d96389f6725af6e6527fb28c39f8ce5c",
        ("grid_6x7", "uniform"):
            "6189e54c158fdc4966a8bb8fdcd3d6d3fb94556dec528d9b7a5724d9c56ded06",
        ("grid_6x7", "slow_link"):
            "13450a4282bbddcb7beb99f01a4a5e33eeb3dbb83fc5e00fefba124d7a3d587c",
        ("grid_diag_5x5", "unit"):
            "fa4f73ae1cdce744e02b3c3c590c871ee6cb929982d5701bb6c7cdf937d7fa74",
        ("grid_diag_5x5", "uniform"):
            "1f30afaf92f74ddca617f345418e7c4712c2e1537a2a9f69a6fd9b30fd242546",
        ("grid_diag_5x5", "slow_link"):
            "bd1bc15f050d2fe50f30c70c644db84c9292f5ed9121e4af220137db0ab9eb0b",
        ("random_tree_2", "unit"):
            "4ba14a0861b45bac9ce25c85f6970b445e664373c928db5dc05d80a316956a8c",
        ("random_tree_2", "uniform"):
            "b75fb7e5df97e540d9deb3b1f72475627f89f82bba4ffb77281ee68b2075d88f",
        ("random_tree_2", "slow_link"):
            "1a7da67a3771e520ec73d529673dee63cf84539601e6afdf042cab7c67d0307e",
        ("partial_k_tree_1", "unit"):
            "2246d82cfbe16cb23f349c2c6c3a8ba5ef8e0a413fca7a7d5229aa7a6baf82f9",
        ("partial_k_tree_1", "uniform"):
            "f8f3ceea847c797fc42daf16dac01368ac0726ebd1f255e82bb98f28e78d6ff7",
        ("partial_k_tree_1", "slow_link"):
            "0b5cc06547d9f8867ce4e844a8b565d48bd12ba648b5696e211da6e79e1e01a6",
        ("k_tree_1", "unit"):
            "9530e85fbed760ce44ab4b09a47c277efc258f6a8f56cb7950a12b092241d4f5",
        ("k_tree_1", "uniform"):
            "9000619cccf54713f6ceff34bdf7aa78dea234ff15f052228709f286cf019bd3",
        ("k_tree_1", "slow_link"):
            "8b4df6e3a1315435bf935fd55a45607dd7427730be51e6787278d230d1129e99",
        ("series_parallel_1", "unit"):
            "6edbe63d347c16140173b8df4ef633acbb22827564cf9e314489c571c0c512e8",
        ("series_parallel_1", "uniform"):
            "d4511cf3db9407f5658ae521b55023fab36ba00927fcd74e5d439bfd65b7e483",
        ("series_parallel_1", "slow_link"):
            "bbf094ed84ca1e1a8baee178b4654c012a7165ee46c6f863528d9c01c6a06f9d",
        ("cycle_chords_1", "unit"):
            "b65a06bb37ef5054c177d26723f50859837334d62e3e7a1df4f0d5810cc89489",
        ("cycle_chords_1", "uniform"):
            "ffb00d35b6b9ed5acb6555b63efe5526b245cd72660070010691818879fc10d6",
        ("cycle_chords_1", "slow_link"):
            "67149779efe5f9bcca026ae790366c47b22663cb074011ef15f0def8d6d8b012",
    }

    @pytest.mark.parametrize("model", list(DIGEST_MODELS))
    @pytest.mark.parametrize("family", DIGEST_FAMILIES)
    def test_async_digest_is_pinned(self, family, model):
        graph = dict(FAMILIES)[family](len(family))
        for scheduler in ("heap", "bucketed"):
            digest = _async_digest(graph, DIGEST_MODELS[model](), scheduler)
            assert digest == self.PINNED[family, model], scheduler


# --------------------------------------------------------------------------- #
# Full fuzz sweep (CI runs this in its own step via `-m fuzz`)
# --------------------------------------------------------------------------- #
@pytest.mark.fuzz
class TestFuzzSweep:
    """The full differential sweep: every equivalence family × every schedule
    kind × ≥ 5 seeds, for Bellman-Ford and the pipelined chunk flood."""

    @pytest.mark.parametrize("scheduler", ("bucketed", "heap"))
    @pytest.mark.parametrize("kind", ("unit", "uniform", "adversarial"))
    def test_bellman_ford_full_sweep(
        self, family_graph, master_seed, schedule_fuzzer, kind, scheduler
    ):
        instance = _bf_instance(family_graph, master_seed)
        source = min(family_graph.nodes(), key=str)
        ref_trace = SimulationTrace()
        ref = distributed_bellman_ford(instance, source, engine="fast", trace=ref_trace)
        case = f"bf-{family_graph.num_nodes()}-{family_graph.num_edges()}"
        count = 1 if kind == "unit" else 5  # unit delay has a single schedule
        for index, model in enumerate(schedule_fuzzer.models(kind, case, count)):
            trace = SimulationTrace()
            run = distributed_bellman_ford(
                instance, source, engine="async", delay_model=model, trace=trace,
                scheduler=scheduler,
            )
            key = (kind, index, scheduler)
            assert run.simulation.engine == "async", key
            assert run.distances == ref.distances, key
            assert run.parents == ref.parents, key
            _assert_identical(ref.simulation, run.simulation)
            assert trace.as_dicts() == ref_trace.as_dicts(), key
            if kind == "unit":
                assert run.simulation.virtual_time == run.rounds, key
            else:
                assert run.simulation.virtual_time >= run.rounds, key

    @pytest.mark.parametrize("scheduler", ("bucketed", "heap"))
    @pytest.mark.parametrize("kind", ("uniform", "adversarial"))
    def test_chunk_flood_full_sweep(
        self, family_graph, master_seed, schedule_fuzzer, kind, scheduler
    ):
        rng = random.Random(master_seed + family_graph.num_edges())
        root = min(family_graph.nodes(), key=str)
        chunks = [("chunk", k, rng.randint(0, 99)) for k in range(rng.randint(1, 7))]
        net = CongestNetwork(family_graph, words_per_message=8)
        ref_received, ref = flood_chunks(net, root, chunks, engine="fast")
        case = f"flood-{family_graph.num_nodes()}-{family_graph.num_edges()}"
        for index, model in enumerate(schedule_fuzzer.models(kind, case, 5)):
            received, run = flood_chunks(
                net, root, chunks, engine="async", delay_model=model,
                scheduler=scheduler,
            )
            key = (kind, index, scheduler)
            assert run.engine == "async", key
            assert received == ref_received, key
            _assert_identical(ref, run)
            assert run.virtual_time >= run.rounds, key


# --------------------------------------------------------------------------- #
# Delay models
# --------------------------------------------------------------------------- #
class TestDelayModels:
    def test_uniform_delay_bounds_and_determinism(self):
        net = CongestNetwork(generators.path_graph(10))
        model = UniformDelay(2, 6, seed=42)
        model.bind(net.indexed)
        draws = [model.delay(a, p) for a in range(18) for p in range(10)]
        assert all(2 <= d <= 6 for d in draws)
        assert len(set(draws)) > 1  # genuinely varies
        again = UniformDelay(2, 6, seed=42)
        again.bind(net.indexed)
        assert draws == [again.delay(a, p) for a in range(18) for p in range(10)]
        other = UniformDelay(2, 6, seed=43)
        other.bind(net.indexed)
        assert draws != [other.delay(a, p) for a in range(18) for p in range(10)]

    def test_uniform_delay_rejects_bad_range(self):
        with pytest.raises(ValueError):
            UniformDelay(0, 4)
        with pytest.raises(ValueError):
            UniformDelay(5, 4)

    def test_per_arc_delay_resolution_and_validation(self):
        g = Graph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        net = CongestNetwork(g)
        model = PerArcDelay({("a", "b"): 5, ("b", "a"): 2}, default=3)
        model.bind(net.indexed)
        idx = net.indexed
        pos = {}
        for i in range(idx.num_nodes):
            for k, v in enumerate(idx.neighbor_ids[i]):
                pos[(idx.node_ids[i], v)] = idx.indptr[i] + k
        assert model.delay(pos[("a", "b")], 0) == 5
        assert model.delay(pos[("b", "a")], 0) == 2
        assert model.delay(pos[("b", "c")], 0) == 3

        bogus = PerArcDelay({("a", "z"): 4})
        with pytest.raises(GraphError):
            bogus.bind(net.indexed)
        with pytest.raises(ValueError):
            PerArcDelay({("a", "b"): 0})
        with pytest.raises(ValueError):
            PerArcDelay(default=0)

    def test_slow_link_delay_partition(self):
        net = CongestNetwork(generators.cycle_graph(20))
        model = SlowLinkDelay(slow_fraction=0.5, slow_delay=9, seed=3)
        model.bind(net.indexed)
        slow = set(model.slow_arcs())
        assert slow  # at 50% over 40 arcs some link is slow
        num_arcs = len(net.indexed.indices)
        assert len(slow) < num_arcs
        for a in range(num_arcs):
            assert model.delay(a, 0) == (9 if a in slow else 1)
        none_slow = SlowLinkDelay(slow_fraction=0.0, seed=3)
        none_slow.bind(net.indexed)
        assert none_slow.slow_arcs() == []
        with pytest.raises(ValueError):
            SlowLinkDelay(slow_fraction=1.5)
        with pytest.raises(ValueError):
            SlowLinkDelay(slow_delay=1, fast_delay=2)

    def test_invalid_delay_value_raises(self):
        net = CongestNetwork(generators.path_graph(4))
        for model in (ZeroDelayModel(), BoolDelayModel()):
            with pytest.raises(SimulationError, match="delays must be integers >= 1"):
                net.run(
                    lambda u: BroadcastAll(value=u),
                    engine="async",
                    delay_model=model,
                )

    def test_integral_delay_types_accepted(self):
        """Custom models may return any integral type (numpy ints included)."""
        pytest.importorskip("numpy")
        net = CongestNetwork(generators.path_graph(6))
        ref = broadcast(net, 0, "v", engine="fast")[1]
        run = broadcast(net, 0, "v", engine="async", delay_model=NumpyIntDelay())[1]
        _assert_identical(ref, run)
        assert run.engine == "async"

    def test_bound_model_stays_pickle_small(self):
        """bind() must not retain the graph snapshot: a model reused across
        runs would otherwise keep an O(n + m) payload alive."""
        import pickle

        net = CongestNetwork(generators.complete_graph(40))
        model = SlowLinkDelay(0.3, 6, seed=1)
        before = len(pickle.dumps(model))
        broadcast(net, 0, "v", engine="async", delay_model=model)
        after = len(pickle.dumps(model))
        # The bound per-arc table is allowed; the IndexedGraph is not.
        assert after < before + 20 * len(net.indexed.indices)
        # and the model still runs again, identically.
        rerun = broadcast(net, 0, "v", engine="async", delay_model=model)[1]
        assert rerun.engine == "async"


# --------------------------------------------------------------------------- #
# Timing semantics: virtual time and per-arc in-flight high-water marks
# --------------------------------------------------------------------------- #
class TestAsyncTiming:
    def test_per_arc_delay_virtual_time_hand_computed(self):
        """Path 0-1-2, arc (0, 1) slowed to 5: the broadcast still takes 2
        logical rounds, but node 1 only fires its round at t=5 and node 2
        receives at t=6 — the hand-computed recurrence T_v(p+1) =
        max_u(T_u(p) + delay)."""
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        net = CongestNetwork(g)
        vals, res = broadcast(
            net, 0, 42, engine="async", delay_model=PerArcDelay({(0, 1): 5})
        )
        assert vals == {0: 42, 1: 42, 2: 42}
        assert res.rounds == 2
        assert res.virtual_time == 6
        unit = broadcast(net, 0, 42, engine="async")[1]
        assert unit.virtual_time == unit.rounds == 2

    def test_slow_link_directions_independently_seeded_hand_computed(self):
        """The two directions of an edge are slowed independently: with seed
        26 at 50% on the path 0-1-2, the slow set is exactly {arc 0→1} — its
        reverse 1→0 and both (1, 2) directions stay fast.  The timing then
        reproduces the PerArcDelay hand-computed case: the broadcast is still
        2 logical rounds but node 1 fires at t=5 and node 2 receives at t=6,
        bit-for-bit the dedicated ``PerArcDelay({(0, 1): 5})`` run."""
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        net = CongestNetwork(g)
        idx = net.indexed
        pos = {}
        for i in range(idx.num_nodes):
            for k, v in enumerate(idx.neighbor_ids[i]):
                pos[(idx.node_ids[i], v)] = idx.indptr[i] + k
        model = SlowLinkDelay(slow_fraction=0.5, slow_delay=5, seed=26)
        model.bind(idx)
        assert set(model.slow_arcs()) == {pos[(0, 1)]}
        assert model.delay(pos[(0, 1)], 0) == 5
        assert model.delay(pos[(1, 0)], 0) == 1  # reverse direction fast

        vals, res = broadcast(net, 0, 42, engine="async", delay_model=model)
        assert vals == {0: 42, 1: 42, 2: 42}
        assert res.rounds == 2
        assert res.virtual_time == 6
        ref_vals, ref = broadcast(
            net, 0, 42, engine="async", delay_model=PerArcDelay({(0, 1): 5})
        )
        assert vals == ref_vals
        _assert_identical(ref, res)

    def test_slow_link_pipelining_in_flight_high_water(self):
        """Chunk flood on a triangle with one slow direction: the root keeps
        one pulse ahead of the slow link's deliveries, so two payload
        envelopes overlap on it (high-water 2) — while under unit delays no
        arc ever holds more than one message."""
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        g.add_edge(1, 2)
        net = CongestNetwork(g, words_per_message=8)
        chunks = [("c", k) for k in range(3)]
        ref_received, ref = flood_chunks(net, 0, chunks, engine="fast")
        received, run = flood_chunks(
            net, 0, chunks, engine="async", delay_model=PerArcDelay({(0, 1): 9})
        )
        assert received == ref_received
        _assert_identical(ref, run)
        stats = run.async_stats
        assert stats["max_arc_in_flight"] >= 2
        assert stats["congested_arcs"].get((0, 1), 0) >= 2
        unit = flood_chunks(net, 0, chunks, engine="async")[1]
        assert unit.async_stats["max_arc_in_flight"] == 1
        assert unit.async_stats["congested_arcs"] == {}

    def test_message_time_stamps(self):
        """The delivery-time-aware inbox contract: async messages carry
        sent/delivery stamps (absent on the synchronous tiers), and under
        unit delays every message travels exactly one time unit."""
        seen = []

        class Recorder(NodeAlgorithm):
            def __init__(self, node):
                super().__init__()
                self.node = node

            def initialize(self, ctx):
                if self.node == 0:
                    self.halt()
                    return {v: ("ping", 0) for v in ctx.neighbors}
                return {}

            def on_round(self, ctx, inbox):
                for msg in inbox:
                    seen.append(msg)
                self.halt()
                return {}

        net = CongestNetwork(generators.path_graph(3))
        net.run(lambda u: Recorder(u), engine="async")
        assert seen
        for msg in seen:
            assert msg.delivery_time == msg.sent_time + 1

        seen.clear()
        net.run(lambda u: Recorder(u), engine="fast")
        assert seen and all(
            m.sent_time is None and m.delivery_time is None for m in seen
        )

    def test_trace_event_records(self):
        trace = SimulationTrace(record_events=True)
        net = CongestNetwork(generators.path_graph(4))
        res = broadcast(net, 0, "x", engine="async", trace=trace)[1]
        kinds = {e.kind for e in trace.events}
        assert kinds == {"execute", "send", "deliver"}
        sends = [e for e in trace.events if e.kind == "send"]
        delivers = [e for e in trace.events if e.kind == "deliver"]
        assert len(sends) == len(delivers) == res.messages_sent
        assert all(isinstance(e, EventRecord) for e in trace.events)
        assert all(e.time <= res.virtual_time for e in delivers)
        # Round records are unaffected by event capture.
        plain = SimulationTrace()
        broadcast(net, 0, "x", engine="async", trace=plain)
        assert plain.as_dicts() == trace.as_dicts()
        assert plain.events == []

    def test_async_stats_reported_only_on_async(self):
        net = CongestNetwork(generators.path_graph(4))
        fast = broadcast(net, 0, "x", engine="fast")[1]
        assert fast.virtual_time is None and fast.async_stats is None
        asy = broadcast(net, 0, "x", engine="async")[1]
        assert asy.async_stats["events_processed"] > 0
        assert asy.async_stats["delay_model"] == "UnitDelay()"


# --------------------------------------------------------------------------- #
# Error semantics match the synchronous tiers
# --------------------------------------------------------------------------- #
class TestAsyncErrorSemantics:
    def test_convergence_error(self):
        class PingPong(NodeAlgorithm):
            def initialize(self, ctx):
                return {v: "ping" for v in ctx.neighbors}

            def on_round(self, ctx, inbox):
                return {v: "ping" for v in ctx.neighbors}

        net = CongestNetwork(generators.path_graph(4))
        for engine in ("fast", "async"):
            with pytest.raises(ConvergenceError, match="did not terminate within 7"):
                net.run(lambda u: PingPong(), engine=engine, max_rounds=7)

    def test_strict_bandwidth(self):
        net = CongestNetwork(generators.path_graph(3), words_per_message=2)
        with pytest.raises(BandwidthExceededError):
            broadcast(net, 0, ("too", "many", "words", "here"), engine="async")

    def test_non_neighbour_send(self):
        class Rogue(NodeAlgorithm):
            def initialize(self, ctx):
                return {"nowhere": 1}

            def on_round(self, ctx, inbox):
                return {}

        net = CongestNetwork(generators.path_graph(3))
        with pytest.raises(SimulationError, match="non-neighbour"):
            net.run(lambda u: Rogue(), engine="async")

    def test_stop_when_quiet_false(self):
        net = CongestNetwork(generators.path_graph(5))
        ref = broadcast(net, 0, "v", engine="fast")[1]
        run = net.run(
            lambda u: FloodBroadcastNode(u, 0, "v"),
            engine="async",
            stop_when_quiet=False,
        )
        assert run.halted
        assert run.outputs == ref.outputs

    def test_factory_called_exactly_once_per_node(self):
        """The async tier makes exactly n factory calls, like every other
        tier."""
        calls = []

        def factory(u):
            calls.append(u)
            return BroadcastAll(value=u)

        net = CongestNetwork(generators.cycle_graph(9))
        result = net.run(factory, engine="async")
        assert result.engine == "async"
        assert len(calls) == 9
        assert sorted(calls, key=str) == sorted(net.graph.nodes(), key=str)

    def test_single_node_network(self):
        g = Graph()
        g.add_node("solo")
        net = CongestNetwork(g)
        ref = net.run(lambda u: BroadcastAll(value=u), engine="fast")
        run = net.run(lambda u: BroadcastAll(value=u), engine="async")
        _assert_identical(ref, run)
        assert run.engine == "async"


# --------------------------------------------------------------------------- #
# No async fallback + warning-message contract
# --------------------------------------------------------------------------- #
class TestAsyncNeverFallsBack:
    """``engine="async"`` never falls back: it runs every protocol under
    every :class:`DelayModel` instance, and a caller error raises."""

    def _run(self, graph=None, **kwargs):
        net = CongestNetwork(graph if graph is not None else generators.cycle_graph(9))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            result = net.run(lambda u: BroadcastAll(value=u), engine="async", **kwargs)
        return result, [w for w in rec if issubclass(w.category, EngineFallbackWarning)]

    def test_non_picklable_delay_model_runs_async(self):
        model = UnitDelay()
        model.hook = lambda arc: 1  # lambdas cannot be pickled
        result, fallbacks = self._run(delay_model=model)
        assert result.engine == "async"
        assert fallbacks == []
        ref = CongestNetwork(generators.cycle_graph(9)).run(
            lambda u: BroadcastAll(value=u), engine="fast"
        )
        _assert_identical(ref, result)
        assert result.virtual_time == ref.rounds

    def test_wrong_delay_model_type_raises(self):
        net = CongestNetwork(generators.cycle_graph(9))
        with pytest.raises(SimulationError, match="DelayModel"):
            net.run(lambda u: BroadcastAll(value=u), engine="async", delay_model=7)

    def test_delay_model_requires_async_engine(self):
        net = CongestNetwork(generators.cycle_graph(9))
        with pytest.raises(SimulationError, match="engine='async'"):
            net.run(
                lambda u: BroadcastAll(value=u), engine="fast", delay_model=UnitDelay()
            )

    def test_async_success_does_not_warn(self):
        result, fallbacks = self._run(delay_model=UnitDelay())
        assert result.engine == "async"
        assert fallbacks == []


class TestFallbackMessageContract:
    """Regression tests for the warning-text fix: every
    :class:`EngineFallbackWarning` on every ladder path names both the
    requested and the selected tier (some paths used to name only the
    reason)."""

    def _fallbacks(self, net, **kwargs):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            result = net.run(lambda u: BroadcastAll(value=u), **kwargs)
        return result, [w for w in rec if issubclass(w.category, EngineFallbackWarning)]

    def test_vectorized_fallback_names_both_tiers(self):
        net = CongestNetwork(generators.cycle_graph(9))
        result, fallbacks = self._fallbacks(net, engine="vectorized")
        assert result.engine == "fast"
        assert len(fallbacks) == 1
        message = str(fallbacks[0].message)
        assert "engine='vectorized'" in message
        assert "engine='fast'" in message
