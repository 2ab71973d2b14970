"""Tests for the resumable experiment-matrix runner (``repro-bench``).

Covers the tentpole guarantees:

* cell specs hash stably and every axis (plus the schema version) feeds
  the hash, so a spec change never aliases an old record;
* an interrupted sweep, re-invoked, skips finished cells and produces a
  store byte-identical to an uninterrupted sweep (deterministic timer);
* the gate subcommand passes against the committed ``BENCH_*.json``
  files and fails when a tier record is artificially slowed past
  tolerance;
* export folds store records into the trajectories through the hardened
  merge-writer.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

from repro.experiments import (
    REGISTRY,
    CellSpec,
    ResultStore,
    check_store,
    check_trajectory,
    execute_cell,
    export_store,
    load_trajectory,
    make_matrix,
    register_protocol,
    run_matrix,
)
from repro.experiments.matrix import SCHEMA_VERSION, STRUCTURAL_ENGINE, family_size

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --------------------------------------------------------------------------- #
# cell hashing
# --------------------------------------------------------------------------- #
class TestCellHash:
    def test_hash_is_stable_across_instances(self):
        a = CellSpec("bellman_ford", "fast", "path", "smoke", 1)
        b = CellSpec("bellman_ford", "fast", "path", "smoke", 1)
        assert a.cell_hash() == b.cell_hash()
        assert len(a.cell_hash()) == 16

    def test_every_axis_feeds_the_hash(self):
        base = CellSpec("bellman_ford", "fast", "path", "smoke", 1)
        variants = [
            CellSpec("bfs_tree", "fast", "path", "smoke", 1),
            CellSpec("bellman_ford", "vectorized", "path", "smoke", 1),
            CellSpec("bellman_ford", "fast", "dense", "smoke", 1),
            CellSpec("bellman_ford", "fast", "path", "small", 1),
            CellSpec("bellman_ford", "fast", "path", "smoke", 2),
        ]
        hashes = {base.cell_hash()} | {v.cell_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_schema_version_feeds_the_hash(self):
        cell = CellSpec("bellman_ford", "fast", "path", "smoke", 1)
        assert cell.to_dict()["schema"] == SCHEMA_VERSION
        doc = dict(cell.to_dict(), schema=SCHEMA_VERSION + 1)
        import hashlib

        other = hashlib.sha256(
            json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()[:16]
        assert other != cell.cell_hash()


# --------------------------------------------------------------------------- #
# matrix expansion
# --------------------------------------------------------------------------- #
class TestMatrix:
    def test_congest_matrix_is_full_cross_product(self):
        matrix = make_matrix(
            protocols=("bellman_ford",),
            engines=("fast", "vectorized"),
            families=("path", "dense"),
            scale="smoke",
            seeds=(1, 2),
        )
        cells = matrix.cells()
        assert len(cells) == 2 * 2 * 2
        assert {c.engine for c in cells} == {"fast", "vectorized"}

    def test_serving_protocol_filters_engine_axis(self):
        matrix = make_matrix(
            protocols=("serving_query",),
            engines=("fast", "scalar", "packed", "vectorized"),
            families=("ktree", "path"),
            scale="smoke",
            seeds=(1,),
        )
        cells = matrix.cells()
        # Only the serving tiers and families survive the filter.
        assert {c.engine for c in cells} == {"scalar", "packed"}
        assert {c.family for c in cells} == {"ktree"}

    def test_structural_protocol_pins_engine(self):
        matrix = make_matrix(
            protocols=("separator",),
            engines=("fast", "vectorized"),
            families=("ktree",),
            scale="smoke",
            seeds=(1,),
        )
        cells = matrix.cells()
        assert len(cells) == 1
        assert cells[0].engine == STRUCTURAL_ENGINE

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError):
            make_matrix(
                protocols=("no_such_protocol",),
                engines=("fast",),
                families=("path",),
                scale="smoke",
                seeds=(1,),
            ).cells()

    def test_family_sizes_grow_with_scale(self):
        for family in ("path", "dense", "ktree"):
            assert (
                family_size(family, "smoke")
                < family_size(family, "small")
                < family_size(family, "full")
            )

    def test_bench_modules_expose_valid_matrix_cells(self):
        benchmarks_dir = os.path.join(REPO_ROOT, "benchmarks")
        if benchmarks_dir not in sys.path:
            sys.path.insert(0, benchmarks_dir)
        import importlib

        modules = [
            name[: -len(".py")]
            for name in os.listdir(benchmarks_dir)
            if name.startswith("bench_") and name.endswith(".py")
        ]
        assert len(modules) >= 11
        seen = 0
        for name in sorted(modules):
            mod = importlib.import_module(name)
            cells = mod.matrix_cells(scale="smoke", seed=7)
            assert cells, name
            for cell in cells:
                seen += 1
                adapter = REGISTRY[cell.protocol]
                assert cell.family in adapter.families, (name, cell)
                if adapter.engines == (STRUCTURAL_ENGINE,):
                    assert cell.engine == STRUCTURAL_ENGINE, (name, cell)
                else:
                    assert cell.engine in adapter.engines, (name, cell)
                assert cell.scale == "smoke"
                assert cell.seed == 7
        assert seen >= 15


# --------------------------------------------------------------------------- #
# stub protocols for runner tests (cheap, deterministic, countable)
# --------------------------------------------------------------------------- #
CALLS = {"n": 0}


@pytest.fixture
def stub_protocol():
    """Register a counting stub protocol; deregister on teardown."""
    name = "stub_proto"

    @register_protocol(name, engines=("fast", "vectorized"), families=("path",))
    def _run(cell):
        CALLS["n"] += 1
        return {
            "output_digest": f"digest-{cell.family}-{cell.seed}",
            "value": cell.seed * 10,
        }

    CALLS["n"] = 0
    yield name
    REGISTRY.pop(name, None)


def fake_timer():
    """Deterministic clock: each call advances 0.5s, so every cell takes
    exactly 0.5s regardless of when (or in which invocation) it runs."""
    state = {"t": 0.0}

    def timer():
        state["t"] += 0.5
        return state["t"]

    return timer


def store_bytes(store):
    return {
        name: open(os.path.join(store.cell_dir, name), "rb").read()
        for name in os.listdir(store.cell_dir)
    }


# --------------------------------------------------------------------------- #
# runner: resume semantics
# --------------------------------------------------------------------------- #
class TestRunnerResume:
    def _cells(self, stub_protocol):
        return make_matrix(
            protocols=(stub_protocol,),
            engines=("fast", "vectorized"),
            families=("path",),
            scale="smoke",
            seeds=(1, 2, 3),
        ).cells()

    def test_interrupted_sweep_resumes_to_identical_store(
        self, tmp_path, stub_protocol
    ):
        cells = self._cells(stub_protocol)
        assert len(cells) == 6

        # Reference: uninterrupted sweep.
        ref = ResultStore(tmp_path / "ref")
        summary = run_matrix(cells, ref, timer=fake_timer())
        assert summary.executed == 6 and not summary.interrupted
        assert CALLS["n"] == 6

        # Interrupt after 3 executed cells, then re-invoke.
        CALLS["n"] = 0
        resumed = ResultStore(tmp_path / "resumed")
        first = run_matrix(cells, resumed, max_cells=3, timer=fake_timer())
        assert first.executed == 3 and first.interrupted
        assert len(resumed) == 3

        second = run_matrix(cells, resumed, timer=fake_timer())
        assert second.executed == 3 and second.cached == 3
        assert not second.interrupted
        # Finished cells were NOT re-run: 3 + 3 executions total.
        assert CALLS["n"] == 6

        # The resumed store is byte-identical to the uninterrupted one.
        assert store_bytes(resumed) == store_bytes(ref)

    def test_fully_cached_sweep_executes_nothing(self, tmp_path, stub_protocol):
        cells = self._cells(stub_protocol)
        store = ResultStore(tmp_path / "s")
        run_matrix(cells, store, timer=fake_timer())
        CALLS["n"] = 0
        summary = run_matrix(cells, store, timer=fake_timer())
        assert summary.executed == 0 and summary.cached == 6
        assert CALLS["n"] == 0

    def test_rerun_forces_execution(self, tmp_path, stub_protocol):
        cells = self._cells(stub_protocol)
        store = ResultStore(tmp_path / "s")
        run_matrix(cells, store, timer=fake_timer())
        CALLS["n"] = 0
        summary = run_matrix(cells, store, rerun=True, timer=fake_timer())
        assert summary.executed == 6 and summary.cached == 0
        assert CALLS["n"] == 6

    def test_failure_recorded_and_keep_going_continues(self, tmp_path):
        name = "stub_flaky"

        @register_protocol(name, engines=("fast",), families=("path",))
        def _run(cell):
            if cell.seed == 2:
                raise RuntimeError("boom")
            return {"output_digest": "d"}

        try:
            cells = make_matrix(
                protocols=(name,), engines=("fast",), families=("path",),
                scale="smoke", seeds=(1, 2, 3),
            ).cells()
            store = ResultStore(tmp_path / "s")
            with pytest.raises(RuntimeError):
                run_matrix(cells, store, timer=fake_timer())
            summary = run_matrix(
                cells, store, keep_going=True, timer=fake_timer()
            )
            assert summary.failed == 1
            assert "boom" in summary.failures[0]
            assert len(store) == 2  # seeds 1 and 3 persisted, 2 never lands
        finally:
            REGISTRY.pop(name, None)

    def test_record_shape(self, stub_protocol):
        cell = CellSpec(stub_protocol, "fast", "path", "smoke", 5)
        record = execute_cell(cell, timer=fake_timer())
        assert record["schema"] == SCHEMA_VERSION
        assert record["hash"] == cell.cell_hash()
        assert record["spec"] == cell.to_dict()
        assert record["timing"]["seconds"] == 0.5
        assert record["result"]["value"] == 50


# --------------------------------------------------------------------------- #
# store
# --------------------------------------------------------------------------- #
class TestResultStore:
    def test_put_get_discard_and_jsonl_consolidate(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("aaaa", {"spec": {"protocol": "p"}, "x": 1})
        store.put("bbbb", {"spec": {"protocol": "q"}, "x": 2})
        assert store.has("aaaa") and not store.has("cccc")
        assert store.get("aaaa")["x"] == 1
        assert store.keys() == ["aaaa", "bbbb"]

        out = store.consolidate(str(tmp_path / "all.jsonl"))
        lines = open(out).read().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["x"] == 1

        store.discard("aaaa")
        assert not store.has("aaaa") and len(store) == 1


# --------------------------------------------------------------------------- #
# gates
# --------------------------------------------------------------------------- #
#: A healthy engine-trajectory record satisfying the full-scale ratio gates
#: (vectorized 10x and sharded[2] 2x over fast on the dense case).  Used
#: instead of the real BENCH_engine.json, which is generated by the bench
#: suite and absent in a fresh checkout.
GOOD_ENGINE_RECORD = {
    "bellman_ford_dense": {
        "scale": "full",
        "tiers": {
            "fast": {"seconds": 10.0},
            "vectorized": {"seconds": 1.0},
        },
    },
    "bellman_ford_dense_sharded": {
        "scale": "full",
        "tiers": {
            "fast": {"seconds": 10.0},
            "sharded[2]": {"seconds": 5.0},
        },
    },
}


class TestGates:
    def test_committed_trajectories_pass(self):
        # BENCH_serving.json is committed; BENCH_engine.json is generated
        # by the bench suite and may be absent in a fresh checkout.
        checked = 0
        for fname, kind in (
            ("BENCH_engine.json", "engine"),
            ("BENCH_serving.json", "serving"),
        ):
            path = os.path.join(REPO_ROOT, fname)
            if not os.path.exists(path):
                continue
            report = check_trajectory(path, kind)
            assert report.ok, report.render()
            assert report.checks > 0
            checked += 1
        assert checked >= 1  # the serving trajectory is always committed

    def test_healthy_record_passes(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(GOOD_ENGINE_RECORD))
        report = check_trajectory(str(path), "engine")
        assert report.ok, report.render()

    def test_slowed_tier_fails_the_gate(self, tmp_path):
        slowed = copy.deepcopy(GOOD_ENGINE_RECORD)
        slowed["bellman_ford_dense"]["tiers"]["vectorized"]["seconds"] *= 100
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(slowed))
        report = check_trajectory(str(path), "engine")
        assert not report.ok
        assert any("vectorized" in v for v in report.violations)

    def test_missing_tier_in_present_case_is_violation(self, tmp_path):
        broken = copy.deepcopy(GOOD_ENGINE_RECORD)
        del broken["bellman_ford_dense"]["tiers"]["vectorized"]
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(broken))
        report = check_trajectory(str(path), "engine")
        assert any("missing" in v for v in report.violations)

    def test_missing_case_is_note_not_violation(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text("{}")
        report = check_trajectory(str(path), "engine")
        assert report.ok
        assert any("not recorded yet" in n for n in report.notes)

    def test_invalid_json_is_violation(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text("{nope")
        assert not check_trajectory(str(path), "engine").ok
        assert not check_trajectory(str(tmp_path / "absent.json"), "engine").ok

    def test_store_digest_disagreement_is_violation(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        for engine, digest in (("fast", "aaaa"), ("vectorized", "bbbb")):
            cell = CellSpec("bellman_ford", engine, "path", "smoke", 1)
            store.put(
                cell.cell_hash(),
                {
                    "spec": cell.to_dict(),
                    "result": {"output_digest": digest},
                    "timing": {"seconds": 0.5},
                },
            )
        report = check_store(store)
        assert any("disagree" in v for v in report.violations)

    def test_store_fallback_tier_is_exempt_from_floor(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        specs = {
            "fast": ("fast", 0.1),
            # Vectorized fell back to fast and is "slow": floor must be
            # skipped (with a note), not violated.  Scale "small" because
            # smoke cells carry no speedup floors at all.
            "vectorized": ("fast", 0.4),
        }
        for engine, (selected, seconds) in specs.items():
            cell = CellSpec("bellman_ford", engine, "dense", "small", 1)
            store.put(
                cell.cell_hash(),
                {
                    "spec": cell.to_dict(),
                    "result": {"output_digest": "d", "engine_selected": selected},
                    "timing": {"seconds": seconds},
                },
            )
        report = check_store(store)
        assert report.ok, report.render()
        assert any("fell back" in n for n in report.notes)

    def test_store_slow_native_tier_violates_floor(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        for engine, seconds in (("fast", 0.1), ("vectorized", 0.4)):
            cell = CellSpec("bellman_ford", engine, "dense", "small", 1)
            store.put(
                cell.cell_hash(),
                {
                    "spec": cell.to_dict(),
                    "result": {"output_digest": "d", "engine_selected": engine},
                    "timing": {"seconds": seconds},
                },
            )
        report = check_store(store)
        assert any("only 0.25x over fast" in v for v in report.violations)

    def test_store_smoke_cells_carry_no_speedup_floor(self, tmp_path):
        # Smoke instances are too small for meaningful ratios: an arbitrarily
        # slow (but honest, non-fallback) vectorized cell must still pass.
        store = ResultStore(tmp_path / "s")
        for engine, seconds in (("fast", 0.001), ("vectorized", 5.0)):
            cell = CellSpec("bellman_ford", engine, "dense", "smoke", 1)
            store.put(
                cell.cell_hash(),
                {
                    "spec": cell.to_dict(),
                    "result": {"output_digest": "d", "engine_selected": engine},
                    "timing": {"seconds": seconds},
                },
            )
        report = check_store(store)
        assert report.ok, report.render()


# --------------------------------------------------------------------------- #
# export
# --------------------------------------------------------------------------- #
class TestExport:
    def test_export_groups_engines_into_one_case(self, tmp_path, stub_protocol):
        cells = make_matrix(
            protocols=(stub_protocol,),
            engines=("fast", "vectorized"),
            families=("path",),
            scale="smoke",
            seeds=(1,),
        ).cells()
        store = ResultStore(tmp_path / "s")
        run_matrix(cells, store, timer=fake_timer())

        engine_out = str(tmp_path / "BENCH_engine.json")
        serving_out = str(tmp_path / "BENCH_serving.json")
        written = export_store(store, engine_out=engine_out, serving_out=serving_out)
        assert written == {"engine": 1, "serving": 0}

        record = load_trajectory(engine_out)
        case = record[f"matrix_{stub_protocol}_path_smoke"]
        assert set(case["tiers"]) == {"fast", "vectorized"}
        assert case["tiers"]["fast"]["seconds"] == 0.5
        assert case["source"] == "repro-bench"
        # Cell hashes are recorded so a case can be traced to its records.
        assert set(case["cells"]) == {"fast", "vectorized"}

    def test_export_merges_without_clobbering(self, tmp_path, stub_protocol):
        engine_out = str(tmp_path / "BENCH_engine.json")
        from repro.experiments import merge_trajectory_record

        merge_trajectory_record(
            engine_out, "handwritten_case", "full", {"fast": {"seconds": 1.0}}
        )
        cells = make_matrix(
            protocols=(stub_protocol,), engines=("fast",), families=("path",),
            scale="smoke", seeds=(1,),
        ).cells()
        store = ResultStore(tmp_path / "s")
        run_matrix(cells, store, timer=fake_timer())
        export_store(
            store, engine_out=engine_out, serving_out=str(tmp_path / "sv.json")
        )
        record = load_trajectory(engine_out)
        assert "handwritten_case" in record
        assert f"matrix_{stub_protocol}_path_smoke" in record


# --------------------------------------------------------------------------- #
# CLI end-to-end (subprocess)
# --------------------------------------------------------------------------- #
def _cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments"] + args,
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


class TestCLI:
    RUN_ARGS = [
        "run", "-p", "bellman_ford", "-e", "fast", "-e", "vectorized",
        "-f", "path", "--scale", "smoke", "--seed", "1",
    ]

    def test_run_interrupt_resume_and_gate(self, tmp_path):
        store = str(tmp_path / "store")

        first = _cli(self.RUN_ARGS + ["--store", store, "--max-cells", "1"],
                     cwd=str(tmp_path))
        assert first.returncode == 0, first.stderr
        assert "executed=1" in first.stdout
        assert "interrupted" in first.stdout

        second = _cli(self.RUN_ARGS + ["--store", store], cwd=str(tmp_path))
        assert second.returncode == 0, second.stderr
        assert "cached=1" in second.stdout
        assert "executed=1" in second.stdout

        gate = _cli(
            ["gate", "--skip-engine", "--skip-serving", "--store", store],
            cwd=str(tmp_path),
        )
        assert gate.returncode == 0, gate.stdout + gate.stderr
        assert "PASS" in gate.stdout

    def test_gate_exit_codes_against_trajectories(self, tmp_path):
        (tmp_path / "good.json").write_text(json.dumps(GOOD_ENGINE_RECORD))
        good = _cli(
            ["gate", "--engine-trajectory", str(tmp_path / "good.json"),
             "--serving-trajectory",
             os.path.join(REPO_ROOT, "BENCH_serving.json")],
            cwd=REPO_ROOT,
        )
        assert good.returncode == 0, good.stdout + good.stderr
        assert "PASS" in good.stdout

        slowed = copy.deepcopy(GOOD_ENGINE_RECORD)
        slowed["bellman_ford_dense"]["tiers"]["vectorized"]["seconds"] *= 100
        (tmp_path / "slowed.json").write_text(json.dumps(slowed))
        bad = _cli(
            ["gate", "--engine-trajectory", str(tmp_path / "slowed.json"),
             "--skip-serving"],
            cwd=REPO_ROOT,
        )
        assert bad.returncode == 1
        assert "FAIL" in bad.stdout

        # A missing trajectory file is a violation, not a silent skip.
        absent = _cli(
            ["gate", "--engine-trajectory", str(tmp_path / "absent.json"),
             "--skip-serving"],
            cwd=REPO_ROOT,
        )
        assert absent.returncode == 1

    def test_bin_launcher_exports_and_consolidates_jsonl(
        self, tmp_path, stub_protocol
    ):
        cells = make_matrix(
            protocols=(stub_protocol,), engines=("fast", "vectorized"),
            families=("path",), scale="smoke", seeds=(1,),
        ).cells()
        store = ResultStore(tmp_path / "s")
        run_matrix(cells, store, timer=fake_timer())
        table = tmp_path / "all.jsonl"
        # bin/repro-bench puts src/ on sys.path itself: no PYTHONPATH.
        proc = subprocess.run(
            [sys.executable, os.path.join(REPO_ROOT, "bin", "repro-bench"),
             "export", "--store", str(tmp_path / "s"),
             "--engine-out", str(tmp_path / "engine.json"),
             "--serving-out", str(tmp_path / "serving.json"),
             "--consolidated", str(table)],
            cwd=str(tmp_path), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "consolidated 2 record(s)" in proc.stdout
        rows = [json.loads(line) for line in table.read_text().splitlines()]
        assert rows == [store.get(key) for key in store.keys()]
        engine = load_trajectory(str(tmp_path / "engine.json"))
        assert f"matrix_{stub_protocol}_path_smoke" in engine
