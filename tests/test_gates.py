"""Tests for the regression gates over the ``BENCH_*.json`` trajectories.

* the committed trajectories exist, hold only full-scale entries and
  pass every gate;
* a tier record slowed past tolerance, a missing tier, an unreadable
  file and a NaN or infinite measurement each fail the gate;
* every floor of every gate, at every scale it names, passes exactly at
  its tolerance bar and fails just below it, and its case is recorded
  in the committed file;
* a malformed entry (no tiers, non-positive or non-numeric timings)
  fails the structural check;
* ``python -m repro.experiments gate`` exits 0 on PASS and 1 on FAIL.
"""

import copy
import json
import math
import os
import subprocess
import sys

import pytest

from repro.experiments import check_trajectory
from repro.experiments.gates import (
    ENGINE_GATES,
    GATES_BY_TRAJECTORY,
    SERVING_GATES,
    TOLERANCE,
    TierRatioGate,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A healthy engine-trajectory record satisfying the full-scale ratio gates
#: (vectorized 10x over fast on the dense case).  The tests edit copies of
#: it rather than the committed BENCH_engine.json, so each one controls
#: exactly which value is bad.
GOOD_ENGINE_RECORD = {
    "bellman_ford_dense": {
        "scale": "full",
        "tiers": {
            "fast": {"seconds": 10.0},
            "vectorized": {"seconds": 1.0},
        },
    },
}

#: A healthy async record: bucketed over heap above both full-scale floors.
GOOD_ASYNC_RECORD = {
    "bellman_ford_async": {
        "scale": "full",
        "tiers": {
            "async_deep_path_bucketed": {"seconds": 1.0},
            "async_deep_path_heap": {"seconds": 3.0},
        },
        "bucketed_vs_heap": {"deep_path": 3.0, "dense": 2.0},
    },
}


def _write(tmp_path, record):
    path = tmp_path / "BENCH_engine.json"
    path.write_text(json.dumps(record))
    return str(path)


class TestGates:
    def test_committed_trajectories_pass(self):
        for fname, kind in (
            ("BENCH_engine.json", "engine"),
            ("BENCH_serving.json", "serving"),
        ):
            path = os.path.join(REPO_ROOT, fname)
            report = check_trajectory(path, kind)
            assert report.ok, report.render()
            assert report.checks > 0
            # A tiny-scale bench smoke merges into the same file; only
            # full-scale records may be committed.
            with open(path) as fh:
                record = json.load(fh)
            assert record
            scales = {case: entry.get("scale") for case, entry in record.items()}
            assert set(scales.values()) == {"full"}, (fname, scales)

    def test_healthy_record_passes(self, tmp_path):
        report = check_trajectory(_write(tmp_path, GOOD_ENGINE_RECORD), "engine")
        assert report.ok, report.render()

    def test_slowed_tier_fails_the_gate(self, tmp_path):
        slowed = copy.deepcopy(GOOD_ENGINE_RECORD)
        slowed["bellman_ford_dense"]["tiers"]["vectorized"]["seconds"] *= 100
        report = check_trajectory(_write(tmp_path, slowed), "engine")
        assert not report.ok
        assert any("vectorized" in v for v in report.violations)

    def test_missing_tier_in_present_case_is_violation(self, tmp_path):
        broken = copy.deepcopy(GOOD_ENGINE_RECORD)
        del broken["bellman_ford_dense"]["tiers"]["vectorized"]
        report = check_trajectory(_write(tmp_path, broken), "engine")
        assert any("missing" in v for v in report.violations)

    def test_missing_case_is_note_not_violation(self, tmp_path):
        report = check_trajectory(_write(tmp_path, {}), "engine")
        assert report.ok
        assert any("not recorded yet" in n for n in report.notes)

    def test_invalid_json_is_violation(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text("{nope")
        assert not check_trajectory(str(path), "engine").ok
        assert not check_trajectory(str(tmp_path / "absent.json"), "engine").ok

    @pytest.mark.parametrize(
        "base, keys, value",
        [
            (GOOD_ENGINE_RECORD,
             ("bellman_ford_dense", "tiers", "vectorized", "seconds"), math.nan),
            (GOOD_ENGINE_RECORD,
             ("bellman_ford_dense", "tiers", "fast", "seconds"), math.inf),
            (GOOD_ASYNC_RECORD,
             ("bellman_ford_async", "bucketed_vs_heap", "deep_path"), math.nan),
        ],
        ids=["nan-seconds", "inf-seconds", "nan-extra"],
    )
    def test_non_finite_value_is_violation(self, tmp_path, base, keys, value):
        assert check_trajectory(_write(tmp_path, base), "engine").ok
        record = copy.deepcopy(base)
        entry = record
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = value
        # json writes and reads NaN/Infinity by default, so the bad value
        # reaches the gate exactly as a bench would have recorded it.
        report = check_trajectory(_write(tmp_path, record), "engine")
        assert not report.ok, report.render()

    def test_scale_without_floor_only_checks_tier_presence(self, tmp_path):
        record = copy.deepcopy(GOOD_ENGINE_RECORD)
        entry = record["bellman_ford_dense"]
        entry["scale"] = "small"
        entry["tiers"]["vectorized"]["seconds"] = 100.0
        assert check_trajectory(_write(tmp_path, record), "engine").ok
        del entry["tiers"]["vectorized"]
        report = check_trajectory(_write(tmp_path, record), "engine")
        assert any("missing" in v for v in report.violations), report.render()

    def test_non_object_json_is_violation(self, tmp_path):
        report = check_trajectory(_write(tmp_path, [GOOD_ENGINE_RECORD]), "engine")
        assert any("not a JSON object" in v for v in report.violations)

    def test_unknown_kind_raises(self, tmp_path):
        with pytest.raises(KeyError):
            check_trajectory(_write(tmp_path, GOOD_ENGINE_RECORD), "pipeline")

    @pytest.mark.parametrize(
        "entry",
        [
            ["fast", "vectorized"],
            {"scale": "full"},
            {"scale": "full", "tiers": {}},
            {"scale": "full", "tiers": {"fast": 1.0}},
            {"scale": "full", "tiers": {"fast": {"seconds": 0.0}}},
            {"scale": "full", "tiers": {"fast": {"seconds": -1.0}}},
            {"scale": "full", "tiers": {"fast": {"seconds": "slow"}}},
            {"scale": "full", "tiers": {"fast": {"qps": 0}}},
        ],
        ids=[
            "entry-not-mapping", "no-tiers", "empty-tiers", "tier-not-mapping",
            "zero-seconds", "negative-seconds", "string-seconds", "zero-qps",
        ],
    )
    def test_malformed_entry_is_violation(self, tmp_path, entry):
        # An ungated case name, so only the structural check can fire.
        report = check_trajectory(_write(tmp_path, {"extra_case": entry}), "engine")
        assert len(report.violations) == 1, report.render()
        assert "extra_case" in report.violations[0]


#: Every gate with its trajectory kind, and every (gate, scale) floor.
ALL_GATES = [("engine", g) for g in ENGINE_GATES] + [
    ("serving", g) for g in SERVING_GATES
]
GATE_FLOORS = [
    (kind, gate, scale) for kind, gate in ALL_GATES for scale in sorted(gate.floors)
]


def _gate_id(gate):
    if isinstance(gate, TierRatioGate):
        return f"{gate.case}:{gate.candidate}/{gate.baseline}"
    return f"{gate.case}:{'.'.join(gate.path)}"


def _set_gate_value(entry, gate, value):
    """Make ``gate`` measure ``value`` on ``entry`` (a ratio or a scalar)."""
    if isinstance(gate, TierRatioGate):
        entry["tiers"][gate.baseline] = {"seconds": value}
        entry["tiers"][gate.candidate] = {"seconds": 1.0}
    else:
        node = entry
        for key in gate.path[:-1]:
            node = node.setdefault(key, {})
        node[gate.path[-1]] = value


def _record_measuring(kind, scale, target, value):
    """A record for every gate of ``kind``: ``target`` measures ``value``,
    every other gate measures far above its floor."""
    record = {}
    for gate in GATES_BY_TRAJECTORY[kind]:
        entry = record.setdefault(
            gate.case, {"scale": scale, "tiers": {"bench": {"seconds": 1.0}}}
        )
        _set_gate_value(entry, gate, value if gate is target else 1000.0)
    return record


class TestEveryFloor:
    @pytest.mark.parametrize(
        "kind, gate, scale", GATE_FLOORS,
        ids=[f"{_gate_id(g)}@{s}" for _, g, s in GATE_FLOORS],
    )
    def test_passes_at_tolerance_bar(self, tmp_path, kind, gate, scale):
        bar = gate.floors[scale] * (1.0 - TOLERANCE)
        record = _record_measuring(kind, scale, gate, bar)
        report = check_trajectory(_write(tmp_path, record), kind)
        assert report.ok, report.render()
        assert report.checks == len(record) + len(GATES_BY_TRAJECTORY[kind])

    @pytest.mark.parametrize(
        "kind, gate, scale", GATE_FLOORS,
        ids=[f"{_gate_id(g)}@{s}" for _, g, s in GATE_FLOORS],
    )
    def test_fails_just_below_tolerance_bar(self, tmp_path, kind, gate, scale):
        bar = gate.floors[scale] * (1.0 - TOLERANCE)
        record = _record_measuring(kind, scale, gate, bar * 0.99)
        report = check_trajectory(_write(tmp_path, record), kind)
        assert len(report.violations) == 1, report.render()
        assert gate.case in report.violations[0]
        assert repr(scale) in report.violations[0]

    @pytest.mark.parametrize(
        "kind, gate", ALL_GATES, ids=[_gate_id(g) for _, g in ALL_GATES]
    )
    def test_case_is_recorded_in_committed_file(self, kind, gate):
        # A gated case absent from the committed file is only a note to
        # the gate; this pins that every floor is checked against a record.
        with open(os.path.join(REPO_ROOT, f"BENCH_{kind}.json")) as fh:
            record = json.load(fh)
        assert gate.case in record
        assert gate.check(record[gate.case]) is None


def _cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments"] + args,
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def test_gate_exit_codes_against_trajectories(tmp_path):
    serving = ["--serving-trajectory", os.path.join(REPO_ROOT, "BENCH_serving.json")]
    (tmp_path / "good.json").write_text(json.dumps(GOOD_ENGINE_RECORD))
    good = _cli(["gate", "--engine-trajectory", str(tmp_path / "good.json")] + serving)
    assert good.returncode == 0, good.stdout + good.stderr
    assert "PASS" in good.stdout

    slowed = copy.deepcopy(GOOD_ENGINE_RECORD)
    slowed["bellman_ford_dense"]["tiers"]["vectorized"]["seconds"] *= 100
    (tmp_path / "slowed.json").write_text(json.dumps(slowed))
    bad = _cli(["gate", "--engine-trajectory", str(tmp_path / "slowed.json")] + serving)
    assert bad.returncode == 1
    assert "FAIL" in bad.stdout

    # A missing trajectory file is a violation, not a silent skip.
    absent = _cli(["gate", "--engine-trajectory", str(tmp_path / "absent.json")] + serving)
    assert absent.returncode == 1
