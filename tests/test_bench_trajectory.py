"""Regression tests for the hardened ``BENCH_*.json`` merge-writer.

The three bugs this suite pins down (each was real in the pre-fix
writer):

* a crash mid-``json.dump`` truncated the trajectory file (the write
  went straight to the target) — now the dump goes to a temp file that
  is ``os.replace``d over the target, so a killed writer leaves the old
  file intact;
* an unparsable trajectory was silently reset to ``{}``, destroying the
  cross-PR history on the next write — now the corrupt file is backed
  up aside (``.corrupt-<n>``) with a warning naming the backup;
* concurrent merges raced the read-modify-write and lost each other's
  cases — now the merge holds an ``fcntl`` lock (no-op degrade on
  platforms without fcntl).
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.experiments import trajectory
from repro.experiments.trajectory import (
    TrajectoryCorruptWarning,
    load_trajectory,
    merge_trajectory_record,
)

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _read(path):
    with open(path) as fh:
        return json.load(fh)


class TestMergeBasics:
    def test_round_trip_and_merge_preserves_other_cases(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")
        merge_trajectory_record(path, "case_a", "tiny", {"fast": {"seconds": 1.0}})
        merge_trajectory_record(
            path, "case_b", "full", {"fast": {"seconds": 2.0}}, extra={"n": 7}
        )
        record = _read(path)
        assert set(record) == {"case_a", "case_b"}
        assert record["case_b"] == {
            "scale": "full", "tiers": {"fast": {"seconds": 2.0}}, "n": 7,
        }
        # Re-merging one case updates it and leaves the rest alone.
        merge_trajectory_record(path, "case_a", "tiny", {"fast": {"seconds": 9.0}})
        record = _read(path)
        assert record["case_a"]["tiers"]["fast"]["seconds"] == 9.0
        assert record["case_b"]["n"] == 7

    def test_trailing_newline_and_sorted_keys(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")
        merge_trajectory_record(path, "zz", "tiny", {})
        merge_trajectory_record(path, "aa", "tiny", {})
        with open(path) as fh:
            text = fh.read()
        assert text.endswith("\n")
        assert text.index('"aa"') < text.index('"zz"')

    def test_lock_degrades_to_noop_without_fcntl(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trajectory, "fcntl", None)
        path = str(tmp_path / "BENCH_x.json")
        merge_trajectory_record(path, "case", "tiny", {"fast": {"seconds": 1.0}})
        assert _read(path)["case"]["scale"] == "tiny"


class TestCrashMidWrite:
    """A writer dying anywhere during the merge must not hurt the target."""

    def _crash_subprocess(self, json_path, crash_stage):
        """Run a merge in a child that SIGKILLs itself at ``crash_stage``."""
        script = textwrap.dedent(
            f"""
            import os, signal, sys
            sys.path.insert(0, {REPO_SRC!r})
            from repro.experiments import trajectory

            stage = {crash_stage!r}
            if stage == "during_dump":
                real_dump = trajectory.json.dump
                def killing_dump(record, fh, **kw):
                    fh.write('{{"half": ')   # torn payload hits the temp file
                    fh.flush()
                    os.kill(os.getpid(), signal.SIGKILL)
                trajectory.json.dump = killing_dump
            elif stage == "before_replace":
                def killing_fsync(fd):
                    os.kill(os.getpid(), signal.SIGKILL)
                trajectory.os.fsync = killing_fsync
            trajectory.merge_trajectory_record(
                {json_path!r}, "new_case", "tiny", {{"fast": {{"seconds": 1.0}}}}
            )
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr

    @pytest.mark.parametrize("crash_stage", ["during_dump", "before_replace"])
    def test_killed_writer_leaves_trajectory_intact(self, tmp_path, crash_stage):
        path = str(tmp_path / "BENCH_x.json")
        merge_trajectory_record(path, "old_case", "full", {"fast": {"seconds": 3.0}})
        before = open(path, "rb").read()

        self._crash_subprocess(path, crash_stage)

        # The committed trajectory is byte-identical: no truncation, no
        # partial merge, still parseable.
        assert open(path, "rb").read() == before
        assert _read(path) == {
            "old_case": {"scale": "full", "tiers": {"fast": {"seconds": 3.0}}}
        }

    def test_failed_serialization_leaves_target_and_no_litter(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")
        merge_trajectory_record(path, "old_case", "full", {"fast": {"seconds": 3.0}})
        before = open(path, "rb").read()
        with pytest.raises(TypeError):
            merge_trajectory_record(path, "bad", "tiny", {"obj": object()})
        assert open(path, "rb").read() == before
        # The half-written temp file was cleaned up, not left behind.
        leftovers = [
            name for name in os.listdir(tmp_path) if name not in
            ("BENCH_x.json", "BENCH_x.json.lock")
        ]
        assert leftovers == []


class TestCorruptTrajectory:
    def test_corrupt_file_backed_up_not_discarded(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")
        with open(path, "w") as fh:
            fh.write('{"case": {"scale": "full"')  # truncated JSON
        with pytest.warns(TrajectoryCorruptWarning, match=r"\.corrupt-0"):
            merge_trajectory_record(path, "fresh", "tiny", {"fast": {"seconds": 1.0}})
        # History preserved aside, fresh record started.
        backup = path + ".corrupt-0"
        assert os.path.exists(backup)
        assert open(backup).read() == '{"case": {"scale": "full"'
        assert set(_read(path)) == {"fresh"}

    def test_backup_names_do_not_collide(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")
        for n in range(2):
            with open(path, "w") as fh:
                fh.write(f"garbage-{n}")
            with pytest.warns(TrajectoryCorruptWarning, match=rf"\.corrupt-{n}"):
                merge_trajectory_record(path, f"c{n}", "tiny", {})
        assert open(path + ".corrupt-0").read() == "garbage-0"
        assert open(path + ".corrupt-1").read() == "garbage-1"

    def test_non_object_json_also_backed_up(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")
        with open(path, "w") as fh:
            fh.write("[1, 2, 3]\n")
        with pytest.warns(TrajectoryCorruptWarning, match="JSON object"):
            assert load_trajectory(path) == {}
        assert os.path.exists(path + ".corrupt-0")

    def test_unreadable_path_raises_instead_of_overwriting(self, tmp_path):
        # A directory in place of the file: reading raises OSError, and the
        # writer must propagate it rather than blow away what it never read.
        path = str(tmp_path / "BENCH_dir.json")
        os.mkdir(path)
        with pytest.raises(OSError):
            merge_trajectory_record(path, "case", "tiny", {})
        assert os.path.isdir(path)


def _merge_worker(json_path, worker_id, cases_per_worker):
    for i in range(cases_per_worker):
        merge_trajectory_record(
            json_path,
            f"w{worker_id}_case{i}",
            "tiny",
            {"fast": {"seconds": 0.001 * (i + 1)}},
            extra={"worker": worker_id},
        )


class TestConcurrentMerge:
    @pytest.mark.parametrize("workers,cases", [(2, 25), (4, 10)])
    def test_concurrent_merges_lose_no_cases(self, tmp_path, workers, cases):
        """The satellite bug: racing read-modify-writes dropped cases."""
        path = str(tmp_path / "BENCH_x.json")
        merge_trajectory_record(path, "preexisting", "tiny", {})
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_merge_worker, args=(path, w, cases))
            for w in range(workers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
            assert p.exitcode == 0
        record = _read(path)
        expected = {"preexisting"} | {
            f"w{w}_case{i}" for w in range(workers) for i in range(cases)
        }
        assert set(record) == expected
        for w in range(workers):
            assert record[f"w{w}_case{cases - 1}"]["worker"] == w
