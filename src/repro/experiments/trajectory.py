"""Hardened merge-writer for the ``BENCH_*.json`` trajectory files.

Every benchmark module records its cases into one JSON trajectory
(``BENCH_engine.json``, ``BENCH_serving.json``, ...) so speedups are
tracked across PRs.  The writer merges per case: re-running one case
updates its entry and leaves the rest of the file alone.

The merge is a read-modify-write of a file that accumulates history
across every PR, so three failure modes matter and are each closed
here:

* **Torn writes.**  The merged record is serialized to a temporary file
  in the same directory, flushed and fsynced, given the target's
  permission bits, then moved over the target with :func:`os.replace` —
  readers (and a crash mid-dump) see either the old file or the new
  file, never a truncated one.
* **Corrupt trajectories.**  An unparsable file is *never* silently
  reset to ``{}`` (which would destroy the whole cross-PR trajectory on
  the next write).  It is moved aside to ``<name>.corrupt-<n>`` and a
  :class:`TrajectoryCorruptWarning` names the backup; the merge then
  starts a fresh record.  An ``OSError`` while reading (permissions,
  I/O) is re-raised: overwriting a file we could not read would discard
  history we never saw.
* **Concurrent merges.**  Two benchmark processes (the CI jobs, or
  parallel local runs) racing the read-modify-write would lose each
  other's cases.  The whole merge holds an exclusive ``fcntl`` lock on
  a ``<name>.lock`` sidecar.  On platforms without :mod:`fcntl`
  (Windows) the lock degrades to a no-op — concurrent merges are then
  last-writer-wins per *file*, but single-process merges stay atomic.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
import warnings
from typing import Optional

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None


class TrajectoryCorruptWarning(UserWarning):
    """A trajectory file was unparsable and has been backed up aside."""


def _lock_path(json_path: str) -> str:
    return json_path + ".lock"


def _acquire_lock(json_path: str):
    """Take an exclusive advisory lock guarding the merge; None without fcntl."""
    if fcntl is None:
        return None
    fd = os.open(_lock_path(json_path), os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
    except OSError:  # pragma: no cover - exotic filesystems without flock
        os.close(fd)
        return None
    return fd

def _release_lock(fd) -> None:
    if fd is None:
        return
    fcntl.flock(fd, fcntl.LOCK_UN)
    os.close(fd)


def backup_corrupt_file(path: str) -> str:
    """Move an unparsable file aside to the next free ``<path>.corrupt-<n>``."""
    n = 0
    while True:
        backup = f"{path}.corrupt-{n}"
        if not os.path.exists(backup):
            break
        n += 1
    os.replace(path, backup)
    return backup


def load_trajectory(json_path: str) -> dict:
    """Read a trajectory record, backing a corrupt file up instead of erasing it."""
    if not os.path.exists(json_path):
        return {}
    with open(json_path) as fh:
        text = fh.read()
    try:
        record = json.loads(text)
    except ValueError:
        backup = backup_corrupt_file(json_path)
        warnings.warn(
            f"trajectory file {json_path!r} is not valid JSON; "
            f"backed it up to {backup!r} and starting a fresh record",
            TrajectoryCorruptWarning,
            stacklevel=2,
        )
        return {}
    if not isinstance(record, dict):
        backup = backup_corrupt_file(json_path)
        warnings.warn(
            f"trajectory file {json_path!r} does not hold a JSON object; "
            f"backed it up to {backup!r} and starting a fresh record",
            TrajectoryCorruptWarning,
            stacklevel=2,
        )
        return {}
    return record


def _replacement_mode(json_path: str) -> int:
    """The permission bits the replaced file should keep.

    ``mkstemp`` creates its file owner-only (0600); the target's own mode,
    or for a new file ``0o666`` under the process umask, is what a plain
    ``open(path, "w")`` would have left.
    """
    try:
        return stat.S_IMODE(os.stat(json_path).st_mode)
    except FileNotFoundError:
        # Reading the umask means setting it for an instant; the bench
        # processes that write trajectories create no files from other
        # threads meanwhile.
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def write_json_atomic(json_path: str, record) -> None:
    """Serialize ``record`` and atomically replace ``json_path`` with it."""
    directory = os.path.dirname(os.path.abspath(json_path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix="." + os.path.basename(json_path) + ".tmp-"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.chmod(tmp_path, _replacement_mode(json_path))
        os.replace(tmp_path, json_path)
    except BaseException:
        # A failed or interrupted dump leaves the target untouched; drop
        # the half-written temp file rather than littering the directory.
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def merge_trajectory_record(
    json_path: str, case: str, scale: str, tiers: dict,
    extra: Optional[dict] = None,
) -> None:
    """Merge one case's per-tier record into ``json_path``.

    The read-modify-write is guarded by an exclusive file lock (see the
    module docstring) and the final write is atomic, so concurrent
    benchmark processes merge without losing each other's cases and a
    crash mid-write cannot truncate the trajectory.
    """
    lock = _acquire_lock(json_path)
    try:
        record = load_trajectory(json_path)
        entry = {"scale": scale, "tiers": tiers}
        if extra:
            entry.update(extra)
        record[case] = entry
        write_json_atomic(json_path, record)
    finally:
        _release_lock(lock)
