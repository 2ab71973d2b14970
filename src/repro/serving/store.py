"""`LabelStore`: a directory of packed labelings, memory-mapped for serving.

The store is the corpus half of the serving stack: :meth:`LabelStore.build`
precomputes labelings for a corpus of graphs and persists each as one
``<name>.rplb`` packed-labeling file (:mod:`repro.labeling.packed`), and
:class:`LabelStore` reopens that directory with ``np.memmap`` views.  The
zero-copy contract follows directly: every server worker process that opens
the same store directory maps the same files, so the kernel shares one set
of physical pages across all workers no matter how many processes serve —
``stats()`` accounts ``mapped_bytes`` per graph and asserts-ably reports
``copied_label_bytes == 0`` for the mapped configuration.
"""

from __future__ import annotations

import os
import re
from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

from repro.errors import LabelingError
from repro.labeling.labels import DistanceLabeling
from repro.labeling.packed import PackedLabeling

#: Packed-labeling files use this suffix inside a store directory.
STORE_SUFFIX = ".rplb"

#: Graph names double as file stems, so they must be filesystem-safe.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise LabelingError(
            f"invalid store graph name {name!r}: names must match "
            f"{_NAME_RE.pattern} (they become file stems)"
        )
    return name


def _pack_corpus_value(name: str, value) -> PackedLabeling:
    """Normalise one corpus entry to a :class:`PackedLabeling`.

    Accepts a ready :class:`PackedLabeling`, a dict-form
    :class:`DistanceLabeling`, a :class:`~repro.graphs.digraph.WeightedDiGraph`
    instance (labeled via the paper's construction), or an undirected
    :class:`~repro.graphs.graph.Graph` (directed symmetrically first).
    """
    if isinstance(value, PackedLabeling):
        return value
    if isinstance(value, DistanceLabeling):
        return PackedLabeling.from_labeling(value)

    from repro.graphs.digraph import WeightedDiGraph
    from repro.graphs.graph import Graph

    if isinstance(value, Graph):
        from repro.graphs.generators import to_directed_instance

        value = to_directed_instance(value, orientation="both")
    if isinstance(value, WeightedDiGraph):
        from repro.labeling.construction import build_distance_labeling

        labeling = build_distance_labeling(value).labeling
        return PackedLabeling.from_labeling(labeling)
    raise LabelingError(
        f"corpus entry {name!r} has unsupported type {type(value).__name__}; "
        "expected PackedLabeling, DistanceLabeling, WeightedDiGraph, or Graph"
    )


class LabelStore:
    """Open (and lazily memory-map) a directory of packed labelings.

    ``mmap=True`` (default, numpy) opens every labeling as read-only
    ``np.memmap`` views; ``mmap=False``, or a host without numpy (the
    configuration the no-numpy CI job serves with), reads heap copies.
    """

    def __init__(self, directory, mmap: bool = True) -> None:
        self.directory = os.fspath(directory)
        self.mmap = bool(mmap)
        if not os.path.isdir(self.directory):
            raise LabelingError(f"label store directory {self.directory!r} not found")
        self._paths: Dict[str, str] = {}
        for entry in sorted(os.listdir(self.directory)):
            if entry.endswith(STORE_SUFFIX):
                self._paths[entry[: -len(STORE_SUFFIX)]] = os.path.join(
                    self.directory, entry
                )
        self._cache: Dict[str, PackedLabeling] = {}
        self._unpacked: Dict[str, DistanceLabeling] = {}

    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, corpus: Mapping[str, object], directory) -> "LabelStore":
        """Precompute + persist a corpus, then open the resulting store.

        ``corpus`` maps filesystem-safe names to graphs or labelings (see
        :func:`_pack_corpus_value`).  The directory is created if missing;
        existing files for the same names are overwritten.
        """
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        for name, value in corpus.items():
            _check_name(name)
            packed = _pack_corpus_value(name, value)
            packed.save(os.path.join(directory, name + STORE_SUFFIX))
        return cls(directory)

    # ------------------------------------------------------------------ #
    def graphs(self) -> Tuple[str, ...]:
        """The corpus names, sorted."""
        return tuple(self._paths)

    def path(self, name: str) -> str:
        if not isinstance(name, str) or name not in self._paths:
            raise LabelingError(
                f"unknown graph {name!r}; store holds {sorted(self._paths)}"
            )
        return self._paths[name]

    def get(self, name: str) -> PackedLabeling:
        """The packed labeling for ``name`` (opened once, then cached)."""
        path = self.path(name)  # rejects a non-str name before any lookup
        packed = self._cache.get(name)
        if packed is None:
            packed = PackedLabeling.load(path, mmap=self.mmap)
            self._cache[name] = packed
        return packed

    def labeling(self, name: str) -> DistanceLabeling:
        """The dict-form labeling for ``name`` (unpacked once, then cached).

        This is the scalar reference path — the serving bench's baseline
        (``QueryServer(decode="scalar")``) decodes from these labels with
        :func:`~repro.labeling.labels.decode_distance` one pair at a time.
        """
        packed = self.get(name)
        labeling = self._unpacked.get(name)
        if labeling is None:
            labeling = packed.to_labeling()
            self._unpacked[name] = labeling
        return labeling

    def stats(self) -> Dict[str, object]:
        """Residency accounting across every *opened* labeling.

        ``copied_label_bytes`` counts heap bytes holding label entries —
        zero whenever every opened labeling is memory-mapped, which is the
        multi-worker zero-copy assertion the serving bench makes.
        """
        per_graph = {}
        mapped = copied = 0
        for name, packed in self._cache.items():
            s = packed.stats()
            s["file_bytes"] = os.path.getsize(self._paths[name])
            per_graph[name] = s
            mapped += s["mapped_bytes"]
            copied += s["copied_label_bytes"]
        return {
            "directory": self.directory,
            "graphs": len(self._paths),
            "opened": len(self._cache),
            "mapped_bytes": mapped,
            "copied_label_bytes": copied,
            "per_graph": per_graph,
        }


# --------------------------------------------------------------------------- #
# Seeded corpus helper (bench + example + CI smoke share it)
# --------------------------------------------------------------------------- #
def seeded_corpus(seed: int, n: int) -> Dict[str, object]:
    """A small deterministic corpus of low-treewidth directed instances.

    Three families at size ``n`` — the partial 3-tree workhorse, a grid,
    and a long-diameter caterpillar — directed with asymmetric integer
    weights, so forward and reverse distances genuinely differ.
    """
    from repro.graphs.generators import (
        caterpillar_graph,
        grid_graph,
        partial_k_tree,
        to_directed_instance,
    )

    rows = max(2, int(n ** 0.5))
    cols = max(2, (n + rows - 1) // rows)
    spine = max(2, n // 2)
    undirected = {
        f"ktree{n}": partial_k_tree(n, 3, 0.6, seed=seed + 1),
        f"grid{rows}x{cols}": grid_graph(rows, cols),
        f"caterpillar{spine}": caterpillar_graph(spine, legs_per_node=1),
    }
    return {
        name: to_directed_instance(
            g, weight_range=(1, 9), orientation="asymmetric", seed=seed + i
        )
        for i, (name, g) in enumerate(undirected.items())
    }
