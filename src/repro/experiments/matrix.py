"""Declarative experiment matrix: cells, scales and content hashing.

The unified runner sweeps a cross product of five axes —
``(engine tier x protocol/primitive x graph family x scale x seed)`` —
and persists one record per *cell*.  A cell is identified by the
content hash of its spec (:meth:`CellSpec.cell_hash`), so a re-invoked
sweep resumes exactly where it left off: finished cells are found in
the store by hash and skipped, and changing any axis value (or the
record schema version) changes the hash and forces a fresh run.

Scales are named presets (``smoke`` < ``small`` < ``full``) mapping
each graph family to an instance size, so "the CI smoke matrix" and
"the paper-scale matrix" are the same spec at a different ``--scale``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

#: Bump when the persisted record layout changes incompatibly: the hash
#: covers it, so old-store cells stop matching and are re-run rather
#: than misread.
SCHEMA_VERSION = 1

SCALES = ("smoke", "small", "full")

#: Graph-family instance sizes per scale.  ``path``/``dense`` mirror the
#: engine shoot-out benches (``SIZES``/``DENSE_SIZES`` in
#: ``bench_congest_engine``), ``grid`` is the side length, ``ktree`` the
#: partial 3-tree workhorse, ``tree`` a uniform random tree.
FAMILY_SIZES = {
    "path": {"smoke": 40, "small": 120, "full": 2000},
    "dense": {"smoke": 24, "small": 60, "full": 400},
    "grid": {"smoke": 6, "small": 10, "full": 40},
    "ktree": {"smoke": 32, "small": 80, "full": 240},
    "tree": {"smoke": 40, "small": 120, "full": 500},
    "bipartite": {"smoke": 24, "small": 60, "full": 160},
    "chords": {"smoke": 24, "small": 40, "full": 80},
}

FAMILIES = tuple(sorted(FAMILY_SIZES))

#: CONGEST engine tiers (the ``engine=`` axis of the simulator).  The
#: serving protocol reinterprets this axis as the decode backend
#: (``scalar`` | ``packed``); structural protocols pin it to ``"-"``.
ENGINES = ("legacy", "fast", "vectorized", "async")
STRUCTURAL_ENGINE = "-"


def family_size(family: str, scale: str) -> int:
    """Instance size of ``family`` at ``scale`` (raises on unknown values)."""
    if family not in FAMILY_SIZES:
        raise KeyError(f"unknown graph family {family!r} (have {FAMILIES})")
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r} (have {SCALES})")
    return FAMILY_SIZES[family][scale]


@dataclass(frozen=True)
class CellSpec:
    """One point of the experiment matrix.

    Immutable and hashable; :meth:`cell_hash` is the persistence key.
    """

    protocol: str
    engine: str
    family: str
    scale: str
    seed: int

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "family": self.family,
            "protocol": self.protocol,
            "scale": self.scale,
            "schema": SCHEMA_VERSION,
            "seed": self.seed,
        }

    def cell_hash(self) -> str:
        """Content hash of the spec (first 16 hex chars of its SHA-256).

        Canonical JSON (sorted keys, no whitespace variance) of
        :meth:`to_dict`, so the hash is stable across processes and
        python versions and changes iff an axis value or the schema
        version changes.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def label(self) -> str:
        return (
            f"{self.protocol}/{self.engine}/{self.family}"
            f"@{self.scale} seed={self.seed}"
        )


@dataclass(frozen=True)
class Matrix:
    """A declarative cross product of axis values, filtered for validity.

    :meth:`cells` consults the protocol registry so only cells a
    protocol adapter actually supports are produced (e.g. the serving
    protocol only pairs with the ``scalar``/``packed`` backends, the
    structural protocols ignore the engine axis entirely).
    """

    protocols: Tuple[str, ...]
    engines: Tuple[str, ...]
    families: Tuple[str, ...]
    scale: str
    seeds: Tuple[int, ...]

    def cells(self) -> List[CellSpec]:
        from .protocols import REGISTRY  # lazy: protocols imports this module

        out: List[CellSpec] = []
        for protocol in self.protocols:
            adapter = REGISTRY.get(protocol)
            if adapter is None:
                raise KeyError(
                    f"unknown protocol {protocol!r} "
                    f"(have {tuple(sorted(REGISTRY))})"
                )
            engines = [e for e in self.engines if e in adapter.engines]
            if adapter.engines == (STRUCTURAL_ENGINE,):
                # Engine-independent protocol: one cell regardless of the
                # requested engine set.
                engines = [STRUCTURAL_ENGINE]
            families = [f for f in self.families if f in adapter.families]
            for family in families:
                for engine in engines:
                    for seed in self.seeds:
                        out.append(
                            CellSpec(
                                protocol=protocol,
                                engine=engine,
                                family=family,
                                scale=self.scale,
                                seed=seed,
                            )
                        )
        return out


def make_matrix(
    protocols: Optional[Sequence[str]] = None,
    engines: Optional[Sequence[str]] = None,
    families: Optional[Sequence[str]] = None,
    scale: str = "smoke",
    seeds: Iterable[int] = (12345,),
) -> Matrix:
    """Build a :class:`Matrix`, defaulting unset axes to the smoke defaults."""
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r} (have {SCALES})")
    return Matrix(
        protocols=tuple(protocols) if protocols else DEFAULT_PROTOCOLS,
        engines=tuple(engines) if engines else DEFAULT_ENGINES,
        families=tuple(families) if families else DEFAULT_FAMILIES,
        scale=scale,
        seeds=tuple(seeds),
    )


#: The default sweep: the engine-tier shoot-out protocols on the two
#: round shapes the benches track, plus the serving backends.  Kept
#: small enough that ``repro-bench run --scale smoke`` is a CI-speed
#: command; widen with ``--protocol/--engine/--family``.
DEFAULT_PROTOCOLS = ("bellman_ford", "bfs_tree", "serving_query")
DEFAULT_ENGINES = ("fast", "vectorized", "scalar", "packed")
DEFAULT_FAMILIES = ("path", "dense", "ktree")
