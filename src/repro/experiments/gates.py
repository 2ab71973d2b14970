"""Regression gates over the committed ``BENCH_*.json`` trajectories.

The trajectory files accumulate *measured* per-tier records across PRs;
absolute wall seconds are machine-dependent, so the gates check the
dimensionless claims the benches themselves assert — tier-vs-tier
speedup ratios within one case — plus structural health (tiers present,
timings positive).  A tier record that has been slowed past tolerance
(relative to the tier it is claimed to beat) fails the gate; a record
merely re-measured on a slower machine does not, because both tiers of
a ratio move together.

Each gate carries per-scale floors: the bench suite records ``tiny``
(CI smoke) and ``full`` (paper-scale) entries, and the matrix runner
records ``smoke``/``small``/``full`` cells; ``tiny`` and ``smoke`` are
aliases.  A missing case is skipped (trajectories grow over time); a
missing *tier inside a present case* is a violation.  ``tolerance``
relaxes every floor multiplicatively: a floor ``f`` passes at
``ratio >= f * (1 - tolerance)``.

``check_store`` applies the same idea to fresh matrix records: cells
that differ only in the engine axis are paired against the ``fast``
baseline and gated by per-scale engine floors.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .store import ResultStore

#: Scale aliases: the bench suite's ``--bench-scale tiny`` records and the
#: matrix runner's ``smoke`` cells carry the same floors.
_SCALE_ALIASES = {"tiny": "smoke"}


def _canon_scale(scale: str) -> str:
    return _SCALE_ALIASES.get(scale, scale)


@dataclass(frozen=True)
class TierRatioGate:
    """``baseline.seconds / candidate.seconds >= floor`` within one case."""

    case: str
    baseline: str
    candidate: str
    floors: Dict[str, float]  # canonical scale -> min speedup ratio

    def check(self, entry: dict, tolerance: float) -> Optional[str]:
        scale = _canon_scale(str(entry.get("scale", "")))
        floor = self.floors.get(scale)
        tiers = entry.get("tiers", {})
        base = tiers.get(self.baseline)
        cand = tiers.get(self.candidate)
        if base is None or cand is None:
            missing = self.baseline if base is None else self.candidate
            return f"{self.case}: tier {missing!r} missing from trajectory entry"
        if floor is None:
            return None
        try:
            ratio = float(base["seconds"]) / float(cand["seconds"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return f"{self.case}: unusable seconds for {self.baseline}/{self.candidate}"
        bar = floor * (1.0 - tolerance)
        if ratio < bar:
            return (
                f"{self.case}: {self.candidate} only {ratio:.2f}x over "
                f"{self.baseline} at scale {scale!r} (floor {floor} with "
                f"tolerance {tolerance} -> {bar:.2f})"
            )
        return None


@dataclass(frozen=True)
class ExtraMinGate:
    """A recorded scalar at ``path`` inside the entry must be ``>= floor``."""

    case: str
    path: Tuple[str, ...]
    floors: Dict[str, float]

    def check(self, entry: dict, tolerance: float) -> Optional[str]:
        scale = _canon_scale(str(entry.get("scale", "")))
        floor = self.floors.get(scale)
        if floor is None:
            return None
        value = entry
        for part in self.path:
            if not isinstance(value, dict) or part not in value:
                return (
                    f"{self.case}: recorded value {'.'.join(self.path)} missing"
                )
            value = value[part]
        try:
            measured = float(value)
        except (TypeError, ValueError):
            return f"{self.case}: {'.'.join(self.path)} is not a number"
        bar = floor * (1.0 - tolerance)
        if measured < bar:
            return (
                f"{self.case}: {'.'.join(self.path)} = {measured:.2f} below "
                f"floor {floor} (tolerance {tolerance} -> {bar:.2f}) "
                f"at scale {scale!r}"
            )
        return None


#: The dimensionless claims of BENCH_engine.json, mirroring the bars the
#: bench modules assert when they write the records.
ENGINE_GATES = (
    TierRatioGate(
        case="bellman_ford_dense",
        baseline="fast",
        candidate="vectorized",
        floors={"full": 5.0, "smoke": 1.0, "small": 1.0},
    ),
    TierRatioGate(
        case="chunk_flood_grid",
        baseline="fast",
        candidate="vectorized",
        floors={"full": 5.0, "smoke": 1.0, "small": 1.0},
    ),
    TierRatioGate(
        case="bellman_ford_deep_path",
        baseline="legacy",
        candidate="fast",
        floors={"full": 2.0},
    ),
    TierRatioGate(
        case="bfs_broadcast_grid",
        baseline="legacy",
        candidate="fast",
        floors={"full": 1.2},
    ),
    ExtraMinGate(
        case="bellman_ford_async",
        path=("bucketed_vs_heap", "deep_path"),
        floors={"full": 2.0, "smoke": 2.0, "small": 2.0},
    ),
    ExtraMinGate(
        case="bellman_ford_async",
        path=("bucketed_vs_heap", "dense"),
        floors={"full": 1.0, "smoke": 1.0, "small": 1.0},
    ),
)

#: The serving trajectory's headline: batched packed serving vs the scalar
#: point baseline (asserted >= 10x by the load bench at full scale).
SERVING_GATES = (
    ExtraMinGate(
        case="serving_load",
        path=("speedup_batched_vs_scalar_point",),
        floors={"full": 10.0},
    ),
)

GATES_BY_TRAJECTORY = {"engine": ENGINE_GATES, "serving": SERVING_GATES}


@dataclass
class GateReport:
    """Collected outcome of a gate run."""

    checks: int = 0
    violations: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "GateReport") -> None:
        self.checks += other.checks
        self.violations.extend(other.violations)
        self.notes.extend(other.notes)

    def render(self) -> str:
        lines = [f"gates checked: {self.checks}"]
        lines += [f"note: {note}" for note in self.notes]
        if self.violations:
            lines.append(f"FAIL ({len(self.violations)} violation(s)):")
            lines += [f"  - {v}" for v in self.violations]
        else:
            lines.append("PASS")
        return "\n".join(lines)


def _structural_violations(name: str, record: dict) -> List[str]:
    """Every trajectory entry must be shaped sanely with positive timings."""
    out = []
    for case, entry in sorted(record.items()):
        if not isinstance(entry, dict) or not isinstance(entry.get("tiers"), dict):
            out.append(f"{name}:{case}: entry has no tiers mapping")
            continue
        if not entry["tiers"]:
            out.append(f"{name}:{case}: empty tiers mapping")
        for tier, fields_ in sorted(entry["tiers"].items()):
            if not isinstance(fields_, dict):
                out.append(f"{name}:{case}:{tier}: tier entry is not a mapping")
                continue
            for metric in ("seconds", "qps"):
                if metric in fields_:
                    try:
                        value = float(fields_[metric])
                    except (TypeError, ValueError):
                        value = -1.0
                    if value <= 0:
                        out.append(
                            f"{name}:{case}:{tier}: non-positive {metric} "
                            f"({fields_[metric]!r})"
                        )
    return out


def check_trajectory(path: str, kind: str, tolerance: float = 0.1) -> GateReport:
    """Gate one committed trajectory file (``kind`` = ``engine``/``serving``)."""
    report = GateReport()
    if kind not in GATES_BY_TRAJECTORY:
        raise KeyError(f"unknown trajectory kind {kind!r}")
    if not os.path.exists(path):
        report.violations.append(f"trajectory file {path!r} does not exist")
        return report
    try:
        with open(path) as fh:
            record = json.load(fh)
    except ValueError as exc:
        report.violations.append(f"trajectory file {path!r} is not valid JSON: {exc}")
        return report
    if not isinstance(record, dict):
        report.violations.append(f"trajectory file {path!r} is not a JSON object")
        return report
    report.violations.extend(_structural_violations(kind, record))
    report.checks += len(record)
    for gate in GATES_BY_TRAJECTORY[kind]:
        entry = record.get(gate.case)
        if entry is None:
            report.notes.append(f"{kind}:{gate.case}: not recorded yet (skipped)")
            continue
        report.checks += 1
        violation = gate.check(entry, tolerance)
        if violation:
            report.violations.append(f"{kind}:{violation}")
    return report


#: Fresh-store engine floors: speedup of ``engine`` over the paired ``fast``
#: cell, per (protocol, family, canonical scale).  Deliberately looser than
#: the bench bars, and with NO floors at smoke scale: smoke instances are so
#: small that the array tier's fixed per-round overhead legitimately loses
#: to ``fast`` by an unbounded machine-dependent factor, so smoke cells are
#: gated on correctness (digest agreement, structure) only.
STORE_ENGINE_FLOORS = {
    ("bellman_ford", "dense", "full"): {"vectorized": 5.0},
    ("bellman_ford", "dense", "small"): {"vectorized": 0.8},
}


def check_store(store: ResultStore, tolerance: float = 0.1) -> GateReport:
    """Gate fresh matrix records: engine speedups vs the paired fast cell."""
    report = GateReport()
    by_group: Dict[tuple, Dict[str, dict]] = {}
    for _, record in store.records():
        spec = record.get("spec", {})
        group = (
            spec.get("protocol"),
            spec.get("family"),
            _canon_scale(str(spec.get("scale", ""))),
            spec.get("seed"),
        )
        by_group.setdefault(group, {})[spec.get("engine")] = record
    for (protocol, family, scale, seed), engines in sorted(by_group.items()):
        fast = engines.get("fast")
        if fast is None:
            continue
        digests = {
            engine: rec.get("result", {}).get("output_digest")
            for engine, rec in engines.items()
        }
        # Engine tiers must agree on the protocol output: a digest split
        # means the tiers diverged, which no timing can excuse.
        distinct = {d for d in digests.values() if d is not None}
        if len(distinct) > 1:
            report.violations.append(
                f"store:{protocol}/{family}@{scale} seed={seed}: engine tiers "
                f"disagree on output_digest ({digests})"
            )
        report.checks += 1
        floors = STORE_ENGINE_FLOORS.get((protocol, family, scale), {})
        for engine, floor in sorted(floors.items()):
            rec = engines.get(engine)
            if rec is None:
                continue
            report.checks += 1
            try:
                ratio = float(fast["timing"]["seconds"]) / float(
                    rec["timing"]["seconds"]
                )
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                report.violations.append(
                    f"store:{protocol}/{family}@{scale} seed={seed}: "
                    f"unusable timing for engine {engine!r}"
                )
                continue
            # A fallen-back tier timed the tier it fell back to; exempt it.
            if rec.get("result", {}).get("engine_selected") != engine:
                report.notes.append(
                    f"store:{protocol}/{family}@{scale} seed={seed}: engine "
                    f"{engine!r} fell back to "
                    f"{rec.get('result', {}).get('engine_selected')!r}; "
                    f"speedup floor skipped"
                )
                continue
            bar = floor * (1.0 - tolerance)
            if ratio < bar:
                report.violations.append(
                    f"store:{protocol}/{family}@{scale} seed={seed}: engine "
                    f"{engine!r} only {ratio:.2f}x over fast "
                    f"(floor {floor} -> {bar:.2f})"
                )
    return report


def run_gates(
    engine_path: Optional[str] = None,
    serving_path: Optional[str] = None,
    store: Optional[ResultStore] = None,
    tolerance: float = 0.1,
) -> GateReport:
    """Gate any combination of trajectory files and a fresh cell store."""
    report = GateReport()
    if engine_path is not None:
        report.merge(check_trajectory(engine_path, "engine", tolerance))
    if serving_path is not None:
        report.merge(check_trajectory(serving_path, "serving", tolerance))
    if store is not None:
        report.merge(check_store(store, tolerance))
    return report
