"""Regression gates over the committed ``BENCH_*.json`` trajectories.

The trajectory files hold *measured* per-tier records; absolute wall
seconds are machine-dependent, so the gates check the dimensionless
claims the benches themselves assert — tier-vs-tier speedup ratios
within one case — plus structural health (tiers present, timings
positive and finite).  A tier record that has been slowed past
tolerance (relative to the tier it is claimed to beat) fails the gate;
a record merely re-measured on a slower machine does not, because both
tiers of a ratio move together.

Each gate carries per-scale floors keyed by the bench suite's
``--bench-scale`` (``full`` or ``tiny``).  A missing case is skipped
(trajectories grow over time); a missing *tier inside a present case*
is a violation.  :data:`TOLERANCE` relaxes every floor
multiplicatively: a floor ``f`` passes at ``ratio >= f * (1 - TOLERANCE)``.
A NaN or infinite value is always a violation: it compares false
against every floor, so it would otherwise pass.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Multiplicative slack on every floor.
TOLERANCE = 0.1


@dataclass(frozen=True)
class TierRatioGate:
    """``baseline.seconds / candidate.seconds >= floor`` within one case."""

    case: str
    baseline: str
    candidate: str
    floors: Dict[str, float]  # scale -> min speedup ratio

    def check(self, entry: dict) -> Optional[str]:
        scale = str(entry.get("scale", ""))
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
            ratio = math.nan
        if not math.isfinite(ratio):
            return f"{self.case}: unusable seconds for {self.baseline}/{self.candidate}"
        bar = floor * (1.0 - TOLERANCE)
        if ratio < bar:
            return (
                f"{self.case}: {self.candidate} only {ratio:.2f}x over "
                f"{self.baseline} at scale {scale!r} (floor {floor} with "
                f"tolerance {TOLERANCE} -> {bar:.2f})"
            )
        return None


@dataclass(frozen=True)
class ExtraMinGate:
    """A recorded scalar at ``path`` inside the entry must be ``>= floor``."""

    case: str
    path: Tuple[str, ...]
    floors: Dict[str, float]

    def check(self, entry: dict) -> Optional[str]:
        scale = str(entry.get("scale", ""))
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
            measured = math.nan
        if not math.isfinite(measured):
            return f"{self.case}: {'.'.join(self.path)} is not a finite number ({value!r})"
        bar = floor * (1.0 - TOLERANCE)
        if measured < bar:
            return (
                f"{self.case}: {'.'.join(self.path)} = {measured:.2f} below "
                f"floor {floor} (tolerance {TOLERANCE} -> {bar:.2f}) "
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
        floors={"full": 5.0, "tiny": 1.0},
    ),
    TierRatioGate(
        case="chunk_flood_grid",
        baseline="fast",
        candidate="vectorized",
        floors={"full": 5.0, "tiny": 1.0},
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
        floors={"full": 2.0, "tiny": 2.0},
    ),
    ExtraMinGate(
        case="bellman_ford_async",
        path=("bucketed_vs_heap", "dense"),
        floors={"full": 1.0, "tiny": 1.0},
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
    """Every trajectory entry must be shaped sanely with positive, finite timings."""
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
                    if not math.isfinite(value) or value <= 0:
                        out.append(
                            f"{name}:{case}:{tier}: {metric} is not a positive "
                            f"finite number ({fields_[metric]!r})"
                        )
    return out


def check_trajectory(path: str, kind: str) -> GateReport:
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
        violation = gate.check(entry)
        if violation:
            report.violations.append(f"{kind}:{violation}")
    return report


def run_gates(engine_path: str, serving_path: str) -> GateReport:
    """Gate the engine and serving trajectory files."""
    report = check_trajectory(engine_path, "engine")
    report.merge(check_trajectory(serving_path, "serving"))
    return report
