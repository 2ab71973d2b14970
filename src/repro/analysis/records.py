"""Result tables for the experiment harness.

A :class:`ResultTable` is a small column-oriented table with a fixed-width
text rendering — enough for the benchmark harness to print the same kind of
rows/series a paper evaluation section would, without pulling in pandas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


@dataclass
class ExperimentRecord:
    """A single experiment data point (one row of a result table)."""

    values: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.values.get(key, default)


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if value == int(value) and abs(value) < 1e9:
            return str(int(value))
        return f"{value:.3g}"
    return str(value)


class ResultTable:
    """A named, column-ordered collection of experiment records."""

    def __init__(self, name: str, columns: Sequence[str]) -> None:
        self.name = name
        self.columns = list(columns)
        self.records: List[ExperimentRecord] = []

    # ------------------------------------------------------------------ #
    def add(self, **values: Any) -> ExperimentRecord:
        """Append a row; unknown columns are added to the column list."""
        for key in values:
            if key not in self.columns:
                self.columns.append(key)
        record = ExperimentRecord(dict(values))
        self.records.append(record)
        return record

    def column(self, name: str) -> List[Any]:
        """All values of one column (missing entries become ``None``)."""
        return [r.get(name) for r in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # ------------------------------------------------------------------ #
    def to_text(self) -> str:
        """Fixed-width text rendering (what the benchmarks print)."""
        headers = self.columns
        rows = [[_format_value(r.get(c, "")) for c in headers] for r in self.records]
        widths = [
            max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
            for i, h in enumerate(headers)
        ]
        lines = [f"== {self.name} =="]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
        lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
        for row in rows:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
        return "\n".join(lines)

    def summary(self, column: str) -> Dict[str, float]:
        """Min/max/mean of a numeric column (ignoring missing values)."""
        values = [v for v in self.column(column) if isinstance(v, (int, float)) and math.isfinite(v)]
        if not values:
            return {"min": math.nan, "max": math.nan, "mean": math.nan}
        return {
            "min": float(min(values)),
            "max": float(max(values)),
            "mean": sum(values) / len(values),
        }
