"""Benchmark harness: one module per experiment E1–E9 (see docs/experiments.md)."""
