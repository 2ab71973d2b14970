"""Experiment harness: workloads, runners, result tables and scaling fits.

The paper contains no empirical tables; the experiments here validate its
quantitative theoretical claims (see docs/experiments.md for the experiment
index E1–E9).  Each ``run_*`` function in
:mod:`~repro.analysis.experiments` executes one experiment and returns a
:class:`~repro.analysis.records.ResultTable` that can be printed, converted
to CSV/markdown, or asserted on in benchmarks.
"""

from repro.analysis.records import ResultTable, ExperimentRecord
from repro.analysis.workloads import standard_workloads, workload, WorkloadSpec
from repro.analysis.complexity import fit_power_law, fit_linear
from repro.analysis import experiments

__all__ = [
    "ResultTable",
    "ExperimentRecord",
    "standard_workloads",
    "workload",
    "WorkloadSpec",
    "fit_power_law",
    "fit_linear",
    "experiments",
]
