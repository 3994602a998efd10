"""Experiment harness shared by the ``benchmarks/`` suite.

* :mod:`repro.bench.harness`   -- run a named algorithm on a dataset and
  collect times, answers, memory, and phase breakdowns
* :mod:`repro.bench.reporting` -- ascii tables/series formatted like the
  paper's figures and tables
* :mod:`repro.bench.schedule`  -- the Section IV schedule study: simulated
  makespans of the paper's partitioning plans (Figs. 8/9, Table III)
"""

from repro.bench.harness import ALGORITHMS, BenchRecord, run_algorithm
from repro.bench.reporting import format_series, format_table

__all__ = ["ALGORITHMS", "BenchRecord", "format_series", "format_table", "run_algorithm"]
