"""Experiment drivers and report formatting.

:mod:`repro.analysis.report` renders ASCII tables; the
:mod:`repro.analysis.experiments` subpackage holds one driver per
experiment (E1-E14, X1, X2), shared by the CLI, the golden harness and
the examples.
"""

from repro.analysis.report import format_kv, format_table, human_bytes, human_seconds

__all__ = ["format_table", "format_kv", "human_bytes", "human_seconds"]
