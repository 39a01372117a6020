"""Common result type for experiment drivers.

Every E-driver returns an :class:`ExperimentResult`: a titled table,
free-form notes, and any further untitled tables.  ``render()`` is the
experiment's entire output: the CLI prints it and the golden harness
(``benchmarks/bench_experiments.py``) saves it to
``benchmarks/out/<id>.txt``.  Tests read numbers back from the printed
cells through ``row_dicts()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.analysis.report import format_table


@dataclass
class ExperimentResult:
    """One experiment's regenerated table."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence]
    notes: List[str] = field(default_factory=list)
    # Further untitled ``(headers, rows)`` tables, printed after the notes.
    tables: List[Tuple[Sequence[str], List[Sequence]]] = field(default_factory=list)

    def render(self) -> str:
        parts = [format_table(self.headers, self.rows, title=f"[{self.experiment_id}] {self.title}")]
        for note in self.notes:
            parts.append(f"  note: {note}")
        for headers, rows in self.tables:
            parts += ["", format_table(headers, rows)]
        return "\n".join(parts)

    def row_dicts(self) -> List[dict]:
        return [dict(zip(self.headers, row)) for row in self.rows]
