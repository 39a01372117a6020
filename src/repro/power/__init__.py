"""Energy accounting.

Connects the per-device energy meters to the battery bank so experiments
can report battery life and inject power failures at meaningful times.
"""

from repro.power.energy import PowerModel

__all__ = ["PowerModel"]
