"""Per-metric summaries of multi-trial results.

:func:`summarise` folds one metric's per-trial values into a
:class:`MetricSummary` (mean, minimum, maximum, population standard
deviation); :mod:`repro.engine.aggregate` builds its per-metric
summaries with it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class MetricSummary:
    """Aggregate of one metric across trials."""

    name: str
    mean: float
    minimum: float
    maximum: float
    stdev: float
    count: int

    def as_tuple(self) -> tuple:
        """The (mean, minimum, maximum) triple."""
        return (self.mean, self.minimum, self.maximum)


def summarise(name: str, values: Sequence[float]) -> MetricSummary:
    """Aggregate raw per-trial values into a summary."""
    if not values:
        raise ValueError(f"metric {name!r} has no values")
    values = [float(v) for v in values]
    return MetricSummary(
        name=name,
        mean=sum(values) / len(values),
        minimum=min(values),
        maximum=max(values),
        stdev=statistics.pstdev(values) if len(values) > 1 else 0.0,
        count=len(values),
    )
