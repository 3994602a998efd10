"""Order statistics shared by the runner, the traced pass and ``compare``."""

from __future__ import annotations

from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for no samples."""
    return sum(values) / len(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated quantile ``q`` in [0, 1]; 0.0 for no samples.

    The same rule as ``statistics.quantiles(method="inclusive")``, so a
    p50 over an even count is the midpoint of the two middle samples.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
