"""Fixed-bucket histograms (and the exact small-window percentile helper).

The serving telemetry used bounded ring buffers and sorted them per
snapshot; that caps history at the window size and makes every percentile
O(n log n).  :class:`Histogram` replaces them with Prometheus-style
fixed-bucket counting: O(buckets) memory forever, O(log buckets) per
observation, and the same bucket layout feeds both the JSON ``/metrics``
document and the Prometheus text exposition, so internal dashboards and
external scrapers read identical numbers.

Percentiles are estimated by linear interpolation inside the bucket where
the requested rank falls, clamped to the observed min/max — exact for the
single-observation case and within one bucket width otherwise.  The
default bucket ladder spans 0.1 ms .. 10 s (geometric, 1-2.5-5 steps),
which brackets everything LANTERN serves, from a 0.2 ms warm-cache hit to
a cold multi-second training epoch.

:func:`percentile` (exact, for short explicit lists) also lives here so
``repro.service.telemetry`` can re-export it unchanged.

Instances are deliberately lock-free; owners that share one across threads
(e.g. :class:`repro.service.telemetry.ServiceTelemetry`) serialize access
under their own lock, keeping the per-observation cost to one bisect and
a few adds.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence

#: seconds; geometric 1-2.5-5 ladder from 0.1 ms to 10 s
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: batch-size buckets (requests sharing a fused decode)
DEFAULT_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction``-quantile of ``values`` by linear interpolation.

    Exact (sorts the list); meant for short explicit samples.  Histograms
    answer the same question in O(buckets) from counts alone.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * fraction
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    weight = rank - lower
    return float(ordered[lower] * (1.0 - weight) + ordered[upper] * weight)


class Histogram:
    """Fixed upper-bound buckets + count/sum/min/max, Prometheus-compatible.

    ``bounds`` are inclusive upper bounds in ascending order; observations
    above the last bound land in the implicit overflow (``+Inf``) bucket.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        ordered = tuple(float(bound) for bound in bounds)
        if not ordered or any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise ValueError("histogram bounds must be non-empty and strictly increasing")
        self.bounds = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)  # +1: the +Inf bucket
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    # -- statistics --------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Estimated ``fraction``-quantile: linear interpolation inside the
        bucket containing the rank, clamped to the observed [min, max].

        Never returns NaN: an empty histogram answers 0.0, and the clamping
        keeps estimates inside the observed range even in the open-ended
        overflow bucket (where the upper edge is the observed max).
        """
        if not self.count:
            return 0.0
        fraction = min(max(float(fraction), 0.0), 1.0)
        rank = fraction * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.bounds[index - 1] if index > 0 else (self.min if self.min is not None else 0.0)
                upper = self.bounds[index] if index < len(self.bounds) else (self.max if self.max is not None else lower)
                within = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * within
                return float(min(max(estimate, self.min), self.max))
            cumulative += bucket_count
        return float(self.max)  # pragma: no cover - rank <= count always lands above

    def snapshot(self, scale: float = 1.0, digits: int = 4) -> dict:
        """Summary statistics dict (``scale`` converts units, e.g. s → ms)."""
        return {
            "count": self.count,
            "mean": round(self.mean * scale, digits),
            "p50": round(self.percentile(0.50) * scale, digits),
            "p90": round(self.percentile(0.90) * scale, digits),
            "p99": round(self.percentile(0.99) * scale, digits),
            "max": round((self.max or 0.0) * scale, digits),
        }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus exposition form: ``(le, cumulative_count)`` pairs, the
        final pair carrying ``le = +inf`` as ``float('inf')``."""
        pairs: list[tuple[float, int]] = []
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            cumulative += bucket_count
            pairs.append((bound, cumulative))
        pairs.append((float("inf"), cumulative + self.bucket_counts[-1]))
        return pairs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, mean={self.mean:.6f}, max={self.max})"
