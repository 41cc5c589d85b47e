"""Order statistics and failure accounting for the benchmark.

Everything here is plain arithmetic over lists of samples, kept apart from
the workloads so the self-tests can pin it on small hand-checked inputs.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence


def median(values: Sequence[float]) -> float:
    """The median; raises ``ValueError`` on an empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them (exclusive method); a single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median: the spread a bound is compared against."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        raise ValueError("spread of samples whose median is 0")
    return (q3 - q1) / abs(q2)


def percentile(values: Sequence[float], pct: float) -> float:
    """The *pct*-th percentile by linear interpolation between closest
    ranks (``statistics.quantiles(..., method="inclusive")``)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= pct <= 100.0:
        raise ValueError("percentile %r outside [0, 100]" % (pct,))
    ordered = sorted(float(value) for value in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int, candidates=(99.9, 99.0, 90.0, 50.0)) -> float:
    """The highest candidate percentile with at least ten samples beyond
    it among *count* samples (50 when none qualifies)."""
    for pct in candidates:
        if round(count * (100.0 - pct) / 100.0, 6) >= 10.0:
            return pct
    return 50.0


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, their spread over the median and sample count
    of one timing."""
    q1, q2, q3 = quartiles(values)
    spread = iqr_share(values) if q2 else 0.0
    return {"median": q2, "q1": q1, "q3": q3, "iqr_share": spread, "n": len(values)}


class Outcome:
    """Failure accounting: every checked operation is attempted once and
    either passes or is recorded, with its reason, as failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record *what* when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok

    def add(self, attempted: int, failed: int, what: str = "") -> None:
        """Count a batch of operations checked elsewhere."""
        if attempted < 0 or failed < 0 or failed > attempted:
            raise ValueError("bad batch %d/%d" % (failed, attempted))
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 50:
            self.failures.append("%s: %d of %d failed" % (what, failed, attempted))

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0
