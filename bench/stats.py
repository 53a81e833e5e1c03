"""Summary statistics and metric naming rules for the benchmark."""

from __future__ import annotations

import math
import re

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
MIN_BEYOND = 10          # samples that must lie beyond a reported tail percentile


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """Number of the ``n`` samples that lie strictly above the ``q``-th
    percentile position."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def tail_supported(n: int, q: float) -> bool:
    """True when at least MIN_BEYOND samples lie beyond the percentile."""
    return samples_beyond(n, q) >= MIN_BEYOND


def median(values) -> float:
    return percentile(values, 50.0)


def valid_metric_name(name: str) -> bool:
    return bool(METRIC_NAME.fullmatch(name)) and len(name) <= 64 and name[0].isalnum()
