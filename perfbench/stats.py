"""Latency summaries: the median and the tail percentile the samples support."""

from __future__ import annotations

import statistics

#: candidate tail percentiles in tenths of a percent, highest first
#: (integers, so "ten samples beyond" is tested exactly)
TAIL_PERMILLE = (999, 990, 950, 900, 750)
#: samples a reported tail percentile must have beyond it
TAIL_SAMPLES = 10
#: fewer samples than this and only the median is reported
MIN_TAIL_SAMPLES = 40


def percentile(values, p: float) -> float:
    """The ``p``-th percentile, linearly interpolated between order statistics."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    rank = (len(data) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least ten of ``n`` samples beyond it.

    None under forty samples: a percentile with fewer samples beyond it
    than that says nothing about the tail.
    """
    if n < MIN_TAIL_SAMPLES:
        return None
    for pm in TAIL_PERMILLE:
        if n * (1000 - pm) >= TAIL_SAMPLES * 1000:
            return pm / 10
    return None


def latency_summary(values) -> dict:
    """``{"n", "p50"}`` plus ``"tail_p"``/``"tail"`` when the rule allows one."""
    values = list(values)
    out = {"n": len(values), "p50": statistics.median(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out["tail_p"] = p
        out["tail"] = percentile(values, p)
    return out
