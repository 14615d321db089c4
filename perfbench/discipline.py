"""Percentile discipline and run-to-run spread for the benchmark.

A percentile is reported only with its sample count and the number of
samples beyond it, and only when at least ``MIN_BEYOND`` samples lie beyond
it: a p99 over 52 batch runs, say, rests on nothing and is refused.
"""

import math
import statistics

MIN_BEYOND = 10


class RefusedPercentile(ValueError):
    """A percentile asked of too few samples to support it."""


class Percentile:
    """A nearest-rank percentile with the counts that support it."""

    def __init__(self, q, value, n, beyond):
        self.q = q
        self.value = value
        self.n = n
        self.beyond = beyond

    def describe(self, scale=1.0, unit=""):
        """One line, e.g. ``p99 0.7706 ms (n=35040, 350 beyond)``."""
        return (f"p{self.q:g} {self.value * scale:.6g} {unit} "
                f"(n={self.n}, {self.beyond} beyond)").replace("  ", " ")


def percentile(values, q, min_beyond=MIN_BEYOND):
    """The nearest-rank ``q``-th percentile of ``values``.

    Raises ``RefusedPercentile`` when fewer than ``min_beyond`` samples lie
    above the chosen rank.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < min_beyond:
        raise RefusedPercentile(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"at least {min_beyond} are required")
    return Percentile(q, sorted(values)[rank - 1], n, beyond)


def spread(values):
    """Inter-quartile distance over the median, as the acceptance rule
    computes it (``statistics.quantiles(values, n=4)``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")
