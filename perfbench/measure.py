"""Small measurement helpers shared by the workloads and their tests."""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import statistics


def nearest_rank(values: list[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (0 < q <= 1) of ``values``.

    The ``ceil(q * n)``-th smallest value: p99 of 1000 samples is the
    990th value, with ten samples beyond it; no interpolation.
    """
    if not values:
        raise ValueError("nearest_rank of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def quartile_spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def digest(payload: object) -> str:
    """SHA-256 of the canonical JSON of ``payload`` (floats exact via repr)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def poisson_schedule(seed: int, rate: float, n: int, n_kinds: int) -> list[tuple[float, int]]:
    """``n`` seeded Poisson arrivals: ``(due offset in s, request kind)``.

    Inter-arrival gaps are exponential with mean ``1 / rate``; kinds are
    drawn uniformly from ``range(n_kinds)``. The same seed gives the same
    schedule on every platform (stdlib Mersenne Twister).
    """
    rng = random.Random(seed)
    due = 0.0
    schedule = []
    for _ in range(n):
        due += rng.expovariate(rate)
        schedule.append((due, rng.randrange(n_kinds)))
    return schedule


def shuffled_rounds(seed: int, n_kinds: int):
    """Endless seeded rounds, each a shuffled ``list(range(n_kinds))``.

    Every round sends every request kind once, so any number of whole
    rounds has the same mix whatever the seed; the seed fixes the order.
    """
    rng = random.Random(seed)
    while True:
        order = list(range(n_kinds))
        rng.shuffle(order)
        yield order
