"""Pure helpers of the benchmark: percentiles, span self time, outcome checks.

Nothing here imports rolecomms, so the helpers can be tested on their own
(`python -m pytest perfbench`).
"""

from __future__ import annotations

import math

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def tail_resolvable(n_samples: int, q: float, min_beyond: int = MIN_TAIL_SAMPLES) -> bool:
    """True when the q-th percentile of n samples has min_beyond samples above it."""
    return n_samples - math.ceil(q / 100.0 * n_samples) >= min_beyond


def tail_percentile(values, q: float, min_beyond: int = MIN_TAIL_SAMPLES) -> float:
    """The q-th percentile, refused when fewer than min_beyond samples lie beyond it."""
    if not tail_resolvable(len(values), q, min_beyond):
        raise ValueError(
            f"p{q:g} needs at least {min_beyond} samples beyond it; got {len(values)} samples"
        )
    return percentile(values, q)


def self_times(durations, parents) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    durations[i] is span i's end minus start; parents[i] is the index of the
    span that called it, or -1 for a root. Spans of one process nest, so the
    children of a span cover disjoint parts of its interval.
    """
    out = list(durations)
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= durations[i]
    return out


def count_mismatches(observed: dict, reference: dict) -> tuple[int, int]:
    """Compare outcome rows keyed by game; returns (attempted, failed).

    Each value is a game's (success, steps, failure_kind) row. A game whose
    row differs from the reference, or that the reference lacks, fails.
    """
    failed = sum(1 for key, row in observed.items() if reference.get(key) != row)
    return len(observed), failed
