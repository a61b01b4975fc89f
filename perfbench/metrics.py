"""Summaries of one run's call timings.

A failed call is recorded with duration ``math.inf``: it counts against the
median and the tail like a call that never finished, so turning a failure
into a success can never read as a slowdown, and it adds nothing to the
rate of successful evaluations.
"""

import math
import statistics

TAIL_BEYOND = 10  # calls that must lie beyond the reported tail percentile


def tail(durations):
    """The highest percentile with at least ``TAIL_BEYOND`` calls beyond it.

    Returns ``(value, percentile, count)``, or ``None`` when the run has too
    few calls for that percentile to sit above the median (21 calls or more
    are needed).
    """
    n = len(durations)
    k = n - TAIL_BEYOND - 1  # zero-based rank with exactly TAIL_BEYOND above it
    if k < 0 or 2 * (k + 1) <= n:
        return None
    return sorted(durations)[k], 100.0 * (k + 1) / n, n


def summarize(durations, evals_per_call, elapsed):
    """End-to-end figures for one timed window.

    ``durations`` holds one wall time per call (``inf`` for a failed call),
    ``evals_per_call`` the evaluations one successful call completes, and
    ``elapsed`` the window's wall time.
    """
    if not durations or elapsed <= 0.0:
        raise ValueError("a timed window needs at least one call and a positive duration")
    ok = sum(1 for d in durations if math.isfinite(d))
    return {
        "attempted": len(durations),
        "failed": len(durations) - ok,
        "evals_per_s": ok * evals_per_call / elapsed,
        "call_p50_s": statistics.median(durations),
        "ok_ratio": ok / len(durations),
        "tail": tail(durations),
    }
