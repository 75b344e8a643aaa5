"""Peak traced allocation of the verify suites."""

import tracemalloc

from hashmac import verify

MB = 1 << 20


def traced_peak(fn, *args):
    """(result, peak bytes traced while fn(*args) ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_types_suite_peak():
    # Every pair statistic is gathered from a per-type table; no (4^n, n) digit matrix.
    _, peak = traced_peak(verify.types_suite)
    assert peak < 12 * MB
