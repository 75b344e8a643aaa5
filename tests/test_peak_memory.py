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
    # Every lemma is counted over type classes; no sequence or pair is enumerated.
    _, peak = traced_peak(verify.types_suite)
    assert peak < 1 * MB


def test_hash_suite_peak():
    # Support walks hold one chunk of ensembles.SUPPORT_CHUNK_CELLS cells at a time.
    _, peak = traced_peak(verify.hash_suite)
    assert peak < 1 * MB
