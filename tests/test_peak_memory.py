"""Peak traced allocation of the verify suites, of type enumeration and of `trend` runs."""

import functools
import json
import pathlib
import tracemalloc

from hashmac import cli, rng as rng_mod, scenarios, verify
from hashmac.empirical import enumerate_types

TREND = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "trend.json"

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


def test_enumerate_types_peak():
    # The types are one array filled by np.fromiter and differenced in place:
    # 1.13 MB for the 0.99 MB result, where bar positions and their differences
    # held side by side read 3.10 MB.
    types, peak = traced_peak(enumerate_types, 12, range(7))
    assert types.shape == (18564, 7)
    assert peak < 1.25 * types.nbytes


def test_trend_simulation_peak():
    # One measurement run of a `trend` code at n = 12 (400 trials), its
    # encoder and decoder tables filled as it goes.  Seeded decode passes of
    # codec.DECODE_PASS_CELLS bound and candidate cells keep it near 0.7 MB;
    # passes twice that size reach about 1.0 MB, and passes of
    # SCAN_CHUNK_CELLS about 2.1 MB.
    block = json.loads(TREND.read_text())["simulate"]
    dmc = cli._parse_channel(block["channel"], "simulate.channel")
    build = cli._law_and_builder(block, dmc, "simulate")[2]
    code = build(dmc, block["rates"], block["eps"], 12,
                 rng_mod.stream(20250811, "private", 12, rng_mod.BUILD, 0))
    result, peak = traced_peak(scenarios.simulate_error, code, 400, 20250811,
                               ("private", 12, rng_mod.MEASURE, 0))
    assert result.trials == 400 and len(code.decoded) > 300
    assert peak < 1 * MB


def test_regions_suite_peak():
    # At 25 rate-split points, the run `perfbench` times.  Its streams draw
    # the most blocks of any suite's, each refill making max(blocks short,
    # rng._READ_AHEAD) blocks: this read 0.43 MB, and 3.6 MB when a refill
    # doubled what a stream had made, uncapped.
    _, peak = traced_peak(verify.regions_suite, 25)
    assert peak < 0.75 * MB


def test_trend_search_peak():
    # One search over the 20 `trend` candidates at n = 12, with their pilots.
    # The build streams are made ahead in one pass, the 38 blocks (1.2 kB)
    # candidate 0 drew per candidate, and turned into ints one candidate at a
    # time: 0.88 MB.
    block = json.loads(TREND.read_text())["simulate"]
    dmc = cli._parse_channel(block["channel"], "simulate.channel")
    build = cli._law_and_builder(block, dmc, "simulate")[2]
    builder = functools.partial(build, dmc, block["rates"], block["eps"], 12)
    found, peak = traced_peak(scenarios.search_code, builder, 20, 100, 20250811, ("private", 12))
    assert found.candidate == 9
    assert peak < 1.1 * MB
