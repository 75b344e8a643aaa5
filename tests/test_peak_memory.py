"""Peak traced allocation of the verify suites and of one `trend` simulation."""

import functools
import json
import pathlib
import tracemalloc

from hashmac import cli, rng as rng_mod, scenarios, verify

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


def test_trend_simulation_peak():
    # One measurement run of a `trend` code at n = 12 (400 trials), its
    # encoder and decoder tables filled as it goes.  Decode passes of
    # codec.DECODE_PASS_CELLS cells keep it near 0.8 MB; passes twice that
    # size reach about 1.2 MB, and passes of SCAN_CHUNK_CELLS about 25 MB.
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
    # the most blocks of any suite's, and each refill's read-ahead is capped
    # at rng._READ_AHEAD blocks: this read 0.41 MB, and 3.6 MB uncapped.
    _, peak = traced_peak(verify.regions_suite, 25)
    assert peak < 0.75 * MB


def test_trend_search_peak():
    # One search over the 20 `trend` candidates at n = 12, with their pilots.
    # The build streams are made ahead in one pass, 48 blocks (1.5 kB) per
    # candidate, and turned into ints one candidate at a time: 0.85 MB.
    block = json.loads(TREND.read_text())["simulate"]
    dmc = cli._parse_channel(block["channel"], "simulate.channel")
    build = cli._law_and_builder(block, dmc, "simulate")[2]
    builder = functools.partial(build, dmc, block["rates"], block["eps"], 12)
    found, peak = traced_peak(scenarios.search_code, builder, 20, 100, 20250811, ("private", 12))
    assert found.candidate == 9
    assert peak < 1.1 * MB
