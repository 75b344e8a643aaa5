"""Peak traced allocation of the verify suites and of one `trend` simulation."""

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
