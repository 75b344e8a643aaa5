"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import json
import time

import numpy as np
import pytest

import hashmac.cli as cli
from hashmac import rng as rng_mod
from hashmac.channel import deterministic_dmc
from hashmac.gf import apply_label
from hashmac.regions import in_region_sw, joint_sw, joint_ts, mutual_information
from hashmac.scenarios import build_superposition_code, search_code
from hashmac.verify import codec_suite, hash_suite, types_suite

SEED = 20250811

NOISY_ADDER = {
    "inputs": [2, 2], "output": 3,
    "table": [[[0.875, 0.0625, 0.0625], [0.0625, 0.875, 0.0625]],
              [[0.0625, 0.875, 0.0625], [0.0625, 0.0625, 0.875]]],
}
PAIR_CHANNEL = {
    "inputs": [2, 2], "output": 4,
    "table": [[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]]],
}
SW_INPUTS = {
    "cloud": [0.5, 0.5],
    "satellites_given_cloud": [[[0.875, 0.125], [0.125, 0.875]],
                               [[0.875, 0.125], [0.125, 0.875]]],
}


def _ok(num, msg):
    print(f"PASS criterion {num}: {msg}", flush=True)


def _run_cli_twice(tmp_path, name, config, args):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    outs = []
    start = time.perf_counter()
    for tag in ("a", "b"):
        out = tmp_path / f"{name}-{tag}.csv"
        rc = cli.main(list(args) + ["--config", str(cfg), "--out", str(out)])
        assert rc == 0, f"{name} run failed with exit code {rc}"
        outs.append(out.read_text())
    return outs[0], outs[1], time.perf_counter() - start


def _rows(csv_text):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _strip_walltime(csv_text):
    lines = csv_text.strip().splitlines()
    if lines[0].endswith("wall_time_s"):
        return "\n".join(",".join(l.split(",")[:-1]) for l in lines)
    return csv_text


@pytest.fixture(scope="module")
def split_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("c7")
    rng = rng_mod.stream(SEED, "c7-channel")
    # Cubing the weights sharpens the rows enough for a usable region.
    w = rng.integers(1, 9, size=(2, 2, 2)).astype(float) ** 3
    table = w / w.sum(axis=-1, keepdims=True)
    from hashmac.channel import Dmc
    dmc = Dmc((2, 2), 2, table)
    law = joint_sw(np.array(SW_INPUTS["cloud"]),
                   np.array(SW_INPUTS["satellites_given_cloud"][0]),
                   np.array(SW_INPUTS["satellites_given_cloud"][1]), dmc)
    i1 = mutual_information(law, ["x1"], ["y"], ["x0", "x2"])
    i2 = mutual_information(law, ["x2"], ["y"], ["x0", "x1"])
    isum = mutual_information(law, ["x1", "x2"], ["y"])
    step = 2.0**-10
    points = []
    sampler = rng_mod.stream(SEED, "c7-points")
    tries = 0
    while len(points) < 100:
        tries += 1
        assert tries < 100000, "interior sampling stalled"
        p = (float(np.floor(sampler.random(None) * isum / step) * step),
             float(np.floor(sampler.random(None) * i1 / step) * step),
             float(np.floor(sampler.random(None) * i2 / step) * step))
        if min(p) <= 0 or not in_region_sw(p, law):
            continue
        points.append(list(p))
    config = {
        "region": {
            "scenario": "superposition",
            "channel": {"inputs": [2, 2], "output": 2, "table": table.tolist()},
            **SW_INPUTS,
            "points": points,
            "rate_split": True,
        }
    }
    a, b, secs = _run_cli_twice(tmp, "split", config, ["region"])
    return a, b, secs, points


@pytest.fixture(scope="module")
def trend_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("c8")
    config = {
        "seed": SEED,
        "simulate": {
            "scenario": "private",
            "channel": NOISY_ADDER,
            "inputs": [[0.5, 0.5], [0.5, 0.5]],
            "rates": [0.25, 0.25], "eps": [0.05, 0.05],
            "n_ladder": [6, 12],
            "candidates": 20, "pilot_trials": 100, "trials": 400,
        },
    }
    return _run_cli_twice(tmp, "trend", config, ["simulate"])


@pytest.fixture(scope="module")
def control_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("c8c")
    config = {
        "seed": SEED,
        "simulate": {
            "scenario": "private",
            "channel": NOISY_ADDER,
            "inputs": [[0.5, 0.5], [0.5, 0.5]],
            "rates": [0.9, 0.9], "eps": [0.05, 0.05],
            "n_ladder": [12],
            "candidates": 1, "pilot_trials": 0, "trials": 50,
        },
    }
    return _run_cli_twice(tmp, "control", config, ["simulate", "--force"])


@pytest.fixture(scope="module")
def superposition_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("c9")
    config = {
        "seed": SEED,
        "simulate": {
            "scenario": "superposition",
            "channel": PAIR_CHANNEL,
            **SW_INPUTS,
            "rates": [0.125, 0.125, 0.125], "eps": [0.05, 0.05, 0.05],
            "n_ladder": [8],
            "candidates": 20, "pilot_trials": 100, "trials": 200,
        },
    }
    return _run_cli_twice(tmp, "sw", config, ["simulate"])


def test_criterion_01_method_of_types_suite():
    start = time.perf_counter()
    reports = types_suite()
    elapsed = time.perf_counter() - start
    for r in reports:
        assert r.violations == 0, f"{r.name}: {r.violations} violations"
    assert elapsed < 120, f"types suite took {elapsed:.1f}s"
    total = sum(r.cases for r in reports)
    _ok(1, f"{len(reports)} lemma checks, {total} cases, 0 violations, "
           f"{elapsed:.1f}s < 120s")


@pytest.fixture(scope="module")
def hash_reports():
    return hash_suite()


def test_criterion_02_hash_exactness(hash_reports):
    by_name = {r.name: r for r in hash_reports}
    coll = by_name["pairwise-collision-exactness"]
    params = by_name["two-universal-params"]
    assert coll.violations == 0 and params.violations == 0
    _ok(2, f"collision probability exactly 2^-l on {coll.cases} cases; "
           f"(alpha, beta) = (1, 0) exactly")


def test_criterion_03_bound_domination(hash_reports):
    names = ("bin-saturation-bound", "collision-resistance-bound",
             "joint-collision-bound")
    rows = [r for r in hash_reports if r.name in names]
    cases = sum(r.cases for r in rows)
    assert cases >= 50
    assert all(r.violations == 0 for r in rows)
    _ok(3, f"exact event probabilities under the bounds on {cases} "
           f"randomized choices, 0 violations")


def test_criterion_04_syndrome_average(hash_reports):
    rep = next(r for r in hash_reports if r.name == "uniform-syndrome-average")
    assert rep.violations == 0
    _ok(4, f"expectation exactly 1/|range| on {rep.cases} exhaustive cases")


def test_hash_suite_reports_at_defaults(hash_reports):
    assert [(r.name, r.cases, r.violations) for r in hash_reports] == [
        ("pairwise-collision-exactness", 93, 0),
        ("two-universal-params", 4, 0),
        ("bin-saturation-bound", 30, 0),
        ("collision-resistance-bound", 30, 0),
        ("joint-collision-bound", 6, 0),
        ("uniform-syndrome-average", 74936, 0),
        ("stacked-family-params", 2, 0),
        ("aggregate-collision-mass", 20, 0),
    ]


def test_criterion_05_codec_oracle_equivalence():
    start = time.perf_counter()
    reports = codec_suite()
    elapsed = time.perf_counter() - start
    by_name = {r.name: r for r in reports}
    enc = by_name["encoder-reference-equivalence"]
    dec = by_name["decoder-reference-equivalence"]
    assert enc.cases + dec.cases == 200
    assert enc.violations == 0 and dec.violations == 0
    assert elapsed < 180, f"codec suite took {elapsed:.1f}s"
    _ok(5, f"200 reference-search matches with identical tie-breaks, "
           f"{elapsed:.1f}s < 180s")


def test_criterion_06_region_numerics():
    adder = deterministic_dmc((2, 2), 3, lambda a, b: a + b)
    law = joint_ts([1.0], [np.full((1, 2), 0.5)] * 2, adder)
    i_single = mutual_information(law, ["x1"], ["y"], ["x2"])
    i_sum = mutual_information(law, ["x1", "x2"], ["y"])
    assert abs(i_single - 1.0) <= 1e-9
    assert abs(i_sum - 1.5) <= 1e-9
    from hashmac.regions import in_region_private
    assert in_region_private((0.5, 0.5), law).inside
    assert not in_region_private((1.0, 1.0), law).inside
    _ok(6, f"I(X1;Y|X2)={i_single:.12f}, I(X1,X2;Y)={i_sum:.12f}; "
           f"(0.5,0.5) inside, (1.0,1.0) outside")


def test_criterion_07_rate_splitting(split_runs):
    csv_a, _, _, points = split_runs
    rows = _rows(csv_a)
    assert len(rows) == 100
    for row, point in zip(rows, points):
        assert row["inside"] == "inside"
        assert row["split_point"] and "infeasible" not in row["split_point"]
        built = [float(v) for v in row["split_point"].split("|")]
        moved = [float(v) for v in row["split_moved"].split("|")]
        recombined = (built[0] + moved[0] + moved[1],
                      built[1] - moved[0], built[2] - moved[1])
        assert recombined == tuple(point)
    _ok(7, "100/100 interior points split; inverse bookkeeping exact")


def test_criterion_08_error_trend_and_control(trend_runs, control_runs):
    csv_a, _, secs = trend_runs
    rows = {int(r["n"]): float(r["block_error"]) for r in _rows(csv_a)}
    control_a, _, csecs = control_runs
    control_err = float(_rows(control_a)[0]["block_error"])
    assert rows[12] < rows[6], f"err(12)={rows[12]} !< err(6)={rows[6]}"
    assert control_err > 0.9, f"control error {control_err} <= 0.9"
    assert secs + csecs < 60, f"criterion 8 took {secs + csecs:.0f}s"
    _ok(8, f"block error {rows[6]:.4f}@n=6 -> {rows[12]:.4f}@n=12 (strict); "
           f"control {control_err:.3f} > 0.9; {secs + csecs:.0f}s < 60s")


def test_criterion_09_superposition_roundtrip(superposition_runs):
    csv_a, _, _ = superposition_runs
    row = _rows(csv_a)[0]
    err = float(row["block_error"])
    assert int(row["trials"]) == 200
    assert err < 0.2, f"superposition block error {err} >= 0.2"
    # Message-recovery identity, re-checked explicitly on the same code.
    from hashmac.channel import Dmc
    dmc = Dmc((2, 2), 4, np.array(PAIR_CHANNEL["table"], dtype=float))
    builder = lambda rng: build_superposition_code(
        np.array(SW_INPUTS["cloud"]),
        np.array(SW_INPUTS["satellites_given_cloud"][0]),
        np.array(SW_INPUTS["satellites_given_cloud"][1]),
        dmc, (0.125, 0.125, 0.125), (0.05, 0.05, 0.05), 8, rng)
    found = search_code(builder, 20, 100, SEED, ("superposition", 8))
    from hashmac.scenarios import decode_components, encode_components
    from hashmac.channel import sample_channel
    checked = 0
    for t in range(20):
        rng = rng_mod.stream(SEED, "c9-check", t)
        msgs = [rng.integers(0, 2, size=found.code.message_maps[i].rows)
                for i in range(3)]
        xs = encode_components(found.code, msgs)
        y = sample_channel(dmc, xs[1:], rng)
        got, xs_hat = decode_components(found.code, y)
        if all((g == m).all() for g, m in zip(got, msgs)):
            checked += 1
            for i in range(3):
                assert (apply_label(found.code.message_maps[i], xs_hat[i])
                        == msgs[i]).all()
    assert checked > 0
    _ok(9, f"block error {err:.4f} < 0.2 over 200 trials; message maps "
           f"recover on all {checked} successful decodes checked")


def test_criterion_10_reproducibility(split_runs, trend_runs, control_runs,
                                      superposition_runs):
    sa, sb, _, _ = split_runs
    assert sa == sb  # region CSV carries no wall-time column
    for a, b, _ in (trend_runs, control_runs, superposition_runs):
        assert _strip_walltime(a) == _strip_walltime(b)
        assert a.strip() and b.strip()
    _ok(10, "criteria 7-9 CSVs byte-identical across reruns "
            "(wall-time column excluded)")
