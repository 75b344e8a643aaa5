import csv
import json

import pytest

import hashmac.cli as cli
import hashmac.ensembles as ens
import hashmac.gf as gf
import hashmac.slack as slack
import hashmac.verify as verify
from hashmac.gf import FieldSpec
from hashmac.verify import LemmaReport

NOISY_ADDER = {
    "inputs": [2, 2], "output": 3,
    "table": [[[0.875, 0.0625, 0.0625], [0.0625, 0.875, 0.0625]],
              [[0.0625, 0.875, 0.0625], [0.0625, 0.0625, 0.875]]],
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def sim_cfg(**overrides):
    block = {
        "scenario": "private",
        "channel": NOISY_ADDER,
        "inputs": [[0.5, 0.5], [0.5, 0.5]],
        "rates": [0.25, 0.25], "eps": [0.05, 0.05],
        "n_ladder": [4, 6], "candidates": 2, "pilot_trials": 10, "trials": 20,
    }
    block.update(overrides)
    return {"seed": 20250811, "simulate": block}


def region_cfg(points, **overrides):
    block = {"scenario": "private", "channel": NOISY_ADDER,
             "inputs": [[0.5, 0.5], [0.5, 0.5]], "points": points}
    block.update(overrides)
    return {"region": block}


TS_REGION = {"scenario": "private-ts", "channel": NOISY_ADDER, "u": [0.5, 0.5],
             "inputs_given_u": [[[0.875, 0.125], [0.125, 0.875]]] * 2,
             "points": [[0.1, 0.1]]}
SW_REGION = {"scenario": "superposition", "channel": NOISY_ADDER, "cloud": [0.5, 0.5],
             "satellites_given_cloud": [[[0.875, 0.125], [0.125, 0.875]]] * 2,
             "points": [[0.1, 0.1, 0.1]]}


def channel(**overrides):
    return dict(NOISY_ADDER, **overrides)


def strip_walltime(text: str) -> str:
    lines = text.strip().splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def test_region_command_prints_verdicts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"region": {
        "scenario": "private", "channel": NOISY_ADDER,
        "inputs": [[0.5, 0.5], [0.5, 0.5]],
        "points": [[0.1, 0.1], [1.0, 1.0]],
    }})
    out = tmp_path / "r.csv"
    assert cli.main(["region", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "inside" in printed and "outside" in printed
    header = out.read_text().splitlines()[0]
    assert header == "point,inside,witness,split_point,split_moved"


def test_region_negative_rate_is_an_outside_verdict(tmp_path, capsys):
    cfg = write_cfg(tmp_path, region_cfg([[-0.1, 0.1]]))
    assert cli.main(["region", "--config", cfg]) == 0
    assert "outside: R_1 < 0" in capsys.readouterr().out


def test_region_bad_point_prints_no_verdict(tmp_path, capsys):
    cfg = write_cfg(tmp_path, region_cfg([[0.1, 0.1], [0.1]]))
    assert cli.main(["region", "--config", cfg]) == 2
    assert capsys.readouterr().out == ""


def test_region_empty_point_list(tmp_path):
    cfg = write_cfg(tmp_path, {"region": {
        "scenario": "private", "channel": NOISY_ADDER,
        "inputs": [[0.5, 0.5], [0.5, 0.5]], "points": [],
    }})
    assert cli.main(["region", "--config", cfg]) == 0


def test_simulate_ladder_rows_and_schema(tmp_path):
    cfg = write_cfg(tmp_path, sim_cfg())
    out = tmp_path / "s.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ("scenario,n,rates,ensemble,seed,trials,block_error,"
                        "ci_half_width,encoder_atypical,empirical_mi,"
                        "channel_atypical,decoder_collision,empty_coset,"
                        "wall_time_s")
    assert len(lines) == 3  # header + one row per ladder point


def test_simulate_reproducible_modulo_walltime(tmp_path):
    cfg = write_cfg(tmp_path, sim_cfg())
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert strip_walltime(a.read_text()) == strip_walltime(b.read_text())
    assert a.read_text() != "" and "block_error" in a.read_text()


def test_simulate_seed_override_changes_results(tmp_path):
    cfg = write_cfg(tmp_path, sim_cfg())
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--seed", "1", "--out", str(b)]) == 0
    assert strip_walltime(a.read_text()) != strip_walltime(b.read_text())


def test_simulate_infeasible_needs_force(tmp_path, capsys):
    cfg = write_cfg(tmp_path, sim_cfg(rates=[0.9, 0.9], n_ladder=[6],
                                      candidates=1, pilot_trials=0, trials=10))
    assert cli.main(["simulate", "--config", cfg]) == 1
    assert "force" in capsys.readouterr().err
    out = tmp_path / "f.csv"
    assert cli.main(["simulate", "--config", cfg, "--force", "--out", str(out)]) == 0
    assert "0.9|0.9" in out.read_text()


def test_simulate_infeasible_writes_the_header_alone(tmp_path, capsys):
    cfg = write_cfg(tmp_path, sim_cfg(rates=[0.9, 0.9], n_ladder=[6],
                                      candidates=1, pilot_trials=0, trials=10))
    out = tmp_path / "f.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "force" in capsys.readouterr().err
    assert out.read_text() == ",".join(cli.SIMULATE_COLUMNS) + "\n"


def test_forced_run_names_a_negative_syndrome_rate(tmp_path, capsys):
    # Rates above H(X) - eps leave a negative syndrome rate, -0.2167 after the
    # message rows round to 14/12, and --force does not get past it.  The
    # run was forced, so no hint to pass --force follows.
    cfg = write_cfg(tmp_path, sim_cfg(rates=[1.2, 1.2], n_ladder=[12],
                                      candidates=1, pilot_trials=0, trials=10))
    assert cli.main(["simulate", "--config", cfg, "--force"]) == 1
    err = capsys.readouterr().err
    assert "x1: syndrome rate -0.2167 is negative" in err
    assert "drift" not in err and "hint" not in err


@pytest.mark.parametrize("block", [sim_cfg()["simulate"], TS_REGION, SW_REGION],
                         ids=["private", "private-ts", "superposition"])
def test_builder_codes_with_the_law_it_returns(block):
    dmc = cli._parse_channel(block["channel"], "simulate.channel")
    _, law, build = cli._law_and_builder(block, dmc, "simulate")
    assert build.keywords["_law"] is law


def _csv_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        del r["wall_time_s"]
    return rows


def test_simulate_keeps_finished_rows_past_a_limit(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, sim_cfg())
    whole, cut = tmp_path / "whole.csv", tmp_path / "cut.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(whole)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(gf, "ENUMERATION_BUDGET", 8)
    assert cli.main(["simulate", "--config", cfg, "--out", str(cut)]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("n=4: ") and "n=6" not in out
    assert err.splitlines() == ["limit error: n=6: product coset size 16 exceeds the budget of 8"]
    want = _csv_rows(whole)
    assert [r["n"] for r in want] == ["4", "6"]
    assert _csv_rows(cut) == want[:1]


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"simulate": {')
    assert cli.main(["simulate", "--config", str(bad)]) == 2
    assert "line" in capsys.readouterr().err

    cfg = write_cfg(tmp_path, {"simulate": {"scenario": "private"}})
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert "simulate.channel" in capsys.readouterr().err

    cfg = write_cfg(tmp_path, sim_cfg(n_ladder=[6, 4]))
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert "n_ladder" in capsys.readouterr().err

    cfg = write_cfg(tmp_path, sim_cfg(rates=[0.25]))
    assert cli.main(["simulate", "--config", cfg]) != 0


def stats_cfg(**overrides):
    block = {"field": 2, "ladder": [4], "ensembles": [{"kind": "uniform-all-linear"}]}
    block.update(overrides)
    return {"ensemble_stats": block}


@pytest.mark.parametrize("command, payload, field", [
    ("simulate", sim_cfg(candidates=0), "simulate.candidates"),
    ("simulate", sim_cfg(n_ladder=[0, 4]), "simulate.n_ladder"),
    ("simulate", sim_cfg(eps=[0.05, 0.0]), "simulate.eps"),
    ("simulate", sim_cfg(eps=[-0.05, 0.05]), "simulate.eps"),
    ("simulate", sim_cfg(pilot_trials=-1), "simulate.pilot_trials"),
    ("ensemble-stats", stats_cfg(field=4), "ensemble_stats.field"),
    ("ensemble-stats", stats_cfg(ladder=[0, 4]), "ensemble_stats.ladder"),
    # A spec the command cannot build is named by its entry.
    ("ensemble-stats", stats_cfg(ladder=[20], ensembles=[{"kind": "random-binning"}]),
     "ensemble_stats.ensembles[0]"),
    ("region", region_cfg([[0.5, 0.5, 0.1]]), "region.points[0]"),
    ("region", region_cfg([["a", 0.5]]), "region.points[0]"),
    ("region", region_cfg([["0.5", 0.5]]), "region.points[0]"),
    ("region", region_cfg([[True, 0.5]]), "region.points[0]"),
    ("region", region_cfg([[10**400, 0.5]]), "region.points[0]"),
    ("region", region_cfg([[0.1, 0.1], [float("nan"), 0.5]]), "region.points[1]"),
    ("region", region_cfg([[float("inf"), 0.5]]), "region.points[0]"),
    ("region", region_cfg([0.5, 0.5]), "region.points[0]"),
    ("simulate", sim_cfg(rates=[float("nan"), 0.25]), "simulate.rates"),
    ("simulate", sim_cfg(rates=["x", 0.25]), "simulate.rates"),
    ("simulate", sim_cfg(rates=[False, 0.25]), "simulate.rates"),
    ("simulate", sim_cfg(rates=[0.25, 0.25, 0.25]), "simulate.rates"),
    ("simulate", sim_cfg(eps=[float("nan"), 0.05]), "simulate.eps"),
    ("simulate", sim_cfg(eps=[0.05, None]), "simulate.eps"),
    # Every count and number of a config is read by one parser.
    ("simulate", sim_cfg(candidates="abc"), "simulate.candidates"),
    ("simulate", sim_cfg(trials=True), "simulate.trials"),
    ("simulate", sim_cfg(pilot_trials=2.5), "simulate.pilot_trials"),
    ("simulate", sim_cfg(n_ladder=[6.7]), "simulate.n_ladder"),
    ("simulate", sim_cfg(n_ladder=6), "simulate.n_ladder"),
    ("simulate", dict(sim_cfg(), seed="7"), "seed"),
    ("simulate", sim_cfg(ensemble={"kind": "sparse-linear", "column_degree": "two"}),
     "simulate.ensemble.column_degree"),
    ("simulate", sim_cfg(ensemble={"kind": "sparse-linear", "column_degree": 2.9}),
     "simulate.ensemble.column_degree"),
    ("simulate", sim_cfg(ensemble={"kind": "sparse-linear", "column_degree": -3}),
     "simulate.ensemble.column_degree"),
    ("simulate", sim_cfg(ensemble={"kind": "sparse-linear", "degree_coeff": "x"}),
     "simulate.ensemble.degree_coeff"),
    ("simulate", sim_cfg(ensemble={"kind": "sparse-linear", "degree_coeff": 0}),
     "simulate.ensemble.degree_coeff"),
    ("ensemble-stats", stats_cfg(ensembles=[{"kind": "uniform-all-linear",
                                             "rows_per_n": "half"}]),
     "ensemble_stats.ensembles[0].rows_per_n"),
    ("ensemble-stats", stats_cfg(ensembles=[{"kind": "uniform-all-linear",
                                             "rows_per_n": float("nan")}]),
     "ensemble_stats.ensembles[0].rows_per_n"),
    ("ensemble-stats", stats_cfg(ensembles=[{"kind": "sparse-linear",
                                             "column_degree": 1.5}]),
     "ensemble_stats.ensembles[0].column_degree"),
    ("ensemble-stats", stats_cfg(field="2"), "ensemble_stats.field"),
    ("ensemble-stats", stats_cfg(ladder=[4.5]), "ensemble_stats.ladder"),
    # Coset codes need a linear map, and a binning table is not one.
    ("simulate", sim_cfg(ensemble={"kind": "random-binning"}), "simulate.ensemble.kind"),
    ("ensemble-stats", stats_cfg(ensembles=[{"kind": "nope"}]),
     "ensemble_stats.ensembles[0].kind"),
    ("region", {"region": dict(SW_REGION, rate_split="no")}, "region.rate_split"),
    # A channel names the part at fault.
    ("region", region_cfg([[0.1, 0.1]], channel=channel(inputs=["2", 2])),
     "region.channel.inputs"),
    ("region", region_cfg([[0.1, 0.1]], channel=channel(inputs=[0, 2])),
     "region.channel.inputs"),
    ("region", region_cfg([[0.1, 0.1]], channel=channel(output=3.5)),
     "region.channel.output"),
    ("region", region_cfg([[0.1, 0.1]], channel=channel(
        table=[[[0.875, 0.0625, 0.0625], [0.0625, 0.875]]] * 2)), "region.channel.table"),
    ("region", region_cfg([[0.1, 0.1]], channel=channel(
        table=[[[float("nan"), 0.5, 0.5]] * 2] * 2)), "region.channel.table"),
    ("region", region_cfg([[0.1, 0.1]], channel=channel(
        table=[[["0.875", 0.0625, 0.0625]] * 2] * 2)), "region.channel.table"),
    # Every distribution is judged by prob.as_distribution.
    ("region", region_cfg([[0.1, 0.1]], inputs=[[0.5, float("nan")], [0.5, 0.5]]),
     "region.inputs[0]"),
    ("region", region_cfg([[0.1, 0.1]], inputs=[[0.5, 0.5], [float("inf"), 0.5]]),
     "region.inputs[1]"),
    ("region", region_cfg([[0.1, 0.1]], inputs=[["a", 0.5], [0.5, 0.5]]),
     "region.inputs[0]"),
    ("region", region_cfg([[0.1, 0.1]], inputs=[["0.5", "0.5"], [0.5, 0.5]]),
     "region.inputs[0]"),
    ("region", region_cfg([[0.1, 0.1]], inputs=[[True, False], [0.5, 0.5]]),
     "region.inputs[0]"),
    ("region", {"region": dict(TS_REGION, u=[float("nan"), 1.0])}, "region.u"),
    ("region", {"region": dict(TS_REGION, inputs_given_u=[
        [[0.875, 0.125], [float("nan"), 1.0]], [[0.5, 0.5]] * 2])},
     "region.inputs_given_u[0][1]"),
    ("region", {"region": dict(SW_REGION, cloud=[0.5, float("nan")])}, "region.cloud"),
    ("simulate", sim_cfg(inputs=[[float("nan"), 0.5], [0.5, 0.5]]), "simulate.inputs[0]"),
    # Every config block is a JSON object, and a bad one is named.
    ("region", [region_cfg([[0.1, 0.1]])], "config"),
    ("simulate", {"simulate": 3}, "simulate"),
    ("region", region_cfg([[0.1, 0.1]], channel=5), "region.channel"),
    ("simulate", sim_cfg(ensemble=7), "simulate.ensemble"),
    ("ensemble-stats", stats_cfg(ensembles=[5]), "ensemble_stats.ensembles[0]"),
    ("ensemble-stats", stats_cfg(ensembles=5), "ensemble_stats.ensembles"),
    ("verify", {"verify": 3}, "verify"),
    ("verify", {"verify": {"suite": "nope"}}, "verify.suite"),
    ("verify", {"verify": {"suite": ["types"]}}, "verify.suite"),
    ("region", dict(region_cfg([[0.1, 0.1]]), out=1), "out"),
])
def test_out_of_range_config_values_exit_2(tmp_path, capsys, command, payload, field):
    assert cli.main([command, "--config", write_cfg(tmp_path, payload)]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload", [("region", region_cfg([[0.1, 0.1]])),
                                              ("simulate", sim_cfg()),
                                              ("ensemble-stats", stats_cfg())])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_exits_2_before_any_work(tmp_path, capsys, command, payload, where):
    # A CSV that cannot be written is refused before a verdict, row or ladder point runs.
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "nowhere" / "x.csv" if where == "missing directory" else tmp_path
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and len(err.splitlines()) == 1
    assert err.startswith("config error: out: ") and str(out) in err


# A stream reads its seed modulo 2^64, so a seed outside [0, 2^64) would
# silently rerun another seed's streams (-1 those of 2^64 - 1).
@pytest.mark.parametrize("seed, line", [
    (-1, "config error: {}: must be at least 0"),
    (2**64, "config error: {}: must be below 2**64"),
    (2**64 + 5, "config error: {}: must be below 2**64"),
])
@pytest.mark.parametrize("where", ["--seed", "seed"])
def test_simulate_rejects_a_seed_outside_64_bits(tmp_path, capsys, seed, line, where):
    cfg = sim_cfg()
    argv = ["simulate", "--out", str(tmp_path / "out.csv")]
    if where == "seed":
        cfg["seed"] = seed
    else:
        argv += ["--seed", str(seed)]
    assert cli.main(argv + ["--config", write_cfg(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [line.format(where)]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_simulate_takes_the_ends_of_the_seed_range(tmp_path, seed):
    cfg = write_cfg(tmp_path, sim_cfg(n_ladder=[4], trials=5))
    out = tmp_path / "out.csv"
    assert cli.main(["simulate", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
    assert [r["seed"] for r in csv.DictReader(out.open())] == [str(seed)]


def parity_channel(inputs):
    """y = x1 + x2 mod 2, flipped with probability 1/4, over two senders of any alphabet."""
    table = [[[0.75, 0.25] if (a + b) % 2 == 0 else [0.25, 0.75] for b in range(inputs[1])]
             for a in range(inputs[0])]
    return {"inputs": list(inputs), "output": 2, "table": table}


def tiny_sim_cfg(inputs=(2, 2), cloud=None, rates=(0.25, 0.25)):
    """One code at n = 4, no pilots, 5 trials: a private code, or a superposition one."""
    block = sim_cfg(channel=parity_channel(inputs), rates=list(rates), eps=[0.05] * len(rates),
                    n_ladder=[4], candidates=1, pilot_trials=0, trials=5)["simulate"]
    if cloud is None:
        block["inputs"] = [[1 / q] * q for q in inputs]
    else:
        del block["inputs"]
        block.update(scenario="superposition", cloud=[1 / cloud] * cloud,
                     satellites_given_cloud=[[[1 / q] * q] * cloud for q in inputs])
    return {"seed": 20250811, "simulate": block}


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("payload, field", [
    (tiny_sim_cfg((4, 2)), "simulate.channel.inputs[0]"),
    (tiny_sim_cfg((1, 2), rates=(0.0, 0.25)), "simulate.channel.inputs[0]"),
    (tiny_sim_cfg((2, 1), rates=(0.25, 0.0)), "simulate.channel.inputs[1]"),
    (tiny_sim_cfg(cloud=4, rates=(0.25,) * 3), "simulate.cloud"),
], ids=["four-symbol-sender", "one-symbol-first", "one-symbol-second", "four-point-cloud"])
def test_simulate_rejects_an_alphabet_it_cannot_code(tmp_path, capsys, payload, field, force):
    argv = ["simulate", "--config", write_cfg(tmp_path, payload)] + ["--force"] * force
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {field}: ")


# A sender or cloud of one symbol carries no message: its rate is 0.
@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("payload", [tiny_sim_cfg((q, 2), rates=(0.25 * (q > 1), 0.25))
                                     for q in range(1, 7)]
                         + [tiny_sim_cfg((2, q), rates=(0.25, 0.25 * (q > 1)))
                            for q in range(1, 7)]
                         + [tiny_sim_cfg(cloud=m, rates=(0.25 * (m > 1), 0.25, 0.25))
                            for m in range(1, 5)],
                         ids=[f"sender{j}-q{q}" for j in (0, 1) for q in range(1, 7)]
                         + [f"cloud-{m}" for m in range(1, 5)])
def test_simulate_exits_cleanly_on_any_small_alphabet(tmp_path, capsys, payload, force):
    argv = ["simulate", "--config", write_cfg(tmp_path, payload)] + ["--force"] * force
    assert cli.main(argv) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("module, limit, argv, line", [
    (gf, "ENUMERATION_BUDGET", ["simulate"],
     "limit error: n=4: coset size 2^1 exceeds the budget of 1"),
    (ens, "SUPPORT_BUDGET", ["verify", "--suite", "hash"],
     "limit error: 2^2 matrices exceed the budget of 1"),
], ids=["enumeration", "support"])
def test_limit_errors_exit_2_with_one_line(tmp_path, monkeypatch, capsys, module, limit, argv, line):
    monkeypatch.setattr(module, limit, 1)
    assert cli.main(argv + ["--config", write_cfg(tmp_path, sim_cfg())]) == 2
    assert capsys.readouterr().err.splitlines() == [line]


def test_missing_config_for_simulate():
    assert cli.main(["simulate"]) == 2


def test_unknown_suite_flag_exits_2(capsys):
    assert cli.main(["verify", "--suite", "bogus"]) == 2
    assert "config error: --suite: unknown suite 'bogus'" in capsys.readouterr().err


def test_verify_exit_codes(monkeypatch, capsys):
    ok = [LemmaReport("demo", 3, 0)]
    monkeypatch.setattr(cli, "run_suite", lambda name: ok)
    assert cli.main(["verify", "--suite", "types"]) == 0
    assert "PASS demo" in capsys.readouterr().out
    bad = [LemmaReport("demo", 3, 1)]
    monkeypatch.setattr(cli, "run_suite", lambda name: bad)
    assert cli.main(["verify", "--suite", "types"]) == 1
    assert "FAIL demo" in capsys.readouterr().out


def test_fault_injection_breaks_types_suite(monkeypatch):
    # A wrong-signed type-count penalty must be caught by the lemma checks.
    good = verify.types_suite()
    assert all(r.violations == 0 for r in good)
    monkeypatch.setattr(slack, "type_count_penalty",
                        lambda n, m: -(m * __import__("math").log2(n + 1) / n))
    faulty = verify.types_suite()
    assert any(r.violations > 0 for r in faulty)


def test_ensemble_stats_csv(tmp_path):
    cfg = write_cfg(tmp_path, {"ensemble_stats": {
        "field": 2, "ladder": [4, 8],
        "ensembles": [{"kind": "uniform-all-linear", "rows_per_n": 0.5},
                      {"kind": "sparse-linear", "rows_per_n": 0.5,
                       "degree_coeff": 0.5}],
    }})
    out = tmp_path / "e.csv"
    assert cli.main(["ensemble-stats", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,kind,rows,alpha,beta,provenance,half_width"
    uniform_rows = [l for l in lines[1:] if "uniform-all-linear" in l]
    for row in uniform_rows:
        fields = row.split(",")
        assert fields[3] == "1.0" and fields[4] == "0.0" and fields[5] == "exact"


def test_ensemble_stats_sparse_exact_to_n_40(tmp_path):
    # Past every enumeration budget: 2^10 and 2^20 syndromes, 252^20 and 38760^40 matrices.
    cfg = write_cfg(tmp_path, {"ensemble_stats": {
        "ladder": [20, 40], "ensembles": [{"kind": "sparse-linear"}]}})
    out = tmp_path / "s.csv"
    assert cli.main(["ensemble-stats", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == [
        "20,sparse-linear,10,2.05,0.753968253968254,exact,",
        "40,sparse-linear,20,2.45,0.3376264167698836,exact,",
    ]


def test_ensemble_stats_bad_entry_prints_no_row(tmp_path, capsys):
    cfg = write_cfg(tmp_path, stats_cfg(ladder=[4, 20], ensembles=[
        {"kind": "uniform-all-linear"}, {"kind": "random-binning"}]))
    assert cli.main(["ensemble-stats", "--config", cfg]) == 2
    assert capsys.readouterr().out == ""


def test_ensemble_stats_clamps_sparse_degree_like_simulate(tmp_path):
    # The default degree ceil(log2(n+1)) exceeds rows = n/2 at n = 2 and 4.
    cfg = write_cfg(tmp_path, {"ensemble_stats": {
        "ladder": [2, 4], "ensembles": [{"kind": "sparse-linear", "rows_per_n": 0.5}]}})
    clamped = write_cfg(tmp_path, {"ensemble_stats": {
        "ladder": [2], "ensembles": [{"kind": "sparse-linear", "rows_per_n": 0.5,
                                      "column_degree": 1}]}}, name="clamped.json")
    out, ref = tmp_path / "s.csv", tmp_path / "r.csv"
    assert cli.main(["ensemble-stats", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["ensemble-stats", "--config", clamped, "--out", str(ref)]) == 0
    rows = out.read_text().strip().splitlines()
    assert [r.split(",")[:3] for r in rows[1:]] == [["2", "sparse-linear", "1"],
                                                   ["4", "sparse-linear", "2"]]
    assert rows[1] == ref.read_text().strip().splitlines()[1]


def test_verify_all_runtime_budget(tmp_path):
    import time
    start = time.perf_counter()
    rc = cli.main(["verify", "--suite", "all"])
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert elapsed < 30  # about 0.3 to 0.5 s on a 2-vCPU machine


def test_simulate_stage_counts_sum_to_errors(tmp_path):
    cfg = write_cfg(tmp_path, sim_cfg(n_ladder=[6], trials=40))
    out = tmp_path / "c.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header, row = out.read_text().strip().splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    stage_total = sum(int(rec[k]) for k in ("encoder_atypical", "empirical_mi",
                                            "channel_atypical", "decoder_collision",
                                            "empty_coset"))
    errors = round(float(rec["block_error"]) * int(rec["trials"]))
    assert stage_total == errors


def test_simulate_sparse_ensemble_config(tmp_path):
    cfg = write_cfg(tmp_path, sim_cfg(n_ladder=[6], trials=20, candidates=2,
                                      pilot_trials=5,
                                      ensemble={"kind": "sparse-linear",
                                                "column_degree": 2}))
    out = tmp_path / "sp.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert "sparse-linear" in out.read_text()


def test_simulate_sparse_ensemble_default_degree_is_clamped(tmp_path):
    # ceil(log2(6 + 1)) = 3 nonzeros per column do not fit a 2-row map.
    factory, kind = cli._parse_ensemble_factory({"kind": "sparse-linear"}, "e")
    assert factory(2, 6, FieldSpec(2)).degree() == 2
    assert factory(5, 6, FieldSpec(2)).degree() == 3
    assert factory(5, 6, FieldSpec(2)) == factory(5, 6, FieldSpec(2))
    cfg = write_cfg(tmp_path, sim_cfg(n_ladder=[6], trials=20, candidates=2,
                                      pilot_trials=5, ensemble={"kind": "sparse-linear"}))
    out = tmp_path / "sd.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert "sparse-linear" in out.read_text()


def test_config_distributions_checked_at_sum_tol(tmp_path, capsys):
    third = [0.3333333333, 0.6666666666]  # sums to 1 - 1e-10
    for block in (TS_REGION, SW_REGION):
        assert cli.main(["region", "--config", write_cfg(tmp_path, {"region": block})]) == 0
    capsys.readouterr()
    cases = [
        (dict(TS_REGION, scenario="private", inputs=[third, [0.5, 0.5]], points=[[0.1, 0.1]]),
         "region.inputs[0]"),
        (dict(TS_REGION, u=third), "region.u"),
        (dict(TS_REGION, inputs_given_u=[[[0.875, 0.125], third], [[0.5, 0.5]] * 2]),
         "region.inputs_given_u[0][1]"),
        (dict(TS_REGION, inputs_given_u=[[[0.5, 0.5]] * 2, [[0.5, 0.5], [0.9, 0.2]]]),
         "region.inputs_given_u[1][1]"),
        (dict(SW_REGION, cloud=third), "region.cloud"),
        (dict(SW_REGION, satellites_given_cloud=[[third, [0.5, 0.5]], [[0.5, 0.5]] * 2]),
         "region.satellites_given_cloud[0][0]"),
    ]
    for block, field in cases:
        assert cli.main(["region", "--config", write_cfg(tmp_path, {"region": block})]) == 2
        err = capsys.readouterr().err
        assert f"{field}: not a probability distribution" in err
    cfg = write_cfg(tmp_path, sim_cfg(inputs=[third, [0.5, 0.5]]))
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert "simulate.inputs[0]" in capsys.readouterr().err


def test_shipped_configs_are_valid():
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "demos" / "configs"
    # Light commands run end to end; simulate configs are validated structurally
    # (their full workloads run in the acceptance suite).
    assert cli.main(["region", "--config", str(root / "region_adder.json")]) == 0
    assert cli.main(["ensemble-stats", "--config", str(root / "ensemble_stats.json")]) == 0
    for name in ("simulate_private.json", "simulate_time_sharing.json",
                 "simulate_superposition.json"):
        payload = json.loads((root / name).read_text())
        block = payload["simulate"]
        for field in ("scenario", "channel", "rates", "eps", "n_ladder"):
            assert field in block, f"{name} missing {field}"
        assert block["n_ladder"] == sorted(block["n_ladder"])


@pytest.mark.parametrize("name", ["simulate_private.json", "simulate_time_sharing.json",
                                  "simulate_superposition.json"])
def test_builder_computes_region_constraints_once(monkeypatch, name):
    # Every candidate of a run shares the builder's joint law, so its region
    # constraints (three or more mutual informations) are computed once.
    import pathlib

    import numpy as np

    import hashmac.regions as regions
    from hashmac import rng as rng_mod
    from hashmac.scenarios import search_code
    path = pathlib.Path(__file__).resolve().parent.parent / "demos" / "configs" / name
    block = json.loads(path.read_text())["simulate"]
    dmc = cli._parse_channel(block["channel"], "simulate.channel")
    args = (dmc, block["rates"], block["eps"], block["n_ladder"][0])
    calls = []
    mi = regions.mutual_information
    monkeypatch.setattr(regions, "mutual_information",
                        lambda *a, **kw: calls.append(1) or mi(*a, **kw))

    def search(candidates):
        calls.clear()
        _, _, build = cli._law_and_builder(block, dmc, "simulate")
        codes = []
        search_code(lambda rng: codes.append(build(*args, rng)) or codes[-1],
                    candidates, 0, 20250811, ("mi", name))
        assert len(codes) == candidates and all(c.law is codes[0].law for c in codes)
        return len(calls), build, codes[0]

    one, build, code = search(1)
    assert one >= 3
    assert search(20)[0] == one
    # The shared law equals the one the builder makes when given none.
    own = {k: v for k, v in build.keywords.items() if k != "_law"}
    fresh = build.func(*build.args, *args, rng_mod.stream(20250811, "mi"), **own)
    assert fresh.law is not code.law
    assert fresh.law.names == code.law.names
    assert np.array_equal(fresh.law.table, code.law.table)
