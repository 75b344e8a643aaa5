"""Batch front end: region queries, simulations, lemma suites, ensemble stats.

Configuration is a single JSON document with one top-level object per
subcommand; see the README for the schema and worked examples.  Exit codes:
0 success, 1 verification or feasibility failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time

import numpy as np

from . import rng as rng_mod
from .channel import Dmc
from .ensembles import (EnsembleSpec, KINDS, SPARSE, UNIFORM, default_degree,
                        estimate_hash_params)
from .gf import FieldSpec
from .prob import SUM_TOL
from .regions import (in_region_private, in_region_sw, joint_private, joint_sw,
                      joint_ts, rate_split, RateSplitInfeasible)
from .scenarios import (InfeasibleRateError, STAGES, build_private_code,
                        build_superposition_code, search_code, simulate_error,
                        uniform_ensemble_factory)
from .verify import run_suite

SIMULATE_COLUMNS = ("scenario", "n", "rates", "ensemble", "seed", "trials",
                    "block_error", "ci_half_width") + tuple(
    s.replace("-", "_") for s in STAGES) + ("wall_time_s",)
REGION_COLUMNS = ("point", "inside", "witness", "split_point", "split_moved")
STATS_COLUMNS = ("n", "kind", "rows", "alpha", "beta", "provenance", "half_width")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _fmt(x: float) -> str:
    # repr round-trips exactly, so CSV consumers can rebuild the floats.
    return repr(float(x))


def _need(block: dict, field: str, where: str):
    if field not in block:
        raise ConfigError(f"{where}.{field}: missing required field")
    return block[field]


def _at_least(value: int, low: int, field: str) -> int:
    if value < low:
        raise ConfigError(f"{field}: must be at least {low}")
    return value


def _finite_vector(values, count: int, what: str, where: str) -> tuple[float, ...]:
    """`count` finite numbers, such as one rate per component, or a ConfigError."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{where}: expected a list of {count} {what}")
    if len(values) != count:
        raise ConfigError(f"{where}: expected {count} {what}, got {len(values)}")
    # A JSON string or boolean is not a number, though float() would take it.
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ConfigError(f"{where}: {what} must be numbers")
    try:
        out = tuple(float(v) for v in values)
    except OverflowError:
        raise ConfigError(f"{where}: {what} must be finite") from None
    if not all(math.isfinite(v) for v in out):
        raise ConfigError(f"{where}: {what} must be finite")
    return out


def _rate_count(law) -> int:
    """Rates a point of the law's region has: one per x axis, a cloud included."""
    return sum(nm.startswith("x") for nm in law.names)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"config: cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None


def _parse_channel(block: dict, where: str) -> Dmc:
    inputs = _need(block, "inputs", where)
    output = _need(block, "output", where)
    table = np.asarray(_need(block, "table", where), dtype=float)
    try:
        return Dmc(tuple(int(s) for s in inputs), int(output), table)
    except ValueError as e:
        raise ConfigError(f"{where}.table: {e}") from None


def _parse_dist(x, size: int, where: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (size,):
        raise ConfigError(f"{where}: expected {size} probabilities, got shape {arr.shape}")
    if arr.min() < 0 or abs(arr.sum() - 1.0) > SUM_TOL:
        raise ConfigError(f"{where}: not a probability distribution")
    return arr


def _parse_cond(x, given: int, size: int, where: str) -> np.ndarray:
    """A conditional law: one distribution row per conditioning symbol."""
    rows = np.asarray(x, dtype=float)
    if rows.shape != (given, size):
        raise ConfigError(f"{where}: shape mismatch")
    for i, row in enumerate(rows):
        _parse_dist(row, size, f"{where}[{i}]")
    return rows


def _parse_ensemble_factory(block: dict | None, where: str):
    if block is None:
        return uniform_ensemble_factory, UNIFORM
    kind = block.get("kind", UNIFORM)
    if kind not in KINDS:
        raise ConfigError(f"{where}.kind: unknown ensemble kind {kind!r}")
    degree = block.get("column_degree")
    coeff = float(block.get("degree_coeff", 1.0))

    def factory(rows: int, cols: int, field: FieldSpec) -> EnsembleSpec:
        if kind == SPARSE and rows == 0:
            return EnsembleSpec(UNIFORM, rows, cols, field)
        if kind == SPARSE:
            # The spec rejects a degree above rows, so clamp before building it.
            d = int(degree) if degree is not None else default_degree(cols, coeff)
            return EnsembleSpec(SPARSE, rows, cols, field,
                                column_degree=max(1, min(d, rows)), degree_coeff=coeff)
        return EnsembleSpec(kind, rows, cols, field)

    return factory, kind


def _law_and_builder(block: dict, dmc: Dmc, where: str):
    """(scenario, joint law, build): build(dmc, rates, eps, n, rng, **kw) samples a code.

    Every code of one builder shares one joint law, built here, so its
    region constraints are computed once however many candidates are built.
    """
    scenario = _need(block, "scenario", where)
    if scenario == "private":
        dists = _need(block, "inputs", where)
        if len(dists) != dmc.n_senders:
            raise ConfigError(f"{where}.inputs: one distribution per sender required")
        dists = [_parse_dist(d, s, f"{where}.inputs[{j}]")
                 for j, (d, s) in enumerate(zip(dists, dmc.input_sizes))]
        conds = [d[None, :] for d in dists]
        return scenario, joint_private(dists, dmc), functools.partial(
            build_private_code, [1.0], conds, _law=joint_ts([1.0], conds, dmc))
    if scenario == "private-ts":
        mu_u = _parse_dist(_need(block, "u", where), len(block["u"]), f"{where}.u")
        conds = [_parse_cond(c, mu_u.size, dmc.input_sizes[j], f"{where}.inputs_given_u[{j}]")
                 for j, c in enumerate(_need(block, "inputs_given_u", where))]
        law = joint_ts(mu_u, conds, dmc)
        return scenario, law, functools.partial(build_private_code, mu_u, conds, _law=law)
    if scenario == "superposition":
        cloud = np.asarray(_need(block, "cloud", where), dtype=float)
        cloud = _parse_dist(cloud, cloud.size, f"{where}.cloud")
        sats = _need(block, "satellites_given_cloud", where)
        if len(sats) != 2:
            raise ConfigError(f"{where}.satellites_given_cloud: expected two tables")
        c1, c2 = (_parse_cond(c, cloud.size, dmc.input_sizes[j],
                              f"{where}.satellites_given_cloud[{j}]")
                  for j, c in enumerate(sats))
        law = joint_sw(cloud, c1, c2, dmc)
        return scenario, law, functools.partial(build_superposition_code, cloud, c1, c2,
                                                _law=law)
    raise ConfigError(f"{where}.scenario: unknown scenario {scenario!r}")


def cmd_region(config: dict, out_path: str | None) -> int:
    block = config.get("region")
    if block is None:
        raise ConfigError("region: missing top-level object")
    dmc = _parse_channel(_need(block, "channel", "region"), "region.channel")
    scenario, law, _ = _law_and_builder(block, dmc, "region")
    points = _need(block, "points", "region")
    if not isinstance(points, (list, tuple)):
        raise ConfigError("region.points: expected a list of rate vectors")
    # Every point is checked before any verdict prints.  A negative rate is
    # a valid query: its verdict is outside.
    points = [_finite_vector(p, _rate_count(law), "rates", f"region.points[{i}]")
              for i, p in enumerate(points)]
    want_split = bool(block.get("rate_split", False))
    if want_split and scenario != "superposition":
        raise ConfigError("region.rate_split: only defined for the superposition scenario")
    in_region = in_region_sw if "x0" in law.names else in_region_private
    rows = []
    for point in points:
        verdict = in_region(point, law)
        split_point = split_moved = ""
        if verdict and want_split:
            try:
                split = rate_split(point, law)
                split_point = "|".join(_fmt(r) for r in split.built)
                split_moved = "|".join(_fmt(r) for r in split.moved)
            except RateSplitInfeasible as e:
                split_point = f"infeasible: {e}"
        rows.append({
            "point": "|".join(_fmt(r) for r in point),
            "inside": "inside" if verdict.inside else "outside",
            "witness": verdict.witness or "",
            "split_point": split_point,
            "split_moved": split_moved,
        })
        label = "inside" if verdict.inside else f"outside: {verdict.witness}"
        print(f"point ({', '.join(_fmt(r) for r in point)}): {label}")
        if split_point:
            print(f"  split -> ({split_point}) moved ({split_moved})")
    if out_path:
        _write_csv(out_path, REGION_COLUMNS, rows)
    return 0


def _write_csv(path: str, columns, rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow(r)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def cmd_simulate(config: dict, seed: int | None, force: bool,
                 out_path: str | None) -> int:
    block = config.get("simulate")
    if block is None:
        raise ConfigError("simulate: missing top-level object")
    dmc = _parse_channel(_need(block, "channel", "simulate"), "simulate.channel")
    scenario, law, build = _law_and_builder(block, dmc, "simulate")
    want = _rate_count(law)
    rates = _finite_vector(_need(block, "rates", "simulate"), want, "rates", "simulate.rates")
    eps = _finite_vector(_need(block, "eps", "simulate"), want, "margins", "simulate.eps")
    if any(e <= 0 for e in eps):
        raise ConfigError("simulate.eps: margins must be positive")
    ladder = [int(n) for n in _need(block, "n_ladder", "simulate")]
    if ladder != sorted(ladder):
        raise ConfigError("simulate.n_ladder: must be ascending")
    _at_least(min(ladder, default=1), 1, "simulate.n_ladder")
    factory, kind = _parse_ensemble_factory(block.get("ensemble"), "simulate.ensemble")
    candidates = _at_least(int(block.get("candidates", 20)), 1, "simulate.candidates")
    pilot = _at_least(int(block.get("pilot_trials", 100)), 0, "simulate.pilot_trials")
    trials = _at_least(int(block.get("trials", 400)), 1, "simulate.trials")
    the_seed = int(seed if seed is not None else config.get("seed", 0))

    rows = []
    for n in ladder:
        def builder(rng, n=n):
            return build(dmc, rates, eps, n, rng, ensemble_factory=factory,
                         check_region=not force)

        start = time.perf_counter()
        try:
            found = search_code(builder, candidates, pilot, the_seed, (scenario, n))
        except InfeasibleRateError as e:
            print(f"n={n}: infeasible: {e}", file=sys.stderr)
            print("hint: pass --force to run an out-of-region control", file=sys.stderr)
            return 1
        result = simulate_error(found.code, trials, the_seed,
                                (scenario, n, rng_mod.MEASURE, found.candidate))
        wall = time.perf_counter() - start
        row = {
            "scenario": scenario,
            "n": n,
            "rates": "|".join(_fmt(r) for r in rates),
            "ensemble": kind,
            "seed": the_seed,
            "trials": trials,
            "block_error": _fmt(result.error),
            "ci_half_width": _fmt(result.half_width),
            "wall_time_s": format(wall, ".3f"),
        }
        for s in STAGES:
            row[s.replace("-", "_")] = result.stage_counts[s]
        rows.append(row)
        print(f"n={n}: block_error={result.error:.4f} (+/-{result.half_width:.4f}) "
              f"candidate={found.candidate}")
    if out_path:
        _write_csv(out_path, SIMULATE_COLUMNS, rows)
    return 0


def cmd_verify(config: dict, suite: str | None) -> int:
    block = config.get("verify", {}) if config else {}
    name = suite or block.get("suite", "all")
    reports = run_suite(name)
    failed = False
    for r in reports:
        status = "PASS" if r.ok else "FAIL"
        extra = f" vacuous={r.vacuous}" if r.vacuous else ""
        print(f"{status} {r.name}: cases={r.cases} violations={r.violations}{extra}")
        failed = failed or not r.ok
    return 1 if failed else 0


def cmd_ensemble_stats(config: dict, seed: int | None, out_path: str | None) -> int:
    block = config.get("ensemble_stats")
    if block is None:
        raise ConfigError("ensemble_stats: missing top-level object")
    try:
        field = FieldSpec(int(block.get("field", 2)))
    except ValueError as e:
        raise ConfigError(f"ensemble_stats.field: {e}") from None
    ladder = [int(n) for n in _need(block, "ladder", "ensemble_stats")]
    if ladder != sorted(ladder):
        raise ConfigError("ensemble_stats.ladder: must be ascending")
    _at_least(min(ladder, default=1), 1, "ensemble_stats.ladder")
    mode = block.get("mode", "exact")
    if mode not in ("exact", "mc"):
        raise ConfigError(f"ensemble_stats.mode: unknown mode {mode!r}")
    trials = _at_least(int(block.get("trials", 2000)), 1, "ensemble_stats.trials")
    the_seed = int(seed if seed is not None else config.get("seed", 0))
    rows = []
    for item in _need(block, "ensembles", "ensemble_stats"):
        _need(item, "kind", "ensemble_stats.ensembles[]")
        # simulate's factory, so a sparse degree is clamped to the rows alike.
        factory, kind = _parse_ensemble_factory(item, "ensemble_stats.ensembles[]")
        ratio = float(item.get("rows_per_n", 0.5))
        for n in ladder:
            rows_n = max(1, round(ratio * n))
            spec = factory(rows_n, n, field)
            rng = rng_mod.stream(the_seed, "ensemble-stats", kind, n)
            params = estimate_hash_params(spec, mode=mode, trials=trials, rng=rng)
            rows.append({
                "n": n, "kind": kind, "rows": rows_n,
                "alpha": _fmt(params.alpha), "beta": _fmt(params.beta),
                "provenance": params.provenance,
                "half_width": _fmt(params.half_width) if params.provenance == "estimated" else "",
            })
            print(f"n={n} {kind}: alpha={params.alpha} beta={params.beta} "
                  f"({params.provenance})")
    if out_path:
        _write_csv(out_path, STATS_COLUMNS, rows)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hashmac",
        description="Coset-code laboratory for multiple-access channels.",
        epilog="Region tests use strict inequalities: boundary rate points "
               "count as outside. Exit codes: 0 ok, 1 verification or "
               "feasibility failure, 2 configuration error.")
    parser.add_argument("command",
                        choices=["region", "simulate", "verify", "ensemble-stats"])
    parser.add_argument("--config", help="JSON experiment configuration")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--force", action="store_true",
                        help="run even when rates are outside the region")
    parser.add_argument("--out", help="CSV output path")
    parser.add_argument("--suite", help="verify: types|hash|codec|regions|all")
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        out = args.out or config.get("out")
        if args.command == "region":
            return cmd_region(config, out)
        if args.command == "simulate":
            if not args.config:
                raise ConfigError("simulate: --config is required")
            return cmd_simulate(config, args.seed, args.force, out)
        if args.command == "verify":
            return cmd_verify(config, args.suite)
        return cmd_ensemble_stats(config, args.seed, out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
