"""Batch front end: region queries, simulations, lemma suites, ensemble stats.

Configuration is a single JSON document with one top-level object per
subcommand; see the README for the schema and worked examples.  Exit codes:
0 success, 1 verification or feasibility failure, 2 configuration error or
a run that would pass an enumeration limit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time

import numpy as np

from . import rng as rng_mod
from .channel import Dmc
from .ensembles import (BINNING, EnsembleSpec, KINDS, SPARSE, UNIFORM, SupportBudgetError,
                        default_degree, estimate_hash_params)
from .gf import SUPPORTED_PRIMES, EnumerationBudgetError, FieldSpec
from .prob import as_distribution
from .regions import (in_region_private, in_region_sw, joint_sw, joint_ts, rate_split,
                      RateSplitInfeasible)
from .scenarios import (InfeasibleRateError, STAGES, build_private_code,
                        build_superposition_code, search_code, simulate_error)
from .verify import SUITES, run_suite

SIMULATE_COLUMNS = ("scenario", "n", "rates", "ensemble", "seed", "trials",
                    "block_error", "ci_half_width") + tuple(
    s.replace("-", "_") for s in STAGES) + ("wall_time_s",)
REGION_COLUMNS = ("point", "inside", "witness", "split_point", "split_moved")
STATS_COLUMNS = ("n", "kind", "rows", "alpha", "beta", "provenance", "half_width")
# A configuration that asks for more than a limit allows: exit 2, like a bad field.
LIMIT_ERRORS = (EnumerationBudgetError, SupportBudgetError)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _fmt(x: float) -> str:
    # repr round-trips exactly, so CSV consumers can rebuild the floats.
    return repr(float(x))


def _need(block: dict, field: str, where: str):
    if field not in block:
        raise ConfigError(f"{where}.{field}: missing required field")
    return block[field]


def _object(value, where: str) -> dict:
    """Every config block is read here: a JSON object, or a ConfigError naming it."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    return value


def _section(config: dict, name: str) -> dict:
    """A subcommand's top-level block."""
    if name not in config:
        raise ConfigError(f"{name}: missing top-level object")
    return _object(config[name], name)


def _is_number(value) -> bool:
    # A JSON string or boolean is not a number, though float() would take it.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, field: str) -> float:
    """Every config number is read here: a finite JSON number, or a ConfigError."""
    # The bounds fail NaN and Infinity, which json reads, and ints too large for a float.
    if not (_is_number(value) and -sys.float_info.max <= value <= sys.float_info.max):
        raise ConfigError(f"{field}: expected a finite number")
    return float(value)


def _count(value, low: float, field: str) -> int:
    """An integral config number of at least low."""
    if not _number(value, field).is_integer():
        raise ConfigError(f"{field}: expected an integer")
    if value < low:
        raise ConfigError(f"{field}: must be at least {low}")
    return int(value)


def _items(value, count: int | None, where: str) -> list:
    """A config list, of `count` items unless count is None."""
    if not isinstance(value, (list, tuple)) or count not in (None, len(value)):
        raise ConfigError(f"{where}: expected a list" + (f" of {count} items" if count else ""))
    return value


def _finite_vector(values, count: int, where: str) -> tuple[float, ...]:
    """`count` finite numbers, such as one rate per component, or a ConfigError."""
    return tuple(_number(v, where) for v in _items(values, count, where))


def _ladder(values, where: str) -> list[int]:
    ladder = [_count(n, 1, where) for n in _items(values, None, where)]
    if ladder != sorted(ladder):
        raise ConfigError(f"{where}: must be ascending")
    return ladder


def _rate_count(law) -> int:
    """Rates a point of the law's region has: one per x axis, a cloud included."""
    return sum(nm.startswith("x") for nm in law.names)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _object(json.load(fh), "config")
    except OSError as e:
        raise ConfigError(f"config: cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None


def _parse_channel(block: dict, where: str) -> Dmc:
    block = _object(block, where)
    inputs = tuple(_count(s, 1, f"{where}.inputs")
                   for s in _items(_need(block, "inputs", where), None, f"{where}.inputs"))
    output = _count(_need(block, "output", where), 1, f"{where}.output")
    table = _need(block, "table", where)
    try:
        if not all(map(_is_number, np.array(table, dtype=object).flat)):
            raise ValueError("expected nested lists of numbers")
        return Dmc(inputs, output, table)
    except ValueError as e:
        raise ConfigError(f"{where}.table: {e}") from None


def _parse_dist(x, size: int | None, where: str) -> np.ndarray:
    """One distribution, of `size` probabilities unless size is None."""
    x = _items(x, size, where)
    try:
        if not all(map(_is_number, x)):
            raise ValueError("not numbers")
        return as_distribution(x)
    except ValueError:
        raise ConfigError(f"{where}: not a probability distribution") from None


def _parse_cond(x, given: int, size: int, where: str) -> np.ndarray:
    """A conditional law: one distribution row per conditioning symbol."""
    return np.array([_parse_dist(row, size, f"{where}[{i}]")
                     for i, row in enumerate(_items(x, given, where))])


def _parse_ensemble_factory(block: dict, where: str):
    """(factory, kind); factory(rows, cols, field) is the one place a sparse degree is chosen."""
    block = _object(block, where)
    kind = block.get("kind", UNIFORM)
    if kind not in KINDS:
        raise ConfigError(f"{where}.kind: unknown ensemble kind {kind!r}")
    degree = block.get("column_degree")
    degree = None if degree is None else _count(degree, 1, f"{where}.column_degree")
    coeff = _number(block.get("degree_coeff", 1.0), f"{where}.degree_coeff")
    if coeff <= 0:
        raise ConfigError(f"{where}.degree_coeff: must be positive")

    def factory(rows: int, cols: int, field: FieldSpec) -> EnsembleSpec:
        if kind == SPARSE and rows == 0:
            return EnsembleSpec(UNIFORM, rows, cols, field)
        if kind == SPARSE:
            # The spec rejects a degree above rows, so clamp before building it.
            d = degree if degree is not None else default_degree(cols, coeff)
            return EnsembleSpec(SPARSE, rows, cols, field, column_degree=min(d, rows))
        return EnsembleSpec(kind, rows, cols, field)

    return factory, kind


def _law_and_builder(block: dict, dmc: Dmc, where: str):
    """(scenario, joint law, build): build(dmc, rates, eps, n, rng, **kw) samples a code.

    Every code of one builder shares one joint law, built here, so its
    region constraints are computed once however many candidates are built.
    """
    scenario = _need(block, "scenario", where)
    if scenario == "private":
        dists = _items(_need(block, "inputs", where), dmc.n_senders, f"{where}.inputs")
        dists = [_parse_dist(d, s, f"{where}.inputs[{j}]")
                 for j, (d, s) in enumerate(zip(dists, dmc.input_sizes))]
        conds = [d[None, :] for d in dists]
        law = joint_ts([1.0], conds, dmc)
        return scenario, law, functools.partial(build_private_code, [1.0], conds, _law=law)
    if scenario == "private-ts":
        mu_u = _parse_dist(_need(block, "u", where), None, f"{where}.u")
        conds = [_parse_cond(c, mu_u.size, dmc.input_sizes[j], f"{where}.inputs_given_u[{j}]")
                 for j, c in enumerate(_items(_need(block, "inputs_given_u", where),
                                              dmc.n_senders, f"{where}.inputs_given_u"))]
        law = joint_ts(mu_u, conds, dmc)
        return scenario, law, functools.partial(build_private_code, mu_u, conds, _law=law)
    if scenario == "superposition":
        cloud = _parse_dist(_need(block, "cloud", where), None, f"{where}.cloud")
        sats = _items(_need(block, "satellites_given_cloud", where), 2,
                      f"{where}.satellites_given_cloud")
        c1, c2 = (_parse_cond(c, cloud.size, dmc.input_sizes[j],
                              f"{where}.satellites_given_cloud[{j}]")
                  for j, c in enumerate(sats))
        law = joint_sw(cloud, c1, c2, dmc)
        return scenario, law, functools.partial(build_superposition_code, cloud, c1, c2,
                                                _law=law)
    raise ConfigError(f"{where}.scenario: unknown scenario {scenario!r}")


def cmd_region(config: dict, out_path: str | None) -> int:
    block = _section(config, "region")
    dmc = _parse_channel(_need(block, "channel", "region"), "region.channel")
    scenario, law, _ = _law_and_builder(block, dmc, "region")
    # Every point is checked before any verdict prints.  A negative rate is
    # a valid query: its verdict is outside.
    points = [_finite_vector(p, _rate_count(law), f"region.points[{i}]")
              for i, p in enumerate(_items(_need(block, "points", "region"), None,
                                           "region.points"))]
    want_split = block.get("rate_split", False)
    if not isinstance(want_split, bool):
        raise ConfigError("region.rate_split: expected true or false")
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


def _check_out(path: str) -> None:
    """Refuse an --out the CSV cannot be written to, before any work is done."""
    if os.path.isdir(path):
        raise ConfigError(f"out: {path} is a directory")
    if not os.access(path if os.path.exists(path) else os.path.dirname(path) or ".", os.W_OK):
        raise ConfigError(f"out: cannot write {path}: no such directory, or no permission")


def cmd_simulate(config: dict, seed: int | None, force: bool,
                 out_path: str | None) -> int:
    block = _section(config, "simulate")
    dmc = _parse_channel(_need(block, "channel", "simulate"), "simulate.channel")
    scenario, law, build = _law_and_builder(block, dmc, "simulate")
    # Each sender is coded over a field, and so is a cloud center of more than one point.
    coded = [(f"simulate.channel.inputs[{j}]", q) for j, q in enumerate(dmc.input_sizes)]
    if "x0" in law.names and law.size("x0") > 1:
        coded.append(("simulate.cloud", law.size("x0")))
    for where, q in coded:
        if q not in SUPPORTED_PRIMES:
            raise ConfigError(f"{where}: a coded alphabet needs a field size in "
                              f"{SUPPORTED_PRIMES}, not {q}")
    want = _rate_count(law)
    rates = _finite_vector(_need(block, "rates", "simulate"), want, "simulate.rates")
    eps = _finite_vector(_need(block, "eps", "simulate"), want, "simulate.eps")
    if any(e <= 0 for e in eps):
        raise ConfigError("simulate.eps: margins must be positive")
    ladder = _ladder(_need(block, "n_ladder", "simulate"), "simulate.n_ladder")
    factory, kind = _parse_ensemble_factory(block.get("ensemble", {}), "simulate.ensemble")
    if kind == BINNING:
        raise ConfigError(f"simulate.ensemble.kind: coset codes need a linear map, "
                          f"and {BINNING!r} is not linear")
    candidates = _count(block.get("candidates", 20), 1, "simulate.candidates")
    pilot = _count(block.get("pilot_trials", 100), 0, "simulate.pilot_trials")
    trials = _count(block.get("trials", 400), 1, "simulate.trials")
    where, the_seed = ("--seed", seed) if seed is not None else ("seed", config.get("seed", 0))
    the_seed = _count(the_seed, 0, where)
    if the_seed >= 2**64:  # a stream reads its seed modulo 2^64 (rng): it would alias another
        raise ConfigError(f"{where}: must be below 2**64")

    # Every finished row reaches --out, also when a later point stops the ladder.
    rows = []
    try:
        for n in ladder:
            builder = functools.partial(build, dmc, rates, eps, n, ensemble_factory=factory,
                                        check_region=not force)
            start = time.perf_counter()
            try:
                found = search_code(builder, candidates, pilot, the_seed, (scenario, n))
                result = simulate_error(found.code, trials, the_seed,
                                        (scenario, n, rng_mod.MEASURE, found.candidate))
            except InfeasibleRateError as e:
                print(f"n={n}: infeasible: {e}", file=sys.stderr)
                if not force:
                    print("hint: pass --force to run an out-of-region control", file=sys.stderr)
                return 1
            except LIMIT_ERRORS as e:
                raise type(e)(f"n={n}: {e}") from None
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
    finally:
        if out_path:
            _write_csv(out_path, SIMULATE_COLUMNS, rows)
    return 0


def cmd_verify(config: dict, suite: str | None) -> int:
    block = _object(config.get("verify", {}), "verify")
    name = suite or block.get("suite", "all")
    # A tuple, not SUITES itself: an unhashable name is unknown, not a TypeError.
    if name not in ("all", *SUITES):
        raise ConfigError(f"{'--suite' if suite else 'verify.suite'}: unknown suite {name!r}; "
                          f"choose from {sorted(SUITES)} or 'all'")
    reports = run_suite(name)
    failed = False
    for r in reports:
        status = "PASS" if r.ok else "FAIL"
        extra = f" vacuous={r.vacuous}" if r.vacuous else ""
        print(f"{status} {r.name}: cases={r.cases} violations={r.violations}{extra}")
        failed = failed or not r.ok
    return 1 if failed else 0


def cmd_ensemble_stats(config: dict, out_path: str | None) -> int:
    block = _section(config, "ensemble_stats")
    q = _count(block.get("field", 2), 2, "ensemble_stats.field")
    try:
        field = FieldSpec(q)
    except ValueError as e:
        raise ConfigError(f"ensemble_stats.field: {e}") from None
    ladder = _ladder(_need(block, "ladder", "ensemble_stats"), "ensemble_stats.ladder")
    # Every spec is built before any row prints, so a bad entry prints nothing.
    specs = []
    items = _items(_need(block, "ensembles", "ensemble_stats"), None, "ensemble_stats.ensembles")
    for i, item in enumerate(items):
        where = f"ensemble_stats.ensembles[{i}]"
        _need(_object(item, where), "kind", where)
        # simulate's factory, so a sparse degree is clamped to the rows alike.
        factory, kind = _parse_ensemble_factory(item, where)
        ratio = _number(item.get("rows_per_n", 0.5), f"{where}.rows_per_n")
        if ratio <= 0:
            raise ConfigError(f"{where}.rows_per_n: must be positive")
        for n in ladder:
            rows_n = max(1, round(ratio * n))
            try:
                specs.append((n, kind, factory(rows_n, n, field)))
            except ValueError as e:
                raise ConfigError(f"{where}: {e}") from None
    rows = []
    for n, kind, spec in specs:
        params = estimate_hash_params(spec)
        rows.append({
            "n": n, "kind": kind, "rows": spec.rows,
            "alpha": _fmt(params.alpha), "beta": _fmt(params.beta),
            "provenance": "exact", "half_width": "",
        })
        print(f"n={n} {kind}: alpha={params.alpha} beta={params.beta} (exact)")
    if out_path:
        _write_csv(out_path, STATS_COLUMNS, rows)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hashmac",
        description="Coset-code laboratory for multiple-access channels.",
        epilog="Region tests use strict inequalities: boundary rate points "
               "count as outside. Exit codes: 0 ok, 1 verification or "
               "feasibility failure, 2 configuration error or a run past an "
               "enumeration limit.")
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
        if not isinstance(out, (str, type(None))):
            # open() would take an int as a file descriptor.
            raise ConfigError("out: expected a file path")
        if out and args.command != "verify":
            _check_out(out)
        if args.command == "region":
            return cmd_region(config, out)
        if args.command == "simulate":
            if not args.config:
                raise ConfigError("simulate: --config is required")
            return cmd_simulate(config, args.seed, args.force, out)
        if args.command == "verify":
            return cmd_verify(config, args.suite)
        return cmd_ensemble_stats(config, out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except LIMIT_ERRORS as e:
        print(f"limit error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
