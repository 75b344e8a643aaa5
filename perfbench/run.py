"""hashmac benchmark: the CLI timed end to end, or layer by layer with --trace 1.

    python3 perfbench/run.py --workload trend --seed 20250811 --seconds 50 --trace 0

Run it from the repository root.  Every call of the program is one fresh
process (worker.py) making one closed-loop `hashmac.cli.main` call, so the
timed path is the one a user pays for.  Set-up is timed apart, in
set-up-only processes started between the calls.  The run repeats calls
until --seconds have passed and reports medians.  With --trace 1 it alternates
untraced and traced calls and reports the per-layer metrics instead.
Every call's non-timing output is digested and checked; see README.md for
the workloads, the metrics and the pinned digests.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; metric names and units are those of
BENCHMARK.json.  --workload all runs every workload in turn, `control`
included, and prefixes each metric with its workload name.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

from spans import layer_metrics  # noqa: E402

DEFAULT_SEED = 20250811
# One BLAS thread: no more than nproc anywhere, and measured faster on the
# pair-scan decoder of `control` than two threads on a 2-vCPU machine.
BLAS_THREADS = 1
# Set-up-only starts: a few before every round of calls, so they sample
# the whole run, topped up to SETUP_SAMPLES at its end.
SETUPS_PER_ROUND = 4
SETUP_SAMPLES = 24
# A run must end within 180 s: no call may start, or run, past this.
DEADLINE_S = 170.0
# `verify --suite all` as shipped takes 65 to 87 s on 2 vCPUs; its regions
# suite, at 100 rate-split points, is most of that.  This many points keeps one call
# near 20 s while regions stays the largest suite.
REGIONS_SPLIT_POINTS = 25

WORKLOADS = {
    "trend": (["simulate"], "trend.json"),
    "superposition": (["simulate"], "superposition.json"),
    "control": (["simulate", "--force"], "control.json"),
    "verify": (["verify", "--suite", "all"], None),
}


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def spawn(job: dict, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; returns its report plus t0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": "timed out", "t0": t0}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"rc": None, "error": proc.stderr[-2000:], "t0": t0}
    try:
        report = json.loads(lines[-1])
    except ValueError:
        return {"rc": None, "error": proc.stdout[-2000:], "t0": t0}
    report["t0"] = t0
    if report.get("rc", 0) != 0 and not report.get("error"):
        report["error"] = proc.stderr[-2000:]
    return report


def records(workload: str, report: dict, out_csv: Path) -> list[tuple[str, bool]]:
    """(text, property holds) for each output record of one call.

    A simulate record is one CSV row with the wall_time_s column removed,
    prefixed by the header so a schema change fails every row.  A verify
    record is one PASS/FAIL line.
    """
    if workload == "verify":
        return [(line, line.startswith("PASS "))
                for line in report["stdout"].splitlines()
                if line.startswith(("PASS ", "FAIL "))]
    if not out_csv.is_file():
        return []
    with open(out_csv, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for row in rows:
        row.pop("wall_time_s", None)
        text = ",".join(row) + "\n" + ",".join(row.values())
        # Rates far outside the region: the decoder must fail nearly always.
        holds = workload != "control" or float(row["block_error"]) > 0.9
        out.append((text, holds))
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def judge(calls: list[dict], pinned: list[str] | None) -> tuple[int, int]:
    """(records attempted, records failed) over every call of the run.

    A record fails on a nonzero exit code or a crash of its call, a digest
    that differs from the pinned one (or, for an unpinned seed, from the
    first call of this run), or a broken property.
    """
    reference = pinned
    if reference is None:
        reference = next((c["digests"] for c in calls if c["digests"] is not None), [])
    attempted = failed = 0
    for c in calls:
        n = max(len(reference), len(c["digests"] or ()), 1)
        attempted += n
        if c["digests"] is None:
            failed += n
            continue
        for k in range(n):
            ok = (k < len(c["digests"]) and k < len(reference)
                  and c["digests"][k] == reference[k] and c["holds"][k])
            failed += not ok
    return attempted, failed


def machine_context(seed: int, setup_report: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": setup_report.get("python"),
        "numpy": setup_report.get("numpy"),
        "blas": setup_report.get("blas"),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (summary lines, attempted, failed, metrics).

    A workload whose calls all crash still returns: its records count as
    failed and it reports no metrics.
    """
    RESULTS.mkdir(exist_ok=True)
    argv, config_name = WORKLOADS[workload]
    config_path = str(BENCH / "configs" / config_name) if config_name else None
    out_csv = RESULTS / f"{workload}-{seed}.csv"
    tag = f"{workload}-{seed}-trace{int(trace)}"
    job = {"mode": "run", "config": config_path, "spans": None, "run_id": None,
           "argv": argv + ["--seed", str(seed)]
                   + (["--config", config_path, "--out", str(out_csv)] if config_name else []),
           "regions_split_points": REGIONS_SPLIT_POINTS if workload == "verify" else None}
    start = time.perf_counter()
    deadline = start + DEADLINE_S

    setups, calls = [], []

    def take_setups(count: int) -> None:
        for _ in range(count):
            if time.perf_counter() >= deadline - 2:
                return
            setups.append(spawn(dict(job, mode="setup"), deadline))

    while True:
        round_start = time.perf_counter()
        take_setups(SETUPS_PER_ROUND)
        for traced in ((False, True) if trace else (False,)):
            k = len(calls)
            spans_path = RESULTS / f"{tag}-{k}.spans.json" if traced else None
            out_csv.unlink(missing_ok=True)
            report = spawn(dict(job, spans=str(spans_path) if traced else None,
                                run_id=f"{tag}-{k}"), deadline)
            report["traced"] = traced
            report["digests"] = report["holds"] = None
            if report["rc"] == 0 and traced:
                try:
                    with open(spans_path, encoding="utf-8") as fh:
                        report["layers"] = layer_metrics(json.load(fh))
                except (OSError, ValueError) as exc:
                    report.update(rc=None, error=f"spans unreadable: {exc!r}")
            if report["rc"] == 0:
                try:
                    recs = records(workload, report, out_csv)
                except (csv.Error, KeyError, TypeError, ValueError) as exc:
                    report.update(rc=None, error=f"output unreadable: {exc!r}")
            if report["rc"] == 0:
                report["digests"] = [digest(t) for t, _ in recs]
                report["holds"] = [h for _, h in recs]
                # simulate: trials that ran; verify: lemma cases checked.
                report["work"] = (report["trials"] if config_name else
                                  sum(int(m) for m in re.findall(r"cases=(\d+)",
                                                                 report["stdout"])))
            calls.append(report)
        # Start another round only if half of it fits in --seconds and all
        # of it before the deadline.
        now = time.perf_counter()
        last = now - round_start
        if now - start + last / 2 >= seconds or now + last >= deadline:
            break
    take_setups(SETUP_SAMPLES - len(setups))

    # verify has no seeded input, so its default-seed digests pin every seed.
    pin_seed = seed if config_name else DEFAULT_SEED
    pinned = json.loads((BENCH / "digests.json").read_text()).get(workload, {}).get(str(pin_seed))
    attempted, failed = judge(calls, pinned)
    # A set-up-only start that fails is one failed record.
    good_setups = [s for s in setups if "setup_done" in s]
    attempted += len(setups) - len(good_setups)
    failed += len(setups) - len(good_setups)
    plain = [c for c in calls if not c["traced"] and c["rc"] == 0]
    traced = [c for c in calls if c["traced"] and c["rc"] == 0]

    metrics = {}
    if trace and plain and traced:
        wall = statistics.median(c["wall"] for c in plain)
        metrics = {name: statistics.median(c["layers"][name] for c in traced)
                   for name in traced[0]["layers"]}
        metrics["proc.cpu_s"] = statistics.median(c["cpu"] for c in plain)
        metrics["proc.blas_threads"] = BLAS_THREADS
        metrics["trace.overhead_s"] = statistics.median(c["wall"] for c in traced) - wall
    elif not trace and plain and good_setups:
        metrics = {
            "wall_s": statistics.median(c["wall"] for c in plain),
            "trials_per_s": statistics.median(c["work"] / c["wall"] for c in plain),
            "setup_s": statistics.median(s["setup_done"] - s["t0"] for s in good_setups),
            "peak_rss_mb": statistics.median(c["maxrss_mb"] for c in plain),
        }

    units = metric_units()
    context = machine_context(seed, good_setups[0] if good_setups else {})
    lines = [f"{workload}: seed {seed}, {len(plain)} untraced and {len(traced)} traced "
             f"calls, {len(good_setups)} set-ups",
             "  context: " + ", ".join(f"{k} {v}" for k, v in context.items() if k != "seed")]
    lines += [f"  {name:30s} {value:.6g} {units[name]}" for name, value in metrics.items()]
    lines.append(f"  {'fail_ratio':30s} {failed / attempted:.6g} "
                 f"({failed} of {attempted} records)")
    if metrics:
        lines.append(f"  digests {'pinned' if pinned else 'not pinned'}: "
                     + " ".join(d[:16] for d in plain[0]["digests"]))
    else:
        errors = [c.get("error") for c in calls + setups if c.get("error")]
        lines.append(f"  no metrics: no call succeeded; last error:\n"
                     f"{errors[-1] if errors else 'none reported'}")
    result = {"workload": workload, "trace": trace, "context": context,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "calls": [{k: c.get(k) for k in ("traced", "rc", "error", "wall", "cpu",
                                               "maxrss_mb", "work", "digests")}
                        for c in calls],
              "setup_s": [s["setup_done"] - s["t0"] for s in good_setups]}
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=1))
    return lines, attempted, failed, result["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hashmac" / "cli.py").is_file():
        print(f"no hashmac sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        lines, a, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        attempted += a
        failed += f
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
