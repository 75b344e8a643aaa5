"""One workload process: a set-up-only start, or one cold CLI call.

run.py starts this script in a fresh interpreter, with the BLAS thread
count already in its environment, and passes the job as one JSON argument.
A set-up-only job imports hashmac, loads and validates the config the way
`hashmac simulate` does, and prints when that ended plus the versions of
Python, numpy and BLAS.  A run job imports hashmac and makes one
`hashmac.cli.main` call with nothing done ahead of it, then prints the
call's exit code, wall time, CPU time, peak RSS, stdout and the number of
simulation trials it ran.
"""

import contextlib
import functools
import io
import json
import resource
import sys
import time
import traceback


def setup(job: dict) -> dict:
    import hashmac.cli as cli
    import hashmac.verify  # noqa: F401  (imported by `hashmac verify` too)
    if job["config"]:
        # The validation cmd_simulate does before any work starts.
        block = cli._load_config(job["config"])["simulate"]
        dmc = cli._parse_channel(block["channel"], "simulate.channel")
        cli._law_and_builder(block, dmc, "simulate")
    result = {"setup_done": time.perf_counter()}
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result.update(python=sys.version.split()[0], numpy=numpy.__version__,
                  blas=f"{blas.get('name')} {blas.get('version')}")
    return result


def count_trials(scenarios, counter: list) -> None:
    """Count the simulation trials that run, one per run_trial call."""
    run_trial = scenarios.run_trial

    @functools.wraps(run_trial)
    def counted(*args, **kwargs):
        out = run_trial(*args, **kwargs)
        counter[0] += 1
        return out

    scenarios.run_trial = counted


def run(job: dict) -> dict:
    import hashmac.cli as cli
    from hashmac import scenarios, verify
    if job["regions_split_points"]:
        verify.SUITES["regions"] = functools.partial(
            verify.regions_suite, split_points=job["regions_split_points"])
    trials = [0]
    count_trials(scenarios, trials)
    recorder = None
    if job["spans"]:
        import spans
        recorder = spans.Recorder(job["run_id"])
        recorder.install(verify.SUITES)

    captured = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            rc = cli.main(job["argv"])
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash fails this call's records, not the benchmark
        rc, error = None, traceback.format_exc()
    wall = time.perf_counter() - start

    if recorder is not None:
        recorder.uninstall()
        recorder.count_decode_candidates()
        recorder.dump(job["spans"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"rc": rc, "error": error, "wall": wall, "trials": trials[0],
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024,  # KiB on Linux
            "stdout": captured.getvalue()}


def main() -> int:
    job = json.loads(sys.argv[1])
    print(json.dumps(setup(job) if job["mode"] == "setup" else run(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
