"""Span recorder for the traced benchmark run, and the layer metrics it yields.

The recorder wraps public hashmac functions at each module that imports
them, so every call that crosses a layer boundary records one span: name,
start, end, parent span and run id.  Spans stay in memory until the run
ends.  Nothing inside the program is changed; the originals are put back
by `Recorder.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time

# (module whose global is replaced, attribute, span name).  A function is
# wrapped once per importing module, because a call resolves the name in
# the caller's module; the defining module is listed where it calls the
# function itself (rate_split, _subset_verdict and _sw_constraints).
SITES = (
    ("hashmac.cli", "search_code", "scenarios.search"),
    ("hashmac.cli", "build_private_code", "scenarios.build"),
    ("hashmac.cli", "build_superposition_code", "scenarios.build"),
    ("hashmac.cli", "simulate_error", "scenarios.measure"),
    ("hashmac.scenarios", "simulate_error", "scenarios.pilot"),
    ("hashmac.scenarios", "run_trial", "scenarios.trial"),
    ("hashmac.scenarios", "min_div_encode", "codec.encode"),
    ("hashmac.scenarios", "min_div_decode", "codec.decode"),
    ("hashmac.verify", "min_div_encode", "codec.encode"),
    ("hashmac.verify", "min_div_decode", "codec.decode"),
    ("hashmac.codec", "enumerate_coset", "gf.coset"),
    ("hashmac.codec", "apply_label", "gf.apply_label"),
    ("hashmac.scenarios", "apply_label", "gf.apply_label"),
    ("hashmac.scenarios", "sample_channel", "channel.sample"),
    ("hashmac.scenarios", "is_cond_typical", "empirical.typicality"),
    ("hashmac.scenarios", "divergence_to", "empirical.typicality"),
    ("hashmac.scenarios", "seq_mutual_multi", "empirical.typicality"),
    ("hashmac.scenarios", "sample", "ensembles.sample"),
    ("hashmac.scenarios", "estimate_hash_params", "ensembles.hash_params"),
    ("hashmac.verify", "estimate_hash_params", "ensembles.hash_params"),
    ("hashmac.verify", "saturation_rate_exact", "ensembles.exact_rates"),
    ("hashmac.verify", "crp_rate_exact", "ensembles.exact_rates"),
    ("hashmac.verify", "multi_crp_rate_exact", "ensembles.exact_rates"),
    ("hashmac.verify", "uniform_syndrome_hit_rate", "ensembles.exact_rates"),
    ("hashmac.verify", "ensemble_syndrome_hit_rate", "ensembles.exact_rates"),
    ("hashmac.scenarios", "in_region_ts", "regions.in_region"),
    ("hashmac.scenarios", "in_region_sw", "regions.in_region"),
    ("hashmac.verify", "in_region_private", "regions.in_region"),
    ("hashmac.verify", "in_region_sw", "regions.in_region"),
    ("hashmac.regions", "in_region_sw", "regions.in_region"),
    ("hashmac.regions", "mutual_information", "regions.mi"),
    ("hashmac.verify", "mutual_information", "regions.mi"),
    ("hashmac.verify", "rate_split", "regions.rate_split"),
)

# run_suite calls the suites through this table, so its entries are the
# import site of the verify layer.
SUITE_SPANS = {"types": "verify.types", "hash": "verify.hash",
               "codec": "verify.codec", "regions": "verify.regions"}


class Recorder:
    """In-memory spans of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.values: dict[int, float] = {}
        self._stack: list[int] = []
        self._decodes: list[tuple[int, tuple, tuple]] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(rec.names)
            rec.names.append(name)
            rec.parents.append(rec._stack[-1] if rec._stack else -1)
            rec.ends.append(0.0)
            rec._stack.append(i)
            rec.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec.ends[i] = time.perf_counter()
                rec._stack.pop()
                rec._note(name, i, args, None, exc)
                raise
            rec.ends[i] = time.perf_counter()
            rec._stack.pop()
            rec._note(name, i, args, out, None)
            return out

        return traced

    def _note(self, name, i, args, out, exc):
        # Runs after the span has ended, so its cost lands in the parent.
        if name == "gf.coset" and exc is None:
            self.values[i] = int(out.shape[0])
        elif name == "codec.encode":
            self.values[i] = float(type(exc).__name__ == "EmptyCosetError")
        elif name == "codec.decode":
            self._decodes.append((i, tuple(args[0]), tuple(args[1])))

    def install(self, suites: dict) -> None:
        for module, attr, name in SITES:
            mod = importlib.import_module(module)
            orig = getattr(mod, attr)
            self._restore.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(name, orig))
        for key, name in SUITE_SPANS.items():
            self._restore.append((suites, key, suites[key]))
            suites[key] = self.wrap(name, suites[key])

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._restore.clear()

    def count_decode_candidates(self) -> None:
        """Product-coset size of every decode call, via gf.coset_size.

        Called after the timed run, so the count costs the run nothing.
        """
        import numpy as np
        from hashmac.gf import coset_size
        sizes = {}
        for i, labels, syndromes in self._decodes:
            total = 1
            for label, a in zip(labels, syndromes):
                key = (id(label), np.asarray(a, dtype=np.int64).tobytes())
                if key not in sizes:
                    sizes[key] = coset_size(label, a)
                total *= sizes[key]
            self.values[i] = total
        self._decodes.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "names": self.names,
                       "starts": self.starts, "ends": self.ends,
                       "parents": self.parents,
                       "values": {str(k): v for k, v in self.values.items()}}, fh)


def _percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 when empty."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def layer_metrics(spans: dict) -> dict[str, float]:
    """Per-layer counts, busy times and self times from one run's spans.

    Self time is a span's duration minus the durations of its direct
    children; no span name nests inside itself, so busy time is the plain
    sum of durations.
    """
    names, parents = spans["names"], spans["parents"]
    dur = [e - s for s, e in zip(spans["starts"], spans["ends"])]
    values = {int(k): v for k, v in spans["values"].items()}
    child = [0.0] * len(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    by_name: dict[str, list[int]] = {}
    for i, nm in enumerate(names):
        by_name.setdefault(nm, []).append(i)

    def calls(nm):
        return len(by_name.get(nm, ()))

    def busy(nm):
        return sum(dur[i] for i in by_name.get(nm, ()))

    def self_s(nm):
        return sum(dur[i] - child[i] for i in by_name.get(nm, ()))

    def total(nm):
        return sum(values.get(i, 0) for i in by_name.get(nm, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    trials = by_name.get("scenarios.trial", [])
    trial_ms = sorted(dur[i] * 1e3 for i in trials)
    measured = sum(1 for i in trials
                   if parents[i] >= 0 and names[parents[i]] == "scenarios.measure")
    empty_cosets = sum(1 for i in by_name.get("gf.coset", ()) if values.get(i) == 0)
    return {
        "scenarios.search_s": busy("scenarios.search"),
        "scenarios.build_calls": calls("scenarios.build"),
        "scenarios.build_s": busy("scenarios.build"),
        "scenarios.measure_s": busy("scenarios.measure"),
        "scenarios.trials": len(trials),
        "scenarios.trial_p50_ms": _percentile(trial_ms, 0.50),
        "scenarios.trial_p99_ms": _percentile(trial_ms, 0.99),
        "scenarios.trial_self_s": self_s("scenarios.trial"),
        "scenarios.useful_trial_ratio": ratio(measured, len(trials)),
        "codec.encode_calls": calls("codec.encode"),
        "codec.encode_s": busy("codec.encode"),
        "codec.encode_self_s": self_s("codec.encode"),
        "codec.encode_empty_ratio": ratio(total("codec.encode"), calls("codec.encode")),
        "codec.decode_calls": calls("codec.decode"),
        "codec.decode_s": busy("codec.decode"),
        "codec.decode_self_s": self_s("codec.decode"),
        "codec.decode_candidates": total("codec.decode"),
        "codec.decode_cand_per_s": ratio(total("codec.decode"), busy("codec.decode")),
        "gf.coset_calls": calls("gf.coset"),
        "gf.coset_s": busy("gf.coset"),
        "gf.coset_members": total("gf.coset"),
        "gf.coset_empty_ratio": ratio(empty_cosets, calls("gf.coset")),
        "gf.apply_label_calls": calls("gf.apply_label"),
        "gf.apply_label_s": busy("gf.apply_label"),
        "channel.sample_calls": calls("channel.sample"),
        "channel.sample_s": busy("channel.sample"),
        "empirical.typicality_calls": calls("empirical.typicality"),
        "empirical.typicality_s": busy("empirical.typicality"),
        "ensembles.sample_s": busy("ensembles.sample"),
        "ensembles.hash_params_calls": calls("ensembles.hash_params"),
        "ensembles.hash_params_s": busy("ensembles.hash_params"),
        "ensembles.exact_rates_s": busy("ensembles.exact_rates"),
        "regions.in_region_calls": calls("regions.in_region"),
        "regions.in_region_s": busy("regions.in_region"),
        "regions.mi_calls": calls("regions.mi"),
        "regions.mi_s": busy("regions.mi"),
        "regions.rate_split_s": busy("regions.rate_split"),
        "verify.types_s": busy("verify.types"),
        "verify.hash_s": busy("verify.hash"),
        "verify.codec_s": busy("verify.codec"),
        "verify.regions_s": busy("verify.regions"),
    }
