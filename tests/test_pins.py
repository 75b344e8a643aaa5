"""Pinned outputs of the code paths that no benchmark digest covers.

Four codes are found by `search_code` at a fixed seed: a plain private code,
a time-sharing code with the inputs of demos/configs/simulate_time_sharing.json,
a cloud-center code and a one-point (degenerate) cloud on a noisy channel.
For each, the chosen candidate, the pilot scores, the realized rates, the
radius, a SHA-256 over the sampled matrices, syndromes and time-sharing
sequence, and the stage counts of a short simulation must equal the
recorded values.  The simulation is repeated at the largest radius, where
more failures get past the encoder check to the later stages.  Any change
to the construction, the encoder, the decoder or the stage classifier that
moves an output shows here.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from hashmac.channel import Dmc
from hashmac.scenarios import (build_private_code, build_superposition_code,
                               search_code, simulate_error)
from hashmac.slack import MAX_RADIUS

SEED = 20250811
CANDIDATES = 3
PILOT = 20
TRIALS = 100

FAIR = [np.array([[0.5, 0.5]])] * 2
SAT = np.array([[0.875, 0.125], [0.125, 0.875]])


def noisy(outputs, clean, p):
    """Deterministic map x1, x2 -> clean(x1, x2), moved to each other output with p."""
    t = np.full((2, 2, outputs), p)
    for a in range(2):
        for b in range(2):
            t[a, b, clean(a, b)] = 1 - (outputs - 1) * p
    return Dmc((2, 2), outputs, t)


ADDER = noisy(3, lambda a, b: a + b, 1 / 16)
PAIR = noisy(4, lambda a, b: 2 * a + b, 1 / 32)

BUILDERS = {
    "private": lambda rng: build_private_code(
        [1.0], FAIR, ADDER, (0.25, 0.25), (0.05, 0.05), 8, rng),
    "private-ts": lambda rng: build_private_code(
        [0.5, 0.5], [SAT, SAT], ADDER, (0.125, 0.125), (0.05, 0.05), 8, rng),
    "cloud": lambda rng: build_superposition_code(
        [0.5, 0.5], SAT, SAT, PAIR, (0.125, 0.125, 0.125), (0.05, 0.05, 0.05), 8, rng),
    "one-point-cloud": lambda rng: build_superposition_code(
        [1.0], SAT[:1], SAT[1:], ADDER, (0.0, 0.125, 0.125), (0.05, 0.05, 0.05), 8, rng),
}

PINS = {
    "private": {
        "candidate": 2, "pilot_scores": (0.7, 1.0, 0.35),
        "rates": (0.25, 0.25), "srates": (0.75, 0.75),
        "gamma": 0.005,
        "sha256": "85655ac90816556b6d463a1148ddb7fc43e334bc108e06710032c40ae080d7d5",
        "errors": 24,
        "stage_counts": {"encoder-atypical": 24, "empirical-mi": 0, "channel-atypical": 0,
                         "decoder-collision": 0, "empty-coset": 0},
        "wide_stage_counts": {"encoder-atypical": 8, "empirical-mi": 0, "channel-atypical": 16,
                              "decoder-collision": 0, "empty-coset": 0},
    },
    "private-ts": {
        "candidate": 1, "pilot_scores": (0.25, 0.15, 0.2),
        "rates": (0.125, 0.125), "srates": (0.375, 0.375),
        "gamma": 0.005,
        "sha256": "e47048be50e6ffc6a89213ec5a4962b435db7a5200a6e3f7682e36ff3680d6ae",
        "errors": 20,
        "stage_counts": {"encoder-atypical": 20, "empirical-mi": 0, "channel-atypical": 0,
                         "decoder-collision": 0, "empty-coset": 0},
        "wide_stage_counts": {"encoder-atypical": 20, "empirical-mi": 0, "channel-atypical": 0,
                              "decoder-collision": 0, "empty-coset": 0},
    },
    "cloud": {
        "candidate": 0, "pilot_scores": (0.2, 0.5, 0.6),
        "rates": (0.125, 0.125, 0.125), "srates": (0.875, 0.375, 0.375),
        "gamma": 0.005,
        "sha256": "83a2bb1476dcb7a4aea641924b51f4235e2c174c7a1ed0395e45db0e883e0b30",
        "errors": 33,
        "stage_counts": {"encoder-atypical": 33, "empirical-mi": 0, "channel-atypical": 0,
                         "decoder-collision": 0, "empty-coset": 0},
        "wide_stage_counts": {"encoder-atypical": 27, "empirical-mi": 0, "channel-atypical": 6,
                              "decoder-collision": 0, "empty-coset": 0},
    },
    "one-point-cloud": {
        "candidate": 2, "pilot_scores": (0.6, 0.25, 0.2),
        "rates": (0.0, 0.125, 0.125), "srates": (0.0, 0.375, 0.375),
        "gamma": 0.005,
        "sha256": "6e21055d40935408aa0a1a53a4445338ca3285a90df9829b5efb61acf7a449ad",
        "errors": 34,
        "stage_counts": {"encoder-atypical": 34, "empirical-mi": 0, "channel-atypical": 0,
                         "decoder-collision": 0, "empty-coset": 0},
        "wide_stage_counts": {"encoder-atypical": 0, "empirical-mi": 0, "channel-atypical": 34,
                              "decoder-collision": 0, "empty-coset": 0},
    },
}


def code_digest(code) -> str:
    h = hashlib.sha256()
    arrays = [lab.matrix for lab in code.checks]
    arrays += [lab.matrix for lab in code.message_maps]
    arrays += list(code.syndromes)
    if code.scenario == "private":
        arrays.append(code.u)  # the shared sequence drawn at build time
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def observe(name):
    found = search_code(BUILDERS[name], CANDIDATES, PILOT, SEED, ("pins", name))
    code = found.code
    res = simulate_error(code, TRIALS, SEED, ("pins", name, "measure"))
    wide = simulate_error(dataclasses.replace(code, gamma=MAX_RADIUS), TRIALS, SEED,
                          ("pins", name, "measure"))
    return {
        "candidate": found.candidate,
        "pilot_scores": found.pilot_scores,
        "rates": code.rates,
        "srates": code.srates,
        "gamma": code.gamma,
        "sha256": code_digest(code),
        "errors": res.errors,
        "stage_counts": res.stage_counts,
        "wide_stage_counts": wide.stage_counts,
    }


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_uncovered_paths_are_pinned(name):
    assert observe(name) == PINS[name]
