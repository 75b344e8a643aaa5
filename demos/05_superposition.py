#!/usr/bin/env python3
"""Cloud-center coding for one common and two private messages.

The receiver sees both inputs noiselessly; the interesting part is the
shared cloud sequence: both encoders regenerate the same center from the
common message, condition their satellites on it, and the decoder
reconstructs all three sequences jointly.
"""

import numpy as np

from hashmac import rng as rng_mod
from hashmac.channel import deterministic_dmc, sample_channel
from hashmac.gf import apply_label
from hashmac.scenarios import (build_superposition_code, decode_components,
                               encode_components, search_code, simulate_error)

dmc = deterministic_dmc((2, 2), 4, lambda a, b: 2 * a + b)
mu0 = np.array([0.5, 0.5])
cond = np.array([[0.875, 0.125], [0.125, 0.875]])  # satellites track the cloud

seed = 20250811
builder = lambda rng: build_superposition_code(
    mu0, cond, cond, dmc, (0.125, 0.125, 0.125), (0.05, 0.05, 0.05), 8, rng)
found = search_code(builder, candidates=20, pilot_trials=100,
                    seed=seed, path=("demo-sw", 8))
code = found.code
print(f"rows: cloud {code.checks[0].rows}+{code.message_maps[0].rows}, "
      f"satellites {[c.rows for c in code.checks[1:]]}"
      f"+{[m.rows for m in code.message_maps[1:]]}")

rng = rng_mod.stream(seed, "demo-sw-roundtrip")
msgs = [rng.integers(0, 2, size=code.message_maps[i].rows) for i in range(3)]
x0, x1, x2 = encode_components(code, msgs)
print(f"common message {msgs[0].tolist()} -> cloud center {x0.tolist()}")
print(f"satellites: {x1.tolist()} / {x2.tolist()} "
      f"(agreement with cloud: {(x1 == x0).mean():.2f} / {(x2 == x0).mean():.2f})")
y = sample_channel(dmc, [x1, x2], rng)
got, xs_hat = decode_components(code, y)
print("decoded messages:", [g.tolist() for g in got])
print("round trip ok:", all((g == m).all() for g, m in zip(got, msgs)))
for i in range(3):
    assert (apply_label(code.message_maps[i], xs_hat[i]) == got[i]).all()

res = simulate_error(code, 200, seed, ("demo-sw", 8, rng_mod.MEASURE, found.candidate))
print(f"block error over 200 trials: {res.error:.4f} +/- {res.half_width:.4f}")
