#!/usr/bin/env python3
"""Achievable-region membership and the rate-splitting search.

Builds the binary adder channel's region, queries a few points with
witnesses, then demonstrates moving a cloud-center rate triple into the
buildable set by reallocating private rate into the common message.
"""

import numpy as np

from hashmac.channel import deterministic_dmc
from hashmac.regions import (in_region_private, in_region_sw, joint_sw,
                             joint_ts, mutual_information, rate_split)

adder = deterministic_dmc((2, 2), 3, lambda a, b: a + b)
law = joint_ts([1.0], [np.full((1, 2), 0.5)] * 2, adder)

print("=== binary adder, uniform inputs ===")
print(f"I(X1;Y|X2)  = {mutual_information(law, ['x1'], ['y'], ['x2']):.6f}")
print(f"I(X1,X2;Y)  = {mutual_information(law, ['x1', 'x2'], ['y']):.6f}")
for point in ((0.25, 0.25), (0.5, 0.5), (0.74, 0.74), (1.0, 1.0)):
    v = in_region_private(point, law)
    print(f"R={point}: {'inside' if v.inside else 'outside: ' + v.witness}")

print("\n=== cloud-center region and rate splitting ===")
pair = deterministic_dmc((2, 2), 4, lambda a, b: 2 * a + b)
cond = np.array([[0.875, 0.125], [0.125, 0.875]])
sw_law = joint_sw(np.array([0.5, 0.5]), cond, cond, pair)
for point in ((0.125, 0.125, 0.125), (0.75, 0.0625, 0.0625)):
    base = in_region_sw(point, sw_law)
    aux = in_region_sw(point, sw_law, include_aux=True)
    print(f"R={point}: base {'in' if base.inside else 'out'}, "
          f"with auxiliary constraints {'in' if aux.inside else 'out'}"
          f"{'' if aux.inside else '  (' + aux.witness + ')'}")
    if base and not aux:
        # A common rate above the cloud-decodability bound: trade private
        # rate into the common message until every constraint holds.
        split = rate_split(point, sw_law)
        print(f"  split: build at {tuple(round(r, 6) for r in split.built)}; "
              f"the private codes carry {split.moved} bits/symbol of the common message")
        print(f"  inverse reproduces the target exactly: "
              f"{split.recombine() == point}")
