#!/usr/bin/env python3
"""Tour of the label families and their collision statistics.

Walks through sampling, exact pairwise collision probabilities, the
(alpha, beta) summary sweep, and the two bin-occupancy bounds checked
against exact event rates from full support enumeration.
"""

import numpy as np

from hashmac import rng as rng_mod
from hashmac.ensembles import (BINNING, EnsembleSpec, SPARSE, UNIFORM,
                               collision_prob, crp_bound, crp_rate_exact,
                               estimate_hash_params, sample, saturation_bound,
                               saturation_rate_exact)
from hashmac.gf import FieldSpec, all_vectors

f2 = FieldSpec(2)

print("=== sampling ===")
for kind, extra in ((UNIFORM, {}), (SPARSE, {"column_degree": 1}), (BINNING, {})):
    spec = EnsembleSpec(kind, 2, 3, f2, **extra)
    label = sample(spec, rng_mod.stream(1, kind))
    shape = label.matrix.shape if hasattr(label, "matrix") else label.table.shape
    print(f"{kind:>20}: sampled object with array shape {shape}")

print("\n=== pairwise collisions ===")
u, v = np.array([1, 0, 1]), np.array([0, 1, 1])
for kind, extra in ((UNIFORM, {}), (SPARSE, {"column_degree": 1}), (BINNING, {})):
    spec = EnsembleSpec(kind, 2, 3, f2, **extra)
    print(f"{kind:>20}: P[labels collide] = {collision_prob(spec, u, v):.6f} (exact)")

print("\n=== (alpha, beta) summaries ===")
specs = [
    (UNIFORM, EnsembleSpec(UNIFORM, 2, 3, f2)),
    (BINNING, EnsembleSpec(BINNING, 2, 3, f2)),
    ("sparse d=1, short", EnsembleSpec(SPARSE, 3, 6, f2, column_degree=1)),
    ("sparse d=2, longer", EnsembleSpec(SPARSE, 6, 12, f2, column_degree=2)),
]
for tag, spec in specs:
    p = estimate_hash_params(spec)
    print(f"{tag:>20}: alpha={p.alpha:.2f} beta={p.beta:.4f} [exact]")

print("\n=== saturation: every bin wants a typical member ===")
spec = EnsembleSpec(UNIFORM, 2, 4, f2)
space = all_vectors(2, 4)
T = space[space.sum(axis=1) == 2]  # the balanced sequences
rate = saturation_rate_exact(spec, T)
bound = saturation_bound(1.0, 0.0, spec.im_size, T.shape[0])
print(f"|T|={T.shape[0]}, bins={spec.im_size}: "
      f"exact empty-bin rate {rate:.4f} <= bound {bound:.4f}")

print("\n=== collision resistance: candidates want distinct bins ===")
G = space[:5]
rate = crp_rate_exact(spec, G, G[0])
bound = crp_bound(G.shape[0], spec.im_size, 1.0, 0.0)
print(f"|G|={G.shape[0]}, bins={spec.im_size}: "
      f"exact collision rate {rate:.4f} <= bound {bound:.4f}")
