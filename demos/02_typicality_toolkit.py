#!/usr/bin/env python3
"""Method-of-types toolkit in action, plus the exhaustive lemma checks.

Shows empirical distributions, divergence-ball typicality, type-class
counting, the finite-blocklength slack terms, and finishes by running the
full exhaustive verification suite for this part of the library.
"""

import numpy as np

from hashmac.empirical import (divergence_to, empirical, enumerate_types,
                               is_typical, type_class_size)
from hashmac.prob import Pmf
from hashmac.slack import entropy_slack, type_count_penalty, typical_size_slack
from hashmac.verify import types_suite

mu = Pmf((0, 1), [0.75, 0.25])
print("=== empirical distributions and typicality ===")
for seq in ([0, 0, 0, 1], [0, 1, 0, 1], [1, 1, 1, 1]):
    t = empirical(seq, (0, 1))
    d = divergence_to(seq, mu)
    flag = "typical " if is_typical(seq, mu, 0.05) else "atypical"
    print(f"{seq} -> freqs {t.freqs.tolist()}, divergence {d:.4f} bits [{flag} at 0.05]")

print("\n=== type classes at n=8 ===")
total = 0
for counts in enumerate_types(8, (0, 1)):
    size = type_class_size(counts)
    total += size
    print(f"counts {counts.tolist()}: {size} sequences")
print(f"total {total} = 2^8 = {2**8}")

print("\n=== slack terms (bits) ===")
for n in (8, 64, 4096):
    lam = type_count_penalty(n, 2)
    print(f"n={n:>5}: type-count penalty {lam:.4f}, "
          f"size slack at radius 0.05: {typical_size_slack(0.05, n, 2):.4f} "
          f"(entropy part {entropy_slack(0.05, 2):.4f})")

print("\n=== exhaustive lemma checks (binary, n in 4..10) ===")
for r in types_suite():
    extra = f" vacuous={r.vacuous}" if r.vacuous else ""
    print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: "
          f"cases={r.cases} violations={r.violations}{extra}")
