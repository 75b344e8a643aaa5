"""Discrete memoryless multiple-access channels."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .prob import SUM_TOL


@dataclass(frozen=True)
class Dmc:
    """Conditional table over sender tuples; memoryless use is the n-fold product."""

    input_sizes: tuple[int, ...]
    output_size: int
    table: np.ndarray  # shape input_sizes + (output_size,)
    cdf: np.ndarray = field(init=False, repr=False, compare=False)  # cumsum over y

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        want = tuple(self.input_sizes) + (self.output_size,)
        if t.shape != want:
            raise ValueError(f"table shape {t.shape} != {want}")
        if t.min() < 0:
            raise ValueError("negative channel probability")
        sums = t.sum(axis=-1)
        if np.abs(sums - 1.0).max() > SUM_TOL:
            raise ValueError("channel rows must each sum to 1")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "table", t)
        cdf = np.cumsum(t, axis=-1)
        cdf.flags.writeable = False
        object.__setattr__(self, "cdf", cdf)
        object.__setattr__(self, "input_sizes", tuple(int(s) for s in self.input_sizes))

    @property
    def n_senders(self) -> int:
        return len(self.input_sizes)


def deterministic_dmc(input_sizes, output_size, fn) -> Dmc:
    """Noiseless channel y = fn(x_1, ..., x_k)."""
    import itertools
    table = np.zeros(tuple(input_sizes) + (output_size,))
    for xs in itertools.product(*(range(s) for s in input_sizes)):
        table[xs + (int(fn(*xs)),)] = 1.0
    return Dmc(tuple(input_sizes), output_size, table)


def sample_channel(dmc: Dmc, xs, rng: np.random.Generator) -> np.ndarray:
    """Draw y_i independently from the table row of (x_1i, ..., x_ki)."""
    xs = [np.asarray(x, dtype=np.int64) for x in xs]
    if len(xs) != dmc.n_senders:
        raise ValueError(f"expected {dmc.n_senders} input sequences")
    n = xs[0].size
    for j, x in enumerate(xs):
        if x.size != n:
            raise ValueError("input length mismatch")
        if x.size and (x.min() < 0 or x.max() >= dmc.input_sizes[j]):
            raise ValueError(f"sender {j} symbol outside its alphabet")
    cum = dmc.cdf[tuple(xs)]                 # (n, output_size)
    draws = rng.random(n)
    # Inverse CDF with the fixed symbol order of the table.
    return (draws[:, None] >= cum).sum(axis=1).astype(np.int64)
