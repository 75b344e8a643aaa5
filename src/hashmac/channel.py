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
    size_column: np.ndarray = field(init=False, repr=False, compare=False)  # uint64 input_sizes

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
        column = np.array(self.input_sizes, dtype=np.uint64)[:, None]
        column.flags.writeable = False
        object.__setattr__(self, "size_column", column)

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
    try:
        xs = np.asarray(xs, dtype=np.int64)
    except ValueError:  # sequences of different lengths
        raise ValueError("input length mismatch") from None
    if xs.ndim != 2 or xs.shape[0] != dmc.n_senders:
        raise ValueError(f"expected {dmc.n_senders} input sequences")
    # A negative symbol reads as a huge unsigned one, so one comparison
    # against each sender's alphabet size checks both ends.
    bad = xs.view(np.uint64) >= dmc.size_column
    if bad.any():
        j = int(np.flatnonzero(bad.any(axis=1))[0])
        raise ValueError(f"sender {j} symbol outside its alphabet")
    cum = dmc.cdf[tuple(xs)]                 # (n, output_size)
    draws = rng.random(xs.shape[1])
    # Inverse CDF with the fixed symbol order of the table.
    return (draws[:, None] >= cum).sum(axis=1)
