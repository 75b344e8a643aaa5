"""Discrete memoryless multiple-access channels."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .prob import SUM_TOL


@dataclass(frozen=True)
class Dmc:
    """Conditional table over sender tuples; memoryless use is the n-fold product."""

    input_sizes: tuple[int, ...]
    output_size: int
    table: np.ndarray  # shape input_sizes + (output_size,)
    # CDF over y of each sender tuple, one row per combined symbol index
    # (the tuple read in base input_sizes, first sender most significant).
    cdf: np.ndarray = field(init=False, repr=False, compare=False)
    cdf_rows: tuple = field(init=False, repr=False, compare=False)  # cdf as Python floats
    strides: np.ndarray = field(init=False, repr=False, compare=False)  # combined-index weights
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
        object.__setattr__(self, "input_sizes", tuple(int(s) for s in self.input_sizes))
        rows = t.reshape(-1, self.output_size)
        # A row may sum just under 1, so its cumulative sum is set to exactly
        # 1 from its last positive cell on: a uniform in [0, 1) then always
        # lands on a symbol of positive mass.  Partial sums past 1 are
        # clipped first, so the row stays non-decreasing; no uniform
        # reaches 1, so clipping moves no draw.
        cdf = np.minimum(np.cumsum(rows, axis=-1), 1.0)
        last = rows.shape[1] - 1 - np.argmax(rows[:, ::-1] > 0, axis=1)
        cdf[np.arange(rows.shape[1]) >= last[:, None]] = 1.0
        cdf.flags.writeable = False
        object.__setattr__(self, "cdf", cdf)
        object.__setattr__(self, "cdf_rows", tuple(map(tuple, cdf.tolist())))
        strides = np.array([math.prod(self.input_sizes[j + 1:])
                            for j in range(len(self.input_sizes))], dtype=np.int64)
        strides.flags.writeable = False
        object.__setattr__(self, "strides", strides)
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
    cum = dmc.cdf[dmc.strides @ xs]          # (n, output_size)
    draws = rng.random(xs.shape[1])
    # Inverse CDF with the fixed symbol order of the table.
    return np.add.reduce(draws[:, None] >= cum, axis=1, dtype=np.int64)
