"""Discrete memoryless multiple-access channels."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .prob import as_distribution


@dataclass(frozen=True)
class Dmc:
    """Conditional table over sender tuples; memoryless use is the n-fold product."""

    input_sizes: tuple[int, ...]
    output_size: int
    table: np.ndarray  # shape input_sizes + (output_size,)
    # CDF over y of each sender tuple, one read-only row per combined
    # symbol index (the tuple read in base input_sizes, first sender most
    # significant).
    cdf: np.ndarray = field(init=False, repr=False, compare=False)
    strides: np.ndarray = field(init=False, repr=False, compare=False)  # combined-index weights
    size_column: np.ndarray = field(init=False, repr=False, compare=False)  # uint64 input_sizes

    def __post_init__(self):
        t = as_distribution(self.table)
        want = tuple(self.input_sizes) + (self.output_size,)
        if t.shape != want:
            raise ValueError(f"table shape {t.shape} != {want}")
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
    table = np.zeros(tuple(input_sizes) + (output_size,))
    for xs in itertools.product(*(range(s) for s in input_sizes)):
        table[xs + (int(fn(*xs)),)] = 1.0
    return Dmc(tuple(input_sizes), output_size, table)


def sample_channel(dmc: Dmc, xs, rng) -> np.ndarray:
    """Draw y_i independently from the table row of (x_1i, ..., x_ki).

    rng is an `rng.Stream` or anything else with its `random`, such as a numpy Generator.
    """
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
    return inverse_cdf(dmc, dmc.strides @ xs, rng.random(xs.shape[1]))


def inverse_cdf(dmc: Dmc, cells: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The output symbol of each uniform, drawn from the CDF row of its combined symbol index.

    The symbol is the count of the row's entries at or under the uniform,
    which on a non-decreasing row is `bisect_right`: the inverse CDF with
    the fixed symbol order of the table.  cells and uniforms have the same
    shape, and so has the result.
    """
    return np.add.reduce(dmc.cdf[cells] <= uniforms[..., None], axis=-1, dtype=np.int64)
