"""Probability mass functions over small finite alphabets, in bits."""

from __future__ import annotations

import numpy as np

SUM_TOL = 1e-12


def as_distribution(values, tol: float = SUM_TOL) -> np.ndarray:
    """A read-only float copy of values, each of whose last-axis rows is a distribution.

    A row is a distribution when its cells are finite and nonnegative and
    sum to 1 within tol; an empty row sums to 0.  Raises ValueError naming
    the first row that is not, or saying that values are not numbers.
    """
    try:
        p = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):  # a string, a ragged table, a huge int
        raise ValueError("not an array of numbers") from None
    if p.ndim == 0:
        raise ValueError("a distribution needs an axis")
    finite, nonneg, sums = np.isfinite(p).all(axis=-1), (p >= 0).all(axis=-1), p.sum(axis=-1)
    # Each test is written so that a NaN cell fails it.
    good = finite & nonneg & (np.abs(sums - 1.0) <= tol)
    if not good.all():
        at = tuple(int(j) for j in np.argwhere(~good)[0])
        what = "the values are" if not at else f"row {at[0] if len(at) == 1 else at} is"
        why = ("a cell is not finite" if not finite[at] else
               "a cell is negative" if not nonneg[at] else f"its cells sum to {float(sums[at])!r}")
        raise ValueError(f"{what} not a distribution: {why}")
    p.flags.writeable = False
    return p


class Pmf:
    """Distribution over an ordered finite alphabet."""

    __slots__ = ("alphabet", "probs")

    def __init__(self, alphabet, probs):
        self.alphabet = tuple(alphabet)
        self.probs = as_distribution(probs)
        if self.probs.shape != (len(self.alphabet),):
            raise ValueError("probs must be a 1-D array matching the alphabet")

    @property
    def size(self) -> int:
        return len(self.alphabet)

    def __repr__(self):
        return f"Pmf({self.alphabet}, {self.probs.tolist()})"


class CondPmf:
    """One output distribution per input symbol."""

    __slots__ = ("given_alphabet", "alphabet", "rows")

    def __init__(self, given_alphabet, alphabet, rows):
        self.given_alphabet = tuple(given_alphabet)
        self.alphabet = tuple(alphabet)
        self.rows = as_distribution(rows)
        if self.rows.shape != (len(self.given_alphabet), len(self.alphabet)):
            raise ValueError(f"rows shape {self.rows.shape} does not match alphabets")

    @property
    def given_size(self) -> int:
        return len(self.given_alphabet)

    @property
    def size(self) -> int:
        return len(self.alphabet)

    def __repr__(self):
        return f"CondPmf(given={self.given_alphabet}, alphabet={self.alphabet})"


def entropy(p: Pmf | np.ndarray) -> float:
    """Shannon entropy in bits; 0*log(1/0) is 0."""
    probs = p.probs if isinstance(p, Pmf) else np.asarray(p, dtype=float)
    nz = probs[probs > 0]
    return float(-(nz * np.log2(nz)).sum())
