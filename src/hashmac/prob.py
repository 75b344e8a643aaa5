"""Probability mass functions over small finite alphabets, in bits."""

from __future__ import annotations

import numpy as np

SUM_TOL = 1e-12


class Pmf:
    """Distribution over an ordered finite alphabet."""

    __slots__ = ("alphabet", "probs", "_index")

    def __init__(self, alphabet, probs):
        self.alphabet = tuple(alphabet)
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size != len(self.alphabet):
            raise ValueError("probs must be a 1-D array matching the alphabet")
        if p.size == 0:
            raise ValueError("empty alphabet")
        if p.min() < 0:
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        p = p.copy()
        p.flags.writeable = False
        self.probs = p
        self._index = {s: i for i, s in enumerate(self.alphabet)}

    @classmethod
    def uniform(cls, alphabet) -> "Pmf":
        alphabet = tuple(alphabet)
        return cls(alphabet, np.full(len(alphabet), 1.0 / len(alphabet)))

    @property
    def size(self) -> int:
        return len(self.alphabet)

    def prob(self, symbol) -> float:
        return float(self.probs[self._index[symbol]])

    def __repr__(self):
        return f"Pmf({self.alphabet}, {self.probs.tolist()})"


class CondPmf:
    """One output distribution per input symbol."""

    __slots__ = ("given_alphabet", "alphabet", "rows", "_gindex")

    def __init__(self, given_alphabet, alphabet, rows):
        self.given_alphabet = tuple(given_alphabet)
        self.alphabet = tuple(alphabet)
        r = np.asarray(rows, dtype=float)
        if r.shape != (len(self.given_alphabet), len(self.alphabet)):
            raise ValueError(f"rows shape {r.shape} does not match alphabets")
        for i, row in enumerate(r):
            if row.min() < 0 or abs(row.sum() - 1.0) > SUM_TOL:
                raise ValueError(f"row {i} is not a distribution")
        r = r.copy()
        r.flags.writeable = False
        self.rows = r
        self._gindex = {s: i for i, s in enumerate(self.given_alphabet)}

    @property
    def given_size(self) -> int:
        return len(self.given_alphabet)

    @property
    def size(self) -> int:
        return len(self.alphabet)

    def row(self, given) -> Pmf:
        return Pmf(self.alphabet, self.rows[self._gindex[given]])

    def __repr__(self):
        return f"CondPmf(given={self.given_alphabet}, alphabet={self.alphabet})"


def entropy(p: Pmf | np.ndarray) -> float:
    """Shannon entropy in bits; 0*log(1/0) is 0."""
    probs = p.probs if isinstance(p, Pmf) else np.asarray(p, dtype=float)
    nz = probs[probs > 0]
    return float(-(nz * np.log2(nz)).sum())


def cond_entropy(cond: CondPmf, base: Pmf) -> float:
    """H(U|V) = sum_v p(v) H(U|V=v), in bits."""
    if cond.given_alphabet != base.alphabet:
        raise ValueError("conditioning alphabet mismatch")
    total = 0.0
    for i, pv in enumerate(base.probs):
        if pv > 0:
            total += pv * entropy(cond.rows[i])
    return total
