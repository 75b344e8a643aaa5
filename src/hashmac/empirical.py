"""Empirical distributions of sequences, typicality tests, and type classes."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import gf
from .prob import CondPmf, Pmf


@dataclass(frozen=True)
class EmpiricalType:
    """Symbol counts of a length-n sequence over a fixed alphabet."""

    alphabet: tuple
    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 1 or c.size != len(self.alphabet):
            raise ValueError("counts must match the alphabet")
        if c.size and c.min() < 0:
            raise ValueError("negative count")
        if int(c.sum()) <= 0:
            raise ValueError("empty sequence")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def freqs(self) -> np.ndarray:
        return self.counts / self.n


def _index_seq(seq, alphabet: tuple) -> np.ndarray:
    idx = {s: i for i, s in enumerate(alphabet)}
    try:
        return np.array([idx[s] for s in seq], dtype=np.int64)
    except KeyError as e:
        raise ValueError(f"symbol {e.args[0]!r} outside alphabet {alphabet}") from None


def empirical(seq, alphabet) -> EmpiricalType:
    """Symbol frequencies of a nonempty sequence."""
    alphabet = tuple(alphabet)
    ix = _index_seq(seq, alphabet)
    if ix.size == 0:
        raise ValueError("empty sequence")
    return EmpiricalType(alphabet, np.bincount(ix, minlength=len(alphabet)))


def joint_counts(seqs, sizes) -> np.ndarray:
    """Joint counts of parallel index sequences as an array shaped `sizes`."""
    idxs = [np.asarray(s, dtype=np.int64) for s in seqs]
    flat = np.ravel_multi_index(tuple(idxs), tuple(sizes))
    return np.bincount(flat, minlength=int(np.prod(sizes))).reshape(tuple(sizes))


def _entropy_counts(counts: np.ndarray, n: int) -> np.ndarray:
    """Entropy in bits of each count row (last axis) of n symbols; empty cells add 0."""
    term = np.where(counts > 0, counts * np.log2(np.maximum(counts, 1)), 0.0)
    return math.log2(n) - term.sum(axis=-1) / n


def _tally_entropy(seq) -> float:
    """Entropy in bits of the empirical distribution of a nonempty sequence of hashables."""
    counts = np.fromiter(Counter(seq).values(), dtype=np.int64)
    if counts.size == 0:
        raise ValueError("empty sequence")
    return float(_entropy_counts(counts, int(counts.sum())))


def seq_mutual_multi(xs, u) -> float:
    """Empirical multi-information of parallel sequences given u, in bits.

    Sum over j of H(x_j|u) minus H of the whole tuple given u; nonnegative.
    Each conditional entropy is H(x, u) - H(u), counted from the symbols.
    """
    xs = [list(x) for x in xs]
    u = list(u)
    if any(len(x) != len(u) for x in xs):
        raise ValueError("length mismatch")
    h_u = _tally_entropy(u)
    total = sum(_tally_entropy(zip(x, u)) - h_u for x in xs)
    return total - (_tally_entropy(zip(zip(*xs), u)) - h_u)


def _count_symbols(cands: np.ndarray, n_symbols: int) -> np.ndarray:
    """Per-candidate symbol counts; cands is (m, n) with entries < n_symbols."""
    m = cands.shape[0]
    flat = np.arange(0, m * n_symbols, n_symbols, dtype=np.int64)[:, None] + cands
    return np.bincount(flat.ravel(), minlength=m * n_symbols).reshape(m, n_symbols)


def _log2_denom(denom: np.ndarray) -> np.ndarray:
    """log2 of the model's expected counts, -inf at cells of zero mass."""
    return np.log2(denom, out=np.full(denom.shape, -np.inf), where=denom > 0)


def _divergence_from_counts(counts: np.ndarray, log_denom: np.ndarray, n: int) -> np.ndarray:
    """(1/n) sum_cells c*(log2 c - log_denom); log_denom is -inf at zero cells.

    log_denom broadcasts against counts, whose last axis runs over cells.
    An empty cell adds 0, also where the model has no mass.
    """
    term = np.log2(np.maximum(counts, 1))
    term -= log_denom
    term[counts == 0] = 0.0
    term *= counts
    return term.sum(axis=-1) / n


def conditional_divergences(cands: np.ndarray, mu_cond: CondPmf, u: np.ndarray) -> np.ndarray:
    """D(nu_{x|u} || mu | nu_u) for each candidate row."""
    n = cands.shape[1]
    if u.shape != (n,):
        raise ValueError("conditioning sequence length mismatch")
    mv, mx = mu_cond.given_size, mu_cond.size
    u_counts = np.bincount(u, minlength=mv)
    # Joint cell (b, a) for each position, then the shared counting path.
    counts = _count_symbols(u[None, :] * mx + cands, mv * mx)
    log_denom = _log2_denom(u_counts[:, None] * mu_cond.rows)
    return _divergence_from_counts(counts, log_denom.ravel()[None, :], n)


def count_divergence(counts: np.ndarray, rows: np.ndarray) -> float:
    """D(nu_{x|b} || rows | nu_b) in bits, from joint counts [..., b, x].

    Every axis but the last is part of the conditioning cell b, and rows
    broadcasts against counts: a model row per cell, or one per trailing
    part of it.  The cells are summed in the order conditional_divergences
    uses, so the two agree bit for bit.
    """
    log_denom = _log2_denom(counts.sum(axis=-1, keepdims=True) * rows)
    return float(_divergence_from_counts(counts.ravel(), log_denom.ravel(), int(counts.sum())))


def divergence_to(u, mu: Pmf) -> float:
    """D(nu_u || mu) of a sequence's empirical distribution, in bits."""
    ix = _index_seq(u, mu.alphabet)
    if ix.size == 0:
        raise ValueError("empty sequence")
    one = CondPmf((0,), mu.alphabet, mu.probs[None, :])
    return float(conditional_divergences(ix[None, :], one, np.zeros_like(ix))[0])


def is_cond_typical(u, v, mu_cond: CondPmf, gamma: float) -> bool:
    """Strict membership of nu_{u|v} in the conditional divergence ball of radius gamma.

    The divergence from mu_cond is weighted by nu_v.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    ui = _index_seq(u, mu_cond.alphabet)
    vi = _index_seq(v, mu_cond.given_alphabet)
    if ui.size != vi.size:
        raise ValueError("length mismatch")
    if ui.size == 0:
        raise ValueError("empty sequence")
    return float(conditional_divergences(ui[None, :], mu_cond, vi)[0]) < gamma


def is_typical(u, mu: Pmf, gamma: float) -> bool:
    """Strict membership in the divergence ball of radius gamma around mu."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return divergence_to(u, mu) < gamma


def enumerate_types(n: int, alphabet) -> np.ndarray:
    """All length-n types over the alphabet (compositions of n), one count row each.

    A (types, m) int64 array for m symbols, rows in lex order.  There are
    C(n+m-1, m-1) types; past gf.ENUMERATION_BUDGET the call raises
    before it builds any.
    """
    m = len(tuple(alphabet))
    count = math.comb(n + m - 1, m - 1)
    if count > gf.ENUMERATION_BUDGET:
        raise gf.EnumerationBudgetError(
            f"{count} types of length {n} over {m} symbols exceed the budget of "
            f"{gf.ENUMERATION_BUDGET}")
    # The m - 1 bar positions among n + m - 1 slots; a count is the gap between bars.
    cuts = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n + m - 1), m - 1)),
        dtype=np.int64, count=count * (m - 1)).reshape(count, m - 1)
    return np.diff(cuts, axis=1, prepend=-1, append=n + m - 1) - 1


def type_class_size(counts) -> int:
    """Number of sequences with the given symbol counts: the multinomial coefficient."""
    counts = [int(c) for c in counts]
    size = math.factorial(sum(counts))
    for c in counts:
        size //= math.factorial(c)
    return size
