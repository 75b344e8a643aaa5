"""Empirical distributions of sequences, typicality tests, and type classes."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .prob import CondPmf, Pmf, entropy


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


def joint_empirical(seqs, alphabets) -> EmpiricalType:
    """Joint frequencies of parallel sequences, over the product alphabet."""
    seqs = tuple(seqs)
    alphabets = tuple(tuple(a) for a in alphabets)
    if len(seqs) != len(alphabets):
        raise ValueError("one alphabet per sequence required")
    lengths = {len(s) for s in seqs}
    if len(lengths) != 1:
        raise ValueError("length mismatch between parallel sequences")
    idxs = [_index_seq(s, a) for s, a in zip(seqs, alphabets)]
    sizes = tuple(len(a) for a in alphabets)
    flat = np.ravel_multi_index(tuple(idxs), sizes)
    counts = np.bincount(flat, minlength=int(np.prod(sizes)))
    product_alphabet = tuple(itertools.product(*alphabets))
    return EmpiricalType(product_alphabet, counts)


def joint_counts(seqs, sizes) -> np.ndarray:
    """Joint counts of parallel index sequences as an array shaped `sizes`."""
    idxs = [np.asarray(s, dtype=np.int64) for s in seqs]
    flat = np.ravel_multi_index(tuple(idxs), tuple(sizes))
    return np.bincount(flat, minlength=int(np.prod(sizes))).reshape(tuple(sizes))


def cond_empirical(u, v, u_alphabet, v_alphabet) -> CondPmf:
    """Empirical conditional of u given v; rows for unseen v are absent."""
    u_alphabet, v_alphabet = tuple(u_alphabet), tuple(v_alphabet)
    ui = _index_seq(u, u_alphabet)
    vi = _index_seq(v, v_alphabet)
    if ui.size != vi.size:
        raise ValueError("length mismatch")
    c = joint_counts((vi, ui), (len(v_alphabet), len(u_alphabet))).astype(float)
    totals = c.sum(axis=1)
    present = totals > 0
    rows = np.zeros_like(c)
    rows[present] = c[present] / totals[present, None]
    return CondPmf(v_alphabet, u_alphabet, rows, present)


def _entropy_counts(counts: np.ndarray, n: int) -> np.ndarray:
    """Entropy in bits of each count row (last axis) of n symbols; empty cells add 0."""
    term = np.where(counts > 0, counts * np.log2(np.maximum(counts, 1)), 0.0)
    return math.log2(n) - term.sum(axis=-1) / n


def _hashable(sym):
    if isinstance(sym, np.ndarray):
        return tuple(sym.tolist())
    if isinstance(sym, list):
        return tuple(sym)
    return sym


def seq_entropy(u, alphabet=None) -> float:
    """Entropy of the empirical distribution of u, in bits."""
    if alphabet is None:
        tally = Counter(_hashable(s) for s in u)
        counts = np.fromiter(tally.values(), dtype=np.int64)
        if counts.size == 0:
            raise ValueError("empty sequence")
    else:
        counts = empirical(u, alphabet).counts
    return float(_entropy_counts(counts, int(counts.sum())))


def seq_cond_entropy(u, v) -> float:
    """Empirical conditional entropy H(u|v), in bits."""
    u = list(u)
    v = list(v)
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return seq_entropy(list(zip(u, v))) - seq_entropy(v)


def seq_mutual_multi(xs, u) -> float:
    """Empirical multi-information of parallel sequences given u, in bits.

    Sum over j of H(x_j|u) minus H of the whole tuple given u; nonnegative.
    """
    xs = [list(x) for x in xs]
    u = list(u)
    total = sum(seq_cond_entropy(x, u) for x in xs)
    joint = list(zip(*xs))
    return total - seq_cond_entropy(joint, u)


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
    seen = u_counts > 0
    if not mu_cond.present[seen].all():
        b = np.flatnonzero(seen & ~mu_cond.present)[0]
        raise ValueError(f"model row absent for seen symbol {mu_cond.given_alphabet[b]!r}")
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


def cond_divergence_to(u, v, mu_cond: CondPmf) -> float:
    """Conditional divergence of nu_{u|v} from mu, weighted by nu_v, in bits."""
    ui = _index_seq(u, mu_cond.alphabet)
    vi = _index_seq(v, mu_cond.given_alphabet)
    if ui.size != vi.size:
        raise ValueError("length mismatch")
    if ui.size == 0:
        raise ValueError("empty sequence")
    return float(conditional_divergences(ui[None, :], mu_cond, vi)[0])


def is_typical(u, mu: Pmf, gamma: float) -> bool:
    """Strict membership in the divergence ball of radius gamma around mu."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return divergence_to(u, mu) < gamma


def is_cond_typical(u, v, mu_cond: CondPmf, gamma: float) -> bool:
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return cond_divergence_to(u, v, mu_cond) < gamma


def enumerate_types(n: int, alphabet, budget: int = 1 << 24) -> list[EmpiricalType]:
    """All length-n types over the alphabet (compositions of n)."""
    alphabet = tuple(alphabet)
    m = len(alphabet)
    if (n + 1) ** m > budget:
        raise ValueError(f"({n}+1)^{m} type candidates exceed the budget of {budget}")
    out = []
    for cuts in itertools.combinations(range(n + m - 1), m - 1):
        counts = np.diff((-1,) + cuts + (n + m - 1,)) - 1
        out.append(EmpiricalType(alphabet, counts))
    return out


def type_class_size(t: EmpiricalType) -> int:
    """Number of sequences sharing the type: the multinomial coefficient."""
    size = math.factorial(t.n)
    for c in t.counts:
        size //= math.factorial(int(c))
    return size
