"""Minimum-divergence encoding into cosets and joint decoding over products.

Both operations are exact searches (the decoder skips only candidates a
lower bound rules out) with a deterministic total order: float divergences
first, candidates within relative tolerance 1e-12 plus an absolute floor
of 1e-14 of the minimum form a tie group, the group is refined by exact
rational comparison when every field is GF(2) (floats are dyadic, so model
probabilities are exactly representable), and remaining ties go to the
lexicographically smallest vector (for tuples: smallest concatenation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .empirical import (_count_symbols, _divergence_from_counts, _log2_denom,
                        conditional_divergences)
from .gf import (ENUMERATION_BUDGET, EnumerationBudgetError, LinearLabel,
                 all_vectors, apply_label, enumerate_coset, stack_labels)
from .prob import CondPmf, Pmf

REL_TOL = 1e-12
# Absolute floor of a float tie group.  Near a zero minimum the relative
# tolerance leaves no room, yet a score there sums per-cell terms of
# magnitude up to about log2(n) + max |log2 p| that cancel, so two equal
# scores whose terms are summed in different orders differ by a few eps
# times those magnitudes (the argument that sizes MinDivDecoder._slack):
# at most 8.9e-16 over the near-zero cases of tests/test_codec.py.  A
# distinct score within the floor of the minimum joins the group too; on
# GF(2) the exact refinement still separates it.
ABS_TOL = 1e-14

# Cells (candidates x block length) counted per chunk of a decoder scan.
SCAN_CHUNK_CELLS = 1 << 20


class EmptyCosetError(RuntimeError):
    """The requested coset has no members (counted as an encoder block error)."""


class AllCosetsEmptyError(RuntimeError):
    """Some decoder syndrome is unreachable for its sampled matrix."""


@dataclass(frozen=True)
class CosetSpec:
    """Shared objects of one sender: syndrome rows A, message rows A', and targets."""

    check: LinearLabel
    message_map: LinearLabel
    syndrome: np.ndarray
    message: np.ndarray

    def __post_init__(self):
        if self.check.cols != self.message_map.cols:
            raise ValueError("check and message_map must share the column count")
        if self.check.field.q != self.message_map.field.q:
            raise ValueError("field mismatch")
        a = np.asarray(self.syndrome, dtype=np.int64)
        m = np.asarray(self.message, dtype=np.int64)
        if a.shape != (self.check.rows,):
            raise ValueError("syndrome length must equal check rows")
        if m.shape != (self.message_map.rows,):
            raise ValueError("message length must equal message_map rows")
        for name, v in (("syndrome", a), ("message", m)):
            v = v.copy()
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    @property
    def cols(self) -> int:
        return self.check.cols

    def stacked(self) -> tuple[LinearLabel, np.ndarray]:
        return (stack_labels(self.check, self.message_map),
                np.concatenate([self.syndrome, self.message]))


@dataclass(frozen=True)
class EncodeTarget:
    """Design law the encoder matches: a conditional law given a context sequence.

    A marginal law is the law given a context of one symbol (for_marginal).
    """

    conditional: CondPmf
    conditioning: np.ndarray

    @classmethod
    def for_marginal(cls, mu: Pmf, n: int) -> "EncodeTarget":
        return cls(CondPmf((0,), mu.alphabet, mu.probs[None, :]), np.zeros(n, dtype=np.int64))

    @classmethod
    def for_conditional(cls, mu_cond: CondPmf, u) -> "EncodeTarget":
        return cls(mu_cond, np.asarray(u, dtype=np.int64))

    def __post_init__(self):
        u = self.conditioning
        if u.ndim != 1 or ((u < 0) | (u >= self.conditional.given_size)).any():
            raise ValueError("conditioning must be a sequence of context symbols")

    def divergences(self, cands: np.ndarray) -> np.ndarray:
        """Divergence from the target of each candidate row's empirical law."""
        return conditional_divergences(cands, self.conditional, self.conditioning)

    def exact_key(self, cand: np.ndarray):
        """Exact rational key of one candidate (see _exact_key)."""
        mu, u = self.conditional, self.conditioning
        u_counts = np.bincount(u, minlength=mu.given_size)
        counts = np.bincount(u * mu.size + cand, minlength=mu.given_size * mu.size)
        denoms = [int(u_counts[b]) * Fraction(float(p))
                  for b in range(mu.given_size) for p in mu.rows[b]]
        return _exact_key(counts, denoms)


def _exact_key(counts, denoms):
    """Fraction product over cells of (c/denom)^c, reduced once; None encodes +infinity."""
    num, den = 1, 1
    for c, d in zip(counts, denoms):
        c = int(c)
        if c == 0:
            continue
        if d == 0:
            return None
        num *= (c * d.denominator) ** c
        den *= d.numerator ** c
    return Fraction(num, den)


def _tie_limit(best: float) -> float:
    """Largest score in the tie group of a finite minimum `best`."""
    return best * (1.0 + REL_TOL) + ABS_TOL


def _tie_indices(dvals: np.ndarray) -> np.ndarray:
    """Ascending indices of the float tie group of the minimum."""
    m = dvals.min()
    if np.isinf(m):
        return np.flatnonzero(np.isinf(dvals))
    return np.flatnonzero(dvals <= _tie_limit(m))


def _refine_exact(ties: np.ndarray, key_fn) -> np.ndarray:
    keys = [key_fn(int(i)) for i in ties]
    finite = [k for k in keys if k is not None]
    if not finite:
        return ties
    best = min(finite)
    keep = [i for i, k in zip(ties, keys) if k is not None and k == best]
    return np.asarray(keep, dtype=np.int64)


def min_div_member(cands: np.ndarray, target: EncodeTarget, q: int) -> int:
    """Index of the encoder's choice among lex-sorted candidates over GF(q).

    The encoder's total order: float divergence, exact refinement of the
    tie group on GF(2), then the first (lexicographically smallest) row.
    """
    ties = _tie_indices(target.divergences(cands))
    if ties.size > 1 and q == 2:
        ties = _refine_exact(ties, lambda i: target.exact_key(cands[i]))
    return int(ties[0])


def min_div_encode(cs: CosetSpec, target: EncodeTarget,
                   budget: int = ENUMERATION_BUDGET) -> np.ndarray:
    """Coset member whose empirical law is divergence-closest to the target."""
    stacked, want = cs.stacked()
    cands = enumerate_coset(stacked, want, budget)
    if cands.shape[0] == 0:
        raise EmptyCosetError(
            f"no vector satisfies the {cs.check.rows}+{cs.message_map.rows} constraints")
    x = cands[min_div_member(cands, target, cs.check.field.q)]
    assert (apply_label(cs.check, x) == cs.syndrome).all()
    assert (apply_label(cs.message_map, x) == cs.message).all()
    return x


def _min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[..., r] = min over t <= r of a[..., t] + b[..., r - t]."""
    k = a.shape[-1]
    lag = np.arange(k)[:, None] - np.arange(k)[None, :]
    sums = a[..., None, :] + b[..., np.maximum(lag, 0)]
    sums[..., lag < 0] = np.inf
    return sums.min(axis=-1)


class MinDivDecoder:
    """Joint minimum-divergence decoder compiled for fixed cosets.

    Built once per (labels, syndromes, model, u): the build validates the
    inputs, enumerates the per-sender cosets and precomputes everything that
    does not depend on the channel output; each call with y runs the search
    over the product of the cosets.  `model` has one axis per variable in
    order (u if given, senders..., y); sequences hold indices into the
    matching axis.

    A product that fits one scan chunk is scored whole from its precomputed
    y-free cells.  A larger one is searched under per-sender count bounds
    (see _search_ties), which score only the candidates a bound cannot rule
    out; both read one table of the divergence kernel's term per (cell, count).
    """

    def __init__(self, labels, syndromes, model: np.ndarray, u=None,
                 budget: int = ENUMERATION_BUDGET):
        labels = list(labels)
        syndromes = list(syndromes)
        if len(labels) != len(syndromes):
            raise ValueError("one syndrome per label required")
        if not labels:
            raise ValueError("at least one label required")
        n = labels[0].cols
        shape = model.shape
        offset = 0
        if u is not None:
            u = np.asarray(u, dtype=np.int64)
            if u.size != n:
                raise ValueError("u length must equal the block length")
            offset = 1
        if len(shape) != offset + len(labels) + 1:
            raise ValueError("model axes do not match the variables")
        for j, lab in enumerate(labels):
            if lab.field.q != shape[offset + j]:
                raise ValueError(f"sender {j} alphabet does not match the model axis")
            if lab.cols != n:
                raise ValueError("label columns must equal the block length")

        cosets = [enumerate_coset(lab, a, budget) for lab, a in zip(labels, syndromes)]
        if any(c.shape[0] == 0 for c in cosets):
            raise AllCosetsEmptyError("a syndrome is unreachable for its matrix")
        for c in cosets:
            c.flags.writeable = False
        sizes = tuple(c.shape[0] for c in cosets)
        total = math.prod(sizes)
        if total > budget:
            raise EnumerationBudgetError(
                f"product coset size {total} exceeds the budget of {budget}")

        strides = np.ones(len(shape), dtype=np.int64)
        for i in range(len(shape) - 2, -1, -1):
            strides[i] = strides[i + 1] * shape[i + 1]
        model_flat = model.ravel()
        log_denom = _log2_denom(n * model_flat)

        self.n = n
        self.cosets = cosets
        self.sizes = sizes
        self._n_out = shape[-1]
        self._y_stride = int(strides[-1])
        self._base = (u * strides[0] if u is not None
                      else np.zeros(n, dtype=np.int64))
        self._contribs = [c * int(strides[offset + j]) for j, c in enumerate(cosets)]
        self._n_cells = int(np.prod(shape))
        counts = np.broadcast_to(np.arange(n + 1)[None, :, None], (self._n_cells, n + 1, 1))
        self._terms = _divergence_from_counts(counts, log_denom[:, None, None], 1)
        self._term_rows = np.arange(self._n_cells) * (n + 1)  # flat offset of each cell
        self._qs = [lab.field.q for lab in labels]
        self._denoms = ([n * Fraction(float(p)) for p in model_flat]
                        if all(q == 2 for q in self._qs) else None)
        self._chunk = max(1, SCAN_CHUNK_CELLS // max(n, 1))
        self._decoded = {}  # tuple(y) -> rows, filled as outputs come up
        if total <= self._chunk:
            self._static = next(self._product([np.arange(m) for m in sizes]))[1]
            return
        self._static = None
        self._lead = int(np.argmax(sizes))
        # Context (u, y) index of a position is self._ctx_u + y.
        self._ctx_u = u * shape[-1] if u is not None else np.zeros(n, dtype=np.int64)
        self._bounds = self._count_bounds(shape, offset)
        # A score sums at most n_cells terms whose magnitudes add up to at
        # most n * scale; a bound sums the same terms, divided by n first and
        # in another order.  This covers both roundings with room to spare.
        scale = math.log2(n) + np.abs(log_denom[np.isfinite(log_denom)]).max(initial=0.0)
        self._slack = 4 * (self._n_cells + 2) * np.finfo(float).eps * scale

    def _count_bounds(self, shape, offset):
        """Per sender j, the table T[ctx * q_j + a, r] of its count bound.

        T is the least sum of cell terms of r positions in context ctx (u
        and y) where sender j sends a, over every split of the r positions
        among the other senders' joint symbols: a min-plus fold over those
        symbols.  Summing T over (ctx, a) at a row's counts bounds from
        below the divergence of every candidate that uses the row.
        """
        n = self.n
        terms = (self._terms / n).reshape(shape + (n + 1,))
        ctx_axes = list(range(offset)) + [len(shape) - 1]
        senders = list(range(offset, len(shape) - 1))
        bounds = []
        for axis in senders:
            others = [a for a in senders if a != axis]
            t = terms.transpose(ctx_axes + [axis] + others + [len(shape)])
            t = t.reshape(-1, math.prod(shape[a] for a in others), n + 1)
            table = t[:, 0]
            for b in range(1, t.shape[1]):
                table = _min_plus(table, t[:, b])
            bounds.append(table)
        return bounds

    def _product(self, sets):
        """Yield (flat, cells) over the product of per-sender row sets.

        Chunks follow the lex order of the product; flat holds each
        candidate's index in the full product of cosets, and cells[r] the
        model cell of every position of candidate r without the y term,
        shifted by r * n_cells so one bincount counts the whole chunk.
        """
        shape = tuple(s.size for s in sets)
        total = math.prod(shape)
        for f0 in range(0, total, self._chunk):
            f1 = min(total, f0 + self._chunk)
            sub = np.unravel_index(np.arange(f0, f1), shape)
            idxs = [rows[i] for rows, i in zip(sets, sub)]
            cells = self._base[None, :].copy()
            for contrib, idx in zip(self._contribs, idxs):
                cells = cells + contrib[idx]
            cells += (np.arange(f1 - f0, dtype=np.int64) * self._n_cells)[:, None]
            yield np.ravel_multi_index(idxs, self.sizes), cells

    def _divergences(self, cells: np.ndarray, y_cells: np.ndarray) -> np.ndarray:
        m = cells.shape[0]
        counts = np.bincount((cells + y_cells).ravel(),
                             minlength=m * self._n_cells).reshape(m, self._n_cells)
        return self._terms.take(counts + self._term_rows).sum(axis=-1) / self.n

    def _row_bounds(self, j: int, ctx: np.ndarray) -> np.ndarray:
        """Count bound of every row of coset j: one bincount and one gather."""
        table = self._bounds[j]
        counts = _count_symbols(ctx * self._qs[j] + self.cosets[j], table.shape[0])
        return table[np.arange(table.shape[0]), counts].sum(axis=1)

    def _search_ties(self, y_cells: np.ndarray, ctx: np.ndarray) -> np.ndarray:
        """Sorted tie set (flat indices) of a product larger than one chunk.

        Rows of the largest coset are visited in ascending count bound and
        scored in blocks against the rows of the other cosets whose bound is
        within the limit, the tie limit of the running minimum plus the
        slack; the search stops at the first row past the limit.  The
        slack covers the different summation order of a bound and a score,
        so no tie is pruned.  Candidates within tolerance of the running
        minimum are kept and filtered against the final one at the end.
        """
        bounds = [self._row_bounds(j, ctx) for j in range(len(self.cosets))]
        lead = bounds[self._lead]
        order = np.argsort(lead, kind="stable")
        best = np.inf
        limit = np.finfo(float).max  # admits every row whose bound is finite
        kept = []
        pos = 0
        while pos < order.size and lead[order[pos]] <= limit:
            sets = [np.flatnonzero(b <= limit) for b in bounds]
            width = math.prod(s.size for j, s in enumerate(sets) if j != self._lead)
            if width == 0:  # a partner has no finite bound: no finite score
                break
            # One row until a finite score sets the limit, then a chunk's worth.
            step = 1 if np.isinf(best) else max(1, self._chunk // width)
            rows = order[pos:pos + step]
            sets[self._lead] = rows[lead[rows] <= limit]
            pos += step
            for flat, cells in self._product(sets):
                dv = self._divergences(cells, y_cells)
                low = dv.min()
                if np.isinf(low):
                    continue
                if low < best:
                    best = low
                    limit = _tie_limit(best) + self._slack
                hit = np.flatnonzero(dv <= _tie_limit(best))
                kept.append((flat[hit], dv[hit]))
        if np.isinf(best):
            # Every candidate misses the model support; all tie, lex-first wins.
            return np.zeros(1, dtype=np.int64)
        top = _tie_limit(best)
        return np.sort(np.concatenate([idx[dv <= top] for idx, dv in kept]))

    def _key(self, base: np.ndarray, flat: int):
        cells = base
        for contrib, i in zip(self._contribs, np.unravel_index(flat, self.sizes)):
            cells = cells + contrib[i]
        counts = np.bincount(cells, minlength=self._n_cells)
        return _exact_key(counts, self._denoms)

    def _ties(self, y: np.ndarray) -> np.ndarray:
        """Sorted flat indices of the tie group, before exact refinement."""
        y_cells = y * self._y_stride
        if self._static is None:
            return self._search_ties(y_cells, self._ctx_u + y)
        dv = self._divergences(self._static, y_cells)
        low = dv.min()
        if np.isinf(low):  # every candidate misses the model support; lex-first wins
            return np.zeros(1, dtype=np.int64)
        return np.flatnonzero(dv <= _tie_limit(low))

    def rows(self, y) -> tuple[int, ...]:
        """Index of the decoded row in each sender's coset.

        The result is a fixed function of y, so it is kept in a table keyed
        by tuple(y): the table grows by at most one entry per distinct y
        decoded, each about 8n + 150 bytes, and lives as long as the
        decoder.  A tuple of ints is looked up before any array is built.
        """
        if isinstance(y, tuple):
            try:
                got = self._decoded.get(y)
            except TypeError:  # an unhashable item: no valid y, rejected below
                got = None
            if got is not None:
                return got
        y = np.asarray(y, dtype=np.int64)
        if y.shape != (self.n,):
            raise ValueError("y length must equal the block length")
        key = tuple(y.tolist())
        got = self._decoded.get(key)
        if got is not None:
            return got
        if y.view(np.uint64).max(initial=0) >= self._n_out:  # a negative symbol reads huge
            raise ValueError("output symbol outside the model axis")
        ties = self._ties(y)
        if ties.size > 1 and self._denoms is not None:
            base = self._base + y * self._y_stride
            ties = _refine_exact(ties, lambda flat: self._key(base, flat))
        got = self._decoded[key] = tuple(
            int(i) for i in np.unravel_index(int(ties[0]), self.sizes))
        return got

    def __call__(self, y) -> tuple[np.ndarray, ...]:
        return tuple(c[i] for c, i in zip(self.cosets, self.rows(y)))


def min_div_decode(labels, syndromes, y, model: np.ndarray, u=None,
                   budget: int = ENUMERATION_BUDGET) -> tuple[np.ndarray, ...]:
    """One-shot joint minimum-divergence decoding: build a MinDivDecoder, call it once."""
    return MinDivDecoder(labels, syndromes, model, u=u, budget=budget)(y)


def build_T_subset(u, mu_cond: CondPmf, gamma: float, size: int,
                   budget: int = ENUMERATION_BUDGET) -> np.ndarray:
    """The `size` conditionally typical sequences of smallest divergence.

    Ordered ascending by (divergence, lexicographic); downward-closed under
    that order by construction.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    u = np.asarray(u, dtype=np.int64)
    n = u.size
    cands = all_vectors(mu_cond.size, n, budget)
    dvals = conditional_divergences(cands, mu_cond, u)
    typical = np.nonzero(dvals < gamma)[0]
    if size > typical.size:
        raise ValueError(f"requested {size} members but the typical set has {typical.size}")
    order = typical[np.argsort(dvals[typical], kind="stable")]
    return cands[order[:size]]
