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

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .empirical import (_count_symbols, _divergence_from_counts, _log2_denom,
                        conditional_divergences)
from . import gf
from .gf import (EnumerationBudgetError, LinearLabel, all_vectors, apply_label, as_vec,
                 enumerate_coset, lex_index)
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
# Cells (outputs x candidates x block length) of one pass that scores a
# batch of outputs against a product scored whole.  Small, so a pass holds a
# few hundred kB: passes of SCAN_CHUNK_CELLS add about 25 MB to the peak
# RSS of a `trend` run.
DECODE_PASS_CELLS = 1 << 14


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

    def exact_keys(self, cands: np.ndarray) -> list:
        """Exact key of each candidate row (see _exact_key), counted in one pass.

        Cell (b, a) has expected count #b(u) * p(a|b).
        """
        mu, u = self.conditional, self.conditioning
        weights = np.bincount(u, minlength=mu.given_size).tolist()
        ratios = tuple((w * num, den) for w, row in zip(weights, mu.rows.tolist())
                       for num, den in map(float.as_integer_ratio, row))
        counts = _count_symbols(u[None, :] * mu.size + cands, mu.given_size * mu.size)
        return _exact_keys(counts, _key_powers(ratios, u.size))


@functools.lru_cache(maxsize=4)
def _key_powers(ratios: tuple, n: int) -> tuple:
    """Per cell of expected count d = num/den, the pairs ((c*den)^c, num^c) for c = 0..n.

    Floats are dyadic, so every d is such a ratio.  Cached: a search's codes share them.
    """
    return tuple(tuple(((c * den) ** c, num ** c) for c in range(n + 1)) for num, den in ratios)


def _exact_key(counts, powers) -> tuple[int, int]:
    """The product over cells of (c/d)^c as an unreduced (numerator, denominator).

    powers is _key_powers of the cells; a denominator of 0 (a count where d = 0) is +infinity.
    """
    pairs = [table[c] for c, table in zip(counts, powers) if c]
    return math.prod(a for a, _ in pairs), math.prod(b for _, b in pairs)


def _exact_keys(counts: np.ndarray, powers) -> list:
    """_exact_key of each row of counts; equal rows share one key, computed once."""
    rows = list(map(tuple, counts.tolist()))
    memo = {row: _exact_key(row, powers) for row in set(rows)}
    return [memo[row] for row in rows]


def _least_key(keys: list) -> int:
    """Position of the first least finite key, by cross-multiplying; 0 if none is finite."""
    pick, low, high = 0, 0, 0  # high == 0: no finite key yet
    for i, (num, den) in enumerate(keys):
        if den and (not high or num * high < low * den):
            pick, low, high = i, num, den
    return pick


def _tie_limit(best: float) -> float:
    """Largest score in the tie group of a finite minimum `best`."""
    return best * (1.0 + REL_TOL) + ABS_TOL


def tie_groups(dvals: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float tie group of the minimum of each run of scores, in whole-array ops.

    Run r is dvals[edges[r]:edges[r + 1]]; edges rise strictly from 0 to
    dvals.size.  Returns (ties, bounds): the ascending indices of every
    run's tie group, run r's being ties[bounds[r]:bounds[r + 1]].  A run
    whose minimum is infinite misses the model support everywhere; its tie
    group is its first index.
    """
    low = np.minimum.reduceat(dvals, edges[:-1])
    inf = np.isinf(low)
    limit = _tie_limit(low)
    limit[inf] = -np.inf  # no score is at or under it: the first index is set alone
    hit = dvals <= limit.repeat(np.diff(edges))
    hit[edges[:-1][inf]] = True
    ties = hit.nonzero()[0]
    return ties, ties.searchsorted(edges)


def exact_min(cands: np.ndarray, target: EncodeTarget) -> int:
    """Index of the first lex-sorted GF(2) candidate of least exact key (0 if none is finite)."""
    return _least_key(target.exact_keys(cands))


def message_runs(msgs: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Rows grouped by their message index msgs: (order, edges, messages).

    order lists the rows by message index, in row order within a message
    (a stable sort); run r, order[edges[r]:edges[r + 1]], holds the rows
    of messages[r], and messages ascend.
    """
    order = np.argsort(msgs, kind="stable")
    ranked = msgs[order]
    edges = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1], [True])))
    return order, edges, ranked[edges[:-1]].tolist()


class Codebook(dict):
    """The encoder on one check coset: message index -> (codeword, score), filled on lookup.

    coset is the lex-sorted check coset {x : A x = s} over GF(q), and runs
    the message_runs of its rows' message indices (lex_index of A' x).  So
    message m's coset {x : A x = s, A' x = m} is its run of rows, in lex
    order.  The build scores every row once against the target and keeps
    the float tie group of each run's minimum (tie_groups).  A lookup
    gives the encoder's total order on the run: the tie group, refined
    exactly on GF(2) (exact_min) on the message's first lookup, then its
    first row; the score is that codeword's divergence from the target.

    A message no row carries raises a fresh EmptyCosetError(error) on
    every lookup, so no exception, whose traceback would keep a caller's
    frames alive, is ever stored.
    """

    def __init__(self, error: str, coset: np.ndarray, runs, target: EncodeTarget, q: int):
        super().__init__()
        self.error, self.coset, self.target, self.exact = error, coset, target, q == 2
        order, edges, self.messages = runs
        scores = target.divergences(coset)[order]
        ties, self.bounds = tie_groups(scores, edges)
        self.rows, self.scores = order[ties], scores[ties]

    def __missing__(self, message):
        r = bisect_left(self.messages, message)
        if r == len(self.messages) or self.messages[r] != message:
            raise EmptyCosetError(self.error)
        pick, end = self.bounds[r], self.bounds[r + 1]
        if self.exact and end - pick > 1:
            pick += exact_min(self.coset[self.rows[pick:end]], self.target)
        entry = self[message] = (self.coset[self.rows[pick]], float(self.scores[pick]))
        return entry


def min_div_encode(cs: CosetSpec, target: EncodeTarget) -> np.ndarray:
    """Coset member whose empirical law is divergence-closest to the target.

    The one-shot of Codebook: the check coset, grouped by message, then
    one lookup.  The enumeration limit bounds the check coset.
    """
    q = cs.check.field.q
    error = f"no vector satisfies the {cs.check.rows}+{cs.message_map.rows} constraints"
    coset = enumerate_coset(cs.check, cs.syndrome)
    if coset.shape[0] == 0:
        raise EmptyCosetError(error)
    runs = message_runs(lex_index(apply_label(cs.message_map, coset), q))
    x = Codebook(error, coset, runs, target, q)[int(lex_index(as_vec(cs.message, q), q))][0]
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
    over the product of the cosets.  Its tables that depend only on the
    model and n are shared by the decoders of one model (_model_tables,
    _key_powers).  `model` has one axis per variable in order (u if given,
    senders..., y); sequences hold indices into the matching axis.

    A product that fits one scan chunk is scored whole from its precomputed
    y-free cells.  A larger one is searched under per-sender count bounds
    (see _search_ties), which score only the candidates a bound cannot rule
    out; both read one table of the divergence kernel's term per (cell, count).
    """

    def __init__(self, labels, syndromes, model: np.ndarray, u):
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

        cosets = [enumerate_coset(lab, a) for lab, a in zip(labels, syndromes)]
        if any(c.shape[0] == 0 for c in cosets):
            raise AllCosetsEmptyError("a syndrome is unreachable for its matrix")
        for c in cosets:
            c.flags.writeable = False
        sizes = tuple(c.shape[0] for c in cosets)
        total = math.prod(sizes)
        if total > gf.ENUMERATION_BUDGET:
            raise EnumerationBudgetError(
                f"product coset size {total} exceeds the budget of {gf.ENUMERATION_BUDGET}")

        strides = np.ones(len(shape), dtype=np.int64)
        for i in range(len(shape) - 2, -1, -1):
            strides[i] = strides[i + 1] * shape[i + 1]
        self._qs = [lab.field.q for lab in labels]
        self._exact = all(q == 2 for q in self._qs)
        log_denom, self._terms, self._ratios = _model_tables(
            np.ascontiguousarray(model, dtype=np.float64).tobytes(), n)

        self.n = n
        self.cosets = cosets
        self.sizes = sizes
        self._n_out = shape[-1]
        self._y_stride = int(strides[-1])
        self._base = (u * strides[0] if u is not None
                      else np.zeros(n, dtype=np.int64))
        self._contribs = [c * int(strides[offset + j]) for j, c in enumerate(cosets)]
        self._n_cells = log_denom.size
        self._term_rows = np.arange(self._n_cells) * (n + 1)  # flat offset of each cell
        self._chunk = max(1, SCAN_CHUNK_CELLS // max(n, 1))
        if total <= self._chunk:
            # Position-major, so a position's y cell is added along the
            # contiguous candidate axis.
            self._static = next(self._product([np.arange(m) for m in sizes]))[1].T.copy()
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
        """Score of each candidate from its shifted y-free cells, in any layout.

        y_cells broadcasts against cells: (n,) against candidate-major
        cells, (n, 1) against position-major ones, and (outputs, n, 1),
        each output's shifted past the candidates before it, for a batch.
        """
        flat = (cells + y_cells).ravel()
        counts = np.bincount(flat, minlength=flat.size // self.n * self._n_cells)
        counts = counts.reshape(-1, self._n_cells)
        counts += self._term_rows
        return self._terms.take(counts).sum(axis=-1) / self.n

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
        minimum are kept, and their tie group is taken by tie_groups at the
        end.
        """
        bounds = [self._row_bounds(j, ctx) for j in range(len(self.cosets))]
        lead = bounds[self._lead]
        order = np.argsort(lead, kind="stable")
        best = np.inf
        limit = np.finfo(float).max  # admits every row whose bound is finite
        # Candidate 0 at an infinite score, first: the tie group when every
        # candidate misses the model support.
        kept = [(np.zeros(1, dtype=np.int64), np.full(1, np.inf))]
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
        idx, dv = (np.concatenate(part) for part in zip(*kept))
        return np.sort(idx[tie_groups(dv, np.array([0, dv.size]))[0]])

    def _keys(self, y: np.ndarray, flats: np.ndarray) -> list:
        """Exact key of each candidate in flats given output y, all counted in one bincount."""
        cells = self._base + y * self._y_stride
        for contrib, idx in zip(self._contribs, np.unravel_index(flats, self.sizes)):
            cells = cells + contrib[idx]
        return _exact_keys(_count_symbols(cells, self._n_cells), _key_powers(self._ratios, self.n))

    def _ties(self, ys: np.ndarray) -> list[np.ndarray]:
        """Sorted flat indices of each output's tie group, before exact refinement.

        A product scored whole scores a batch of outputs per pass, at most
        DECODE_PASS_CELLS cells of them, in one bincount; a larger product
        is searched one output at a time.
        """
        if self._static is None:
            return [self._search_ties(y * self._y_stride, self._ctx_u + y) for y in ys]
        ties = []
        total = self._static.shape[1]
        per = max(1, DECODE_PASS_CELLS // self._static.size)
        for at in range(0, len(ys), per):
            batch = ys[at:at + per]
            shift = np.arange(len(batch))[:, None, None] * total * self._n_cells
            dv = self._divergences(self._static, (batch * self._y_stride)[:, :, None] + shift)
            flat, bounds = tie_groups(dv, np.arange(len(batch) + 1) * total)
            flat, bounds = flat % total, bounds.tolist()
            # Slices at list bounds: np.split of a pass takes about twice as long.
            ties += [flat[a:b] for a, b in zip(bounds, bounds[1:])]
        return ties

    def _refine(self, y: np.ndarray, ties: np.ndarray) -> int:
        """The decoded candidate of a tie group of two or more: on GF(2) its least exact key."""
        return ties[_least_key(self._keys(y, ties))] if self._exact else ties[0]

    def rows(self, ys) -> list[tuple[int, ...]]:
        """Index of the decoded row in each sender's coset, per output row of ys.

        ys is a batch of outputs, one per row; a single output is a batch of
        one.  The decoder keeps nothing per output.
        """
        ys = np.asarray(ys, dtype=np.int64)
        if ys.ndim != 2 or ys.shape[1] != self.n:
            raise ValueError("y must be a batch of outputs of the block length")
        if ys.view(np.uint64).max(initial=0) >= self._n_out:  # a negative symbol reads huge
            raise ValueError("output symbol outside the model axis")
        picks = np.array([t[0] if t.size == 1 else self._refine(y, t)
                          for y, t in zip(ys, self._ties(ys))], dtype=np.int64)
        return list(zip(*(idx.tolist() for idx in np.unravel_index(picks, self.sizes))))

    def __call__(self, y) -> tuple[np.ndarray, ...]:
        return tuple(c[i] for c, i in zip(self.cosets, self.rows([y])[0]))


@functools.lru_cache(maxsize=4)
def _model_tables(model: bytes, n: int) -> tuple:
    """A decoder's y-free tables, which depend only on the flat float64 model and n.

    Returns read-only log2 of the expected counts d = n * p per cell and
    the divergence kernel's term per (cell, count), and each d as a ratio
    of ints (for _key_powers).  Cached: a search's candidates share them.
    """
    flat = np.frombuffer(model, dtype=np.float64)
    log_denom = _log2_denom(n * flat)
    counts = np.broadcast_to(np.arange(n + 1)[None, :, None], (flat.size, n + 1, 1))
    terms = _divergence_from_counts(counts, log_denom[:, None, None], 1)
    log_denom.flags.writeable = terms.flags.writeable = False
    ratios = tuple((n * a, b) for a, b in map(float.as_integer_ratio, flat.tolist()))
    return log_denom, terms, ratios


def min_div_decode(labels, syndromes, y, model: np.ndarray, u) -> tuple[np.ndarray, ...]:
    """One-shot joint minimum-divergence decoding: build a MinDivDecoder, call it once."""
    return MinDivDecoder(labels, syndromes, model, u=u)(y)


def build_T_subset(u, mu_cond: CondPmf, gamma: float, size: int) -> np.ndarray:
    """The `size` conditionally typical sequences of smallest divergence.

    Ordered ascending by (divergence, lexicographic); downward-closed under
    that order by construction.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    u = np.asarray(u, dtype=np.int64)
    n = u.size
    cands = all_vectors(mu_cond.size, n)
    dvals = conditional_divergences(cands, mu_cond, u)
    typical = np.nonzero(dvals < gamma)[0]
    if size > typical.size:
        raise ValueError(f"requested {size} members but the typical set has {typical.size}")
    order = typical[np.argsort(dvals[typical], kind="stable")]
    return cands[order[:size]]
