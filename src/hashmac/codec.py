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
# Cells (candidates x block length, or the outputs x coset rows x block
# length of a batch's count bounds) of one decoder pass over a batch of
# outputs.  Small, so a pass holds a few hundred kB.
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
    """The encoder on one check coset: message index -> (codeword, score, row), filled on lookup.

    coset is the lex-sorted check coset {x : A x = s} over GF(q), and runs
    the message_runs of its rows' message indices (lex_index of A' x).  So
    message m's coset {x : A x = s, A' x = m} is its run of rows, in lex
    order.  The build scores every row once against the target and keeps
    the float tie group of each run's minimum (tie_groups).  A lookup
    gives the encoder's total order on the run: the tie group, refined
    exactly on GF(2) (exact_min) on the message's first lookup, then its
    first row; the score is that codeword's divergence from the target,
    and row its index in coset.

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
        row = int(self.rows[pick])
        entry = self[message] = (self.coset[row], float(self.scores[pick]), row)
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
    inputs, enumerates the per-sender cosets and precomputes what does not
    depend on the channel output; each call with y searches the product of
    the cosets.  Tables that depend only on the model and n are shared by
    the decoders of one model (_model_tables, _bound_tables, _key_powers).
    `model` has one axis per variable in order (u if given, senders..., y);
    sequences hold indices into the matching axis.

    A seed (any candidate, such as the tuple a trial sent) bounds the
    minimum by its score; only the product of the coset rows whose count
    bound is within its tie limit plus _slack is scored, so the tie group
    and the result are the same with any seed or none.  Every score reads
    one table of the divergence kernel's term per (cell, count).
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
        model = np.ascontiguousarray(model, dtype=np.float64).tobytes()
        self._terms, self._ratios, self._slack = _model_tables(model, n)
        self._tables = (model, n, shape, offset)  # the key of _bound_tables

        self.n = n
        self.cosets = cosets
        self.sizes = sizes
        self._n_out = shape[-1]
        self._y_stride = int(strides[-1])
        self._base = u * strides[0] if u is not None else np.zeros(n, dtype=np.int64)
        self._contribs = [c * int(strides[offset + j]) for j, c in enumerate(cosets)]
        self._n_cells = len(self._ratios)
        self._term_rows = np.arange(self._n_cells) * (n + 1)  # flat offset of each cell
        self._chunk = max(1, SCAN_CHUNK_CELLS // max(n, 1))
        self._lead = sizes.index(max(sizes))
        # Context (u, y) index of a position is self._ctx_u + y.
        self._ctx_u = u * shape[-1] if u is not None else np.zeros(n, dtype=np.int64)

    def _score(self, idxs, y_cells: np.ndarray, out) -> tuple[np.ndarray, np.ndarray]:
        """_divergences of the candidates whose rows in each coset are idxs, in one bincount.

        y_cells[out] broadcasts to each candidate's y-and-u cells (_passes):
        out indexes each candidate's output, or is None for one output.
        """
        cells = self._contribs[0][idxs[0]]
        cells += y_cells[out]
        for contrib, idx in zip(self._contribs[1:], idxs[1:]):
            cells += contrib[idx]
        cells += (np.arange(len(cells), dtype=np.int64) * self._n_cells)[:, None]
        counts = np.bincount(cells.ravel(), minlength=len(cells) * self._n_cells)
        del cells  # a pass holds at most two arrays of its size
        return self._divergences(counts.reshape(-1, self._n_cells))

    def _divergences(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(scores, count rows) from counts over the cells, offset in place to index _terms."""
        counts += self._term_rows
        return self._terms.take(counts).sum(axis=-1) / self.n, counts

    def _row_bounds(self, j: int, ctx: np.ndarray) -> np.ndarray:
        """Count bound of every row of coset j (columns) per context sequence of ctx (rows)."""
        table = _bound_tables(*self._tables)[j]
        cands = (ctx[:, None, :] * self._qs[j] + self.cosets[j]).reshape(-1, self.n)
        counts = _count_symbols(cands, table.shape[0]) + np.arange(table.shape[0]) * (self.n + 1)
        return table.take(counts).sum(axis=1).reshape(len(ctx), -1)

    def _search_ties(self, y, y_cells, best: float) -> tuple[np.ndarray, np.ndarray]:
        """Tie group of output y in a product larger than one chunk: (flat indices, count rows).

        Rows of the largest coset are visited in ascending count bound and
        scored in blocks against the rows of the other cosets whose bound is
        within the limit, the tie limit of the running minimum (from best, a
        seed's score or +inf) plus the slack; the search stops at the first
        row past the limit.  The slack covers the different summation order
        of a bound and a score, so no tie is pruned.  Candidates within
        tolerance of the running minimum are kept for tie_groups.
        """
        ctx = (self._ctx_u + y)[None]
        bounds = [self._row_bounds(j, ctx)[0] for j in range(len(self.cosets))]
        lead = bounds[self._lead]
        order = np.argsort(lead, kind="stable")
        # Without a finite score yet, admit every row whose bound is finite.
        limit = _tie_limit(best) + self._slack if np.isfinite(best) else np.finfo(float).max
        # Candidate 0 at an infinite score, first: the tie group when every
        # candidate misses the model support.
        kept = [(np.zeros(1, np.int64), np.full(1, np.inf), np.zeros((1, self._n_cells), np.int64))]
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
            shape = [rows.size for rows in sets]
            for f0 in range(0, math.prod(shape), self._chunk):  # the product in lex order
                sub = np.unravel_index(
                    np.arange(f0, min(math.prod(shape), f0 + self._chunk)), shape)
                idxs = [rows[i] for rows, i in zip(sets, sub)]
                dv, counts = self._score(idxs, y_cells, None)
                low = dv.min()
                if np.isinf(low):
                    continue
                if low < best:
                    best = low
                    limit = _tie_limit(best) + self._slack
                hit = np.flatnonzero(dv <= _tie_limit(best))
                kept.append((np.ravel_multi_index(idxs, self.sizes)[hit], dv[hit], counts[hit]))
        flat, dv, counts = (np.concatenate(part) for part in zip(*kept))
        ties = tie_groups(dv, np.array([0, dv.size]))[0]
        ties = ties[np.argsort(flat[ties])]  # flat indices are unique
        return flat[ties], counts[ties]

    def _alive(self, ys: np.ndarray, seeds: np.ndarray, y_cells: np.ndarray) -> np.ndarray:
        """Per output, the mask over the product of the candidates its seed leaves.

        A candidate is left when each of its rows has a count bound within
        the seed's tie limit plus the slack.
        """
        limit = _tie_limit(self._score(list(seeds.T), y_cells, slice(None))[0])
        ctx, limit = self._ctx_u + ys, (limit + self._slack)[:, None]
        alive = self._row_bounds(0, ctx) <= limit
        for j in range(1, len(self.sizes)):
            more = self._row_bounds(j, ctx) <= limit
            alive = (alive[:, :, None] & more[:, None, :]).reshape(len(ys), -1)
        return alive

    def _passes(self, ys: np.ndarray, seeds):
        """Yield (flat, counts, ties, bounds) per pass: each output's float tie group.

        Output o's group is ties[bounds[o]:bounds[o + 1]], ascending
        positions into the pass's candidates, of flat indices flat and
        count rows counts.  A pass scores a batch of outputs in one
        bincount: with seeds, the candidates _alive leaves, else all.  A
        group of outputs fills at most DECODE_PASS_CELLS with its bound
        cells (outputs x rows x n) or mask, a pass with its candidates'
        cells, or takes one output.  A larger product than one scan chunk
        is searched one output at a time, seeded alike.
        """
        n, total = self.n, math.prod(self.sizes)
        y_cells = self._base + ys * self._y_stride
        if total > self._chunk:
            best = (np.full(len(ys), np.inf) if seeds is None
                    else self._score(list(seeds.T), y_cells, slice(None))[0])
            for y, cells, low in zip(ys, y_cells, best):
                flat, counts = self._search_ties(y, cells, low)
                yield flat, counts, np.arange(flat.size), [0, flat.size]
            return
        group = max(1, DECODE_PASS_CELLS // max(sum(self.sizes) * n, total))
        for g in range(0, len(ys), group):
            at = slice(g, g + group)
            alive = (np.ones((len(ys[at]), total), dtype=bool) if seeds is None
                     else self._alive(ys[at], seeds[at], y_cells[at]))
            for a, b in _runs(alive.sum(axis=1) * n, DECODE_PASS_CELLS):
                out, flat = alive[a:b].nonzero()
                dv, counts = self._score(np.unravel_index(flat, self.sizes), y_cells[at][a:b], out)
                yield (flat, counts) + tie_groups(dv, out.searchsorted(np.arange(b - a + 1)))

    def _least(self, counts: np.ndarray) -> int:
        """Decoded position in a tie group of two or more, from its count rows.

        On GF(2) the first of least exact key, else the first.
        """
        powers = _key_powers(self._ratios, self.n)
        return _least_key(_exact_keys(counts - self._term_rows, powers)) if self._exact else 0

    def rows(self, ys, seeds=None) -> list[tuple[int, ...]]:
        """Index of the decoded row in each sender's coset, per output row of ys.

        ys is a batch of outputs, one per row; a single output is a batch of
        one.  seeds, if given, holds one candidate per output as its row in
        each coset; it bounds the search and cannot change the result.  The
        decoder keeps nothing per output.
        """
        ys = np.asarray(ys, dtype=np.int64)
        if ys.ndim != 2 or ys.shape[1] != self.n:
            raise ValueError("y must be a batch of outputs of the block length")
        if ys.view(np.uint64).max(initial=0) >= self._n_out:  # a negative symbol reads huge
            raise ValueError("output symbol outside the model axis")
        if seeds is not None:
            seeds = np.asarray(seeds, dtype=np.int64).reshape(len(ys), len(self.sizes))
        picks = [np.zeros(0, dtype=np.int64)]
        for flat, counts, ties, bounds in self._passes(ys, seeds):
            pick = ties[bounds[:-1]]
            for o in np.flatnonzero(np.diff(bounds) > 1).tolist():
                group = ties[bounds[o]:bounds[o + 1]]
                pick[o] = group[self._least(counts[group])]
            picks.append(flat[pick])
        picks = np.unravel_index(np.concatenate(picks), self.sizes)
        return list(zip(*(idx.tolist() for idx in picks)))

    def __call__(self, y) -> tuple[np.ndarray, ...]:
        return tuple(c[i] for c, i in zip(self.cosets, self.rows([y])[0]))


def _runs(sizes: np.ndarray, cap: int):
    """Yield (a, b) over consecutive items, each run totalling at most cap or one item long."""
    a, total = 0, 0
    for i, size in enumerate(sizes.tolist()):
        if total + size > cap and i > a:
            yield a, i
            a, total = i, 0
        total += size
    yield a, len(sizes)


@functools.lru_cache(maxsize=4)
def _model_tables(model: bytes, n: int) -> tuple:
    """A decoder's y-free tables, which depend only on the flat float64 model and n.

    Returns the read-only divergence kernel's term per (cell, count), each
    expected count d = n * p as a ratio of ints (for _key_powers), and the
    slack of a count bound.  Cached: a search's candidates share them.
    """
    flat = np.frombuffer(model, dtype=np.float64)
    log_denom = _log2_denom(n * flat)
    counts = np.broadcast_to(np.arange(n + 1)[None, :, None], (flat.size, n + 1, 1))
    terms = _divergence_from_counts(counts, log_denom[:, None, None], 1)
    terms.flags.writeable = False
    ratios = tuple((n * a, b) for a, b in map(float.as_integer_ratio, flat.tolist()))
    # A score sums at most flat.size terms whose magnitudes add up to at
    # most n * scale; a bound sums the same terms, divided by n first and
    # in another order.  This covers both roundings with room to spare.
    scale = math.log2(n) + np.abs(log_denom[np.isfinite(log_denom)]).max(initial=0.0)
    return terms, ratios, 4 * (flat.size + 2) * np.finfo(float).eps * scale


@functools.lru_cache(maxsize=4)
def _bound_tables(model: bytes, n: int, shape: tuple, offset: int) -> tuple:
    """Per sender j, the read-only table T[ctx * q_j + a, r] of its count bound.

    model is _model_tables', of this shape, with u first if offset is 1.
    T is the least sum of cell terms of r positions in context ctx (u and
    y) where sender j sends a, over every split of the r positions among
    the other senders' joint symbols: a min-plus fold over those symbols.
    Summing T over (ctx, a) at a row's counts bounds from below the
    divergence of every candidate that uses the row.  Cached, as above.
    """
    terms = (_model_tables(model, n)[0] / n).reshape(shape + (n + 1,))
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
        table.flags.writeable = False
        bounds.append(table)
    return tuple(bounds)


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
