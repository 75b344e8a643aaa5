"""Minimum-divergence encoding into cosets and joint decoding over products.

Both operations are exhaustive searches with a deterministic total order:
float divergences first, candidates within relative tolerance 1e-12 of the
minimum form a tie group, the group is refined by exact rational comparison
when every field is GF(2) (floats are dyadic, so model probabilities are
exactly representable), and remaining ties go to the lexicographically
smallest vector (for tuples: smallest concatenation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import (ENUMERATION_BUDGET, EnumerationBudgetError, LinearLabel,
                 all_vectors, apply_label, enumerate_coset, stack_labels)
from .prob import CondPmf, Pmf

REL_TOL = 1e-12

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
    """Design distribution the encoder matches: marginal, or conditional on u."""

    marginal: Pmf | None = None
    conditional: CondPmf | None = None
    conditioning: np.ndarray | None = None

    @classmethod
    def for_marginal(cls, mu: Pmf) -> "EncodeTarget":
        return cls(marginal=mu)

    @classmethod
    def for_conditional(cls, mu_cond: CondPmf, u) -> "EncodeTarget":
        return cls(conditional=mu_cond, conditioning=np.asarray(u, dtype=np.int64))

    def __post_init__(self):
        if (self.marginal is None) == (self.conditional is None):
            raise ValueError("exactly one of marginal/conditional must be set")
        if self.conditional is not None and self.conditioning is None:
            raise ValueError("conditional target needs a conditioning sequence")


def _count_symbols(cands: np.ndarray, n_symbols: int) -> np.ndarray:
    """Per-candidate symbol counts; cands is (m, n) with entries < n_symbols."""
    m = cands.shape[0]
    rows = np.repeat(np.arange(m, dtype=np.int64), cands.shape[1])
    flat = rows * n_symbols + cands.ravel()
    return np.bincount(flat, minlength=m * n_symbols).reshape(m, n_symbols)


def _divergence_from_counts(counts: np.ndarray, log_denom: np.ndarray, n: int) -> np.ndarray:
    """(1/n) sum_cells c*(log2 c - log_denom); log_denom is -inf at zero cells."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logc = np.where(counts > 0, np.log2(np.maximum(counts, 1)), 0.0)
        term = np.where(counts > 0, counts * (logc - log_denom), 0.0)
    return term.sum(axis=-1) / n


def marginal_divergences(cands: np.ndarray, mu: Pmf) -> np.ndarray:
    """D(nu_x || mu) for each candidate row; symbols are alphabet indices."""
    n = cands.shape[1]
    counts = _count_symbols(cands, mu.size)
    with np.errstate(divide="ignore"):
        log_denom = np.log2(n * mu.probs)
    return _divergence_from_counts(counts, log_denom[None, :], n)


def conditional_divergences(cands: np.ndarray, mu_cond: CondPmf, u: np.ndarray) -> np.ndarray:
    """D(nu_{x|u} || mu | nu_u) for each candidate row."""
    n = cands.shape[1]
    if u.shape != (n,):
        raise ValueError("conditioning sequence length mismatch")
    mv, mx = mu_cond.given_size, mu_cond.size
    u_counts = np.bincount(u, minlength=mv)
    for b in range(mv):
        if u_counts[b] > 0 and not mu_cond.present[b]:
            raise ValueError(f"model row absent for seen symbol {mu_cond.given_alphabet[b]!r}")
    # Joint cell (b, a) for each position, then the shared counting path.
    cells = u[None, :] * mx + cands
    counts = _count_symbols(cells, mv * mx)
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = u_counts[:, None] * mu_cond.rows
        log_denom = np.where(denom > 0, np.log2(np.maximum(denom, 1e-300)), -np.inf)
    return _divergence_from_counts(counts, log_denom.ravel()[None, :], n)


def _exact_key(counts, denoms):
    """Fraction product over cells of (c/denom)^c; None encodes +infinity."""
    key = Fraction(1)
    for c, den in zip(counts, denoms):
        c = int(c)
        if c == 0:
            continue
        if den == 0:
            return None
        key *= Fraction(c, 1) ** c / Fraction(den) ** c
    return key


def _marginal_exact_key(cand: np.ndarray, mu: Pmf):
    n = cand.shape[0]
    counts = np.bincount(cand, minlength=mu.size)
    denoms = [n * Fraction(float(p)) for p in mu.probs]
    return _exact_key(counts, denoms)


def _conditional_exact_key(cand: np.ndarray, mu_cond: CondPmf, u: np.ndarray):
    mv, mx = mu_cond.given_size, mu_cond.size
    u_counts = np.bincount(u, minlength=mv)
    cells = u * mx + cand
    counts = np.bincount(cells, minlength=mv * mx)
    denoms = []
    for b in range(mv):
        for a in range(mx):
            denoms.append(int(u_counts[b]) * Fraction(float(mu_cond.rows[b, a])))
    return _exact_key(counts, denoms)


def _tie_indices(dvals: np.ndarray) -> np.ndarray:
    m = dvals.min()
    if np.isinf(m):
        return np.nonzero(np.isinf(dvals))[0]
    return np.nonzero(dvals <= m * (1.0 + REL_TOL))[0]


def _refine_exact(ties: np.ndarray, key_fn) -> np.ndarray:
    keys = [key_fn(int(i)) for i in ties]
    finite = [k for k in keys if k is not None]
    if not finite:
        return ties
    best = min(finite)
    keep = [i for i, k in zip(ties, keys) if k is not None and k == best]
    return np.asarray(keep, dtype=np.int64)


def min_div_encode(cs: CosetSpec, target: EncodeTarget,
                   budget: int = ENUMERATION_BUDGET) -> np.ndarray:
    """Coset member whose empirical law is divergence-closest to the target."""
    stacked, want = cs.stacked()
    cands = enumerate_coset(stacked, want, budget)
    if cands.shape[0] == 0:
        raise EmptyCosetError(
            f"no vector satisfies the {cs.check.rows}+{cs.message_map.rows} constraints")
    if target.marginal is not None:
        dvals = marginal_divergences(cands, target.marginal)
        key_fn = lambda i: _marginal_exact_key(cands[i], target.marginal)
    else:
        u = target.conditioning
        dvals = conditional_divergences(cands, target.conditional, u)
        key_fn = lambda i: _conditional_exact_key(cands[i], target.conditional, u)
    ties = _tie_indices(dvals)
    if ties.size > 1 and cs.check.field.q == 2:
        ties = _refine_exact(ties, key_fn)
    x = cands[int(ties[0])]
    assert (apply_label(cs.check, x) == cs.syndrome).all()
    assert (apply_label(cs.message_map, x) == cs.message).all()
    return x


def _term_table(base_vals, s1, s2, q1, q2, model_flat, n):
    """Per (group, a1, a2): the per-count divergence contributions.

    term[g, a1, a2, c] = c*(log2 c - log2(n*mu))/n with the +inf convention,
    where mu is the model mass of the cell base_vals[g] + a1*s1 + a2*s2.
    """
    counts = np.arange(n + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        clogc = np.where(counts > 0, counts * np.log2(np.maximum(counts, 1)), 0.0)
    term = np.empty((len(base_vals), q1, q2, n + 1))
    for g, b in enumerate(base_vals):
        for a1 in range(q1):
            for a2 in range(q2):
                mu = model_flat[b + a1 * s1 + a2 * s2]
                if mu > 0:
                    term[g, a1, a2] = (clogc - counts * math.log2(n * mu)) / n
                else:
                    term[g, a1, a2] = np.where(counts > 0, np.inf, 0.0)
    return term


def _pair_block_divergences(ind1, ind2, term, block):
    """Divergences for one block of pair candidates via 0/1 matmuls.

    ind1[a1][g] is the float32 (m1, p_g) indicator slab of coset 1 restricted
    to the positions of group g (likewise ind2); counts of small integers are
    exact in float32.
    """
    q1 = len(ind1)
    q2 = len(ind2)
    groups = len(ind1[0])
    m2 = ind2[0][0].shape[0] if groups else 0
    d = np.zeros((block.stop - block.start, m2))
    for g in range(groups):
        for a1 in range(q1):
            lhs = ind1[a1][g][block]
            if lhs.shape[1] == 0:
                continue
            for a2 in range(q2):
                cnt = lhs @ ind2[a2][g].T
                d += term[g, a1, a2][cnt.astype(np.int64)]
    return d


def _binary_pair_tables(term, group_sizes, n):
    """Collapse a binary-pair term table into one lookup per group.

    For binary symbols the four joint counts are affine in the ones-ones
    inner product: c10 = s1 - c11, c01 = s2 - c11, c00 = p - s1 - s2 + c11.
    Returns flat tables indexed by (s1*(n+1) + s2)*(n+1) + c11.
    """
    k1 = n + 1
    s1 = np.arange(k1)[:, None, None]
    s2 = np.arange(k1)[None, :, None]
    c11 = np.arange(k1)[None, None, :]
    tables = []
    for g, p in enumerate(group_sizes):
        c10 = s1 - c11
        c01 = s2 - c11
        c00 = p - s1 - s2 + c11
        valid = (c10 >= 0) & (c01 >= 0) & (c00 >= 0) & (c11 <= np.minimum(s1, s2))
        idx = lambda c: np.clip(c, 0, n)
        t = (term[g, 1, 1][idx(c11)] + term[g, 1, 0][idx(c10)]
             + term[g, 0, 1][idx(c01)] + term[g, 0, 0][idx(c00)])
        t = np.where(valid, t, np.inf)
        tables.append(np.ascontiguousarray(t.reshape(-1)))
    return tables


def _binary_pair_block(p1_ind, p2_ind, s1_all, s2_all, tables, n, block):
    """Binary specialization: one matmul and one gather per position group."""
    m2 = p2_ind[0].shape[0]
    d = np.zeros((block.stop - block.start, m2))
    k1 = n + 1
    for g, table in enumerate(tables):
        c11 = (p1_ind[g][block] @ p2_ind[g].T).astype(np.int32)
        c11 += (s1_all[g][block][:, None] * k1 + s2_all[g][None, :]) * k1
        d += table[c11]
    return d


def _pair_scan_ties(cosets, qs, base, strides, flat_factors, model_flat, n):
    """Tie set (original flat indices) for large product cosets.

    The two largest cosets form the inner bilinear pair; the remaining
    senders are folded into the per-position context and iterated outside.
    """
    import itertools
    sizes = [c.shape[0] for c in cosets]
    order = sorted(range(len(cosets)), key=lambda j: -sizes[j])
    p1, p2 = order[0], order[1]
    rest = sorted(order[2:])
    c1, c2 = cosets[p1], cosets[p2]
    q1, q2 = qs[p1], qs[p2]
    m1, m2 = sizes[p1], sizes[p2]
    block_rows = max(1, (1 << 22) // max(m2, 1))

    binary = q1 == 2 and q2 == 2

    def group_context(base_vec):
        vals, gids = np.unique(base_vec, return_inverse=True)
        term = _term_table(vals, strides[p1], strides[p2], q1, q2, model_flat, n)
        if binary:
            p1_ind = [np.ascontiguousarray((c1[:, gids == g] == 1).astype(np.float32))
                      for g in range(len(vals))]
            p2_ind = [np.ascontiguousarray((c2[:, gids == g] == 1).astype(np.float32))
                      for g in range(len(vals))]
            s1_all = [p.sum(axis=1).astype(np.int32) for p in p1_ind]
            s2_all = [p.sum(axis=1).astype(np.int32) for p in p2_ind]
            sizes_g = [p.shape[1] for p in p1_ind]
            tables = _binary_pair_tables(term, sizes_g, n)
            return lambda block: _binary_pair_block(p1_ind, p2_ind, s1_all, s2_all,
                                                    tables, n, block)
        ind1 = [[np.ascontiguousarray((c1[:, gids == g] == a).astype(np.float32))
                 for g in range(len(vals))] for a in range(q1)]
        ind2 = [[np.ascontiguousarray((c2[:, gids == g] == a).astype(np.float32))
                 for g in range(len(vals))] for a in range(q2)]
        return lambda block: _pair_block_divergences(ind1, ind2, term, block)

    rest_iter = list(itertools.product(*(range(sizes[j]) for j in rest)))
    # Pass 1: global minimum, remembering per-block minima for the re-scan.
    block_info = []
    best = np.inf
    for combo in rest_iter:
        base_vec = base.copy()
        for j, idx in zip(rest, combo):
            base_vec = base_vec + cosets[j][idx] * strides[j]
        block_divs = group_context(base_vec)
        for start in range(0, m1, block_rows):
            block = slice(start, min(m1, start + block_rows))
            d = block_divs(block)
            mn = float(d.min())
            block_info.append((combo, block, mn))
            if mn < best:
                best = mn
    if np.isinf(best):
        # Every candidate misses the model support; all tie, lex-first wins.
        return [0]
    ties = []
    for combo, block, mn in block_info:
        if not (mn <= best * (1.0 + REL_TOL) or (np.isinf(best) and np.isinf(mn))):
            continue
        base_vec = base.copy()
        flat_rest = 0
        for j, idx in zip(rest, combo):
            base_vec = base_vec + cosets[j][idx] * strides[j]
            flat_rest += idx * flat_factors[j]
        d = group_context(base_vec)(block)
        if np.isinf(best):
            hits = np.nonzero(np.isinf(d))
        else:
            hits = np.nonzero(d <= best * (1.0 + REL_TOL))
        for i1, i2 in zip(*hits):
            ties.append(flat_rest + (block.start + int(i1)) * flat_factors[p1]
                        + int(i2) * flat_factors[p2])
    return ties


class MinDivDecoder:
    """Joint minimum-divergence decoder compiled for fixed cosets.

    Built once per (labels, syndromes, model, u): the build validates the
    inputs, enumerates the per-sender cosets and precomputes everything that
    does not depend on the channel output; each call with y runs the search
    over the product of the cosets.  `model` has one axis per variable in
    order (u if given, senders..., y); sequences hold indices into the
    matching axis.
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
        with np.errstate(divide="ignore"):
            log_denom = np.where(model_flat > 0,
                                 np.log2(np.maximum(n * model_flat, 1e-300)), -np.inf)
        flat_factors = [1] * len(sizes)
        for j in range(len(sizes) - 2, -1, -1):
            flat_factors[j] = flat_factors[j + 1] * sizes[j + 1]
        rest_product = math.prod(sorted(sizes, reverse=True)[2:])

        self.n = n
        self.cosets = cosets
        self.sizes = sizes
        self._qs = [lab.field.q for lab in labels]
        self._n_out = shape[-1]
        self._y_stride = int(strides[-1])
        self._base = (u * strides[0] if u is not None
                      else np.zeros(n, dtype=np.int64))
        self._sender_strides = [int(strides[offset + j]) for j in range(len(labels))]
        self._n_cells = int(np.prod(shape))
        self._model_flat = model_flat
        self._log_denom = log_denom[None, :]
        self._flat_factors = flat_factors
        self._denoms = ([n * Fraction(float(p)) for p in model_flat]
                        if all(q == 2 for q in self._qs) else None)
        self._pair = total > (1 << 16) and len(cosets) >= 2 and rest_product <= 256
        self._chunk = max(1, SCAN_CHUNK_CELLS // max(n, 1))
        # The y-free cells of a product that fits one chunk are kept.
        self._static = (list(self._static_chunks())
                        if not self._pair and total <= self._chunk else None)

    def _static_chunks(self):
        """Yield (offset, cells) over the product of cosets, in lex order.

        cells[r] holds the model cell of every position of candidate
        f0 + r without the y term, shifted by r * n_cells so one bincount
        counts the whole chunk.
        """
        total = math.prod(self.sizes)
        contribs = [c * s for c, s in zip(self.cosets, self._sender_strides)]
        for f0 in range(0, total, self._chunk):
            f1 = min(total, f0 + self._chunk)
            idxs = np.unravel_index(np.arange(f0, f1), self.sizes)
            cells = self._base[None, :].copy()
            for contrib, idx in zip(contribs, idxs):
                cells = cells + contrib[idx]
            cells += (np.arange(f1 - f0, dtype=np.int64) * self._n_cells)[:, None]
            yield f0, cells

    def _scan_ties(self, y_cells: np.ndarray) -> list[int]:
        """Tie set (flat indices) by one pass over the product of cosets.

        Only the candidates within tolerance of the running minimum are
        kept; the minimum only falls, so filtering them against the final
        minimum gives the tie set of a two-pass scan.
        """
        best = np.inf
        kept = []
        for f0, static in (self._static if self._static is not None
                           else self._static_chunks()):
            m = static.shape[0]
            counts = np.bincount((static + y_cells).ravel(),
                                 minlength=m * self._n_cells).reshape(m, self._n_cells)
            dv = _divergence_from_counts(counts, self._log_denom, self.n)
            low = dv.min()
            if np.isinf(low):
                continue
            if low < best:
                best = low
            hit = np.nonzero(dv <= best * (1.0 + REL_TOL))[0]
            kept.append((f0 + hit, dv[hit]))
        if np.isinf(best):
            # Every candidate misses the model support; all tie, lex-first wins.
            return [0]
        return [int(i) for idx, dv in kept for i in idx[dv <= best * (1.0 + REL_TOL)]]

    def _candidate(self, flat: int) -> tuple[np.ndarray, ...]:
        idx = np.unravel_index(flat, self.sizes)
        return tuple(c[i] for c, i in zip(self.cosets, idx))

    def _key(self, base: np.ndarray, flat: int):
        cells = base.copy()
        for part, s in zip(self._candidate(flat), self._sender_strides):
            cells = cells + part * s
        counts = np.bincount(cells, minlength=self._n_cells)
        return _exact_key(counts, self._denoms)

    def __call__(self, y) -> tuple[np.ndarray, ...]:
        y = np.asarray(y, dtype=np.int64)
        if y.shape != (self.n,):
            raise ValueError("y length must equal the block length")
        if y.max(initial=0) >= self._n_out:
            raise ValueError("output symbol outside the model axis")
        y_cells = y * self._y_stride
        base = self._base + y_cells
        if self._pair:
            ties = _pair_scan_ties(self.cosets, self._qs, base, self._sender_strides,
                                   self._flat_factors, self._model_flat, self.n)
        else:
            ties = self._scan_ties(y_cells)
        ties = np.asarray(sorted(ties), dtype=np.int64)
        if ties.size > 1 and self._denoms is not None:
            ties = _refine_exact(ties, lambda flat: self._key(base, flat))
        return self._candidate(int(ties[0]))


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
