"""Exhaustive verification suites for the toolkit's combinatorial claims.

Each suite covers every object in a small scope and counts violations of
the bound or identity under test.  The types suite counts sequences and
pairs by type class, with exact class sizes; the hash suite walks each
ensemble's whole support in bounded chunks.  The codec suite instead
replays random instances against slow, independently written reference
searches.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng as rng_mod
from .codec import (ABS_TOL, CosetSpec, EmptyCosetError, EncodeTarget, build_T_subset,
                    min_div_decode, min_div_encode)
from .empirical import (_divergence_from_counts, _entropy_counts,
                        _log2_denom, conditional_divergences, enumerate_types,
                        type_class_size)
from .ensembles import (EnsembleSpec, SPARSE, UNIFORM, collision_by_weight, collision_prob,
                        conditional_maxima, crp_bound, crp_rate_exact,
                        estimate_hash_params, multi_crp_bound,
                        multi_crp_rate_exact, product_params, saturation_bound,
                        saturation_rate_exact, support_label,
                        uniform_syndrome_hit_rate, ensemble_syndrome_hit_rate,
                        _output_chunks, _syndrome_hits)
from .gf import FieldSpec, LinearLabel, all_vectors
from .prob import CondPmf, Pmf
from .regions import (in_region_private, in_region_sw, inside, joint_sw, joint_ts,
                      mutual_information, rate_split, sender_names)
from .channel import Dmc, deterministic_dmc
from .scenarios import reduce_common_to_private
from . import slack


@dataclass
class LemmaReport:
    name: str
    cases: int
    violations: int
    vacuous: int = 0

    @property
    def ok(self) -> bool:
        return self.violations == 0


# ---------------------------------------------------------------------------
# Method-of-types suite, counted over type classes.
#
# Every statistic these lemmas test is a function of a sequence's type, or
# of a pair's joint type, alone.  So a count over all sequences is a sum over
# types, each weighted by its exact class size (a Python int), and no
# sequence is enumerated.
# ---------------------------------------------------------------------------

def _div_from_counts(counts: np.ndarray, denom: np.ndarray, n: int) -> np.ndarray:
    """(1/n) sum over cells of c*log2(c/denom); denom 0 with c>0 gives +inf."""
    return _divergence_from_counts(counts, _log2_denom(denom), n)


def _binary_types(n: int) -> np.ndarray:
    """Types (n - k, k) of the binary n-sequences, one row per count of ones k = 0..n."""
    k = np.arange(n + 1)
    return np.stack([n - k, k], axis=1)


def _binomials(n: int) -> np.ndarray:
    """C(n, k) for k = 0..n as Python ints: the class size of each binary type."""
    return np.array([math.comb(n, k) for k in range(n + 1)], dtype=object)


def _total(sizes: np.ndarray, mask: np.ndarray) -> int:
    """Exact number of objects in the classes where mask holds."""
    return int(sizes[mask].sum())


@dataclass(frozen=True)
class _PairTypes:
    """Joint types of the binary (v, u) pairs of length n, and their statistics.

    One entry per type (c11, k, c.1): the positions where v and u are both
    1, the ones of v and the ones of u.  cells holds the counts of
    (v, u) = 00, 01, 10, 11.  per_v is the number of u that give the type
    for one v with k ones, C(k, c11) C(n - k, c.1 - c11), and size the
    number of pairs of the type, C(n, k) per_v.  The statistics follow
    the model muv, indexed [v, u].
    """

    n: int
    k: np.ndarray
    per_v: np.ndarray
    size: np.ndarray
    cells: np.ndarray
    d_joint: np.ndarray
    d_v: np.ndarray
    d_u: np.ndarray
    d_cond: np.ndarray
    h_v: np.ndarray
    h_vu: np.ndarray

    def by_v(self, values: np.ndarray, mask: np.ndarray) -> list:
        """Per k = 0..n: the sum of values over one v's pairs with mask, for a v with k ones."""
        return [values[mask & (self.k == j)].sum() for j in range(self.n + 1)]


def _pair_types(n: int, muv: np.ndarray) -> _PairTypes:
    c11, k, cu1 = np.indices((n + 1,) * 3, dtype=np.int64).reshape(3, -1)
    cells = np.stack([n - k - cu1 + c11, cu1 - c11, k - c11, c11], axis=1)
    valid = (cells >= 0).all(axis=1)
    c11, k, cu1, cells = c11[valid], k[valid], cu1[valid], cells[valid]
    per_v = np.array([math.comb(a, b) * math.comb(n - a, c - b)
                      for a, b, c in zip(k.tolist(), c11.tolist(), cu1.tolist())], dtype=object)
    cv = cells.reshape(-1, 2, 2).sum(axis=2)
    cu = cells.reshape(-1, 2, 2).sum(axis=1)
    mu_v = muv.sum(axis=1)
    mu_cond = muv / mu_v[:, None]
    return _PairTypes(
        n, k, per_v, _binomials(n)[k] * per_v, cells,
        d_joint=_div_from_counts(cells, n * muv.ravel()[None, :], n),
        d_v=_div_from_counts(cv, n * mu_v[None, :], n),
        d_u=_div_from_counts(cu, n * muv.sum(axis=0)[None, :], n),
        d_cond=_div_from_counts(cells, (cv[:, :, None] * mu_cond[None, :, :]).reshape(-1, 4), n),
        h_v=_entropy_counts(cv, n),
        h_vu=_entropy_counts(cells, n))


MU_SET = (np.array([0.5, 0.5]), np.array([0.75, 0.25]))
# Joint model for the pair lemmas: v uniform, u matches v with probability 3/4.
MUV = np.array([[0.375, 0.125], [0.125, 0.375]])

# The suites' fixed scope: block lengths of the sequence and pair lemmas,
# typicality radii, the seed of the randomized checks, and the codec
# suite's instances per reference search.
TYPE_NS = (4, 6, 8, 10)
PAIR_NS = (4, 6, 8)
RADII = (0.01, 0.05, 0.125)
SEED = 20250811
ENCODE_INSTANCES = 120
DECODE_INSTANCES = 80


def types_suite() -> list[LemmaReport]:
    """Exact method-of-types checks over binary alphabets, counted per type class."""
    reports = []

    cases = viol = 0
    for n in TYPE_NS:
        for m in (2, 3):
            cases += 1
            if not len(enumerate_types(n, range(m))) < (n + 1) ** m:
                viol += 1
    reports.append(LemmaReport("type-count-bound", cases, viol))

    cases = viol = 0
    for n in TYPE_NS:
        for m in (2, 3):
            lam = slack.type_count_penalty(n, m)
            for counts in enumerate_types(n, range(m)):
                h = float(_entropy_counts(counts, n))
                logsize = math.log2(type_class_size(counts))
                cases += 1
                if not (n * (h - lam) - 1e-9 <= logsize <= n * h + 1e-9):
                    viol += 1
    reports.append(LemmaReport("type-class-size-bounds", cases, viol))

    # Each table is built once, for every lemma that reads it.
    binary = {n: (_binary_types(n), _binomials(n)) for n in TYPE_NS}
    div = {(i, n): _div_from_counts(binary[n][0], n * mu[None, :], n)
           for i, mu in enumerate(MU_SET) for n in TYPE_NS}
    pairs = {n: _pair_types(n, MUV) for n in PAIR_NS}

    cases = viol = 0
    for i, mu in enumerate(MU_SET):
        for n in TYPE_NS:
            counts, sizes = binary[n]
            d = div[i, n]
            l1 = np.abs(counts / n - mu[None, :]).sum(axis=1)
            for g in RADII:
                typical = d < g
                cases += _total(sizes, typical)
                viol += _total(sizes, typical & (l1 > math.sqrt(2 * g) + 1e-12))
    reports.append(LemmaReport("typical-total-variation", cases, viol))

    cases = viol = 0
    for n in TYPE_NS:
        counts, sizes = binary[n]
        h = _entropy_counts(counts, n)
        lam = slack.type_count_penalty(n, 2)
        for hh in (0.0, 0.25, 0.5, 0.75, 1.0):
            cases += 1
            count = _total(sizes, h <= hh + 1e-12)
            if not count <= 2 ** (n * (hh + lam)) * (1 + 1e-9):
                viol += 1
    reports.append(LemmaReport("low-entropy-sequence-count", cases, viol))

    cases = viol = 0
    for n in PAIR_NS:
        t = pairs[n]
        for g in RADII:
            for gp in RADII:
                cases += 4**n
                viol += _total(t.size, (t.d_v < g) & (t.d_cond < gp) & ~(t.d_joint < g + gp))
            # Joint typicality implies both marginal and conditional typicality.
            cases += 4**n
            viol += _total(t.size, (t.d_joint < g) & (~(t.d_u < g) | ~(t.d_cond < g)))
    reports.append(LemmaReport("typicality-transfer", cases, viol))

    h_v_model = float(-(MUV.sum(axis=1) * np.log2(MUV.sum(axis=1))).sum())
    mu_v = MUV.sum(axis=1)
    mu_cond = MUV / mu_v[:, None]
    h_cond_model = float(-(MUV * np.log2(mu_cond)).sum())
    cases = viol = 0
    for n in PAIR_NS:
        t = pairs[n]
        h_ucond = t.h_vu - t.h_v
        for g in RADII:
            iota = slack.entropy_slack(g, 2)
            mask = t.d_v < g
            cases += _total(t.size, mask)
            viol += _total(t.size, mask & (np.abs(t.h_v - h_v_model) > iota + 1e-12))
            for gp in RADII:
                iota_c = slack.cond_entropy_slack(gp, g, 2, 2)
                m2 = mask & (t.d_cond < gp)
                cases += _total(t.size, m2)
                viol += _total(t.size, m2 & (np.abs(h_ucond - h_cond_model) > iota_c + 1e-12))
    reports.append(LemmaReport("typical-entropy-deviation", cases, viol))

    cases = viol = 0
    for i, mu in enumerate(MU_SET):
        for n in TYPE_NS:
            counts, sizes = binary[n]
            mass = np.exp2(counts @ np.log2(mu)) * sizes.astype(np.float64)
            lam = slack.type_count_penalty(n, 2)
            for g in RADII:
                cases += 1
                if not float(mass[~(div[i, n] < g)].sum()) <= 2 ** (-n * (g - lam)) * (1 + 1e-9):
                    viol += 1
    for n in PAIR_NS:
        t = pairs[n]
        mass = np.exp2((t.cells * np.log2(mu_cond).ravel()[None, :]).sum(axis=1)) \
            * t.per_v.astype(np.float64)
        lam4 = slack.type_count_penalty(n, 4)
        sizes = _binomials(n)
        for g in RADII:
            # One case per v: its atypical conditional mass, a function of its ones alone.
            sums = np.array(t.by_v(mass, ~(t.d_cond < g)))
            cases += 2**n
            viol += _total(sizes, sums > 2 ** (-n * (g - lam4)) * (1 + 1e-9))
    reports.append(LemmaReport("atypical-mass-bound", cases, viol))

    cases = viol = vac = 0
    for i, mu in enumerate(MU_SET):
        h_model = float(-(mu * np.log2(mu)).sum())
        for n in TYPE_NS:
            for g in RADII:
                count = _total(binary[n][1], div[i, n] < g)
                cases += 1
                if count == 0:
                    vac += 1
                    continue
                eta = slack.typical_size_slack(g, n, 2)
                if not abs(math.log2(count) / n - h_model) <= eta + 1e-9:
                    viol += 1
    for n in PAIR_NS:
        t = pairs[n]
        sizes = _binomials(n)
        # One case per typical v: its count of conditionally typical u, a
        # function of its ones k alone, as is its own typicality.
        per_v = {gp: np.array(t.by_v(t.per_v, t.d_cond < gp), dtype=object) for gp in RADII}
        d_v = _div_from_counts(_binary_types(n), n * mu_v[None, :], n)
        for g in RADII:
            for gp in RADII:
                eta_c = slack.cond_typical_size_slack(gp, g, n, 2, 2)
                cnt, w = per_v[gp][d_v < g], sizes[d_v < g]
                live = cnt > 0
                dev = np.abs(np.log2(cnt[live].astype(np.float64)) / n - h_cond_model)
                cases += int(w.sum())
                vac += _total(w, ~live)
                viol += _total(w[live], ~(dev <= eta_c + 1e-9))
    reports.append(LemmaReport("typical-set-size", cases, viol, vac))
    return reports


# ---------------------------------------------------------------------------
# Hash-family suite: exact collision statistics against the stated bounds.
# ---------------------------------------------------------------------------

def hash_suite() -> list[LemmaReport]:
    reports = []
    f2 = FieldSpec(2)

    cases = viol = 0
    for l in (1, 2, 3):
        for n in (2, 3, 4):
            spec = EnsembleSpec(UNIFORM, l, n, f2)
            diffs = all_vectors(2, n)[1:]
            # Per difference, the labels of the whole support that map it to 0.
            hits = labels = 0
            for outs in _output_chunks(spec, diffs):
                hits += (outs == 0).all(axis=2).sum(axis=0)
                labels += outs.shape[0]
            rates = hits / labels
            cases += diffs.shape[0]
            viol += int((rates != 2.0**-l).sum())
            for d_idx in (0, diffs.shape[0] - 1):
                cases += 1
                got = collision_prob(spec, diffs[d_idx], np.zeros(n, dtype=np.int64))
                if got != 2.0**-l:
                    viol += 1
    reports.append(LemmaReport("pairwise-collision-exactness", cases, viol))

    cases = viol = 0
    for spec in (EnsembleSpec(UNIFORM, 2, 4, f2),
                 EnsembleSpec(UNIFORM, 3, 3, f2),
                 EnsembleSpec("random-binning", 1, 2, f2),
                 EnsembleSpec("random-binning", 2, 3, f2)):
        p = estimate_hash_params(spec)
        cases += 1
        if not (p.alpha == 1.0 and p.beta == 0.0):
            viol += 1
    reports.append(LemmaReport("two-universal-params", cases, viol))

    rng = rng_mod.stream(SEED, "hash-suite")
    specs = [EnsembleSpec(UNIFORM, l, n, f2)
             for l in (1, 2, 3) for n in (3, 4) if l < n]
    specs += [EnsembleSpec(SPARSE, 2, 4, f2, column_degree=1),
              EnsembleSpec(SPARSE, 3, 4, f2, column_degree=2)]
    cases = viol = 0
    for i in range(30):
        spec = specs[i % len(specs)]
        params = estimate_hash_params(spec)
        space = all_vectors(2, spec.cols)
        size = int(rng.integers(1, space.shape[0], None))
        T = space[rng.choice(space.shape[0], size=size, replace=False, p=None)]
        rate = saturation_rate_exact(spec, T)
        bound = saturation_bound(params.alpha, params.beta, spec.im_size, T.shape[0])
        cases += 1
        if rate > bound + 1e-12:
            viol += 1
    reports.append(LemmaReport("bin-saturation-bound", cases, viol))

    cases = viol = 0
    for i in range(30):
        spec = specs[i % len(specs)]
        params = estimate_hash_params(spec)
        space = all_vectors(2, spec.cols)
        size = int(rng.integers(1, min(6, space.shape[0]), None))
        G = space[rng.choice(space.shape[0], size=size, replace=False, p=None)]
        u = G[int(rng.integers(0, size, None))] if rng.random(None) < 0.7 \
            else space[int(rng.integers(0, space.shape[0], None))]
        rate = crp_rate_exact(spec, G, u)
        bound = crp_bound(G.shape[0], spec.im_size, params.alpha, params.beta)
        cases += 1
        if rate > bound + 1e-12:
            viol += 1
    reports.append(LemmaReport("collision-resistance-bound", cases, viol))

    cases = viol = 0
    pair = (EnsembleSpec(UNIFORM, 2, 3, f2), EnsembleSpec(UNIFORM, 2, 3, f2))
    params = [estimate_hash_params(s) for s in pair]
    space = all_vectors(2, 3)
    for _ in range(6):
        size = int(rng.integers(2, 7, None))
        tuples = []
        seen = set()
        while len(tuples) < size:
            a = tuple(space[int(rng.integers(0, 8, None))])
            b = tuple(space[int(rng.integers(0, 8, None))])
            if (a, b) not in seen:
                seen.add((a, b))
                tuples.append((a, b))
        u_parts = tuples[int(rng.integers(0, size, None))]
        rate = multi_crp_rate_exact(pair, tuples, u_parts)
        maxima = conditional_maxima(tuples, 2)
        bound = multi_crp_bound(maxima, [s.im_size for s in pair], params)
        cases += 1
        if rate > bound + 1e-12:
            viol += 1
    reports.append(LemmaReport("joint-collision-bound", cases, viol))

    cases = viol = 0
    for l in (0, 1, 2, 3):
        for n in (2, 3, 4):
            spec = EnsembleSpec(UNIFORM, l, n, f2)
            want = 1.0 / spec.im_size
            space = all_vectors(2, n)
            labels = 0
            for hits in _syndrome_hits(spec, space):  # (labels, vectors) per chunk
                rates = hits / spec.im_size
                cases += rates.size
                viol += int((rates != want).sum())
                if labels == 0:
                    first = rates[0]
                labels += rates.shape[0]
            # The batched rows must agree with the one-label function.
            for i, row in ((0, first), (labels - 1, rates[-1])):
                label = support_label(spec, i)
                one = np.array([uniform_syndrome_hit_rate(label, u) for u in space])
                viol += int((one != row).sum())
            cases += 1
            if ensemble_syndrome_hit_rate(spec, np.zeros(n, dtype=np.int64)) != want:
                viol += 1
    reports.append(LemmaReport("uniform-syndrome-average", cases, viol))

    cases = viol = 0
    s1 = EnsembleSpec(SPARSE, 2, 4, f2, column_degree=1)
    s2 = EnsembleSpec(SPARSE, 2, 4, f2, column_degree=2)
    p1, p2 = estimate_hash_params(s1), estimate_hash_params(s2)
    stacked = product_params(p1, p2)
    f1 = collision_by_weight(s1)
    f2rates = collision_by_weight(s2)
    im = s1.im_size * s2.im_size
    thr = Fraction(stacked.alpha).limit_denominator(10**9) / im
    mass = Fraction(0)
    for w in range(1, 5):
        joint = f1[w] * f2rates[w]
        if joint > thr:
            mass += math.comb(4, w) * joint
    cases += 1
    if float(mass) > stacked.beta + 1e-12:
        viol += 1
    u_pair = estimate_hash_params(EnsembleSpec(UNIFORM, 4, 4, f2))
    cases += 1
    if not (u_pair.alpha == 1.0 and u_pair.beta == 0.0):
        viol += 1
    reports.append(LemmaReport("stacked-family-params", cases, viol))

    cases = viol = 0
    for spec in (EnsembleSpec(UNIFORM, 2, 3, f2),
                 EnsembleSpec(SPARSE, 2, 3, f2, column_degree=1)):
        params = estimate_hash_params(spec)
        rates = collision_by_weight(spec)
        space = all_vectors(2, 3)
        for _ in range(10):
            t_size = int(rng.integers(1, 8, None))
            tp_size = int(rng.integers(1, 8, None))
            T = space[rng.choice(8, size=t_size, replace=False, p=None)]
            Tp = space[rng.choice(8, size=tp_size, replace=False, p=None)]
            total = Fraction(0)
            inter = 0
            for a in T:
                for b in Tp:
                    w = int(((a - b) % 2).sum())
                    if w == 0:
                        inter += 1
                    total += rates[w]
            bound = (inter + t_size * tp_size * params.alpha / spec.im_size
                     + min(t_size, tp_size) * params.beta)
            cases += 1
            if float(total) > bound + 1e-9:
                viol += 1
    reports.append(LemmaReport("aggregate-collision-mass", cases, viol))
    return reports


# ---------------------------------------------------------------------------
# Codec suite: independent reference searches.
# ---------------------------------------------------------------------------

def _ref_div_cells(counts: Counter, denom_fn, n: int) -> float:
    total = 0.0
    for cell, c in counts.items():
        den = denom_fn(cell)
        if den == 0:
            return math.inf
        total += (c / n) * math.log2(c / den)
    return total


def _ref_key_cells(counts: Counter, denom_fn):
    key = Fraction(1)
    for cell, c in counts.items():
        den = denom_fn(cell)
        if den == 0:
            return None
        key *= Fraction(c) ** c / Fraction(den) ** c
    return key


def _ref_select(cands, div_fn, key_fn, exact: bool):
    ds = [div_fn(c) for c in cands]
    m = min(ds)
    if math.isinf(m):
        ties = [i for i, d in enumerate(ds) if math.isinf(d)]
    else:
        ties = [i for i, d in enumerate(ds) if d <= m * (1 + 1e-12) + ABS_TOL]
    if len(ties) > 1 and exact:
        keys = [key_fn(cands[i]) for i in ties]
        finite = [k for k in keys if k is not None]
        if finite:
            best = min(finite)
            ties = [i for i, k in zip(ties, keys) if k is not None and k == best]
    return cands[ties[0]]


@functools.lru_cache(maxsize=None)
def _ref_space(n):
    """All 2^n binary vectors in lexicographic order, one per row; built once per n, read-only."""
    space = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64).reshape(2**n, n)
    space.flags.writeable = False
    return space


def _ref_encode(label_rows, targets, n, mu, u):
    """Reference scan over all 2^n vectors; mu is marginal when u is None."""
    space = _ref_space(n)
    keep = np.ones(space.shape[0], dtype=bool)
    for rows, t in zip(label_rows, targets):  # a label with no rows keeps every vector
        keep &= ((space @ rows.T) % 2 == t).all(axis=1)
    sols = list(space[keep])
    if not sols:
        return None

    if u is None:
        def div_fn(x):
            counts = Counter(x.tolist())
            return _ref_div_cells(counts, lambda a: n * mu[a], n)

        def key_fn(x):
            counts = Counter(x.tolist())
            return _ref_key_cells(counts, lambda a: n * Fraction(float(mu[a])))
    else:
        u = [int(b) for b in u]
        cv = Counter(u)

        def div_fn(x):
            counts = Counter(zip(u, x.tolist()))
            return _ref_div_cells(counts, lambda cell: cv[cell[0]] * mu[cell[0], cell[1]], n)

        def key_fn(x):
            counts = Counter(zip(u, x.tolist()))
            return _ref_key_cells(
                counts, lambda cell: cv[cell[0]] * Fraction(float(mu[cell[0], cell[1]])))

    return _ref_select(sols, div_fn, key_fn, exact=True)


def _ref_decode(labels, syndromes, y, model, u):
    per_sender = []
    n = len(y)
    space = _ref_space(n)
    for rows, t in zip(labels, syndromes):
        sols = list(space[((space @ rows.T) % 2 == t).all(axis=1)])
        if not sols:
            return None
        per_sender.append(sols)

    context = [[int(s) for s in u]] if u is not None else []
    output = [int(s) for s in y]

    def cells_of(parts):
        return Counter(zip(*context, *(p.tolist() for p in parts), output))

    def div_fn(parts):
        return _ref_div_cells(cells_of(parts), lambda cell: n * model[cell], n)

    def key_fn(parts):
        return _ref_key_cells(cells_of(parts), lambda cell: n * Fraction(float(model[cell])))

    cands = list(itertools.product(*per_sender))
    return _ref_select(cands, div_fn, key_fn, exact=True)


def _random_mu(rng) -> np.ndarray:
    kind = rng.integers(0, 4, None)
    if kind == 0:
        return np.array([0.5, 0.5])
    if kind == 1:
        return np.array([0.75, 0.25])
    if kind == 2:
        return np.array([1.0, 0.0])
    w = rng.integers(1, 16, size=2).astype(float)
    return w / w.sum()


def codec_suite() -> list[LemmaReport]:
    reports = []
    f2 = FieldSpec(2)
    rng = rng_mod.stream(SEED, "codec-suite")

    cases = viol = 0
    for _ in range(ENCODE_INSTANCES):
        n = int(rng.integers(2, 9, None))
        l = int(rng.integers(0, min(4, n) + 1, None))
        lp = int(rng.integers(0, min(3, n - l) + 1, None))
        A = LinearLabel(f2, rng.integers(0, 2, size=(l, n)))
        Ap = LinearLabel(f2, rng.integers(0, 2, size=(lp, n)))
        a = rng.integers(0, 2, size=l)
        mvec = rng.integers(0, 2, size=lp)
        mu = _random_mu(rng)
        conditional = rng.random(None) < 0.5
        cs = CosetSpec(A, Ap, a, mvec)
        if conditional:
            u = rng.integers(0, 2, size=n)
            rows = np.stack([_random_mu(rng), _random_mu(rng)])
            target = EncodeTarget.for_conditional(
                CondPmf((0, 1), (0, 1), rows), u)
            ref = _ref_encode([A.matrix, Ap.matrix], [a, mvec], n, rows, u)
        else:
            target = EncodeTarget.for_marginal(Pmf((0, 1), mu), n)
            ref = _ref_encode([A.matrix, Ap.matrix], [a, mvec], n, mu, None)
        cases += 1
        try:
            got = min_div_encode(cs, target)
        except EmptyCosetError:
            got = None
        if (got is None) != (ref is None):
            viol += 1
        elif got is not None and not (got == ref).all():
            viol += 1
    reports.append(LemmaReport("encoder-reference-equivalence", cases, viol))

    cases = viol = 0
    for _ in range(DECODE_INSTANCES):
        n = int(rng.integers(3, 9, None))
        k = int(rng.integers(1, 3, None))
        labels, syndromes = [], []
        x_true = []
        for _ in range(k):
            l = int(rng.integers(max(1, n - 4), n + 1, None))
            A = LinearLabel(f2, rng.integers(0, 2, size=(l, n)))
            x = rng.integers(0, 2, size=n)
            labels.append(A)
            syndromes.append((A.matrix @ x) % 2)
            x_true.append(x)
        with_u = rng.random(None) < 0.4
        u = rng.integers(0, 2, size=n) if with_u else None
        y = rng.integers(0, 2, size=n)
        shape = (2,) * (k + (1 if with_u else 0)) + (2,)
        w = rng.integers(1, 9, size=shape).astype(float)
        if rng.random(None) < 0.3:
            w[tuple(0 for _ in shape)] = 0.0
        model = w / w.sum()
        cases += 1
        got = min_div_decode(labels, syndromes, y, model, u=u)
        ref = _ref_decode([lab.matrix for lab in labels], syndromes, y, model, u)
        if ref is None or len(got) != len(ref) \
                or not all((g == r).all() for g, r in zip(got, ref)):
            viol += 1
    reports.append(LemmaReport("decoder-reference-equivalence", cases, viol))

    cases = viol = 0
    for _ in range(20):
        n = int(rng.integers(3, 8, None))
        u = rng.integers(0, 2, size=n)
        rows = np.stack([_random_mu(rng), _random_mu(rng)])
        while (rows <= 0).any():
            rows = np.stack([_random_mu(rng), _random_mu(rng)])
        cond = CondPmf((0, 1), (0, 1), rows)
        gamma = float(rng.choice([0.05, 0.125, 0.4, 1.0], size=None, replace=True, p=None))
        cands = all_vectors(2, n)
        d = conditional_divergences(cands, cond, u)
        t_size = int((d < gamma).sum())
        if t_size == 0:
            continue
        size = int(rng.integers(1, t_size + 1, None))
        sub = build_T_subset(u, cond, gamma, size)
        order = np.argsort(d[d < gamma], kind="stable")
        want = cands[np.nonzero(d < gamma)[0][order][:size]]
        cases += 1
        if not (sub == want).all():
            viol += 1
        bigger = build_T_subset(u, cond, min(1.0, gamma * 2), size)
        cases += 1
        if bigger.shape[0] != size:
            viol += 1
    reports.append(LemmaReport("typical-subset-order", cases, viol))
    return reports


# ---------------------------------------------------------------------------
# Regions suite.
# ---------------------------------------------------------------------------

def _random_dmc(rng) -> Dmc:
    """A random two-sender binary channel with a binary output."""
    w = rng.integers(1, 9, size=(2, 2, 2)).astype(float)
    return Dmc((2, 2), 2, w / w.sum(axis=-1, keepdims=True))


def _random_sw_law(rng):
    dmc = _random_dmc(rng)
    mu0 = rng.integers(1, 9, size=2).astype(float)
    mu0 /= mu0.sum()
    c1 = rng.integers(1, 9, size=(2, 2)).astype(float)
    c1 /= c1.sum(axis=1, keepdims=True)
    c2 = rng.integers(1, 9, size=(2, 2)).astype(float)
    c2 /= c2.sum(axis=1, keepdims=True)
    return joint_sw(mu0, c1, c2, dmc)


# Candidate triples the rate-split check draws and tests per array pass.
SPLIT_BLOCK = 1024


def regions_suite(split_points: int = 100) -> list[LemmaReport]:
    reports = []
    rng = rng_mod.stream(SEED, "regions-suite")

    adder = deterministic_dmc((2, 2), 3, lambda a, b: a + b)
    law = joint_ts([1.0], [np.full((1, 2), 0.5)] * 2, adder)
    cases = viol = 0
    checks = [
        abs(mutual_information(law, ["x1"], ["y"], ["x2"]) - 1.0) <= 1e-9,
        abs(mutual_information(law, ["x1", "x2"], ["y"]) - 1.5) <= 1e-9,
        bool(in_region_private((0.5, 0.5), law)),
        not in_region_private((1.0, 1.0), law),
        "J={1,2}" in (in_region_private((1.0, 1.0), law).witness or ""),
    ]
    xor = deterministic_dmc((2, 2), 2, lambda a, b: (a + b) % 2)
    xlaw = joint_ts([1.0], [np.full((1, 2), 0.5)] * 2, xor)
    checks.append(not in_region_private((0.6, 0.6), xlaw))
    cases = len(checks)
    viol = sum(not c for c in checks)
    reports.append(LemmaReport("reference-channel-numerics", cases, viol))

    cases = viol = 0
    for _ in range(20):
        dmc = _random_dmc(rng)
        lw = joint_ts([1.0], [np.full((1, 2), 0.5)] * 2, dmc)
        cap = [mutual_information(lw, [nm], ["y"],
                                  [o for o in sender_names(2) if o != nm])
               for nm in sender_names(2)]
        point = None
        for _ in range(50):
            r = (rng.random(None) * max(cap[0], 1e-6), rng.random(None) * max(cap[1], 1e-6))
            if in_region_private(r, lw):
                point = r
                break
        if point is None:
            continue
        shrunk = (point[0] * rng.random(None), point[1] * rng.random(None))
        cases += 1
        if not in_region_private(shrunk, lw):
            viol += 1
    reports.append(LemmaReport("region-downward-closure", cases, viol))

    cases = viol = 0
    for _ in range(20):
        lw = _random_sw_law(rng)
        lhs = mutual_information(lw, ["x1", "x2"], ["y"])
        rhs = mutual_information(lw, ["x0", "x1", "x2"], ["y"])
        cases += 1
        if abs(lhs - rhs) > 1e-9:
            viol += 1
    reports.append(LemmaReport("cloud-chain-identity", cases, viol))

    cases = viol = 0
    for _ in range(10):
        dmc = _random_dmc(rng)
        dists = [rng.integers(1, 9, size=2).astype(float) for _ in range(2)]
        dists = [d / d.sum() for d in dists]
        derived, _ = reduce_common_to_private(dmc, [(0,), (1,)],
                                              [lambda a: a, lambda a: a], (2, 2))
        conds = [d[None, :] for d in dists]
        hl = joint_ts([1.0], conds, derived)
        pl = joint_ts([1.0], conds, dmc)
        for J in ((0,), (1,), (0, 1)):
            a = [f"x{i + 1}" for i in J]
            c = [f"x{i + 1}" for i in range(2) if i not in J]
            cases += 1
            if abs(mutual_information(hl, a, ["y"], c)
                   - mutual_information(pl, a, ["y"], c)) > 1e-12:
                viol += 1
    reports.append(LemmaReport("identity-reduction-match", cases, viol))

    cases = viol = 0
    split_rng = rng_mod.stream(SEED, "rate-split")
    dmc = _random_dmc(split_rng)
    mu0 = np.array([0.5, 0.5])
    c1 = np.array([[0.875, 0.125], [0.25, 0.75]])
    c2 = np.array([[0.75, 0.25], [0.125, 0.875]])
    sw_law = joint_sw(mu0, c1, c2, dmc)
    step = 2.0**-10
    bound_total = mutual_information(sw_law, ["x1", "x2"], ["y"])
    # Candidates are drawn SPLIT_BLOCK triples at a time.  random((B, 3)) gives
    # the same doubles in the same order as B calls of random(3), and accepted
    # rows are taken in draw order, so the cases are those of a one-draw loop.
    # Drawing past the last accepted row is safe only because nothing reads
    # split_rng after this loop.
    while cases < split_points:
        block = split_rng.random((SPLIT_BLOCK, 3)) * max(bound_total, 0.25)
        block = np.floor(block / step) * step
        block = block[(block.min(axis=1) > 0) & inside(block, sw_law)]
        for r in block[:split_points - cases]:
            cases += 1
            try:
                split = rate_split(tuple(r), sw_law)
            except Exception:
                viol += 1
                continue
            ok = in_region_sw(split.built, sw_law, include_aux=True)
            if not ok or split.recombine() != tuple(r):
                viol += 1
    reports.append(LemmaReport("rate-split-feasibility", cases, viol))
    return reports


SUITES = {
    "types": types_suite,
    "hash": hash_suite,
    "codec": codec_suite,
    "regions": regions_suite,
}


def run_suite(name: str) -> list[LemmaReport]:
    # SUITES is read at call time: a caller may replace its entries.
    if name == "all":
        return [r for suite in SUITES.values() for r in suite()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
