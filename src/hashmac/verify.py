"""Exhaustive verification suites for the toolkit's combinatorial claims.

Each suite enumerates every object in a small scope (sequences, matrices,
candidate vectors) and counts violations of the bound or identity under
test.  The codec suite instead replays random instances against slow,
independently written reference searches.
"""

from __future__ import annotations

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
                        saturation_rate_exact,
                        support_label, syndrome_hit_rates,
                        uniform_syndrome_hit_rate, ensemble_syndrome_hit_rate)
from .gf import FieldSpec, LinearLabel, all_vectors
from .prob import CondPmf, Pmf
from .regions import (in_region_private, in_region_sw, inside, joint_private, joint_sw,
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
# Vectorized helpers over exhaustive binary sequence/pair enumerations.
# ---------------------------------------------------------------------------

def _div_from_counts(counts: np.ndarray, denom: np.ndarray, n: int) -> np.ndarray:
    """(1/n) sum over cells of c*log2(c/denom); denom 0 with c>0 gives +inf."""
    return _divergence_from_counts(counts, _log2_denom(denom), n)


def _popcounts(n: int) -> np.ndarray:
    """Number of ones in each n-bit index 0 .. 2^n - 1."""
    pop = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        pop[1 << b:2 << b] = pop[:1 << b] + 1
    return pop


def _binary_stats(n: int, mu: np.ndarray):
    """For all 2^n sequences, as n-bit indices in lex order: counts (m,2) and divergence to mu.

    The divergence depends on the count of ones alone, so it is evaluated
    once per type and gathered per sequence.
    """
    c1 = np.arange(n + 1)
    types = np.stack([n - c1, c1], axis=1)
    ones = _popcounts(n)
    return types[ones], _div_from_counts(types, n * mu[None, :], n)[ones]


def _pair_stats(n: int, muv: np.ndarray):
    """For all 4^n (v, u) pairs, v_id-major with u_id ascending: counts and statistics.

    muv is the joint table indexed [v, u].  Returns (v_id, counts(m,2,2),
    D(vu joint), D(v marginal), D(u|v conditional), H(v), H(vu)), with
    counts[:, a, b] the positions where v is a and u is b.  Every statistic
    is a function of the pair's joint type (c11, c1., c.1) alone, so each is
    evaluated once per type and gathered per pair.
    """
    size = 1 << n
    ids = np.arange(size)
    pop = _popcounts(n)
    v_id = np.repeat(ids, size)
    # Row of each pair in the (n+1)^3 table of (c11, c1., c.1); u_id runs fastest.
    type_id = pop[v_id & np.tile(ids, size)]
    type_id *= n + 1
    type_id += np.repeat(pop, size)
    type_id *= n + 1
    type_id += np.tile(pop, size)
    c11, cv1, cu1 = np.indices((n + 1,) * 3, dtype=np.int64).reshape(3, -1)
    cells = np.stack([n - cv1 - cu1 + c11, cu1 - c11, cv1 - c11, c11], axis=1)
    valid = (cells >= 0).all(axis=1)
    type_id = (np.cumsum(valid) - 1)[type_id]
    types = cells[valid]
    cv = types.reshape(-1, 2, 2).sum(axis=2)
    mu_v = muv.sum(axis=1)
    mu_cond = muv / mu_v[:, None]
    stats = (_div_from_counts(types, n * muv.ravel()[None, :], n),
             _div_from_counts(cv, n * mu_v[None, :], n),
             _div_from_counts(types, (cv[:, :, None] * mu_cond[None, :, :]).reshape(-1, 4), n),
             _entropy_counts(cv, n),
             _entropy_counts(types, n))
    return (v_id, types.reshape(-1, 2, 2)[type_id]) + tuple(s[type_id] for s in stats)


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
    """Exhaustive method-of-types checks over binary alphabets."""
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

    # Each enumeration is built once, for every lemma that reads it.
    binary = {(i, n): _binary_stats(n, mu) for i, mu in enumerate(MU_SET) for n in TYPE_NS}
    pairs = {n: _pair_stats(n, MUV) for n in PAIR_NS}

    cases = viol = 0
    for i, mu in enumerate(MU_SET):
        for n in TYPE_NS:
            counts, d = binary[i, n]
            l1 = np.abs(counts / n - mu[None, :]).sum(axis=1)
            for g in RADII:
                typical = d < g
                cases += int(typical.sum())
                viol += int((typical & (l1 > math.sqrt(2 * g) + 1e-12)).sum())
    reports.append(LemmaReport("typical-total-variation", cases, viol))

    cases = viol = 0
    for n in TYPE_NS:
        counts, _ = binary[0, n]  # the counts do not depend on mu
        h = _entropy_counts(counts, n)
        lam = slack.type_count_penalty(n, 2)
        for hh in (0.0, 0.25, 0.5, 0.75, 1.0):
            cases += 1
            count = int((h <= hh + 1e-12).sum())
            if not count <= 2 ** (n * (hh + lam)) * (1 + 1e-9):
                viol += 1
    reports.append(LemmaReport("low-entropy-sequence-count", cases, viol))

    cases = viol = 0
    for n in PAIR_NS:
        _, counts, d_joint, d_v, d_cond, _, _ = pairs[n]
        cu = counts.sum(axis=1)
        mu_u = MUV.sum(axis=0)
        d_u = _div_from_counts(cu, n * mu_u[None, :], n)
        for g in RADII:
            for gp in RADII:
                cases += d_joint.size
                fwd = (d_v < g) & (d_cond < gp) & ~(d_joint < g + gp)
                viol += int(fwd.sum())
            # Joint typicality implies both marginal and conditional typicality.
            cases += d_joint.size
            back = (d_joint < g) & (~(d_u < g) | ~(d_cond < g))
            viol += int(back.sum())
    reports.append(LemmaReport("typicality-transfer", cases, viol))

    h_v_model = float(-(MUV.sum(axis=1) * np.log2(MUV.sum(axis=1))).sum())
    mu_v = MUV.sum(axis=1)
    mu_cond = MUV / mu_v[:, None]
    h_cond_model = float(-(MUV * np.log2(mu_cond)).sum())
    cases = viol = 0
    for n in PAIR_NS:
        _, _, _, d_v, d_cond, h_v, h_vu = pairs[n]
        h_ucond = h_vu - h_v
        for g in RADII:
            iota = slack.entropy_slack(g, 2)
            mask = d_v < g
            cases += int(mask.sum())
            viol += int((mask & (np.abs(h_v - h_v_model) > iota + 1e-12)).sum())
            for gp in RADII:
                iota_c = slack.cond_entropy_slack(gp, g, 2, 2)
                m2 = mask & (d_cond < gp)
                cases += int(m2.sum())
                viol += int((m2 & (np.abs(h_ucond - h_cond_model) > iota_c + 1e-12)).sum())
    reports.append(LemmaReport("typical-entropy-deviation", cases, viol))

    cases = viol = 0
    for i, mu in enumerate(MU_SET):
        for n in TYPE_NS:
            counts, d = binary[i, n]
            logp = counts @ np.log2(mu)
            lam = slack.type_count_penalty(n, 2)
            for g in RADII:
                mass = float(np.exp2(logp[~(d < g)]).sum())
                cases += 1
                if not mass <= 2 ** (-n * (g - lam)) * (1 + 1e-9):
                    viol += 1
    for n in PAIR_NS:
        v_id, counts, _, _, d_cond, _, _ = pairs[n]
        mu_cond_tbl = MUV / MUV.sum(axis=1)[:, None]
        logp = (counts * np.log2(mu_cond_tbl)[None, :, :]).reshape(counts.shape[0], 4).sum(axis=1)
        lam4 = slack.type_count_penalty(n, 4)
        for g in RADII:
            atyp = ~(d_cond < g)
            sums = np.bincount(v_id[atyp], weights=np.exp2(logp[atyp]), minlength=2**n)
            cases += 2**n
            viol += int((sums > 2 ** (-n * (g - lam4)) * (1 + 1e-9)).sum())
    reports.append(LemmaReport("atypical-mass-bound", cases, viol))

    cases = viol = vac = 0
    for i, mu in enumerate(MU_SET):
        h_model = float(-(mu * np.log2(mu)).sum())
        for n in TYPE_NS:
            _, d = binary[i, n]
            for g in RADII:
                count = int((d < g).sum())
                cases += 1
                if count == 0:
                    vac += 1
                    continue
                eta = slack.typical_size_slack(g, n, 2)
                if not abs(math.log2(count) / n - h_model) <= eta + 1e-9:
                    viol += 1
    for n in PAIR_NS:
        v_id, _, _, d_v, d_cond, _, _ = pairs[n]
        # One case per typical v: its count of conditionally typical u.
        per_v = {gp: np.bincount(v_id[d_cond < gp], minlength=2**n) for gp in RADII}
        for g in RADII:
            v_typical = np.bincount(v_id[d_v < g], minlength=2**n) > 0
            for gp in RADII:
                eta_c = slack.cond_typical_size_slack(gp, g, n, 2, 2)
                cnt = per_v[gp][v_typical]
                cases += cnt.size
                vac += int((cnt == 0).sum())
                dev = np.abs(np.log2(cnt[cnt > 0]) / n - h_cond_model)
                viol += int((~(dev <= eta_c + 1e-9)).sum())
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
            mats = all_vectors(2, l * n).reshape(-1, l, n)
            diffs = all_vectors(2, n)[1:]
            hits = ((mats @ diffs.T) % 2 == 0).all(axis=1)  # (M, D)
            rates = hits.mean(axis=0)
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
        size = int(rng.integers(1, space.shape[0]))
        T = space[rng.choice(space.shape[0], size=size, replace=False)]
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
        size = int(rng.integers(1, min(6, space.shape[0])))
        G = space[rng.choice(space.shape[0], size=size, replace=False)]
        u = G[int(rng.integers(size))] if rng.random() < 0.7 \
            else space[int(rng.integers(space.shape[0]))]
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
        size = int(rng.integers(2, 7))
        tuples = []
        seen = set()
        while len(tuples) < size:
            a = tuple(space[int(rng.integers(8))])
            b = tuple(space[int(rng.integers(8))])
            if (a, b) not in seen:
                seen.add((a, b))
                tuples.append((a, b))
        u_parts = tuples[int(rng.integers(size))]
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
            rates = syndrome_hit_rates(spec, space)  # (labels, vectors)
            cases += rates.size
            viol += int((rates != want).sum())
            # The batched rows must agree with the one-label function.
            for i in (0, rates.shape[0] - 1):
                label = support_label(spec, i)
                one = np.array([uniform_syndrome_hit_rate(label, u) for u in space])
                viol += int((one != rates[i]).sum())
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
            t_size = int(rng.integers(1, 8))
            tp_size = int(rng.integers(1, 8))
            T = space[rng.choice(8, size=t_size, replace=False)]
            Tp = space[rng.choice(8, size=tp_size, replace=False)]
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


def _ref_space(n):
    """All 2^n binary vectors in lexicographic order, one per row."""
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64).reshape(2**n, n)


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
    kind = rng.integers(4)
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
        n = int(rng.integers(2, 9))
        l = int(rng.integers(0, min(4, n) + 1))
        lp = int(rng.integers(0, min(3, n - l) + 1))
        A = LinearLabel(f2, rng.integers(2, size=(l, n)))
        Ap = LinearLabel(f2, rng.integers(2, size=(lp, n)))
        a = rng.integers(2, size=l)
        mvec = rng.integers(2, size=lp)
        mu = _random_mu(rng)
        conditional = rng.random() < 0.5
        cs = CosetSpec(A, Ap, a, mvec)
        if conditional:
            u = rng.integers(2, size=n)
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
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, 3))
        labels, syndromes = [], []
        x_true = []
        for _ in range(k):
            l = int(rng.integers(max(1, n - 4), n + 1))
            A = LinearLabel(f2, rng.integers(2, size=(l, n)))
            x = rng.integers(2, size=n)
            labels.append(A)
            syndromes.append((A.matrix @ x) % 2)
            x_true.append(x)
        with_u = rng.random() < 0.4
        u = rng.integers(2, size=n) if with_u else None
        y = rng.integers(2, size=n)
        shape = (2,) * (k + (1 if with_u else 0)) + (2,)
        w = rng.integers(1, 9, size=shape).astype(float)
        if rng.random() < 0.3:
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
        n = int(rng.integers(3, 8))
        u = rng.integers(2, size=n)
        rows = np.stack([_random_mu(rng), _random_mu(rng)])
        while (rows <= 0).any():
            rows = np.stack([_random_mu(rng), _random_mu(rng)])
        cond = CondPmf((0, 1), (0, 1), rows)
        gamma = float(rng.choice([0.05, 0.125, 0.4, 1.0]))
        cands = all_vectors(2, n)
        d = conditional_divergences(cands, cond, u)
        t_size = int((d < gamma).sum())
        if t_size == 0:
            continue
        size = int(rng.integers(1, t_size + 1))
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
    law = joint_private([np.array([0.5, 0.5])] * 2, adder)
    cases = viol = 0
    checks = [
        abs(mutual_information(law, ["x1"], ["y"], ["x2"]) - 1.0) <= 1e-9,
        abs(mutual_information(law, ["x1", "x2"], ["y"]) - 1.5) <= 1e-9,
        bool(in_region_private((0.5, 0.5), law)),
        not in_region_private((1.0, 1.0), law),
        "J={1,2}" in (in_region_private((1.0, 1.0), law).witness or ""),
    ]
    xor = deterministic_dmc((2, 2), 2, lambda a, b: (a + b) % 2)
    xlaw = joint_private([np.array([0.5, 0.5])] * 2, xor)
    checks.append(not in_region_private((0.6, 0.6), xlaw))
    cases = len(checks)
    viol = sum(not c for c in checks)
    reports.append(LemmaReport("reference-channel-numerics", cases, viol))

    cases = viol = 0
    for _ in range(20):
        dmc = _random_dmc(rng)
        lw = joint_private([np.array([0.5, 0.5])] * 2, dmc)
        cap = [mutual_information(lw, [nm], ["y"],
                                  [o for o in sender_names(2) if o != nm])
               for nm in sender_names(2)]
        point = None
        for _ in range(50):
            r = (rng.random() * max(cap[0], 1e-6), rng.random() * max(cap[1], 1e-6))
            if in_region_private(r, lw):
                point = r
                break
        if point is None:
            continue
        shrunk = (point[0] * rng.random(), point[1] * rng.random())
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
        hl = joint_private(dists, derived)
        pl = joint_private(dists, dmc)
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
