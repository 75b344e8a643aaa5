"""The types suite's per-type counts against per-sequence enumeration oracles.

`verify.types_suite` counts each lemma over type classes, weighted by their
exact sizes.  The oracle below, `reference_types_suite`, enumerates every
sequence and every (v, u) pair instead: `_binary_stats` and `_pair_stats`
evaluate each statistic once per type and gather it per sequence or pair,
and the digit-matrix references count every symbol of every enumerated
sequence, so a wrong type index, cell order or enumeration order shows as a
mismatch.
"""

import math

import numpy as np
import pytest

from hashmac import slack, verify
from hashmac.empirical import _count_symbols, _entropy_counts, enumerate_types, type_class_size
from hashmac.gf import all_vectors
from hashmac.verify import (LemmaReport, MU_SET, MUV, PAIR_NS, RADII, TYPE_NS,
                            _div_from_counts)


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


def reference_pair_stats(n, muv):
    """Every (v, u) pair as n base-4 digits 2v+u, in lex order of the digits."""
    digits = all_vectors(4, n)
    v = digits >> 1
    u = digits & 1
    m = digits.shape[0]
    counts = _count_symbols(v * 2 + u, 4).reshape(m, 2, 2)
    cv = counts.sum(axis=2)
    mu_v = muv.sum(axis=1)
    d_joint = _div_from_counts(counts.reshape(m, 4), n * muv.ravel()[None, :], n)
    d_v = _div_from_counts(cv, n * mu_v[None, :], n)
    mu_cond = muv / mu_v[:, None]
    d_cond = _div_from_counts(counts.reshape(m, 4),
                                     (cv[:, :, None] * mu_cond[None, :, :]).reshape(m, 4), n)
    h_v = _entropy_counts(cv, n)
    h_vu = _entropy_counts(counts.reshape(m, 4), n)
    v_id = v @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))
    return v_id, counts, d_joint, d_v, d_cond, h_v, h_vu


def reference_binary_stats(n, mu):
    seqs = all_vectors(2, n)
    c1 = seqs.sum(axis=1)
    counts = np.stack([n - c1, c1], axis=1)
    return counts, _div_from_counts(counts, n * mu[None, :], n)


def reference_types_suite() -> list[LemmaReport]:
    """The types suite with every sequence and pair enumerated and counted one by one."""
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


@pytest.mark.parametrize("n", [4, 6])
def test_pair_stats_match_sequence_reference(n):
    ref = reference_pair_stats(n, MUV)
    # The digit order interleaves v and u; sorted stably by v it is v-major, u ascending.
    order = np.argsort(ref[0], kind="stable")
    got = _pair_stats(n, MUV)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype
        assert np.array_equal(g, r[order])


@pytest.mark.parametrize("n", [4, 10])
@pytest.mark.parametrize("mu", MU_SET, ids=["uniform", "skewed"])
def test_binary_stats_match_sequence_reference(n, mu):
    got = _binary_stats(n, mu)
    ref = reference_binary_stats(n, mu)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype
        assert np.array_equal(g, r)


def test_types_suite_reports_at_defaults():
    reports = [(r.name, r.cases, r.violations, r.vacuous) for r in verify.types_suite()]
    assert reports == [
        ("type-count-bound", 8, 0, 0),
        ("type-class-size-bounds", 186, 0, 0),
        ("typical-total-variation", 3250, 0, 0),
        ("low-entropy-sequence-count", 20, 0, 0),
        ("typicality-transfer", 838656, 0, 0),
        ("typical-entropy-deviation", 152072, 0, 0),
        ("atypical-mass-bound", 1032, 0, 0),
        ("typical-set-size", 1650, 0, 399),
    ]


SLACKS = ("type_count_penalty", "entropy_slack", "cond_entropy_slack",
          "typical_size_slack", "cond_typical_size_slack")


def _summary(reports):
    return [(r.name, r.cases, r.violations, r.vacuous) for r in reports]


@pytest.mark.parametrize("scale", [1, 0, 0.3, -1])
def test_types_suite_matches_enumeration_oracle(monkeypatch, scale):
    # Scaling the slack terms moves every bound, so most lemmas report violations
    # and the per-type counts are compared away from the all-pass case.  The
    # composite slacks call their scaled parts; both suites see the same terms.
    for name in SLACKS:
        monkeypatch.setattr(slack, name, lambda *args, fn=getattr(slack, name): scale * fn(*args))
    got = _summary(verify.types_suite())
    assert got == _summary(reference_types_suite())
    violations = sum(r[2] for r in got)
    assert (violations == 0) == (scale == 1)
