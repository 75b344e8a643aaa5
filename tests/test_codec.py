import itertools
from collections import Counter

import numpy as np
import pytest

from hashmac.codec import (AllCosetsEmptyError, CosetSpec, EmptyCosetError,
                           EncodeTarget, build_T_subset, min_div_decode, min_div_encode)
from hashmac.empirical import conditional_divergences, marginal_divergences
from hashmac.gf import (EnumerationBudgetError, FieldSpec, LinearLabel,
                        all_vectors, apply_label)
from hashmac.prob import CondPmf, Pmf
from hashmac.verify import _ref_div_cells

F2 = FieldSpec(2)


def lbl(rows, n=None):
    rows = np.array(rows, dtype=np.int64)
    if rows.size == 0:
        return LinearLabel(F2, np.zeros((0, n), dtype=np.int64))
    return LinearLabel(F2, rows.reshape(len(rows), -1))


def test_encode_prefers_low_divergence():
    cs = CosetSpec(lbl([[1, 1]]), lbl([], 2), [0], [])
    x = min_div_encode(cs, EncodeTarget.for_marginal(Pmf((0, 1), [0.9, 0.1])))
    assert x.tolist() == [0, 0]


def test_encode_uniform_breaks_ties_lexicographically():
    cs = CosetSpec(lbl([[1, 1]]), lbl([], 2), [1], [])
    x = min_div_encode(cs, EncodeTarget.for_marginal(Pmf.uniform((0, 1))))
    assert x.tolist() == [0, 1]  # both members tie; smallest wins


def test_encode_conditional_on_constant_matches_marginal():
    cs = CosetSpec(lbl([[1, 1, 0]]), lbl([[0, 1, 1]]), [0], [1])
    mu = Pmf((0, 1), [0.9, 0.1])
    x_marg = min_div_encode(cs, EncodeTarget.for_marginal(mu))
    cond = CondPmf((0,), (0, 1), [[0.9, 0.1]])
    x_cond = min_div_encode(cs, EncodeTarget.for_conditional(cond, np.zeros(3, int)))
    assert (x_marg == x_cond).all()


def test_encode_output_satisfies_constraints():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        A = LinearLabel(F2, rng.integers(2, size=(2, n)))
        Ap = LinearLabel(F2, rng.integers(2, size=(1, n)))
        a = rng.integers(2, size=2)
        m = rng.integers(2, size=1)
        cs = CosetSpec(A, Ap, a, m)
        try:
            x = min_div_encode(cs, EncodeTarget.for_marginal(Pmf((0, 1), [0.75, 0.25])))
        except EmptyCosetError:
            continue
        assert (apply_label(A, x) == a).all()
        assert (apply_label(Ap, x) == m).all()


def test_encode_empty_coset_raises():
    cs = CosetSpec(lbl([[1, 1]]), lbl([[1, 1]]), [0], [1])
    with pytest.raises(EmptyCosetError):
        min_div_encode(cs, EncodeTarget.for_marginal(Pmf.uniform((0, 1))))


def test_encode_target_validation():
    with pytest.raises(ValueError):
        EncodeTarget()
    with pytest.raises(ValueError):
        EncodeTarget(conditional=CondPmf((0,), (0, 1), [[0.5, 0.5]]))


def test_decode_singleton_cosets_return_transmitted():
    # Noiseless two-output channel with full-rank checks: unique candidates.
    n = 3
    eye = LinearLabel(F2, np.eye(n, dtype=np.int64))
    x1 = np.array([1, 0, 1])
    x2 = np.array([0, 1, 1])
    y = x1 * 2 + x2  # output alphabet indexes pairs
    model = np.zeros((2, 2, 4))
    for a in range(2):
        for b in range(2):
            model[a, b, 2 * a + b] = 0.25
    got = min_div_decode([eye, eye], [x1, x2], y, model)
    assert (got[0] == x1).all() and (got[1] == x2).all()


def test_decode_tie_prefers_lexicographic_tuple():
    # One parity row per sender and a channel that ignores its inputs: every
    # candidate pair ties, so the smallest concatenation must win.
    n = 2
    A = lbl([[1, 1]])
    model = np.full((2, 2, 2), 1 / 8.0)
    got = min_div_decode([A, A], [[0], [1]], np.array([0, 1]), model)
    assert got[0].tolist() == [0, 0] and got[1].tolist() == [0, 1]


def test_decode_unreachable_syndrome():
    A = lbl([[1, 1], [1, 1]])
    model = np.full((2, 2), 0.25)
    with pytest.raises(AllCosetsEmptyError):
        min_div_decode([A], [[0, 1]], np.array([0, 0]), model)


def test_decode_budget_guard():
    A = lbl([], 2)
    model = np.full((2, 2, 2), 1 / 8.0)
    with pytest.raises(EnumerationBudgetError):
        min_div_decode([A, A], [[], []], np.array([0, 1]), model, budget=8)


def test_decode_brute_force_spotcheck():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        labels = [LinearLabel(F2, rng.integers(2, size=(int(rng.integers(1, n)), n)))
                  for _ in range(2)]
        xs = [rng.integers(2, size=n) for _ in range(2)]
        syn = [apply_label(l, x) for l, x in zip(labels, xs)]
        y = rng.integers(2, size=n)
        w = rng.integers(1, 9, size=(2, 2, 2)).astype(float)
        model = w / w.sum()
        got = min_div_decode(labels, syn, y, model)
        # Direct scan over the product coset using the library divergences.
        from hashmac.gf import enumerate_coset
        c1 = enumerate_coset(labels[0], syn[0])
        c2 = enumerate_coset(labels[1], syn[1])
        best = None
        for i1 in range(c1.shape[0]):
            for i2 in range(c2.shape[0]):
                cells = (c1[i1] * 2 + c2[i2]) * 2 + y
                counts = np.bincount(cells, minlength=8)
                d = 0.0
                for c, mu in zip(counts, model.ravel()):
                    if c == 0:
                        continue
                    d += (c / n) * np.log2(c / (n * mu))
                key = (round(d, 9), tuple(c1[i1]) + tuple(c2[i2]))
                if best is None or key < best[0]:
                    best = (key, (c1[i1], c2[i2]))
        assert (got[0] == best[1][0]).all() and (got[1] == best[1][1]).all()


def test_divergence_helpers_match_definitions():
    # The reference sums c/n * log2(c/denom) over the occupied cells one by one.
    cands = all_vectors(2, 4)
    mu = Pmf((0, 1), [0.75, 0.25])
    d = marginal_divergences(cands, mu)
    for i in range(cands.shape[0]):
        want = _ref_div_cells(Counter(cands[i].tolist()), lambda a: 4 * mu.probs[a], 4)
        assert abs(d[i] - want) < 1e-12
    cond = CondPmf((0, 1), (0, 1), [[0.9, 0.1], [0.2, 0.8]])
    u = np.array([0, 1, 0, 1])
    u_counts = np.bincount(u)
    dc = conditional_divergences(cands, cond, u)
    for i in range(cands.shape[0]):
        cells = Counter(zip(u.tolist(), cands[i].tolist()))
        want = _ref_div_cells(cells, lambda c: u_counts[c[0]] * cond.rows[c], 4)
        assert abs(dc[i] - want) < 1e-12


def test_t_subset_whole_set_and_zero_divergence_head():
    u = np.zeros(4, dtype=np.int64)
    cond = CondPmf((0,), (0, 1), [[0.75, 0.25]])
    cands = all_vectors(2, 4)
    d = conditional_divergences(cands, cond, u)
    full = int((d < 0.5).sum())
    sub = build_T_subset(u, cond, 0.5, full)
    assert sub.shape == (full, 4)
    head = build_T_subset(u, cond, 0.5, 1)
    # The dyadic target (3/4, 1/4) is achievable at n=4: divergence zero.
    assert head.tolist() == [[0, 0, 0, 1]]


def test_t_subset_size_guard_and_monotonicity():
    u = np.zeros(4, dtype=np.int64)
    cond = CondPmf((0,), (0, 1), [[0.75, 0.25]])
    with pytest.raises(ValueError):
        build_T_subset(u, cond, 0.01, 10)
    small = build_T_subset(u, cond, 0.05, 1).shape[0]
    cands = all_vectors(2, 4)
    d = conditional_divergences(cands, cond, u)
    assert int((d < 0.05).sum()) <= int((d < 0.5).sum())
    assert small == 1


def test_t_subset_downward_closed():
    u = np.array([0, 1, 0, 1, 0])
    cond = CondPmf((0, 1), (0, 1), [[0.75, 0.25], [0.5, 0.5]])
    cands = all_vectors(2, 5)
    d = conditional_divergences(cands, cond, u)
    gamma = 0.6
    for size in (1, 3, 5):
        sub = build_T_subset(u, cond, gamma, size)
        chosen = {tuple(r) for r in sub}
        dmax = max(d[np.nonzero([tuple(c) in chosen for c in cands])[0]])
        strictly_better = cands[(d < dmax) & (d < gamma)]
        for row in strictly_better:
            assert tuple(row) in chosen


def test_pair_scan_matches_generic_scan_nonbinary(monkeypatch):
    # The bilinear fast path dispatches only above 2^16 candidates; call it
    # directly on moderate ternary/mixed instances and compare tie sets with
    # the compiled decoder's chunked scan (one chunk, then several).
    import hashmac.codec as C
    from hashmac.gf import FieldSpec
    rng = np.random.default_rng(21)
    for qs, chunk_cells in itertools.product(((3, 3), (2, 3)), (1 << 20, 1 << 12)):
        monkeypatch.setattr(C, "SCAN_CHUNK_CELLS", chunk_cells)
        n = 7
        labels = []
        syndromes = []
        for q in qs:
            lab = LinearLabel(FieldSpec(q), rng.integers(q, size=(3, n)))
            x = rng.integers(q, size=n)
            labels.append(lab)
            syndromes.append((lab.matrix @ x) % q)
        y = rng.integers(2, size=n)
        w = rng.integers(1, 9, size=qs + (2,)).astype(float)
        model = w / w.sum()
        try:
            dec = C.MinDivDecoder(labels, syndromes, model)
        except AllCosetsEmptyError:
            continue
        assert not dec._pair
        base = y  # the y axis is last, so its stride is 1
        sstr = [model.shape[1] * model.shape[2], model.shape[2]]
        flat_factors = [dec.sizes[1], 1]
        ties = C._pair_scan_ties(dec.cosets, list(qs), base, sstr, flat_factors,
                                 model.ravel(), n)
        assert sorted(ties) == dec._scan_ties(base)
