from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashmac.codec import (AllCosetsEmptyError, CosetSpec, EmptyCosetError,
                           EncodeTarget, _exact_key, build_T_subset, min_div_decode,
                           min_div_encode)
from hashmac.empirical import (_count_symbols, _divergence_from_counts, _log2_denom,
                               conditional_divergences, divergence_to)
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
    x = min_div_encode(cs, EncodeTarget.for_marginal(Pmf((0, 1), [0.9, 0.1]), 2))
    assert x.tolist() == [0, 0]


def test_encode_uniform_breaks_ties_lexicographically():
    cs = CosetSpec(lbl([[1, 1]]), lbl([], 2), [1], [])
    x = min_div_encode(cs, EncodeTarget.for_marginal(Pmf.uniform((0, 1)), 2))
    assert x.tolist() == [0, 1]  # both members tie; smallest wins


def test_encode_conditional_on_constant_matches_marginal():
    cs = CosetSpec(lbl([[1, 1, 0]]), lbl([[0, 1, 1]]), [0], [1])
    mu = Pmf((0, 1), [0.9, 0.1])
    x_marg = min_div_encode(cs, EncodeTarget.for_marginal(mu, 3))
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
            x = min_div_encode(cs, EncodeTarget.for_marginal(Pmf((0, 1), [0.75, 0.25]), n))
        except EmptyCosetError:
            continue
        assert (apply_label(A, x) == a).all()
        assert (apply_label(Ap, x) == m).all()


def test_encode_empty_coset_raises():
    cs = CosetSpec(lbl([[1, 1]]), lbl([[1, 1]]), [0], [1])
    with pytest.raises(EmptyCosetError):
        min_div_encode(cs, EncodeTarget.for_marginal(Pmf.uniform((0, 1)), 2))


def test_encode_target_validation():
    cond = CondPmf((0,), (0, 1), [[0.5, 0.5]])
    with pytest.raises(TypeError):
        EncodeTarget(conditional=cond)  # a law needs its context sequence
    with pytest.raises(TypeError):
        EncodeTarget.for_marginal(Pmf.uniform((0, 1)))  # and its length
    for bad in ([[0, 0]], [0, 1], [-1, 0]):  # not a sequence of context symbols
        with pytest.raises(ValueError):
            EncodeTarget.for_conditional(cond, bad)
    assert EncodeTarget.for_marginal(Pmf.uniform((0, 1)), 3).conditioning.tolist() == [0, 0, 0]


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
    d = [divergence_to(c, mu) for c in cands]
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


def _marginal_divergences(cands, mu):
    """The marginal kernel: counts against n * mu, without a context."""
    n = cands.shape[1]
    counts = _count_symbols(cands, mu.size)
    return _divergence_from_counts(counts, _log2_denom(n * mu.probs)[None, :], n)


def _marginal_key(cand, mu):
    counts = np.bincount(cand, minlength=mu.size)
    return _exact_key(counts, [cand.shape[0] * Fraction(float(p)) for p in mu.probs])


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3), st.integers(1, 6),
       st.lists(st.integers(0, 8), min_size=3, max_size=3))
def test_marginal_target_is_one_symbol_context(q, n, weights):
    w = np.array(weights[:q], dtype=float)  # a zero weight leaves a cell without mass
    if w.sum() == 0:
        w[0] = 1.0
    mu = Pmf(tuple(range(q)), w / w.sum())
    cands = all_vectors(q, n)
    target = EncodeTarget.for_marginal(mu, n)
    assert np.array_equal(target.divergences(cands), _marginal_divergences(cands, mu))
    assert [target.exact_key(c) for c in cands] == [_marginal_key(c, mu) for c in cands]


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


def _bounded_cases():
    """Two lists of (labels, syndromes, model, u, y) for the bounded search.

    The first has random codes over GF(2), GF(3) and mixed fields with 1 to
    3 senders, whole-space cosets (no syndrome rows), uniform and
    near-uniform models that force ties, and models with zero-mass cells,
    with and without u.  The second puts the minimum divergence near 0.
    """
    rng = np.random.default_rng(20250811)
    cases = []
    shapes = [((2, 2), 6, 3, False), ((3, 3), 4, 2, False), ((2, 3), 5, 2, True),
              ((2, 2, 2), 4, 2, True), ((2, 3, 2), 4, 1, False), ((2,), 7, 0, True),
              ((2, 2), 5, 0, False), ((3, 2), 4, 0, True)]
    for qs, n, rows, with_u in shapes:
        for kind in ("random", "uniform", "near-uniform", "zero-cell"):
            labels, syndromes = [], []
            for q in qs:
                lab = LinearLabel(FieldSpec(q), rng.integers(q, size=(rows, n)))
                labels.append(lab)
                syndromes.append((lab.matrix @ rng.integers(q, size=n)) % q)
            u = rng.integers(2, size=n) if with_u else None
            shape = ((2,) if with_u else ()) + qs + (2,)
            if kind == "random":
                w = rng.integers(1, 9, size=shape).astype(float)
            elif kind == "uniform":
                w = np.ones(shape)
            elif kind == "near-uniform":
                w = 1.0 + 1e-6 * rng.integers(-1, 2, size=shape)
            else:
                w = rng.integers(0, 3, size=shape).astype(float)
                w.flat[0] = 0.0
                w.flat[-1] = 1.0
            for _ in range(2):
                cases.append((labels, syndromes, w / w.sum(), u, rng.integers(2, size=n)))
    # Balanced y and a near-uniform model whose cells divide n: the minimum
    # divergence is about 1e-13, where the relative tolerance leaves no room
    # for rounding, so only the slack keeps a bound that rounds above the
    # score.  The bound is exact for one sender and tight against a
    # whole-space partner (no syndrome rows).
    near_zero = []
    for qs, n, rows in (((2,), 8, (0,)), ((3,), 6, (0,)), ((2, 2), 8, (4, 0))):
        labels = [LinearLabel(FieldSpec(q), rng.integers(q, size=(r, n)))
                  for q, r in zip(qs, rows)]
        syndromes = [np.zeros(r, dtype=np.int64) for r in rows]
        for _ in range(6):
            w = 1.0 + 1e-6 * rng.integers(-1, 2, size=qs + (2,))
            near_zero.append((labels, syndromes, w / w.sum(), None, rng.permutation(n) % 2))
    return cases, near_zero


def test_bounded_search_matches_whole_scan_tie_sets(monkeypatch):
    # The default chunk scans each of these products whole; small chunks
    # send the same decodes through the count-bounded search, which must
    # return the same tie set (not only the same winner).
    import hashmac.codec as C
    from hashmac.verify import _ref_decode
    cases, near_zero = _bounded_cases()
    whole = []
    for labels, syndromes, model, u, y in cases + near_zero:
        dec = C.MinDivDecoder(labels, syndromes, model, u=u)
        assert dec._static is not None
        whole.append((dec._ties(y), dec(y)))
    assert sum(ties.size > 1 for ties, _ in whole) >= 60
    for chunk_cells in (8, 32, 128):
        monkeypatch.setattr(C, "SCAN_CHUNK_CELLS", chunk_cells)
        for (labels, syndromes, model, u, y), (ties, winner) in zip(cases + near_zero, whole):
            dec = C.MinDivDecoder(labels, syndromes, model, u=u)
            assert dec._static is None
            assert dec._ties(y).tolist() == ties.tolist()
            assert all((g == w).all() for g, w in zip(dec(y), winner))
    # The oracle sums in another order, so near a zero minimum its tie
    # group can differ by rounding; it checks the first list only.
    for labels, syndromes, model, u, y in cases:
        if all(lab.field.q == 2 for lab in labels):
            ref = _ref_decode([lab.matrix for lab in labels], syndromes, y, model, u)
            got = C.MinDivDecoder(labels, syndromes, model, u=u)(y)
            assert all((g == r).all() for g, r in zip(got, ref))
