import itertools
import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashmac.codec import (ABS_TOL, REL_TOL, AllCosetsEmptyError, CosetSpec, EmptyCosetError,
                           EncodeTarget, MinDivDecoder, build_T_subset, min_div_decode,
                           min_div_encode, tie_groups)
from hashmac import gf
from hashmac.empirical import (_count_symbols, _divergence_from_counts, _log2_denom,
                               conditional_divergences, divergence_to)
from hashmac.gf import (EnumerationBudgetError, FieldSpec, LinearLabel,
                        all_vectors, apply_label, enumerate_coset)
from hashmac.prob import CondPmf, Pmf
from hashmac.verify import _ref_decode, _ref_div_cells, _ref_encode, _ref_select

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
    x = min_div_encode(cs, EncodeTarget.for_marginal(Pmf((0, 1), [0.5, 0.5]), 2))
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
        min_div_encode(cs, EncodeTarget.for_marginal(Pmf((0, 1), [0.5, 0.5]), 2))


def test_encode_target_validation():
    cond = CondPmf((0,), (0, 1), [[0.5, 0.5]])
    with pytest.raises(TypeError):
        EncodeTarget(conditional=cond)  # a law needs its context sequence
    with pytest.raises(TypeError):
        EncodeTarget.for_marginal(Pmf((0, 1), [0.5, 0.5]))  # and its length
    for bad in ([[0, 0]], [0, 1], [-1, 0]):  # not a sequence of context symbols
        with pytest.raises(ValueError):
            EncodeTarget.for_conditional(cond, bad)
    assert EncodeTarget.for_marginal(Pmf((0, 1), [0.5, 0.5]), 3).conditioning.tolist() == [0, 0, 0]


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
    got = min_div_decode([eye, eye], [x1, x2], y, model, u=None)
    assert (got[0] == x1).all() and (got[1] == x2).all()


def test_decode_tie_prefers_lexicographic_tuple():
    # One parity row per sender and a channel that ignores its inputs: every
    # candidate pair ties, so the smallest concatenation must win.
    n = 2
    A = lbl([[1, 1]])
    model = np.full((2, 2, 2), 1 / 8.0)
    got = min_div_decode([A, A], [[0], [1]], np.array([0, 1]), model, u=None)
    assert got[0].tolist() == [0, 0] and got[1].tolist() == [0, 1]


def test_decode_unreachable_syndrome():
    A = lbl([[1, 1], [1, 1]])
    model = np.full((2, 2), 0.25)
    with pytest.raises(AllCosetsEmptyError):
        min_div_decode([A], [[0, 1]], np.array([0, 0]), model, u=None)


def test_decode_budget_guard(monkeypatch):
    # Each coset has 4 members and fits; their product of 16 does not.
    monkeypatch.setattr(gf, "ENUMERATION_BUDGET", 8)
    A = lbl([], 2)
    model = np.full((2, 2, 2), 1 / 8.0)
    with pytest.raises(EnumerationBudgetError, match="product coset size 16 exceeds"):
        min_div_decode([A, A], [[], []], np.array([0, 1]), model, u=None)
    mu = CondPmf((0,), (0, 1), [[0.5, 0.5]])
    with pytest.raises(EnumerationBudgetError, match="coset size 2\\^4 exceeds"):
        min_div_encode(CosetSpec(lbl([], 4), lbl([], 4), [], []),
                       EncodeTarget.for_conditional(mu, np.zeros(4, dtype=np.int64)))
    with pytest.raises(EnumerationBudgetError, match="2\\^4 vectors exceed"):
        build_T_subset(np.zeros(4, dtype=np.int64), mu, 0.5, 1)


def test_encode_budget_bounds_the_check_coset(monkeypatch):
    # The encoder scores the whole check coset, so the limit bounds that,
    # not the 4-member coset of one message.
    cs = CosetSpec(lbl([], 4), lbl([[1, 0, 0, 0], [0, 1, 0, 0]]), [], [1, 0])
    target = EncodeTarget.for_marginal(Pmf((0, 1), [0.75, 0.25]), 4)
    assert min_div_encode(cs, target).tolist() == [1, 0, 0, 0]
    monkeypatch.setattr(gf, "ENUMERATION_BUDGET", 8)
    with pytest.raises(EnumerationBudgetError, match="coset size 2\\^4 exceeds"):
        min_div_encode(cs, target)


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
        got = min_div_decode(labels, syn, y, model, u=None)
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
    """Product over symbols of (c / (n p))^c as a Fraction; None where a count meets zero mass."""
    key, n = Fraction(1), cand.shape[0]
    for c, p in zip(np.bincount(cand, minlength=mu.size).tolist(), mu.probs.tolist()):
        if c:
            if p == 0:
                return None
            key *= (Fraction(c) / (n * Fraction(p))) ** c
    return key


def _as_fraction(key):
    """An exact key (numerator, denominator) as a Fraction, None for +infinity."""
    num, den = key
    return Fraction(num, den) if den else None


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
    assert [_as_fraction(k) for k in target.exact_keys(cands)] == [_marginal_key(c, mu)
                                                                  for c in cands]


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


def tie_sets(dec, ys, seeds=None):
    """Each output's float tie group, before exact refinement, as ascending flat indices."""
    ys = np.asarray(ys, dtype=np.int64)
    if seeds is not None:
        seeds = np.asarray(seeds, dtype=np.int64).reshape(len(ys), -1)
    return [flat[ties[a:b]].tolist() for flat, _, ties, bounds in dec._passes(ys, seeds)
            for a, b in zip(bounds[:-1], bounds[1:])]


def random_seeds(dec, count, rng):
    """count random candidates of dec, each as its row in every coset."""
    return np.stack([rng.integers(m, size=count) for m in dec.sizes], axis=1)


def test_bounded_search_matches_whole_scan_tie_sets(monkeypatch):
    # The default chunk scans each of these products whole; small chunks
    # send the same decodes through the count-bounded search, which must
    # return the same tie set (not only the same winner), with a random
    # seed or without one.
    import hashmac.codec as C
    from hashmac.verify import _ref_decode
    cases, near_zero = _bounded_cases()
    rng = np.random.default_rng(1729)
    whole = []
    for labels, syndromes, model, u, y in cases + near_zero:
        dec = C.MinDivDecoder(labels, syndromes, model, u=u)
        assert math.prod(dec.sizes) <= dec._chunk
        seeds = random_seeds(dec, 3, rng)
        ties = tie_sets(dec, [y])[0]
        assert tie_sets(dec, [y] * 3, seeds) == [ties] * 3
        whole.append((ties, dec(y), seeds))
    assert sum(len(ties) > 1 for ties, _, _ in whole) >= 60
    for chunk_cells in (8, 32, 128):
        monkeypatch.setattr(C, "SCAN_CHUNK_CELLS", chunk_cells)
        for (labels, syndromes, model, u, y), (ties, winner, seeds) in zip(cases + near_zero,
                                                                           whole):
            dec = C.MinDivDecoder(labels, syndromes, model, u=u)
            assert math.prod(dec.sizes) > dec._chunk
            assert tie_sets(dec, [y])[0] == ties
            assert tie_sets(dec, [y] * 3, seeds) == [ties] * 3
            assert all((g == w).all() for g, w in zip(dec(y), winner))
            assert dec.rows([y] * 3, seeds) == dec.rows([y]) * 3
    for labels, syndromes, model, u, y in cases + near_zero:
        if all(lab.field.q == 2 for lab in labels):
            ref = _ref_decode([lab.matrix for lab in labels], syndromes, y, model, u)
            got = C.MinDivDecoder(labels, syndromes, model, u=u)(y)
            assert all((g == r).all() for g, r in zip(got, ref))


def unpruned_scan(labels, syndromes, model, u, y):
    """Decoded coset rows of y from every candidate of the product, scored in lex order.

    The float tie group of the minimum, refined on GF(2) by exact keys as
    Fractions, then its first member; the first candidate when every
    score is infinite.  Scores are the divergence kernel's, so they are
    the decoder's floats; nothing is pruned.
    """
    cosets = [enumerate_coset(lab, a) for lab, a in zip(labels, syndromes)]
    n = len(y)
    rows = list(itertools.product(*(range(len(c)) for c in cosets)))
    ctx = () if u is None else (u,)
    counts = np.array([np.bincount(np.ravel_multi_index(
        ctx + tuple(c[i] for c, i in zip(cosets, r)) + (y,), model.shape), minlength=model.size)
        for r in rows])
    d = _divergence_from_counts(counts, _log2_denom(n * model.ravel())[None, :], n)
    low = d.min()
    if np.isinf(low):
        return rows[0]
    ties = np.flatnonzero(d <= low * (1 + REL_TOL) + ABS_TOL).tolist()
    if any(lab.field.q != 2 for lab in labels):
        return rows[ties[0]]
    expected = [n * Fraction(p) for p in model.ravel().tolist()]

    def key(c):  # the product over cells of (c/d)^c; None if infinite
        if any(k and not e for k, e in zip(c, expected)):
            return None
        return math.prod(Fraction(int(k)) ** int(k) / e ** int(k)
                         for k, e in zip(c, expected) if k)

    keys = [key(counts[t]) for t in ties]
    finite = [k for k in keys if k is not None]
    return rows[ties[keys.index(min(finite))]] if finite else rows[ties[0]]


@st.composite
def seeded_cases(draw):
    """Small codes over GF(2) and GF(3), with or without u, of 1 to 3 components,
    the outputs to decode, one random seed per output, and a scan chunk.

    With three components the model can be a coded cloud's: component 0
    is the cloud center and y reads only the two satellites.  A dead output
    symbol has no model mass, so an output holding it scores every
    candidate at +infinity.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 3))
    qs = tuple(draw(st.sampled_from((2, 3))) for _ in range(k))
    n = draw(st.integers(3, 6))
    with_u = draw(st.booleans())
    out = draw(st.integers(2, 3))
    labels, syndromes = [], []
    for q in qs:
        free = draw(st.integers(0, 3 if q == 2 else 2))
        lab = LinearLabel(FieldSpec(q), rng.integers(q, size=(n - free, n)))
        labels.append(lab)
        syndromes.append(apply_label(lab, rng.integers(q, size=n)))
    shape = ((2,) if with_u else ()) + qs + (out,)
    if k == 3 and draw(st.booleans()):  # a coded cloud
        cloud = rng.dirichlet(np.ones(qs[0]))
        sats = [rng.dirichlet(np.ones(q), size=qs[0]) for q in qs[1:]]
        channel = rng.dirichlet(np.ones(out), size=qs[1:])
        w = np.einsum("a,ab,ac,bcy->abcy", cloud, *sats, channel)
        w = np.broadcast_to(w, shape) * (rng.integers(1, 3, size=(2, 1, 1, 1, 1)) if with_u else 1)
    else:
        w = rng.integers(0, 4, size=shape).astype(float)
        w[..., 0].flat[rng.integers(w[..., 0].size)] = 1.0  # mass that no dead symbol holds
    w = np.array(w, dtype=float)
    dead = draw(st.booleans())
    if dead:
        w[..., -1] = 0.0
    model = w / w.sum()
    u = rng.integers(2, size=n) if with_u else None
    ys = rng.integers(out, size=(draw(st.integers(1, 5)), n))
    if dead:
        ys[0, 0] = out - 1
    chunk = draw(st.sampled_from((None, 8, 64)))
    return labels, syndromes, model, u, ys, chunk, rng


@settings(max_examples=150, deadline=None)
@given(seeded_cases())
def test_seeded_rows_equal_unseeded_rows_and_unpruned_scan(case):
    import hashmac.codec as C
    labels, syndromes, model, u, ys, chunk, rng = case
    with mock.patch.object(C, "SCAN_CHUNK_CELLS", chunk or C.SCAN_CHUNK_CELLS):
        dec = MinDivDecoder(labels, syndromes, model, u=u)
    want = [unpruned_scan(labels, syndromes, model, u, y) for y in ys]
    seeds = random_seeds(dec, len(ys), rng)
    assert dec.rows(ys, seeds) == dec.rows(ys) == want
    assert tie_sets(dec, ys, seeds) == tie_sets(dec, ys)


def test_near_zero_seeded_rows_equal_unpruned_scan():
    # Balanced y near a zero minimum, where the tie group rests on the
    # absolute floor and the slack: every seed tried, the minimizer's and
    # the farthest candidate's among them, leaves the unpruned scan's pick.
    rng = np.random.default_rng(20250811)
    for labels, syndromes, model, _, y in _bounded_cases()[1]:
        dec = MinDivDecoder(labels, syndromes, model, u=None)
        want = unpruned_scan(labels, syndromes, model, None, y)
        seeds = np.concatenate((random_seeds(dec, 12, rng), [want, [m - 1 for m in dec.sizes]]))
        assert dec.rows([y] * len(seeds), seeds) == [want] * len(seeds)
        assert dec.rows([y]) == [want]


def test_gf3_near_zero_tie_goes_to_lex_first():
    # Over GF(3) the float tie group is not refined, so the lex-first member
    # wins.  Near a zero minimum the oracle, which sums each candidate's
    # terms in the order its cells first occur, splits mathematically equal
    # scores by rounding; the absolute floor keeps them in one group, so it
    # picks the decoder's winner.
    n = 6
    rng = np.random.default_rng(20250811)
    label = LinearLabel(FieldSpec(3), np.zeros((0, n), dtype=np.int64))
    cands = [tuple(int(v) for v in x) for x in all_vectors(3, n)]
    for _ in range(12):
        w = 1.0 + 1e-6 * rng.integers(-1, 2, size=(3, 2))
        model, y = w / w.sum(), rng.permutation(n) % 2
        got = MinDivDecoder([label], [np.zeros(0, dtype=np.int64)], model, u=None)(y)[0]

        def div(x):
            cells = Counter(zip(x, y.tolist()))
            return _ref_div_cells(cells, lambda cell: n * model[cell], n)

        assert tuple(got.tolist()) == _ref_select(cands, div, None, exact=False)


def test_infinite_minimum_ties_at_its_first_candidate(monkeypatch):
    # A run whose every score is infinite misses the model support
    # everywhere: its tie group is its first index, the pick of _ref_select.
    dvals = np.array([np.inf, np.inf, 0.5, 0.5 + 1e-15, 0.7, np.inf, np.inf])
    ties, bounds = tie_groups(dvals, np.array([0, 2, 5, 7]))
    assert ties.tolist() == [0, 2, 3, 5] and bounds.tolist() == [0, 1, 3, 4]
    # The encoder: a target that never sends 1, on a coset whose every member holds a 1.
    A, Ap = lbl([[1, 1, 0, 0]]), lbl([[0, 0, 1, 1]])
    mu = np.array([1.0, 0.0])
    got = min_div_encode(CosetSpec(A, Ap, [1], [1]), EncodeTarget.for_marginal(Pmf((0, 1), mu), 4))
    want = _ref_encode([A.matrix, Ap.matrix], [np.array([1]), np.array([1])], 4, mu, None)
    assert got.tolist() == want.tolist() == [0, 1, 0, 1]
    # The decoder's batch: y = x1 xor x2 without noise, so an output whose
    # first two symbols sum to 0 fits no candidate pair of these cosets.
    model = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            model[a, b, a ^ b] = 0.25
    A = lbl([[1, 1, 0]])
    dec = MinDivDecoder([A, A], [[1], [0]], model, u=None)
    ys = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 1], [0, 1, 1]])
    for y, rows in zip(ys, dec.rows(ys)):
        want = _ref_decode([A.matrix, A.matrix], [[1], [0]], y, model, None)
        assert all((c[r] == w).all() for c, r, w in zip(dec.cosets, rows, want)), y
    assert dec.rows(ys[[0, 2]]) == [(0, 0)] * 2  # each coset's first row
    # Any seed, at an infinite score or not, leaves the same tie groups,
    # and so does the count-bounded search.
    import hashmac.codec as C
    seeds = [(1, 0), (0, 1), (1, 1), (0, 0)]
    ties = tie_sets(dec, ys)
    assert tie_sets(dec, ys, seeds) == ties and ties[0] == ties[2] == [0]
    assert dec.rows(ys, seeds) == dec.rows(ys)
    monkeypatch.setattr(C, "SCAN_CHUNK_CELLS", 8)
    searched = MinDivDecoder([A, A], [[1], [0]], model, u=None)
    assert math.prod(searched.sizes) > searched._chunk
    assert tie_sets(searched, ys) == tie_sets(searched, ys, seeds) == tie_sets(dec, ys)
    assert searched.rows(ys) == searched.rows(ys, seeds) == dec.rows(ys)
