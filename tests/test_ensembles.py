import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashmac import rng as rng_mod
from hashmac.ensembles import (BINNING, EnsembleSpec, HashParams,
                               SPARSE, SupportBudgetError, UNIFORM, collision_prob, conditional_maxima,
                               crp_bound, crp_rate_exact, enumerate_support,
                               ensemble_syndrome_hit_rate, estimate_hash_params,
                               multi_crp_bound, multi_crp_rate_exact, multi_params,
                               product_params, sample, saturation_bound,
                               saturation_rate_exact, support_label, support_outputs,
                               support_size, syndrome_hit_rates,
                               label_outputs, uniform_syndrome_hit_rate)
from hashmac.gf import FieldSpec, LinearLabel, all_vectors

F2 = FieldSpec(2)


def test_sample_deterministic_replay():
    spec = EnsembleSpec(UNIFORM, 2, 3, F2)
    a = sample(spec, rng_mod.stream(99, "s"))
    b = sample(spec, rng_mod.stream(99, "s"))
    assert (a.matrix == b.matrix).all()


def test_sparse_column_degree_by_construction():
    spec = EnsembleSpec(SPARSE, 3, 5, F2, column_degree=1)
    for seed in range(10):
        m = sample(spec, rng_mod.stream(seed)).matrix
        assert ((m != 0).sum(axis=0) == 1).all()


def test_sparse_degree_default_and_validation():
    spec = EnsembleSpec(SPARSE, 4, 7, F2)
    assert spec.degree() == math.ceil(math.log2(8))
    with pytest.raises(ValueError):
        EnsembleSpec(SPARSE, 1, 7, F2)  # default degree 3 > rows


def test_uniform_sampling_chi_square():
    # All 64 matrices of a 2x3 binary label should be equally likely.
    spec = EnsembleSpec(UNIFORM, 2, 3, F2)
    rng = rng_mod.stream(123, "chi")
    counts = {}
    trials = 64 * 400
    for _ in range(trials):
        key = sample(spec, rng).matrix.tobytes()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 64
    expected = trials / 64
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 120  # df=63; far beyond the 0.999 quantile would fail


def test_collision_prob_uniform_matches_enumeration():
    spec = EnsembleSpec(UNIFORM, 2, 3, F2)
    mats = all_vectors(2, 6).reshape(-1, 2, 3)
    for u, u2 in (([0, 0, 1], [0, 0, 0]), ([1, 0, 1], [0, 1, 0])):
        d = (np.array(u) - np.array(u2)) % 2
        exact = float((((mats @ d) % 2) == 0).all(axis=1).mean())
        got = collision_prob(spec, u, u2)
        assert got.value == exact == 0.25
        assert got.provenance == "exact"


def test_collision_prob_rejects_equal():
    spec = EnsembleSpec(UNIFORM, 2, 3, F2)
    with pytest.raises(ValueError):
        collision_prob(spec, [0, 1, 0], [0, 1, 0])


def test_collision_prob_binning_half():
    spec = EnsembleSpec(BINNING, 1, 2, F2)
    assert collision_prob(spec, [0, 1], [1, 1]).value == 0.5


def _sparse_collision_oracle(spec, u, u2):
    hits = 0
    total = 0
    for label in enumerate_support(spec):
        total += 1
        hits += int((label(np.array(u)) == label(np.array(u2))).all())
    return Fraction(hits, total)


def test_collision_prob_sparse_exact_and_mc():
    spec = EnsembleSpec(SPARSE, 2, 2, F2, column_degree=1)
    u, u2 = [1, 0], [0, 1]
    oracle = _sparse_collision_oracle(spec, u, u2)
    exact = collision_prob(spec, u, u2)
    assert exact.value == float(oracle)
    mc = collision_prob(spec, u, u2, mode="mc", trials=3000,
                        rng=rng_mod.stream(5, "mc"))
    assert mc.provenance == "estimated" and mc.half_width > 0
    assert abs(mc.value - float(oracle)) <= 3 * mc.half_width + 1e-9


def test_hash_params_uniform_and_binning_exact():
    for spec in (EnsembleSpec(UNIFORM, 2, 3, F2), EnsembleSpec(BINNING, 1, 2, F2)):
        p = estimate_hash_params(spec)
        assert (p.alpha, p.beta, p.provenance) == (1.0, 0.0, "exact")


def _sweep_oracle(spec):
    """Independent (alpha, beta) sweep by enumerating the support."""
    n = spec.cols
    diffs = all_vectors(2, n)[1:]
    labels = list(enumerate_support(spec))
    probs = []
    for d in diffs:
        hits = sum(int((lab(d) == 0).all()) for lab in labels)
        probs.append(Fraction(hits, len(labels)))
    best = None
    for alpha in [round(1.0 + 0.05 * i, 2) for i in range(61)]:
        thr = Fraction(alpha).limit_denominator(10**9) / spec.im_size
        beta = sum(p for p in probs if p > thr)
        score = alpha + float(beta)
        if best is None or score < best[0] - 1e-15:
            best = (score, alpha, float(beta))
    return best[1], best[2]


def test_hash_params_sparse_matches_support_sweep():
    spec = EnsembleSpec(SPARSE, 2, 4, F2, column_degree=1)
    want = _sweep_oracle(spec)
    got = estimate_hash_params(spec)
    assert (got.alpha, got.beta) == want
    assert got.provenance == "exact"


def test_hash_params_mc_agrees_on_uniform():
    spec = EnsembleSpec(UNIFORM, 2, 4, F2)
    p = estimate_hash_params(spec, mode="mc", trials=500, rng=rng_mod.stream(3))
    assert p.provenance == "estimated"
    assert p.alpha + p.beta < 1.6  # near the exact (1, 0)


def test_hash_params_exact_memoized_per_spec(monkeypatch):
    import hashmac.ensembles as ens
    ens._exact_hash_params.cache_clear()
    sweeps = []
    orig = ens._alpha_sweep
    monkeypatch.setattr(ens, "_alpha_sweep",
                        lambda *a: sweeps.append(1) or orig(*a))
    first = estimate_hash_params(EnsembleSpec(SPARSE, 2, 4, F2, column_degree=1))
    done = len(sweeps)
    assert done > 0
    again = estimate_hash_params(EnsembleSpec(SPARSE, 2, 4, F2, column_degree=1))
    assert again is first
    assert len(sweeps) == done  # the equal spec was not swept again


def test_product_params_examples():
    one = HashParams(1.0, 0.0, "exact")
    assert product_params(one, one) == HashParams(1.0, 0.0, "exact")
    p = product_params(HashParams(1.2, 0.01, "exact"), HashParams(1.1, 0.02, "exact"))
    assert abs(p.alpha - 1.32) < 1e-12 and abs(p.beta - 0.03) < 1e-12
    assert product_params(p, one).alpha == p.alpha


def test_multi_params_examples():
    one = HashParams(1.0, 0.0, "exact")
    assert multi_params([one, one], [0, 1]) == HashParams(1.0, 0.0, "exact")
    p = multi_params([HashParams(1.0, 0.1, "exact")] * 2, [0, 1])
    assert abs(p.beta - 0.21) < 1e-12
    single = multi_params([HashParams(1.3, 0.2, "exact")], [0])
    assert (single.alpha, single.beta) == (1.3, 0.2)
    with pytest.raises(ValueError):
        multi_params([one], [])


def test_saturation_bound_example():
    assert saturation_bound(1.0, 0.0, 4, 16) == 0.25


def test_saturation_exact_dominated_high_entropy_set():
    spec = EnsembleSpec(UNIFORM, 2, 4, F2)
    space = all_vectors(2, 4)
    weights = space.sum(axis=1)
    ent = np.array([0.0 if w in (0, 4) else
                    -(w / 4) * math.log2(w / 4) - (1 - w / 4) * math.log2(1 - w / 4)
                    for w in weights])
    T = space[ent >= 0.8]
    rate = saturation_rate_exact(spec, T)
    bound = saturation_bound(1.0, 0.0, spec.im_size, T.shape[0])
    assert rate <= bound + 1e-12


def test_saturation_everything_rate_is_rank_deficiency_mass():
    # With T covering the whole space the event is exactly "the drawn
    # syndrome misses the matrix image"; rank-deficient matrices make it
    # positive, and the bound still dominates.
    spec = EnsembleSpec(UNIFORM, 2, 4, F2)
    space = all_vectors(2, 4)
    rate = saturation_rate_exact(spec, space)
    oracle = 0.0
    labels = list(enumerate_support(spec))
    for lab in labels:
        outs = {tuple(r) for r in (space @ lab.matrix.T) % 2}
        oracle += (4 - len(outs)) / 4
    oracle /= len(labels)
    assert abs(rate - oracle) < 1e-12
    assert rate <= saturation_bound(1.0, 0.0, 4, 16) + 1e-12


def test_crp_exact_pair_is_exactly_one_eighth():
    spec = EnsembleSpec(UNIFORM, 3, 4, F2)
    G = np.array([[0, 0, 0, 0], [1, 0, 1, 0]])
    rate = crp_rate_exact(spec, G, G[0])
    assert rate == 0.125
    assert rate <= crp_bound(2, spec.im_size, 1.0, 0.0)


def test_crp_singleton_rate_zero():
    spec = EnsembleSpec(UNIFORM, 2, 3, F2)
    u = np.array([1, 0, 1])
    assert crp_rate_exact(spec, u[None, :], u) == 0.0


def test_multi_crp_single_domain_reduces_to_crp():
    params = [HashParams(1.0, 0.0, "exact")]
    maxima = {frozenset([0]): 2}
    assert multi_crp_bound(maxima, [8], params) == crp_bound(2, 8, 1.0, 0.0)


def test_multi_crp_formula_example():
    params = [HashParams(1.0, 0.0, "exact")] * 2
    maxima = {frozenset([0]): 2, frozenset([1]): 2, frozenset([0, 1]): 4}
    assert multi_crp_bound(maxima, [8, 8], params) == 0.5625


def test_conditional_maxima():
    tuples = [((0, 0), (0, 0)), ((0, 0), (0, 1)), ((1, 1), (0, 0)), ((1, 0), (1, 1))]
    m = conditional_maxima(tuples, 2)
    assert m[frozenset([0, 1])] == 4
    assert m[frozenset([1])] == 2  # two completions of (0,0)
    assert m[frozenset([0])] == 2


def test_multi_crp_exhaustive_dominated():
    specs = [EnsembleSpec(UNIFORM, 2, 3, F2)] * 2
    params = [estimate_hash_params(s) for s in specs]
    tuples = [((0, 0, 0), (0, 0, 0)), ((0, 0, 1), (0, 1, 0)),
              ((1, 0, 0), (0, 0, 0)), ((1, 1, 1), (1, 1, 1))]
    rate = multi_crp_rate_exact(specs, tuples, tuples[0])
    bound = multi_crp_bound(conditional_maxima(tuples, 2),
                            [s.im_size for s in specs], params)
    assert rate <= bound + 1e-12


def _ref_multi_crp_rate(specs, tuples, u_parts):
    # The per-combination loop: one label_outputs call per label and tuple.
    u_parts = [np.asarray(p, dtype=np.int64) for p in u_parts]
    others = [[np.asarray(p, dtype=np.int64) for p in t] for t in tuples
              if not all((np.asarray(a) == b).all() for a, b in zip(t, u_parts))]
    if not others:
        return 0.0
    supports = [list(enumerate_support(s)) for s in specs]
    hits = count = 0
    for combo in itertools.product(*supports):
        count += 1
        targets = [label_outputs(lab, u[None, :])[0] for lab, u in zip(combo, u_parts)]
        hits += any(all((label_outputs(lab, p[None, :])[0] == t).all()
                        for lab, p, t in zip(combo, parts, targets))
                    for parts in others)
    return hits / count


# Supports of 64 x 16 and 4 x 9 x 16 labels: small enough for the reference loop.
MULTI_SPECS = {
    2: (EnsembleSpec(UNIFORM, 2, 3, F2), EnsembleSpec(BINNING, 1, 2, F2)),
    3: (EnsembleSpec(SPARSE, 2, 2, F2, column_degree=1),
        EnsembleSpec(UNIFORM, 1, 2, FieldSpec(3)), EnsembleSpec(BINNING, 1, 2, F2)),
}


@st.composite
def multi_crp_cases(draw):
    specs = MULTI_SPECS[draw(st.sampled_from((2, 3)))]
    part = lambda s: st.tuples(*[st.integers(0, s.field.q - 1)] * s.cols)
    tup = st.tuples(*[part(s) for s in specs])
    tuples = draw(st.lists(tup, min_size=1, max_size=6, unique=True))
    u_parts = draw(st.one_of(st.sampled_from(tuples), tup))
    return specs, tuples, u_parts


@settings(max_examples=40, deadline=None)
@given(multi_crp_cases())
def test_multi_crp_exact_matches_per_combination_loop(case):
    specs, tuples, u_parts = case
    assert multi_crp_rate_exact(specs, tuples, u_parts) == \
        _ref_multi_crp_rate(specs, tuples, u_parts)


def test_multi_crp_exact_edge_cases():
    specs = [EnsembleSpec(UNIFORM, 2, 3, F2)] * 2
    u = ((0, 1, 1), (1, 0, 0))
    assert multi_crp_rate_exact(specs, [u], u) == 0.0
    assert multi_crp_rate_exact(specs, [], u) == 0.0
    tuples = [u, ((0, 1, 1), (1, 1, 1))]
    with pytest.raises(SupportBudgetError, match="product support"):
        multi_crp_rate_exact(specs, tuples, u, budget=100)
    # Only the second sender differs: the rate is its own pair collision rate.
    assert multi_crp_rate_exact(specs, tuples, u) == 0.25


def test_syndrome_hit_rates():
    lab = LinearLabel(F2, np.array([[1, 0, 1], [0, 1, 1]]))
    assert uniform_syndrome_hit_rate(lab, [1, 1, 0]) == 0.25
    spec = EnsembleSpec(UNIFORM, 2, 3, F2)
    assert ensemble_syndrome_hit_rate(spec, [1, 0, 1]) == 0.25
    empty = LinearLabel(F2, np.zeros((0, 3), dtype=np.int64))
    assert uniform_syndrome_hit_rate(empty, [0, 1, 0]) == 1.0


def test_support_size_matches_enumeration():
    for spec in (EnsembleSpec(UNIFORM, 1, 3, F2),
                 EnsembleSpec(SPARSE, 2, 3, F2, column_degree=1),
                 EnsembleSpec(BINNING, 1, 1, F2)):
        assert support_size(spec) == len(list(enumerate_support(spec)))


def test_multi_params_limit_trend():
    # As per-family parameters approach (1, 0), so do the joint parameters.
    gaps = []
    for n in (10, 100, 1000, 10**6):
        params = [HashParams(1.0 + 1.0 / n, 1.0 / n, "exact")] * 3
        joint = multi_params(params, [0, 1, 2])
        gaps.append((joint.alpha - 1.0) + joint.beta)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-5


# ---------------------------------------------------------------------------
# Whole-support evaluation against the per-label loops it replaced.
# ---------------------------------------------------------------------------

F3 = FieldSpec(3)
SUPPORT_SPECS = (
    EnsembleSpec(UNIFORM, 2, 3, F2),
    EnsembleSpec(UNIFORM, 1, 2, F3),
    EnsembleSpec(UNIFORM, 0, 3, F2),
    EnsembleSpec(UNIFORM, 0, 2, F3),
    EnsembleSpec(SPARSE, 3, 3, F2, column_degree=2),
    EnsembleSpec(SPARSE, 2, 2, F3, column_degree=1),
    EnsembleSpec(BINNING, 1, 2, F2),
    EnsembleSpec(BINNING, 2, 1, F2),
    EnsembleSpec(BINNING, 1, 1, F3),
    EnsembleSpec(BINNING, 0, 2, F2),
)


def _spec_id(spec):
    return f"{spec.kind}-{spec.rows}x{spec.cols}-q{spec.field.q}"


def _ref_enumerate_support(spec):
    # The itertools.product enumeration that defined the support order.
    q = spec.field.q
    if spec.kind == UNIFORM:
        for digits in itertools.product(range(q), repeat=spec.rows * spec.cols):
            yield np.array(digits, dtype=np.int64).reshape(spec.rows, spec.cols)
    elif spec.kind == SPARSE:
        outcomes = []
        for pos in itertools.combinations(range(spec.rows), spec.degree()):
            for vals in itertools.product(range(1, q), repeat=spec.degree()):
                v = np.zeros(spec.rows, dtype=np.int64)
                v[list(pos)] = vals
                outcomes.append(v)
        outcomes = np.array(outcomes)
        for choice in itertools.product(range(len(outcomes)), repeat=spec.cols):
            yield outcomes[list(choice)].T
    else:
        rows = all_vectors(q, spec.rows)
        for choice in itertools.product(range(len(rows)), repeat=q**spec.cols):
            yield rows[list(choice)]


def _members_of(label):
    return label.matrix if isinstance(label, LinearLabel) else label.table


@pytest.mark.parametrize("spec", SUPPORT_SPECS, ids=_spec_id)
def test_support_order_matches_product_enumeration(spec):
    labels = list(enumerate_support(spec))
    ref = list(_ref_enumerate_support(spec))
    assert len(labels) == len(ref) == support_size(spec)
    for i, (lab, want) in enumerate(zip(labels, ref)):
        assert (_members_of(lab) == want).all() and _members_of(lab).shape == want.shape
        assert (_members_of(support_label(spec, i)) == want).all()
    with pytest.raises(IndexError):
        support_label(spec, len(ref))


@pytest.mark.parametrize("spec", SUPPORT_SPECS, ids=_spec_id)
def test_support_outputs_matches_per_label_outputs(spec):
    q = spec.field.q
    space = all_vectors(q, spec.cols)
    vecs = np.vstack([space, space[::-1][:2]])  # repeated rows too
    got = support_outputs(spec, vecs)
    want = np.stack([label_outputs(lab, vecs) for lab in enumerate_support(spec)])
    assert got.shape == want.shape == (support_size(spec), vecs.shape[0], spec.rows)
    assert got.dtype == np.int64
    assert (got == want).all()


def _ref_saturation(spec, T):
    im = spec.im_size
    total = Fraction(0)
    count = 0
    for label in enumerate_support(spec):
        hit = len({tuple(row) for row in label_outputs(label, T)})
        total += Fraction(im - hit, im)
        count += 1
    return float(total / count)


def _ref_crp(spec, G, u):
    others = G[~(G == u).all(axis=1)]
    if others.shape[0] == 0:
        return 0.0
    hits = count = 0
    for label in enumerate_support(spec):
        au = label_outputs(label, u[None, :])[0]
        hits += int((label_outputs(label, others) == au).all(axis=1).any())
        count += 1
    return hits / count


def _ref_syndrome_rates(spec, vecs):
    return np.array([[uniform_syndrome_hit_rate(lab, u) for u in vecs]
                     for lab in enumerate_support(spec)])


def _ref_ensemble_syndrome(spec, u):
    total = Fraction(0)
    count = 0
    for label in enumerate_support(spec):
        total += Fraction(uniform_syndrome_hit_rate(label, u)).limit_denominator(spec.im_size)
        count += 1
    return float(total / count)


@st.composite
def support_cases(draw):
    spec = draw(st.sampled_from(SUPPORT_SPECS))
    space = all_vectors(spec.field.q, spec.cols)
    rows = st.integers(0, space.shape[0] - 1)
    T = space[draw(st.lists(rows, min_size=1, max_size=space.shape[0], unique=True))]
    G = space[draw(st.lists(rows, min_size=1, max_size=6, unique=True))]
    u = draw(st.one_of(st.sampled_from(list(G)), st.sampled_from(list(space))))
    return spec, T, G, u


@settings(max_examples=60, deadline=None)
@given(support_cases())
def test_exact_rates_match_per_label_loops(case):
    spec, T, G, u = case
    assert saturation_rate_exact(spec, T) == _ref_saturation(spec, T)
    assert crp_rate_exact(spec, G, u) == _ref_crp(spec, G, u)
    assert ensemble_syndrome_hit_rate(spec, u) == _ref_ensemble_syndrome(spec, u)
    rates = syndrome_hit_rates(spec, G)
    assert rates.shape == (support_size(spec), G.shape[0])
    assert (rates == _ref_syndrome_rates(spec, G)).all()


def test_saturation_counts_distinct_bins_not_runs():
    # Label [1 0] sends the rows below to bins 0, 1, 0: two bins, not three.
    spec = EnsembleSpec(UNIFORM, 1, 2, F2)
    T = np.array([[0, 0], [1, 0], [0, 1]])
    assert saturation_rate_exact(spec, T) == _ref_saturation(spec, T) == 0.125


@pytest.mark.parametrize("cells", [1, 5, 64])
def test_exact_rates_identical_over_several_chunks(monkeypatch, cells):
    import hashmac.codec as C
    specs = (EnsembleSpec(UNIFORM, 2, 3, F2), EnsembleSpec(SPARSE, 2, 2, F3, column_degree=1),
             EnsembleSpec(BINNING, 1, 2, F2), EnsembleSpec(UNIFORM, 0, 2, F2))
    tuples = [((0, 0, 0), (0, 0)), ((1, 0, 1), (1, 2)), ((1, 1, 0), (0, 0))]

    def run():
        out = []
        for spec in specs:
            space = all_vectors(spec.field.q, spec.cols)
            out += [support_outputs(spec, space),
                    np.stack([_members_of(lab) for lab in enumerate_support(spec)]),
                    saturation_rate_exact(spec, space[::2]),
                    crp_rate_exact(spec, space[:3], space[0]),
                    syndrome_hit_rates(spec, space),
                    ensemble_syndrome_hit_rate(spec, space[-1])]
        return out + [multi_crp_rate_exact(specs[:2], tuples, tuples[0])]

    whole = run()
    monkeypatch.setattr(C, "SCAN_CHUNK_CELLS", cells)
    chunked = run()
    for a, b in zip(whole, chunked):
        assert np.shape(a) == np.shape(b) and np.array_equal(a, b)


def test_exact_rates_budget_errors():
    spec = EnsembleSpec(UNIFORM, 2, 4, F2)  # 256 labels
    space = all_vectors(2, 4)
    with pytest.raises(SupportBudgetError, match="2\\^8 matrices"):
        saturation_rate_exact(spec, space, budget=100)
    with pytest.raises(SupportBudgetError, match="2\\^8 matrices"):
        crp_rate_exact(spec, space[:3], space[0], budget=100)
    with pytest.raises(SupportBudgetError):
        support_outputs(spec, space, budget=100)
    with pytest.raises(SupportBudgetError):
        syndrome_hit_rates(spec, space, budget=100)
    with pytest.raises(SupportBudgetError):
        support_outputs(EnsembleSpec(BINNING, 2, 2, F2), space[:, :2], budget=100)


def test_base_q_codes_do_not_overflow():
    from hashmac.ensembles import _base_q
    wide = np.ones((2, 64), dtype=np.int64)
    assert list(_base_q(wide, 2)) == [2**64 - 1] * 2
    assert _base_q(np.array([[2, 1, 0]]), 3).tolist() == [21]
