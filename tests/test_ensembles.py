import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashmac import ensembles as ens
from hashmac import rng as rng_mod
from hashmac.ensembles import (BINNING, BinLabel, EnsembleSpec, HashParams, SPARSE,
                               SUPPORT_BUDGET, SupportBudgetError, UNIFORM,
                               collision_by_weight, collision_prob, conditional_maxima,
                               crp_bound, crp_rate_exact,
                               ensemble_syndrome_hit_rate, estimate_hash_params,
                               multi_crp_bound, multi_crp_rate_exact, multi_params,
                               product_params, sample, saturation_bound,
                               _output_chunks, saturation_rate_exact, support_label,
                               support_size, uniform_syndrome_hit_rate)
from hashmac.gf import FieldSpec, LinearLabel, all_vectors

F2 = FieldSpec(2)


def test_sample_deterministic_replay():
    spec = EnsembleSpec(UNIFORM, 2, 3, F2)
    a = sample(spec, rng_mod.stream(99, "s"))
    b = sample(spec, rng_mod.stream(99, "s"))
    assert (a.matrix == b.matrix).all()


@pytest.mark.parametrize("spec", [EnsembleSpec(UNIFORM, 2, 3, FieldSpec(3)),
                                  EnsembleSpec(SPARSE, 4, 7, F2,
                                               column_degree=ens.default_degree(7, 1.0)),
                                  EnsembleSpec(BINNING, 2, 2, F2)])
def test_sample_takes_a_numpy_generator(spec):
    label = sample(spec, np.random.default_rng(0))
    table = label.table if spec.kind == BINNING else label.matrix
    assert table.shape == ((4, 2) if spec.kind == BINNING else (spec.rows, spec.cols))
    assert ((0 <= table) & (table < spec.field.q)).all()
    if spec.kind == SPARSE:
        assert ((table != 0).sum(axis=0) == spec.degree()).all()


def test_sparse_column_degree_by_construction():
    spec = EnsembleSpec(SPARSE, 3, 5, F2, column_degree=1)
    for seed in range(10):
        m = sample(spec, rng_mod.stream(seed)).matrix
        assert ((m != 0).sum(axis=0) == 1).all()


def test_sparse_degree_default_and_validation():
    spec = EnsembleSpec(SPARSE, 4, 7, F2, column_degree=ens.default_degree(7, 1.0))
    assert spec.degree() == math.ceil(math.log2(8))
    with pytest.raises(ValueError):
        EnsembleSpec(SPARSE, 1, 7, F2, column_degree=ens.default_degree(7, 1.0))  # 3 > rows
    with pytest.raises(ValueError, match="needs a column_degree"):
        EnsembleSpec(SPARSE, 4, 7, F2)


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
        assert collision_prob(spec, u, u2) == exact == 0.25


def test_collision_prob_rejects_equal():
    spec = EnsembleSpec(UNIFORM, 2, 3, F2)
    with pytest.raises(ValueError):
        collision_prob(spec, [0, 1, 0], [0, 1, 0])


def test_collision_prob_binning_half():
    spec = EnsembleSpec(BINNING, 1, 2, F2)
    assert collision_prob(spec, [0, 1], [1, 1]) == 0.5


def _sparse_collision_oracle(spec, u, u2):
    hits = 0
    total = 0
    for label in _ref_labels(spec):
        total += 1
        hits += int((label(np.array(u)) == label(np.array(u2))).all())
    return Fraction(hits, total)


def test_collision_prob_sparse_exact_and_mc():
    spec = EnsembleSpec(SPARSE, 2, 2, F2, column_degree=1)
    u, u2 = [1, 0], [0, 1]
    assert collision_prob(spec, u, u2) == float(_sparse_collision_oracle(spec, u, u2))


# (q, rows, cols, degree): tall maps whose q^rows syndromes are too many to
# convolve over, while their supports stay enumerable.
TALL_SPARSE = ((2, 20, 3, 1), (2, 24, 2, 2), (3, 12, 3, 1), (5, 8, 3, 1))


def _sparse_shapes():
    """Every sparse shape of a small grid whose support is enumerable, and the tall ones."""
    for q in (2, 3, 5):
        for rows in range(1, 5):
            for cols in range(1, 5):
                for degree in range(1, rows + 1):
                    spec = EnsembleSpec(SPARSE, rows, cols, FieldSpec(q), column_degree=degree)
                    if support_size(spec) <= SUPPORT_BUDGET:
                        yield spec
    for q, rows, cols, degree in TALL_SPARSE:
        yield EnsembleSpec(SPARSE, rows, cols, FieldSpec(q), column_degree=degree)


def test_collision_by_weight_matches_support_enumeration():
    """The closed form against every label of the support, weight by weight.

    The difference of weight w cycles through the nonzero values, so the
    claim that only the weight matters is tested too.
    """
    shapes = list(_sparse_shapes())
    assert {s.field.q for s in shapes} == {2, 3, 5}
    for spec in shapes:
        q, n = spec.field.q, spec.cols
        want = [Fraction(1)]
        for w in range(1, n + 1):
            d = np.zeros(n, dtype=np.int64)
            d[:w] = np.arange(w) % (q - 1) + 1
            hits = labels = 0
            for outs in _output_chunks(spec, np.stack([d, np.zeros(n, dtype=np.int64)])):
                hits += int((outs[:, 0] == outs[:, 1]).all(axis=1).sum())
                labels += outs.shape[0]
            want.append(Fraction(hits, labels))
        assert collision_by_weight(spec) == want, spec


@pytest.mark.parametrize("degree, alpha, beta", [
    (3, 3.8, 92.41748732547097),
    (5, 3.25, 0.31159991515313207),
    (6, 2.65, 0.24319172635341438),
    (7, 2.15, 0.13185764017961688),
])
def test_hash_params_sparse_exact_past_enumeration(degree, alpha, beta):
    # 34 x 40 on GF(2): neither the support nor the syndromes can be enumerated.
    p = estimate_hash_params(EnsembleSpec(SPARSE, 34, 40, F2, column_degree=degree))
    assert p.alpha == alpha
    assert abs(p.beta - beta) <= 1e-12


def test_hash_params_uniform_and_binning_exact():
    for spec in (EnsembleSpec(UNIFORM, 2, 3, F2), EnsembleSpec(BINNING, 1, 2, F2)):
        p = estimate_hash_params(spec)
        assert (p.alpha, p.beta) == (1.0, 0.0)


def _sweep_oracle(spec):
    """Independent (alpha, beta) sweep by enumerating the support."""
    n = spec.cols
    diffs = all_vectors(2, n)[1:]
    labels = list(_ref_labels(spec))
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


def _linear_sweep(spec):
    """The per-alpha linear scan over collision_by_weight that _alpha_sweep replaced."""
    q, n = spec.field.q, spec.cols
    probs = collision_by_weight(spec)[1:]
    den = math.lcm(*(p.denominator for p in probs))
    masses = [math.comb(n, w) * (q - 1) ** w * p.numerator * (den // p.denominator)
              for w, p in enumerate(probs, 1)]
    best = None
    for alpha in map(float, ens.ALPHA_GRID):
        thr = Fraction(alpha).limit_denominator(10**9) / spec.im_size
        beta = float(Fraction(sum(m for m, p in zip(masses, probs) if p > thr), den))
        if best is None or alpha + beta < best[0] - 1e-15:
            best = (alpha + beta, alpha, beta)
    return best[1:]


@pytest.mark.parametrize("spec", [
    EnsembleSpec(UNIFORM, 2, 4, F2),                     # every weight ties, at alpha = 1
    EnsembleSpec(UNIFORM, 1, 3, FieldSpec(3)),
    EnsembleSpec(BINNING, 1, 2, F2),
    EnsembleSpec(SPARSE, 2, 4, F2, column_degree=1),     # 0, 1/2, 0, 1/2: tied pairs
    EnsembleSpec(SPARSE, 2, 5, F2, column_degree=2),     # 0 and 1 alternate
    EnsembleSpec(SPARSE, 3, 4, F2, column_degree=2),
    EnsembleSpec(SPARSE, 3, 6, F2, column_degree=2),
    EnsembleSpec(SPARSE, 3, 4, FieldSpec(3), column_degree=1),
    EnsembleSpec(SPARSE, 2, 4, FieldSpec(3), column_degree=2),
    EnsembleSpec(SPARSE, 2, 2, FieldSpec(3), column_degree=1),
], ids=lambda s: f"{s.kind}-{s.rows}x{s.cols}-q{s.field.q}-d{s.column_degree}")
def test_alpha_sweep_equals_linear_scan(spec):
    got = ens._alpha_sweep(spec, collision_by_weight(spec)[1:])
    assert got == _linear_sweep(spec)
    assert all(type(v) is float for v in got)


def test_hash_params_exact_memoized_per_spec(monkeypatch):
    import hashmac.ensembles as ens
    ens.estimate_hash_params.cache_clear()
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
    one = HashParams(1.0, 0.0)
    assert product_params(one, one) == HashParams(1.0, 0.0)
    p = product_params(HashParams(1.2, 0.01), HashParams(1.1, 0.02))
    assert abs(p.alpha - 1.32) < 1e-12 and abs(p.beta - 0.03) < 1e-12
    assert product_params(p, one).alpha == p.alpha


def test_multi_params_examples():
    one = HashParams(1.0, 0.0)
    assert multi_params([one, one], [0, 1]) == HashParams(1.0, 0.0)
    p = multi_params([HashParams(1.0, 0.1)] * 2, [0, 1])
    assert abs(p.beta - 0.21) < 1e-12
    single = multi_params([HashParams(1.3, 0.2)], [0])
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
    labels = list(_ref_labels(spec))
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
    params = [HashParams(1.0, 0.0)]
    maxima = {frozenset([0]): 2}
    assert multi_crp_bound(maxima, [8], params) == crp_bound(2, 8, 1.0, 0.0)


def test_multi_crp_formula_example():
    params = [HashParams(1.0, 0.0)] * 2
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
    # The per-combination loop: one label call per label and tuple.
    u_parts = [np.asarray(p, dtype=np.int64) for p in u_parts]
    others = [[np.asarray(p, dtype=np.int64) for p in t] for t in tuples
              if not all((np.asarray(a) == b).all() for a, b in zip(t, u_parts))]
    if not others:
        return 0.0
    supports = [list(_ref_labels(s)) for s in specs]
    hits = count = 0
    for combo in itertools.product(*supports):
        count += 1
        targets = [lab(u) for lab, u in zip(combo, u_parts)]
        hits += any(all((lab(p) == t).all()
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


def test_multi_crp_exact_edge_cases(monkeypatch):
    specs = [EnsembleSpec(UNIFORM, 2, 3, F2)] * 2
    u = ((0, 1, 1), (1, 0, 0))
    assert multi_crp_rate_exact(specs, [u], u) == 0.0
    assert multi_crp_rate_exact(specs, [], u) == 0.0
    tuples = [u, ((0, 1, 1), (1, 1, 1))]
    with monkeypatch.context() as m:
        m.setattr(ens, "SUPPORT_BUDGET", 100)  # 64 labels per sender, 4096 in the product
        with pytest.raises(SupportBudgetError, match="product support 4096"):
            multi_crp_rate_exact(specs, tuples, u)
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
        assert support_size(spec) == len(list(_ref_enumerate_support(spec)))


def test_multi_params_limit_trend():
    # As per-family parameters approach (1, 0), so do the joint parameters.
    gaps = []
    for n in (10, 100, 1000, 10**6):
        params = [HashParams(1.0 + 1.0 / n, 1.0 / n)] * 3
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


def _ref_labels(spec):
    """The labels of _ref_enumerate_support, in its order."""
    for member in _ref_enumerate_support(spec):
        if spec.kind == BINNING:
            yield BinLabel(spec.field, spec.cols, member)
        else:
            yield LinearLabel(spec.field, member)


def _members_of(label):
    return label.matrix if isinstance(label, LinearLabel) else label.table


def _syndrome_rates(spec, vecs):
    """uniform_syndrome_hit_rate of each support label (axis 0) on each row of vecs."""
    return np.concatenate(list(ens._syndrome_hits(spec, vecs))) / spec.im_size


@pytest.mark.parametrize("spec", SUPPORT_SPECS, ids=_spec_id)
def test_support_order_matches_product_enumeration(spec):
    ref = list(_ref_enumerate_support(spec))
    assert len(ref) == support_size(spec)
    for i, want in enumerate(ref):
        got = _members_of(support_label(spec, i))
        assert (got == want).all() and got.shape == want.shape
    with pytest.raises(IndexError):
        support_label(spec, len(ref))


@pytest.mark.parametrize("spec", SUPPORT_SPECS, ids=_spec_id)
def test_support_outputs_matches_per_label_outputs(spec):
    # The chunked walk, joined, holds each label's outputs in support order.
    q = spec.field.q
    space = all_vectors(q, spec.cols)
    vecs = np.vstack([space, space[::-1][:2]])  # repeated rows too
    got = np.concatenate(list(_output_chunks(spec, vecs)))
    want = np.stack([lab(vecs) for lab in _ref_labels(spec)])
    assert got.shape == want.shape == (support_size(spec), vecs.shape[0], spec.rows)
    assert got.dtype == np.int64
    assert (got == want).all()


def _ref_saturation(spec, T):
    im = spec.im_size
    total = Fraction(0)
    count = 0
    for label in _ref_labels(spec):
        hit = len({tuple(row) for row in label(T)})
        total += Fraction(im - hit, im)
        count += 1
    return float(total / count)


def _ref_crp(spec, G, u):
    others = G[~(G == u).all(axis=1)]
    if others.shape[0] == 0:
        return 0.0
    hits = count = 0
    for label in _ref_labels(spec):
        hits += int((label(others) == label(u)).all(axis=1).any())
        count += 1
    return hits / count


def _ref_syndrome_rates(spec, vecs):
    return np.array([[uniform_syndrome_hit_rate(lab, u) for u in vecs]
                     for lab in _ref_labels(spec)])


def _ref_ensemble_syndrome(spec, u):
    total = Fraction(0)
    count = 0
    for label in _ref_labels(spec):
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
    rates = _syndrome_rates(spec, G)
    assert rates.shape == (support_size(spec), G.shape[0])
    assert (rates == _ref_syndrome_rates(spec, G)).all()


def test_saturation_counts_distinct_bins_not_runs():
    # Label [1 0] sends the rows below to bins 0, 1, 0: two bins, not three.
    spec = EnsembleSpec(UNIFORM, 1, 2, F2)
    T = np.array([[0, 0], [1, 0], [0, 1]])
    assert saturation_rate_exact(spec, T) == _ref_saturation(spec, T) == 0.125


@pytest.mark.parametrize("cells", [1, 5, 64])
def test_exact_rates_identical_over_several_chunks(monkeypatch, cells):
    specs = (EnsembleSpec(UNIFORM, 2, 3, F2), EnsembleSpec(SPARSE, 2, 2, F3, column_degree=1),
             EnsembleSpec(BINNING, 1, 2, F2), EnsembleSpec(UNIFORM, 0, 2, F2))
    tuples = [((0, 0, 0), (0, 0)), ((1, 0, 1), (1, 2)), ((1, 1, 0), (0, 0))]

    def run():
        out = []
        for spec in specs:
            space = all_vectors(spec.field.q, spec.cols)
            out += [np.concatenate(list(_output_chunks(spec, space))),
                    saturation_rate_exact(spec, space[::2]),
                    crp_rate_exact(spec, space[:3], space[0]),
                    _syndrome_rates(spec, space),
                    ensemble_syndrome_hit_rate(spec, space[-1])]
        return out + [multi_crp_rate_exact(specs[:2], tuples, tuples[0])]

    whole = run()
    monkeypatch.setattr(ens, "SUPPORT_CHUNK_CELLS", cells)
    chunked = run()
    for a, b in zip(whole, chunked):
        assert np.shape(a) == np.shape(b) and np.array_equal(a, b)


def test_exact_rates_budget_errors(monkeypatch):
    monkeypatch.setattr(ens, "SUPPORT_BUDGET", 100)
    spec = EnsembleSpec(UNIFORM, 2, 4, F2)  # 256 labels
    space = all_vectors(2, 4)
    with pytest.raises(SupportBudgetError, match="2\\^8 matrices exceed the budget of 100"):
        saturation_rate_exact(spec, space)
    with pytest.raises(SupportBudgetError, match="2\\^8 matrices"):
        crp_rate_exact(spec, space[:3], space[0])
    with pytest.raises(SupportBudgetError, match="2\\^8 matrices"):
        next(_output_chunks(spec, space))
    with pytest.raises(SupportBudgetError, match="2\\^8 matrices"):
        _syndrome_rates(spec, space)
    with pytest.raises(SupportBudgetError, match="2\\^8 matrices"):
        ensemble_syndrome_hit_rate(spec, space[0])
    with pytest.raises(SupportBudgetError, match="2\\^8 matrices"):
        support_label(spec, 0)
    with pytest.raises(SupportBudgetError, match="256 binning tables"):
        next(_output_chunks(EnsembleSpec(BINNING, 2, 2, F2), space[:, :2]))
    with pytest.raises(SupportBudgetError, match="4\\^4 sparse matrices"):
        next(_output_chunks(EnsembleSpec(SPARSE, 2, 4, F3, column_degree=1), all_vectors(3, 4)))


def test_base_q_codes_do_not_overflow():
    # The ensembles index binning tables and syndromes with gf.lex_index.
    from hashmac.gf import lex_index
    wide = np.ones((2, 64), dtype=np.int64)
    assert list(lex_index(wide, 2)) == [2**64 - 1] * 2
    assert int(lex_index(wide[0], 2)) == 2**64 - 1
    assert lex_index(np.array([[2, 1, 0]]), 3).tolist() == [21]
    assert lex_index(np.ones((3, 62), dtype=np.int64), 2).dtype == np.int64
