import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashmac import ensembles, rng as rng_mod
from hashmac.channel import Dmc, deterministic_dmc, sample_channel
from hashmac.codec import EmptyCosetError, MinDivDecoder
from hashmac.empirical import (conditional_divergences, divergence_to, is_cond_typical,
                               seq_mutual_multi)
from hashmac.gf import FieldSpec, LinearLabel, all_vectors, apply_label
from hashmac.prob import CondPmf
from hashmac.scenarios import (InfeasibleRateError, RADIUS, STAGE_CHANNEL, STAGE_EMPTY,
                               STAGE_DECODER, STAGE_ENCODER, STAGE_MI, STAGES,
                               TrialResult, _channel_stage, _draw, _stage_without_y,
                               build_private_code,
                               build_superposition_code, decode_components,
                               encode_components, reduce_common_to_private, run_trial,
                               search_code, simulate_error)
from hashmac.slack import MAX_RADIUS, cond_entropy_slack, entropy_slack

ADDER = deterministic_dmc((2, 2), 3, lambda a, b: a + b)
PAIR = deterministic_dmc((2, 2), 4, lambda a, b: 2 * a + b)
FAIR = [np.array([[0.5, 0.5]])] * 2
SEED = 20250811


def noisy_adder(p_each=1 / 16):
    t = np.full((2, 2, 3), p_each)
    for a in range(2):
        for b in range(2):
            t[a, b, a + b] = 1 - 2 * p_each
    return Dmc((2, 2), 3, t)


def build_small(n=6, rates=(0.25, 0.25), dmc=ADDER, **kw):
    return build_private_code([1.0], FAIR, dmc, rates, (0.05, 0.05), n,
                              rng_mod.stream(SEED, "build", n), **kw)


def test_private_build_bookkeeping():
    code = build_small(12)
    # r_j = 1 - 0.25 - 0.05 = 0.70 rounds to 8 of 12 rows.
    assert [c.rows for c in code.checks] == [8, 8]
    assert [m.rows for m in code.message_maps] == [3, 3]
    assert code.rates == (0.25, 0.25)
    for j in range(2):
        drift = code.srates[j] + code.rates[j] - (1.0 - code.eps[j])
        assert abs(drift) <= np.log2(2) / code.n


def test_private_build_rejects_outside_region():
    with pytest.raises(InfeasibleRateError) as err:
        build_small(12, rates=(1.0, 1.0))
    assert "region" in str(err.value)


def test_private_roundtrip_noiseless_identity_channel():
    # Full-rank singleton cosets over a channel that reveals both inputs.
    code = build_private_code([1.0], FAIR, PAIR, (0.25, 0.25), (0.05, 0.05), 8,
                              rng_mod.stream(SEED, "ident"))
    msgs = [rng_mod.stream(1, "m", j).integers(2, size=code.message_maps[j].rows)
            for j in range(2)]
    xs = encode_components(code, msgs)
    for j in range(2):
        assert (apply_label(code.message_maps[j], xs[j]) == msgs[j]).all()
    y = sample_channel(PAIR, xs, rng_mod.stream(2, "y"))
    got, x_hat = decode_components(code, y)
    assert all((g == m).all() for g, m in zip(got, msgs))
    assert all((a == b).all() for a, b in zip(x_hat, xs))


def test_simulate_noiseless_zero_error():
    code = build_private_code([1.0], FAIR, PAIR, (0.25, 0.25), (0.05, 0.05), 8,
                              rng_mod.stream(SEED, "zero"))
    res = simulate_error(code, 50, SEED, ("zero",))
    if res.errors == 0:
        assert res.error == 0.0
    assert sum(res.stage_counts.values()) == res.errors


def test_stage_histogram_partitions_failures():
    code = build_private_code([1.0], FAIR, noisy_adder(), (0.25, 0.25),
                              (0.05, 0.05), 8, rng_mod.stream(SEED, "stage"))
    res = simulate_error(code, 150, SEED, ("stage",))
    assert sum(res.stage_counts.values()) == res.errors
    assert set(res.stage_counts) == set(STAGES)


def test_trial_result_validation():
    with pytest.raises(ValueError):
        TrialResult(True, "empty-coset")
    with pytest.raises(ValueError):
        TrialResult(False, None)
    with pytest.raises(ValueError):
        TrialResult(False, "nonsense")


def test_search_single_candidate_matches_direct_build():
    builder = lambda rng: build_private_code([1.0], FAIR, ADDER, (0.25, 0.25),
                                             (0.05, 0.05), 6, rng)
    found = search_code(builder, 1, 0, SEED, ("single",))
    direct = builder(rng_mod.stream(SEED, "single", rng_mod.BUILD, 0))
    assert all((a.matrix == b.matrix).all()
               for a, b in zip(found.code.checks, direct.checks))


def test_search_is_deterministic_and_min_of_pilots():
    builder = lambda rng: build_private_code([1.0], FAIR, noisy_adder(),
                                             (0.25, 0.25), (0.05, 0.05), 6, rng)
    a = search_code(builder, 8, 40, SEED, ("det",))
    b = search_code(builder, 8, 40, SEED, ("det",))
    assert a.candidate == b.candidate and a.pilot_scores == b.pilot_scores
    assert a.pilot_scores[a.candidate] == min(a.pilot_scores)
    assert a.pilot_scores[a.candidate] <= a.pilot_scores[0]


def test_search_all_infeasible():
    builder = lambda rng: build_private_code([1.0], FAIR, ADDER, (2.0, 2.0),
                                             (0.05, 0.05), 6, rng)
    with pytest.raises(InfeasibleRateError):
        search_code(builder, 3, 10, SEED, ("bad",))


def test_time_sharing_constant_u_matches_plain_objectives():
    code = build_small(8)
    assert code.u.tolist() == [0] * 8
    assert code.ctx_law.size == 1


def test_reduction_identity_channel():
    derived, to_phys = reduce_common_to_private(
        ADDER, [(0,), (1,)], [lambda a: a, lambda a: a], (2, 2))
    assert np.allclose(derived.table, ADDER.table)
    xs = to_phys([np.array([0, 1]), np.array([1, 1])])
    assert xs[0].tolist() == [0, 1] and xs[1].tolist() == [1, 1]


def test_reduction_xor_marginalizes_indicator():
    # One sender fed by two message streams through xor, over a noisy table.
    base = Dmc((2,), 2, np.array([[0.9, 0.1], [0.2, 0.8]]))
    derived, to_phys = reduce_common_to_private(
        base, [(0, 1)], [lambda a, b: (a + b) % 2], (2, 2))
    want = np.zeros((2, 2, 2))
    for t0 in range(2):
        for t1 in range(2):
            for x in range(2):
                if (t0 + t1) % 2 == x:
                    want[t0, t1] += base.table[x]
    assert np.allclose(derived.table, want)
    xs = to_phys([np.array([0, 1, 1]), np.array([1, 1, 0])])
    assert xs[0].tolist() == [1, 0, 1]


def test_reduction_output_law_matches_at_n1():
    base = Dmc((2,), 2, np.array([[0.75, 0.25], [0.5, 0.5]]))
    derived, to_phys = reduce_common_to_private(
        base, [(0, 1)], [lambda a, b: (a + b) % 2], (2, 2))
    for t0 in range(2):
        for t1 in range(2):
            x = to_phys([np.array([t0]), np.array([t1])])[0]
            assert np.allclose(derived.table[t0, t1], base.table[int(x[0])])


def test_reduction_validates_indices():
    with pytest.raises(ValueError):
        reduce_common_to_private(ADDER, [(0,), (2,)], [lambda a: a] * 2, (2, 2))


def _sw_inputs(flip=0.125):
    mu0 = np.array([0.5, 0.5])
    c = np.array([[1 - flip, flip], [flip, 1 - flip]])
    return mu0, c, c.copy()


def test_superposition_build_and_roundtrip():
    mu0, c1, c2 = _sw_inputs()
    code = build_superposition_code(mu0, c1, c2, PAIR, (0.125, 0.125, 0.125),
                                    (0.05, 0.05, 0.05), 8,
                                    rng_mod.stream(SEED, "sw"))
    assert code.scenario == "superposition"
    res = simulate_error(code, 30, SEED, ("sw-trip",))
    assert sum(res.stage_counts.values()) == res.errors


def test_superposition_shared_cloud_center():
    mu0, c1, c2 = _sw_inputs()
    code = build_superposition_code(mu0, c1, c2, PAIR, (0.125, 0.125, 0.125),
                                    (0.05, 0.05, 0.05), 8,
                                    rng_mod.stream(SEED, "sw2"))
    m0 = np.array([1])
    m1 = np.array([0])
    m2 = np.array([1])
    x0a, _, _ = encode_components(code, (m0, m1, m2))
    x0b, _, _ = encode_components(code, (m0, np.array([1]), np.array([0])))
    assert (x0a == x0b).all()  # the cloud depends only on (A0, A'0, a0, m0)


def test_superposition_message_maps_recover():
    from hashmac.codec import EmptyCosetError
    mu0, c1, c2 = _sw_inputs()
    done = False
    for attempt in range(6):
        code = build_superposition_code(mu0, c1, c2, PAIR, (0.125, 0.125, 0.125),
                                        (0.05, 0.05, 0.05), 8,
                                        rng_mod.stream(SEED, "sw3", attempt))
        rng = rng_mod.stream(4, "msgs", attempt)
        msgs = [rng.integers(2, size=code.message_maps[i].rows) for i in range(3)]
        try:
            x1, x2 = encode_components(code, msgs)[1:]
        except EmptyCosetError:
            continue
        y = sample_channel(PAIR, [x1, x2], rng)
        got, xs_hat = decode_components(code, y)
        for i in range(3):
            assert (apply_label(code.message_maps[i], xs_hat[i]) == got[i]).all()
        done = True
        break
    assert done, "no sampled instance admitted the drawn messages"


def test_superposition_degenerate_cloud_matches_private_shape():
    code = build_superposition_code([1.0], FAIR[0], FAIR[1], PAIR,
                                    (0.0, 0.25, 0.25), (0.05, 0.05, 0.05), 8,
                                    rng_mod.stream(SEED, "deg"))
    assert code.fixed == 1 and not code.u.any()  # x0 = 0, fixed at build time
    res = simulate_error(code, 30, SEED, ("deg",))
    assert res.error == 0.0  # noiseless two-output channel reveals both inputs


def test_superposition_degenerate_cloud_requires_zero_common_rate():
    with pytest.raises(InfeasibleRateError):
        build_superposition_code([1.0], FAIR[0], FAIR[1], PAIR,
                                 (0.1, 0.25, 0.25), (0.05, 0.05, 0.05), 8,
                                 rng_mod.stream(SEED, "deg2"))


def test_superposition_infeasible_names_constraint():
    mu0, c1, c2 = _sw_inputs()
    with pytest.raises(InfeasibleRateError) as err:
        build_superposition_code(mu0, c1, c2, PAIR, (0.9, 0.125, 0.125),
                                 (0.05, 0.05, 0.05), 8,
                                 rng_mod.stream(SEED, "swbad"))
    assert "I(X0" in str(err.value) or "syndrome rate" in str(err.value)


def test_gamma_recorded_with_flag():
    code = build_small(8)
    assert code.gamma == RADIUS


def test_build_reads_no_hash_params(monkeypatch):
    """The classifier radius is fixed, so a build estimates no (alpha, beta)."""
    def refuse(spec):
        raise AssertionError(f"hash parameters read for {spec}")

    monkeypatch.setattr(ensembles, "_exact_hash_params", refuse)
    sparse = functools.partial(ensembles.EnsembleSpec, ensembles.SPARSE)
    mu0, c1, c2 = _sw_inputs()
    codes = [
        build_small(12),
        build_private_code([1.0], FAIR, noisy_adder(), (0.25, 0.25), (0.05, 0.05), 40,
                           rng_mod.stream(SEED, "sparse", 40), ensemble_factory=sparse),
        build_superposition_code(mu0, c1, c2, PAIR, (0.125, 0.125, 0.125),
                                 (0.05, 0.05, 0.05), 8, rng_mod.stream(SEED, "sw")),
    ]
    assert [m.rows for m in codes[1].message_maps] == [10, 10]
    assert {s.degree() for s in codes[1].message_specs} == {6}
    assert [code.gamma for code in codes] == [RADIUS] * 3


@pytest.mark.parametrize("n", [8, 12])
def test_one_point_cloud_kappa_matches_private(n):
    # A one-point cloud codes the same two senders as a private code, with
    # the same check and message ensembles.
    deg = build_superposition_code([1.0], FAIR[0], FAIR[1], noisy_adder(),
                                   (0.0, 0.25, 0.25), (0.05, 0.05, 0.05), n,
                                   rng_mod.stream(SEED, "kappa", n))
    priv = build_private_code([1.0], FAIR, noisy_adder(), (0.25, 0.25), (0.05, 0.05), n,
                              rng_mod.stream(SEED, "kappa", n))
    assert deg.check_specs[1:] == priv.check_specs
    assert deg.message_specs[1:] == priv.message_specs


def test_run_trial_deterministic():
    code = build_private_code([1.0], FAIR, noisy_adder(), (0.25, 0.25),
                              (0.05, 0.05), 8, rng_mod.stream(SEED, "rt"))
    a = run_trial(code, rng_mod.stream(5, "t", 0))
    b = run_trial(code, rng_mod.stream(5, "t", 0))
    assert a == b


def test_reduction_physical_roundtrip():
    # Two message streams share one physical sender through xor; codes are
    # built for the derived two-input channel, transmitted physically, and
    # decoded with the derived-channel decoder unchanged.
    base = Dmc((2,), 2, np.array([[0.96875, 0.03125], [0.03125, 0.96875]]))
    derived, to_phys = reduce_common_to_private(
        base, [(0, 1)], [lambda a, b: (a + b) % 2], (2, 2))
    builder = lambda rng: build_private_code(
        [1.0], FAIR, derived, (0.125, 0.125), (0.05, 0.05), 10, rng)
    found = search_code(builder, 10, 60, SEED, ("phys",))
    code = found.code
    errors = 0
    trials = 60
    for t in range(trials):
        rng = rng_mod.stream(SEED, "phys-trial", t)
        msgs = [rng.integers(2, size=code.message_maps[j].rows) for j in range(2)]
        try:
            aux = encode_components(code, msgs)
        except Exception:
            errors += 1
            continue
        xs = to_phys(list(aux))
        y = sample_channel(base, xs, rng)
        got, _ = decode_components(code, y)
        if not all((g == m).all() for g, m in zip(got, msgs)):
            errors += 1
    assert errors / trials < 0.5
    # The derived-channel simulation of the same code is the reference path.
    res = simulate_error(code, trials, SEED, ("phys-ref",))
    assert abs(res.error - errors / trials) < 0.35


def test_ternary_sender_roundtrip():
    # GF(3) messages over a noiseless ternary channel.
    dmc3 = deterministic_dmc((3,), 3, lambda a: a)
    code = build_private_code([1.0], [np.array([[1 / 3, 1 / 3, 1 / 3]])], dmc3,
                              rates=(0.4,), eps=(0.05,), n=5,
                              rng=rng_mod.stream(11, "t3"))
    assert code.checks[0].field.q == 3
    res = simulate_error(code, 40, 11, ("t3",))
    assert res.error == 0.0


def test_three_sender_machinery():
    dmc = deterministic_dmc((2, 2, 2), 8, lambda a, b, c: a + 2 * b + 4 * c)
    fair3 = [np.array([[0.5, 0.5]])] * 3
    code = build_private_code([1.0], fair3, dmc, rates=(0.25, 0.25, 0.25),
                              eps=(0.05, 0.05, 0.05), n=6,
                              rng=rng_mod.stream(12, "k3"))
    assert len(code.checks) == 3
    res = simulate_error(code, 40, 12, ("k3",))
    assert sum(res.stage_counts.values()) == res.errors
    again = simulate_error(code, 40, 12, ("k3",))
    assert again.errors == res.errors and again.stage_counts == res.stage_counts
    # Any trial whose encoder succeeds decodes exactly on this noiseless channel
    # whenever the three kernels intersect trivially; just check the recovery
    # identity on one successful round trip.
    for t in range(40):
        rng = rng_mod.stream(13, "k3-rt", t)
        msgs = [rng.integers(2, size=m.rows) for m in code.message_maps]
        try:
            xs = encode_components(code, msgs)
        except Exception:
            continue
        for j in range(3):
            assert (apply_label(code.message_maps[j], xs[j]) == msgs[j]).all()
        break


def _classify_by_sequences(code, xs, y):
    """Reference classifier: each stage tested on the raw sequences on its own."""
    g, c, m = code.gamma, code.n_cloud, code.ctx_law.size
    ctx = code.u if code.u is not None else xs[0]
    for x in xs[:c]:
        if not divergence_to(x, code.ctx_law) < g:
            return STAGE_ENCODER
    for i in range(c, len(xs)):
        if not is_cond_typical(xs[i], ctx, code.cond_inputs[i], g):
            return STAGE_ENCODER
    threshold = g
    for e in code.eps[:c]:
        threshold = threshold + entropy_slack(g, m) + e
    threshold = threshold + sum(
        cond_entropy_slack(g, g, code.cond_inputs[i].size, m) + code.eps[i]
        for i in range(c, len(xs)))
    if not seq_mutual_multi(xs[c:], ctx) < threshold:
        return STAGE_MI
    dmc = code.dmc
    cells = np.ravel_multi_index((ctx,) + tuple(xs[c:]), (m,) + dmc.input_sizes)
    rows = np.broadcast_to(dmc.table, (m,) + dmc.table.shape).reshape(-1, dmc.output_size)
    channel = CondPmf(tuple(range(rows.shape[0])), tuple(range(dmc.output_size)), rows)
    if not is_cond_typical(y, cells, channel, g):
        return STAGE_CHANNEL
    return STAGE_DECODER


def _random_code(rng, kind):
    """A private, time-sharing, cloud or one-point-cloud code over GF(2) or GF(3)."""
    q = int(rng.choice([2, 3]))
    k = 2 if kind in ("cloud", "one-point") else int(rng.integers(2, 4))
    out = int(rng.integers(2, 4))
    dmc = Dmc((q,) * k, out, rng.dirichlet(np.ones(out), size=(q,) * k))
    m = 1 if kind in ("private", "one-point") else int(rng.integers(2, 4))
    ctx_law = rng.dirichlet(np.ones(m))
    conds = [rng.dirichlet(np.ones(q), size=m) for _ in range(k)]
    if rng.random() < 0.5:  # uniform senders, so a copied codeword stays typical
        conds = [np.full((m, q), 1 / q)] * k
    n = int(rng.integers(4, 7))
    rates = [float(r) for r in rng.choice([0.0, 0.2], size=k)]
    if kind in ("private", "time-sharing"):
        build = lambda r: build_private_code(ctx_law, conds, dmc, rates,
                                             rng.uniform(0.02, 0.1, k), n, r,
                                             check_region=False)
    else:
        r0 = [0.0 if m == 1 else 0.2]
        build = lambda r: build_superposition_code(ctx_law, conds[0], conds[1], dmc,
                                                   r0 + rates, rng.uniform(0.02, 0.1, 3),
                                                   n, r, check_region=False)
    try:
        return build(rng)
    except InfeasibleRateError:
        return None


def _trial_inputs(code, rng):
    """Design-law draws, encoded codewords and most typical sequences, each with its y.

    The last two also go out with every sender copying the first, which is
    what makes the multi-information stage fire.
    """
    c, n = code.n_cloud, code.n
    ctx = code.u if code.u is not None else rng.choice(code.ctx_law.size, size=n,
                                                       p=code.ctx_law.probs)
    draws = [np.array([rng.choice(x.size, p=x.rows[b]) for b in ctx])
             for x in code.cond_inputs[c:]]
    out = [(ctx,) * c + tuple(draws)]
    msgs = [rng.integers(mm.field.q, size=mm.rows) for mm in code.message_maps]
    try:
        out.append(encode_components(code, msgs))
    except EmptyCosetError:
        pass
    ctx = code.u
    if ctx is None:  # the most typical cloud codeword
        cands = all_vectors(code.ctx_law.size, n)
        zeros = np.zeros(n, dtype=np.int64)
        ctx = cands[np.argmin(conditional_divergences(cands, code.cond_inputs[0], zeros))]
    typical = []
    for x in code.cond_inputs[c:]:
        cands = all_vectors(x.size, n)
        typical.append(cands[np.argmin(conditional_divergences(cands, x, ctx))])
    out.append((ctx,) * c + tuple(typical))
    for xs in out[1:]:
        out.append(xs[:c] + (xs[c],) * len(draws))
    return [(xs, sample_channel(code.dmc, xs[c:], rng)) for xs in out]


def test_classifier_matches_sequence_tests():
    rng = np.random.default_rng(SEED)
    seen = set()
    compared = 0
    for trial in range(60):
        kind = ("private", "time-sharing", "cloud", "one-point")[trial % 4]
        code = _random_code(rng, kind)
        if code is None:
            continue
        for xs, y in _trial_inputs(code, rng):
            for g in (0.005, 0.01, 0.02, 0.04, 0.08, 0.125):
                at = dataclasses.replace(code, gamma=g)
                want = _classify_by_sequences(at, xs, y)
                got = _stage_without_y(at, xs) or _channel_stage(at, xs, y)
                assert got == want, (kind, g)
                seen.add(want)
                compared += 1
    assert compared > 500
    assert seen == {STAGE_ENCODER, STAGE_MI, STAGE_CHANNEL, STAGE_DECODER}


def _equivalence_codes():
    """Private GF(2)/GF(3), time-sharing, and superposition codes, one with empty cosets."""
    dmc3 = Dmc((3,), 3, np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]))
    ts_conds = [np.array([[0.5, 0.5], [0.75, 0.25]])] * 2
    mu0, c1, c2 = _sw_inputs()
    noisy_pair = Dmc((2, 2), 4, 0.9 * PAIR.table + 0.025)
    return {
        "private-gf2": build_small(8, dmc=noisy_adder()),
        "private-gf3": build_private_code([1.0], [np.full((1, 3), 1 / 3)], dmc3, (0.2,),
                                          (0.05,), 6, rng_mod.stream(SEED, "eq-gf3"),
                                          check_region=False),
        "time-sharing": build_private_code([0.5, 0.5], ts_conds, noisy_adder(1 / 8),
                                           (0.2, 0.2), (0.05, 0.05), 8,
                                           rng_mod.stream(SEED, "eq-ts"), check_region=False),
        "superposition": build_superposition_code(mu0, c1, c2, noisy_pair,
                                                  (0.125, 0.125, 0.125),
                                                  (0.05, 0.05, 0.05), 8,
                                                  rng_mod.stream(SEED, "sw")),
        "superposition-empty": build_superposition_code(mu0, c1, c2, noisy_pair,
                                                        (0.25, 0.25, 0.25),
                                                        (0.05, 0.05, 0.05), 8,
                                                        rng_mod.stream(SEED, "eq-sw", 0),
                                                        check_region=False),
    }


def test_simulate_error_matches_per_trial_streams(monkeypatch):
    """The run's one-pass trial keys replay `stream(seed, *path, t)` trial by trial."""
    import hashmac.scenarios as scenarios
    trials, path = 60, ("eq", 3, rng_mod.MEASURE, 1)
    seen = set()
    for name, code in _equivalence_codes().items():
        want = {s: 0 for s in STAGES}
        for t in range(trials):
            res = run_trial(code, rng_mod.stream(SEED, *path, t))
            if not res.success:
                want[res.stage] += 1
        calls = []
        monkeypatch.setattr(scenarios, "run_trial",
                            lambda c, r: calls.append(1) or run_trial(c, r))
        got = simulate_error(code, trials, SEED, path)
        monkeypatch.undo()
        assert len(calls) == trials, name  # the benchmark counts trials here
        assert got.stage_counts == want, name
        assert got.errors == sum(want.values()), name
        seen |= {s for s, k in want.items() if k}
    assert {STAGE_EMPTY, STAGE_ENCODER, STAGE_CHANNEL} <= seen


@functools.lru_cache(maxsize=1)
def _any_code():
    return build_small(6)


@st.composite
def message_layouts(draw):
    """Per component (q, rows): fields 2, 3 and 5, some without rows, some past int64."""
    comps = draw(st.lists(st.tuples(st.sampled_from((2, 3, 5)),
                                    st.one_of(st.integers(0, 6), st.just(45))),
                          min_size=1, max_size=6))
    return comps, draw(st.integers(0, 2**64 - 1)), draw(st.integers(1, 12))


def _layout_code(comps, n):
    """A code whose components carry (q, rows) messages, with block length n."""
    maps = tuple(LinearLabel(FieldSpec(q), np.zeros((r, 4), dtype=np.int64)) for q, r in comps)
    return dataclasses.replace(_any_code(), message_maps=maps, n=n)


@settings(max_examples=150, deadline=None)
@given(message_layouts())
def test_merged_message_draws_equal_one_draw_per_component(layout):
    comps, seed, n = layout
    raw, single = rng_mod.stream(seed, "draw"), rng_mod.stream(seed, "draw")
    msgs, uniforms = _draw(_layout_code(comps, n), raw.bit_generator)
    want = []
    for q, r in comps:
        digits = single.integers(q, size=r) if r else []
        # A message's index reads its digits in base q, first digit most significant.
        want.append(int("".join(map(str, digits)) or "0", q))
    assert msgs == tuple(want)
    assert uniforms == single.random(n).tolist()


class _RawWords:
    """A bit generator's stand-in: random_raw hands out a fixed word list in order."""

    def __init__(self, words):
        self.words, self.pos = words, 0

    def random_raw(self, size):
        out = self.words[self.pos:self.pos + size]
        assert len(out) == size, "the draw asked for more words than the case holds"
        self.pos += size
        return np.array(out, dtype=np.uint64)


def _numpy_bounded_draw(halves, q):
    """numpy's buffered_bounded_lemire_uint32 for [0, q) on an iterator of uint32 halves."""
    m = next(halves) * q
    leftover = m & 0xFFFFFFFF
    if leftover < q:
        threshold = (0xFFFFFFFF - (q - 1)) % q
        while leftover < threshold:
            m = next(halves) * q
            leftover = m & 0xFFFFFFFF
    return m >> 32


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("rows", [4, 5])
@pytest.mark.parametrize("rejected", [(0,), (2,), (-1,), (0, 0, -1), (0,) * 7])
def test_rejected_digit_draws_follow_numpy(q, rows, rejected):
    # For q = 3 and 5 the threshold (2^32 - q) mod q is 1, so a zero half is
    # rejected; `rejected` names the digit of each rejection, the first, a
    # middle or the last (-1), some several times in a row.  With four
    # digits, one rejection pushes the uniforms past the words drawn first.
    n = 2
    halves = np.random.default_rng(q).integers(1, 2**32, size=64).tolist()
    at = 0
    for k, digit in enumerate(d % rows for d in rejected):
        at = max(at, digit + k)
        halves[at] = 0
        at += 1
    words = [lo | hi << 32 for lo, hi in zip(halves[::2], halves[1::2])]
    code = _layout_code(((q, rows),), n)
    msgs, uniforms = _draw(code, _RawWords(words))
    it = iter(halves)
    digits = [_numpy_bounded_draw(it, q) for _ in range(rows)]
    used = len(halves) - sum(1 for _ in it)
    assert used == rows + len(rejected)
    assert msgs == (int("".join(map(str, digits)), q),)
    start = math.ceil(used / 2)  # the uniforms skip the unused half of a word
    assert uniforms == [(w >> 11) * 2.0**-53 for w in words[start:start + n]]


def _reference_trial(code, rng):
    """One trial from the public pieces: a draw per component and array messages."""
    msgs = [rng.integers(mm.field.q, size=mm.rows) if mm.rows else np.zeros(0, dtype=np.int64)
            for mm in code.message_maps]
    try:
        xs = encode_components(code, msgs)
    except EmptyCosetError:
        return TrialResult(False, STAGE_EMPTY)
    y = sample_channel(code.dmc, xs[code.n_cloud:], rng)
    got, _ = decode_components(code, y)
    if all(np.array_equal(g, m) for g, m in zip(got, msgs)):
        return TrialResult(True)
    return TrialResult(False, _stage_without_y(code, xs) or _channel_stage(code, xs, y))


def _one_point_cloud_code():
    mu0, c1, c2 = [1.0], np.array([[0.75, 0.25]]), np.array([[0.5, 0.5]])
    return build_superposition_code(mu0, c1, c2, noisy_adder(), (0.0, 0.25, 0.25),
                                    (0.05, 0.05, 0.05), 8, rng_mod.stream(SEED, "eq-one-point"))


def test_run_trial_matches_reference_trial():
    codes = dict(_equivalence_codes(), one_point_cloud=_one_point_cloud_code())
    seen = set()
    for name, code in codes.items():
        # The reference fills its own tables, on a copy of the code.
        ref = dataclasses.replace(code)
        for t in range(80):
            got = run_trial(code, rng_mod.stream(SEED, "ref", name, t))
            assert got == _reference_trial(ref, rng_mod.stream(SEED, "ref", name, t)), (name, t)
            seen.add(got.stage)
    assert {None, STAGE_EMPTY, STAGE_ENCODER, STAGE_CHANNEL} <= seen


def test_decoder_table_returns_fresh_decoder_rows():
    for name, code in _equivalence_codes().items():
        f = code.fixed
        simulate_error(code, 120, SEED, ("repeat", name))
        assert code.decoded, name
        for y, rows in code.decoded.items():
            fresh = MinDivDecoder(code.checks[f:], code.syndromes[f:], code.law.table, u=code.u)
            assert rows == fresh.rows(y), name
        # A y that is not a valid output still raises, as a tuple or an array.
        y = next(iter(code.decoded))
        for short_or_long in (y[:-1], y + (0,)):
            with pytest.raises(ValueError):
                code.decoder.rows(short_or_long)
        for bad in (code.dmc.output_size, -1):
            for bad_y in ((bad,) + y[1:], np.full(code.n, bad)):
                with pytest.raises(ValueError, match="outside the model axis"):
                    code.decoder.rows(bad_y)


def _decoder_state(dec):
    """Every attribute of a decoder with its length, or its shape for an array."""
    return {k: np.shape(v) if isinstance(v, np.ndarray) else
            len(v) if hasattr(v, "__len__") else None for k, v in vars(dec).items()}


def test_decoder_keeps_no_state_per_output():
    for name, code in _equivalence_codes().items():
        dec = MinDivDecoder(code.checks[code.fixed:], code.syndromes[code.fixed:],
                            code.law.table, u=code.u)
        before = _decoder_state(dec)
        ys = rng_mod.stream(SEED, "stateless", name).integers(
            code.dmc.output_size, size=(50, code.n))
        first = [dec.rows(y) for y in ys]
        assert [dec.rows(tuple(y.tolist())) for y in ys] == first, name
        assert _decoder_state(dec) == before, name


def _sent_outputs(code, trials, path):
    """The y of every trial that gets past the encoder, from the public pieces."""
    ys = set()
    for t in range(trials):
        rng = rng_mod.stream(SEED, *path, t)
        msgs = [rng.integers(mm.field.q, size=mm.rows) if mm.rows
                else np.zeros(0, dtype=np.int64) for mm in code.message_maps]
        try:
            xs = encode_components(code, msgs)
        except EmptyCosetError:
            continue
        ys.add(tuple(sample_channel(code.dmc, xs[code.n_cloud:], rng).tolist()))
    return ys


def test_decoded_table_holds_one_entry_per_distinct_output():
    trials, path = 120, ("decoded",)
    for name, code in _equivalence_codes().items():
        simulate_error(code, trials, SEED, path)
        assert set(code.decoded) == _sent_outputs(code, trials, path), name
        assert len(code.decoded) < trials, name  # some outputs repeat


def test_replaced_code_gets_its_own_decoded_table():
    code = _equivalence_codes()["superposition"]
    first = simulate_error(code, 60, SEED, ("copy",))
    copy = dataclasses.replace(code)
    assert copy.decoded == {} and code.decoded
    assert simulate_error(copy, 60, SEED, ("copy",)) == first
    assert copy.decoded == code.decoded and copy.decoded is not code.decoded


def test_encode_components_rejects_malformed_messages():
    code = build_small(8, dmc=noisy_adder())
    good = [np.zeros(mm.rows, dtype=np.int64) for mm in code.message_maps]
    assert all(m.size for m in good)
    for bad in ([good[0][:-1], good[1]], [good[0] + 2, good[1]], [good[0] - 1, good[1]],
                good[:1]):
        with pytest.raises(ValueError):
            encode_components(code, bad)


def test_sent_table_holds_one_entry_per_drawn_tuple():
    trials, path = 120, ("sent",)
    for name, code in _equivalence_codes().items():
        simulate_error(code, trials, SEED, path)
        drawn = {_draw(code, rng_mod.stream(SEED, *path, t).bit_generator)[0]
                 for t in range(trials)}
        assert set(code.sent) == drawn, name


def test_radius_copy_gets_its_own_sent_table():
    """A stage verdict kept for one radius never reaches a copy at another."""
    code = _equivalence_codes()["superposition"]
    path = ("radius",)
    narrow = simulate_error(code, 100, SEED, path)
    wide_code = dataclasses.replace(code, gamma=MAX_RADIUS)
    assert wide_code.sent == {} and code.sent
    wide = simulate_error(wide_code, 100, SEED, path)
    assert wide.stage_counts != narrow.stage_counts
    fresh = dataclasses.replace(code, gamma=MAX_RADIUS)
    for t in range(100):
        rng = rng_mod.stream(SEED, *path, t)
        assert run_trial(wide_code, rng) == _reference_trial(fresh, rng_mod.stream(SEED, *path, t))


def test_trial_output_equals_sample_channel():
    """The trial path's y is sample_channel's y for the same codewords and stream."""
    compared = 0
    for name, code in _equivalence_codes().items():
        if code.decoder is None:
            continue
        seen = []
        rows = code.decoder.rows
        code.decoder.rows = lambda y: seen.append(y) or rows(y)
        try:
            for t in range(40):
                del seen[:]
                code.decoded.clear()  # so every trial's y reaches the decoder
                run_trial(code, rng_mod.stream(SEED, "y", name, t))
                if not seen:  # an empty coset: nothing was sent
                    continue
                rng = rng_mod.stream(SEED, "y", name, t)
                msgs = [rng.integers(mm.field.q, size=mm.rows) if mm.rows
                        else np.zeros(0, dtype=np.int64) for mm in code.message_maps]
                xs = encode_components(code, msgs)
                y = sample_channel(code.dmc, xs[code.n_cloud:], rng)
                assert seen == [tuple(y.tolist())], (name, t)
                compared += 1
        finally:
            del code.decoder.rows
    assert compared > 100
