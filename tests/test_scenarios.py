import numpy as np
import pytest

from hashmac import rng as rng_mod
from hashmac.channel import Dmc, deterministic_dmc, sample_channel
from hashmac.gf import apply_label
from hashmac.scenarios import (InfeasibleRateError, STAGES, TrialResult,
                               build_private_code, build_superposition_code,
                               decode_components, encode_components,
                               reduce_common_to_private, run_trial,
                               saturation_audit, search_code, simulate_error)

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
    assert 0 < code.gamma <= 0.125
    assert isinstance(code.gamma_ok, bool)


def test_saturation_audit_reports_all_live_senders():
    code = build_small(8)
    audit = saturation_audit(code)
    assert len(audit) == 2
    for row in audit:
        assert row["bins"] == (code.checks[row["index"]].im_size
                               * code.message_maps[row["index"]].im_size)
        assert row["typical_size"] >= 0


@pytest.mark.parametrize("n", [8, 12])
def test_one_point_cloud_kappa_matches_private(n):
    # A one-point cloud codes the same two senders as a private code, so the
    # occupancy factor counts the same two components.
    deg = build_superposition_code([1.0], FAIR[0], FAIR[1], noisy_adder(),
                                   (0.0, 0.25, 0.25), (0.05, 0.05, 0.05), n,
                                   rng_mod.stream(SEED, "kappa", n))
    priv = build_private_code([1.0], FAIR, noisy_adder(), (0.25, 0.25), (0.05, 0.05), n,
                              rng_mod.stream(SEED, "kappa", n))
    assert deg.check_specs[1:] == priv.check_specs
    assert deg.message_specs[1:] == priv.message_specs
    assert deg.kappa == priv.kappa
    mu0, c1, c2 = _sw_inputs()
    cloud = build_superposition_code(mu0, c1, c2, PAIR, (0.125, 0.125, 0.125),
                                     (0.05, 0.05, 0.05), 8, rng_mod.stream(SEED, "kappa"))
    for code in (deg, priv, cloud):
        audit = saturation_audit(code)
        assert [row["index"] for row in audit] == list(range(code.fixed, code.k_messages))
        assert all(row["kappa"] == code.kappa for row in audit)


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
