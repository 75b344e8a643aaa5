import itertools

import numpy as np
import pytest

from hashmac import rng as rng_mod
from hashmac.channel import deterministic_dmc
from hashmac.channel import Dmc
from hashmac.regions import (JointLaw, _constraints, eps_feasible,
                             in_region_private, in_region_sw, in_region_ts,
                             joint_private, joint_sw, joint_ts, mutual_information,
                             rate_split)
from hashmac.scenarios import reduce_common_to_private
from hashmac.slack import RadiusError, feasibility_slack

ADDER = deterministic_dmc((2, 2), 3, lambda a, b: a + b)
XOR = deterministic_dmc((2, 2), 2, lambda a, b: (a + b) % 2)
FAIR = np.array([0.5, 0.5])


def test_joint_private_xor_entropies():
    law = joint_private([FAIR, FAIR], XOR)
    assert abs(law.entropy(["y"]) - 1.0) < 1e-12
    h_given = law.entropy(["x1", "x2", "y"]) - law.entropy(["x1", "x2"])
    assert abs(h_given) < 1e-12


def test_joint_ts_with_constant_u_matches_private():
    law_p = joint_private([FAIR, FAIR], ADDER)
    law_t = joint_ts([1.0], [FAIR[None, :], FAIR[None, :]], ADDER)
    assert np.allclose(law_t.table[0], law_p.table)


def test_joint_sw_deterministic_satellites():
    ident = np.eye(2)
    law = joint_sw(FAIR, ident, ident, ADDER)
    assert abs(mutual_information(law, ["x1"], ["y"], ["x0", "x2"])) < 1e-12


def test_adder_region_numerics():
    law = joint_private([FAIR, FAIR], ADDER)
    assert abs(mutual_information(law, ["x1"], ["y"], ["x2"]) - 1.0) <= 1e-9
    assert abs(mutual_information(law, ["x1", "x2"], ["y"]) - 1.5) <= 1e-9
    assert in_region_private((0.5, 0.5), law).inside
    verdict = in_region_private((1.0, 1.0), law)
    assert not verdict.inside and "J={1,2}" in verdict.witness


def test_zero_rates_always_inside():
    for law in (joint_private([FAIR, FAIR], ADDER), joint_private([FAIR, FAIR], XOR)):
        assert in_region_private((0.0, 0.0), law).inside


def test_xor_sum_rate_violation():
    law = joint_private([FAIR, FAIR], XOR)
    assert not in_region_private((0.6, 0.6), law).inside


def test_ts_region_and_han_consistency():
    law_t = joint_ts(FAIR, [np.array([[0.9, 0.1], [0.1, 0.9]])] * 2, ADDER)
    assert in_region_ts((0.1, 0.1), law_t).inside
    # The Han law of the identity reduction: one auxiliary per sender, carried as is.
    derived, _ = reduce_common_to_private(ADDER, [(0,), (1,)], [lambda a: a, lambda a: a],
                                          (2, 2))
    hl = joint_private([FAIR, FAIR], derived)
    pl = joint_private([FAIR, FAIR], ADDER)
    assert in_region_private((0.5, 0.5), hl).inside == in_region_private((0.5, 0.5), pl).inside


def test_sw_region_witnesses():
    law = joint_sw(FAIR, np.eye(2), np.eye(2), ADDER)
    v = in_region_sw((0.1, 0.2, 0.2), law)
    assert not v.inside  # deterministic satellites leave no private rate room
    assert in_region_sw((-0.1, 0.1, 0.1), law).witness == "R0 < 0"


def test_eps_feasible_radius_precondition():
    law = joint_private([FAIR, FAIR], ADDER)
    # 2*sum(eps) = 0.2 exceeds 1/8: the slack terms are undefined there.
    with pytest.raises(RadiusError):
        eps_feasible((0.25, 0.25), law, (0.05, 0.05), 512)


def test_eps_feasible_deep_inside_large_n():
    law = joint_private([FAIR, FAIR], ADDER)
    assert eps_feasible((0.25, 0.25), law, (1e-4, 1e-4), 10**6)
    # Boundary points stay excluded for any positive margin.
    assert not eps_feasible((0.75, 0.75), law, (1e-4, 1e-4), 10**6)


def test_eps_feasible_implies_membership():
    rng = rng_mod.stream(31, "feas")
    law = joint_private([FAIR, FAIR], ADDER)
    for _ in range(50):
        r = tuple(rng.random(2) * 0.8)
        if eps_feasible(r, law, (1e-3, 1e-3), 4096):
            assert in_region_private(r, law).inside


def _sw_test_law():
    dmc = deterministic_dmc((2, 2), 4, lambda a, b: 2 * a + b)
    c1 = np.array([[0.875, 0.125], [0.125, 0.875]])
    c2 = np.array([[0.75, 0.25], [0.25, 0.75]])
    return joint_sw(FAIR, c1, c2, dmc)


def test_rate_split_accepts_already_valid_point():
    law = _sw_test_law()
    point = (0.125, 0.125, 0.125)
    assert in_region_sw(point, law, include_aux=True).inside
    split = rate_split(point, law)
    assert split.moved == (0.0, 0.0)
    assert split.built == point


def test_rate_split_inverse_is_exact():
    law = _sw_test_law()
    step = 2.0**-10
    rng = rng_mod.stream(77, "split")
    checked = 0
    while checked < 25:
        r = np.floor(rng.random(3) * 0.6 / step) * step
        point = tuple(float(v) for v in r)
        if min(point) <= 0 or not in_region_sw(point, law).inside:
            continue
        checked += 1
        split = rate_split(point, law)
        assert in_region_sw(split.built, law, include_aux=True).inside
        assert split.recombine() == point


def test_rate_split_rejects_outside_target():
    law = _sw_test_law()
    with pytest.raises(Exception):
        rate_split((5.0, 5.0, 5.0), law)


def test_downward_closure_random():
    rng = rng_mod.stream(13, "close")
    law = joint_private([FAIR, FAIR], ADDER)
    for _ in range(100):
        r = (float(rng.random() * 1.0), float(rng.random() * 1.0))
        if in_region_private(r, law).inside:
            shrunk = (r[0] * float(rng.random()), r[1] * float(rng.random()))
            assert in_region_private(shrunk, law).inside


def test_sw_factorization_identity_random():
    rng = rng_mod.stream(41, "fact")
    for _ in range(25):
        w = rng.integers(1, 9, size=(2, 2, 2)).astype(float)
        dmc_table = w / w.sum(axis=-1, keepdims=True)
        dmc = Dmc((2, 2), 2, dmc_table)
        mu0 = rng.integers(1, 9, size=2).astype(float)
        mu0 /= mu0.sum()
        c1 = rng.integers(1, 9, size=(2, 2)).astype(float)
        c1 /= c1.sum(axis=1, keepdims=True)
        c2 = rng.integers(1, 9, size=(2, 2)).astype(float)
        c2 /= c2.sum(axis=1, keepdims=True)
        law = joint_sw(mu0, c1, c2, dmc)
        assert abs(mutual_information(law, ["x1", "x2"], ["y"])
                   - mutual_information(law, ["x0", "x1", "x2"], ["y"])) <= 1e-9


def test_joint_law_validation():
    with pytest.raises(ValueError):
        JointLaw(("a",), np.array([0.5, 0.6]))


def _random_sw_law(seed):
    rng = rng_mod.stream(seed, "memo")
    w = rng.integers(1, 9, size=(2, 2, 3)).astype(float)
    dmc = Dmc((2, 2), 3, w / w.sum(axis=-1, keepdims=True))
    mu0 = rng.integers(1, 9, size=3).astype(float)
    c1 = rng.integers(1, 9, size=(3, 2)).astype(float)
    c2 = rng.integers(1, 9, size=(3, 2)).astype(float)
    return joint_sw(mu0 / mu0.sum(), c1 / c1.sum(axis=1, keepdims=True),
                    c2 / c2.sum(axis=1, keepdims=True), dmc)


def _fresh(law):
    return JointLaw(law.names, law.table)


def test_memoized_entropy_is_bit_identical():
    law = _random_sw_law(5)
    for r in range(1, len(law.names) + 1):
        for names in itertools.permutations(law.names, r):
            first = law.entropy(names)
            assert law.entropy(list(names)) == first
            assert _fresh(law).entropy(names) == first
    assert law == law and "_memo" not in repr(law)


def test_constraints_computed_once_per_law():
    for law in (_random_sw_law(6), _random_ts_law(6)):
        rows = _constraints(law)
        assert _constraints(law) is rows
        assert _constraints(_fresh(law)) == rows


def _ref_sw_rows(law, include_aux=False):
    # The cloud-center rows with every bound recomputed on a fresh law.
    mi = lambda a, b, c=(): mutual_information(_fresh(law), a, b, c)
    rows = [
        ("R1 < I(X1;Y|X0,X2)", (0, 1, 0), mi(["x1"], ["y"], ["x0", "x2"])),
        ("R2 < I(X2;Y|X0,X1)", (0, 0, 1), mi(["x2"], ["y"], ["x0", "x1"])),
        ("R1+R2 < I(X1,X2;Y|X0)", (0, 1, 1), mi(["x1", "x2"], ["y"], ["x0"])),
        ("R0+R1+R2 < I(X1,X2;Y)", (1, 1, 1), mi(["x1", "x2"], ["y"])),
    ]
    if include_aux:
        rows += [
            ("R0 < I(X0;X1,X2,Y)", (1, 0, 0), mi(["x0"], ["x1", "x2", "y"])),
            ("R0+R1 < I(X0,X1;X2,Y)", (1, 1, 0), mi(["x0", "x1"], ["x2", "y"])),
            ("R0+R2 < I(X0,X2;X1,Y)", (1, 0, 1), mi(["x0", "x2"], ["x1", "y"])),
        ]
    return rows


def _ref_in_region_sw(rates, law, include_aux=False):
    if rates[0] < 0:
        return False, "R0 < 0"
    if rates[1] < 0 or rates[2] < 0:
        return False, "private rates must be nonnegative"
    for name, coef, bound in _ref_sw_rows(law, include_aux):
        total = sum(c * r for c, r in zip(coef, rates))
        if not total < bound:
            return False, f"{name}: sum {total:.6g} >= bound {bound:.6g}"
    return True, None


def test_in_region_sw_verdicts_unchanged_on_grid():
    for law in (_random_sw_law(7), _sw_test_law()):
        bound = mutual_information(law, ["x1", "x2"], ["y"])
        grid = np.linspace(-0.05, bound, 9)
        seen = set()
        for point in itertools.product(grid, repeat=3):
            for aux in (False, True):
                v = in_region_sw(point, law, include_aux=aux)
                assert (v.inside, v.witness) == _ref_in_region_sw(point, law, aux)
                seen.add(v.witness)
        assert None in seen and len(seen) > 3


def test_eps_feasible_sw_checks_lengths():
    law = _sw_test_law()
    assert eps_feasible((0.01, 0.01, 0.01), law, (1e-4,) * 3, 10**6)
    for rates, eps in (((0.01, 0.01), (1e-4,) * 3), ((0.01,) * 3, (1e-4, 1e-4)),
                       ((0.01, 0.01), (1e-4, 1e-4))):
        with pytest.raises(ValueError, match="expected"):
            eps_feasible(rates, law, eps, 10**6)


def _random_ts_law(seed):
    rng = rng_mod.stream(seed, "ts-law")
    w = rng.integers(1, 9, size=(2, 3, 3)).astype(float)
    dmc = Dmc((2, 3), 3, w / w.sum(axis=-1, keepdims=True))
    mu = rng.integers(1, 9, size=2).astype(float)
    conds = [rng.integers(1, 9, size=(2, q)).astype(float) for q in (2, 3)]
    return joint_ts(mu / mu.sum(), [c / c.sum(axis=1, keepdims=True) for c in conds], dmc)


def _ref_subset_rows(law, names, cond_extra):
    # Every (J, I(X_J;Y|cond_extra,X_J^c)), largest J first, on a fresh law.
    k = len(names)
    return [(J, mutual_information(_fresh(law), [names[j] for j in J], ["y"],
                                   list(cond_extra) + [names[j] for j in range(k)
                                                       if j not in J]))
            for r in range(k, 0, -1) for J in itertools.combinations(range(k), r)]


def _ref_in_region_subsets(rates, law, cond_extra=()):
    # The per-kind subset loop that private, time-sharing and Han laws used.
    names = [n for n in law.names if n.startswith("x")]
    if any(r < 0 for r in rates):
        return False, f"R_{[i for i, r in enumerate(rates) if r < 0][0] + 1} < 0"
    for J, bound in _ref_subset_rows(law, names, cond_extra):
        total = sum(rates[j] for j in J)
        if not total < bound:
            subset = "{" + ",".join(str(j + 1) for j in J) + "}"
            return False, f"J={subset}: sum {total:.6g} >= bound {bound:.6g}"
    return True, None


def _ref_eps_feasible(rates, law, eps, n):
    # The two branches of the old eps_feasible: cloud rows, or subset rows.
    if "x0" in law.names:
        slack = feasibility_slack(eps, n, law.size("x0") * law.size("x1") * law.size("x2"),
                                  law.size("y"))
        for _, coef, bound in _ref_sw_rows(law, include_aux=True):
            if not sum(c * (r + e) for c, r, e in zip(coef, rates, eps)) < bound - slack:
                return False
        return min(rates) >= 0
    names = [nm for nm in law.names if nm.startswith("x")]
    cond_extra = ("u",) if "u" in law.names else ()
    m_inputs = 1
    for nm in names:
        m_inputs *= law.size(nm)
    m_cond = law.size("y") * (law.size("u") if cond_extra else 1)
    slack = feasibility_slack(eps, n, m_inputs, m_cond)
    if any(r < 0 for r in rates):
        return False
    return all(sum(rates[j] + eps[j] for j in J) < bound - slack
               for J, bound in _ref_subset_rows(law, names, cond_extra))


def _rate_grid(bound, k):
    # Negative, zero and interior points, plus the exact bound itself.
    return itertools.product(np.append(np.linspace(-0.05, bound, 6), 0.0), repeat=k)


# Han's reduction with a common message t3 that both senders add to their own.
HAN_SETS = [(0, 2), (1, 2)]
HAN_MAPS = [lambda a, c: a ^ c, lambda b, c: b ^ c]
HAN_DISTS = [np.array([0.3, 0.7]), FAIR, np.array([0.8, 0.2])]


def test_region_engine_matches_per_kind_loops():
    private = joint_private([np.array([0.3, 0.7]), FAIR], ADDER)
    derived, _ = reduce_common_to_private(ADDER, HAN_SETS, HAN_MAPS, (2, 2, 2))
    han = joint_private(HAN_DISTS, derived)
    witnesses, feasible = set(), set()
    for law, verdict, ref in (
            (private, in_region_private, _ref_in_region_subsets),
            (han, in_region_private, _ref_in_region_subsets),
            (joint_ts([0.25, 0.75], [np.array([[0.9, 0.1], [0.2, 0.8]]),
                                     np.array([[0.7, 0.3], [0.05, 0.95]])], ADDER), in_region_ts,
             lambda r, lw: _ref_in_region_subsets(r, lw, ("u",))),
            (_random_sw_law(9), in_region_sw, _ref_in_region_sw),
            (_sw_test_law(), in_region_sw, _ref_in_region_sw),
            (_random_sw_law(9), lambda r, lw: in_region_sw(r, lw, include_aux=True),
             lambda r, lw: _ref_in_region_sw(r, lw, include_aux=True))):
        k = len(_constraints(law)[0][0][1])
        bound = mutual_information(law, [nm for nm in law.names if nm.startswith("x")], ["y"])
        for point in _rate_grid(bound, k):
            v = verdict(point, law)
            assert (v.inside, v.witness) == ref(point, law)
            witnesses.add(v.witness)
        # The grid plus a fine diagonal sweep, which crosses every slack edge.
        eps = (1e-4,) * k
        for point in itertools.chain(_rate_grid(bound, k),
                                     ((s,) * k for s in np.linspace(0, bound / k, 101))):
            got = eps_feasible(point, law, eps, 10**6)
            assert got == _ref_eps_feasible(point, law, eps, 10**6)
            feasible.add(got)
    # Every kind of verdict was reached: inside, negative rates and row witnesses.
    assert {None, "R_1 < 0", "R_2 < 0", "R0 < 0", "private rates must be nonnegative"} <= witnesses
    assert any(w and w.startswith("J={1,2}") for w in witnesses)
    assert any(w and w.startswith("J={1}") for w in witnesses)
    assert any(w and w.startswith("J={1,3}") for w in witnesses)
    assert any(w and "I(X0" in w for w in witnesses)  # a cloud-decodability row
    assert feasible == {True, False}


def _ref_han_table(msg_dists, msg_sets, symbol_maps, dmc):
    # Law over the per-message auxiliaries and y, summed cell by cell.
    t = np.zeros(tuple(d.size for d in msg_dists) + (dmc.output_size,))
    for combo in itertools.product(*(range(d.size) for d in msg_dists)):
        p = np.prod([d[c] for d, c in zip(msg_dists, combo)])
        xs = tuple(int(f(*(combo[i] for i in s))) for f, s in zip(symbol_maps, msg_sets))
        t[combo] += p * dmc.table[xs]
    return t


def test_han_law_is_the_private_law_over_the_derived_channel():
    derived, _ = reduce_common_to_private(ADDER, HAN_SETS, HAN_MAPS, (2, 2, 2))
    law = joint_private(HAN_DISTS, derived)
    assert law.names == ("x1", "x2", "x3", "y")
    assert np.allclose(law.table, _ref_han_table(HAN_DISTS, HAN_SETS, HAN_MAPS, ADDER),
                       rtol=0, atol=1e-15)
