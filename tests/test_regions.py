import itertools

import numpy as np
import pytest

from hashmac import rng as rng_mod
from hashmac.channel import deterministic_dmc
from hashmac.channel import Dmc
from hashmac.regions import (JointLaw, RatePoint, _sw_constraints, eps_feasible,
                             in_region_han, in_region_private, in_region_sw,
                             in_region_ts, joint_han, joint_private, joint_sw,
                             joint_ts, mutual_information, rate_split)
from hashmac.slack import RadiusError

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
    hl = joint_han([FAIR, FAIR], [(0,), (1,)], [lambda a: a, lambda a: a], ADDER)
    pl = joint_private([FAIR, FAIR], ADDER)
    assert in_region_han((0.5, 0.5), hl).inside == in_region_private((0.5, 0.5), pl).inside


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


def test_rate_point_validation():
    with pytest.raises(ValueError):
        RatePoint((-0.1, 0.2))
    assert RatePoint((0.1, 0.2)).rates == (0.1, 0.2)


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


def test_sw_constraints_computed_once_per_law():
    law = _random_sw_law(6)
    rows = _sw_constraints(law)
    assert _sw_constraints(law) is rows
    assert _sw_constraints(_fresh(law)) == rows


def _ref_in_region_sw(rates, law, include_aux=False):
    # The region test with every bound recomputed on a fresh law.
    if rates[0] < 0:
        return False, "R0 < 0"
    if rates[1] < 0 or rates[2] < 0:
        return False, "private rates must be nonnegative"
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
    for name, coef, bound in rows:
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
