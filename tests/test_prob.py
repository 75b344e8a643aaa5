import math

import numpy as np
import pytest

from hashmac.empirical import cond_divergence_to, divergence_to
from hashmac.prob import CondPmf, Pmf, cond_entropy, entropy
from hashmac.regions import JointLaw, mutual_information


def test_entropy_fair_coin():
    assert entropy(Pmf((0, 1), [0.5, 0.5])) == 1.0


def test_entropy_uniform_four():
    assert entropy(Pmf(range(4), [0.25] * 4)) == 2.0


def test_zero_prob_contributes_nothing():
    assert entropy(Pmf((0, 1), [1.0, 0.0])) == 0.0


def test_mutual_info_independent_is_zero():
    law = JointLaw(("u", "v"), np.full((2, 2), 0.25))
    assert abs(mutual_information(law, ["u"], ["v"])) < 1e-12


def test_mutual_info_copy_channel():
    law = JointLaw(("u", "v"), np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert abs(mutual_information(law, ["u"], ["v"]) - 1.0) < 1e-12


def test_cond_mutual_info_chain():
    # w = u xor v with independent fair u, v: I(U;V|W) = 1 bit.
    t = np.zeros((2, 2, 2))
    for u in range(2):
        for v in range(2):
            t[u, v, (u + v) % 2] = 0.25
    law = JointLaw(("u", "v", "w"), t)
    assert abs(mutual_information(law, ["u"], ["v"], ["w"]) - 1.0) < 1e-12


# Divergences of a distribution are taken from a sequence of that type.

def test_divergence_self_zero():
    p = Pmf((0, 1), [0.3, 0.7])
    assert abs(divergence_to([0] * 3 + [1] * 7, p)) < 1e-12


def test_divergence_point_vs_fair():
    assert divergence_to([0, 0], Pmf((0, 1), [0.5, 0.5])) == 1.0


def test_divergence_disjoint_support():
    assert divergence_to([0], Pmf((0, 1), [0, 1])) == math.inf


def test_divergence_alphabet_mismatch():
    with pytest.raises(ValueError):
        divergence_to([0, 1], Pmf((0, 2), [0.5, 0.5]))


def test_cond_entropy_and_divergence():
    cond = CondPmf((0, 1), (0, 1), [[0.5, 0.5], [1.0, 0.0]])
    base = Pmf((0, 1), [0.5, 0.5])
    assert abs(cond_entropy(cond, base) - 0.5) < 1e-12
    # v has the type of base, and u given v the rows of cond.
    same = cond_divergence_to([0, 1, 0, 0], [0, 0, 1, 1], cond)
    assert same == 0.0


def test_cond_divergence_weights_rows():
    # Only the rows of symbols that v takes count: here row 0 alone.
    q2 = CondPmf((0, 1), (0, 1), [[0.5, 0.5], [0.5, 0.5]])
    assert abs(cond_divergence_to([0, 0], [0, 0], q2) - 1.0) < 1e-12


def test_pmf_validation():
    with pytest.raises(ValueError):
        Pmf((0, 1), [0.6, 0.6])
    with pytest.raises(ValueError):
        Pmf((0, 1), [-0.1, 1.1])
    # Tolerance of 1e-12 on the total mass.
    Pmf((0, 1), [0.5, 0.5 + 5e-13])
