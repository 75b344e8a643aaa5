import itertools
import math
from collections import Counter

import numpy as np
import pytest

from hashmac import gf
from hashmac.empirical import (_entropy_counts, conditional_divergences, divergence_to,
                               empirical, enumerate_types, is_cond_typical, is_typical,
                               joint_counts, seq_mutual_multi, type_class_size)
from hashmac.prob import CondPmf, Pmf
from hashmac.verify import _ref_div_cells


def test_empirical_alternating():
    t = empirical([0, 1, 0, 1], (0, 1))
    assert t.freqs.tolist() == [0.5, 0.5]


def test_empirical_constant():
    t = empirical([2, 2, 2], (0, 1, 2))
    assert t.freqs.tolist() == [0.0, 0.0, 1.0]


def test_empirical_rejects_unknown_symbol():
    with pytest.raises(ValueError):
        empirical([0, 3], (0, 1))


def test_joint_empirical():
    t = joint_counts(([0, 1], [1, 1]), (2, 2))
    assert t.tolist() == [[0, 1], [0, 1]]


def _cond_rows(u, v):
    # The empirical conditional of u given v: joint counts of (v, u), row-normalized.
    c = joint_counts((v, u), (2, 2))
    return c / c.sum(axis=1, keepdims=True)


def test_cond_empirical_rows():
    assert _cond_rows([0, 1, 0, 1], [0, 0, 1, 1]).tolist() == [[0.5, 0.5], [0.5, 0.5]]


def test_cond_empirical_identity_kernel():
    assert _cond_rows([0, 1], [0, 1]).tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_seq_mutual_multi_values():
    # Two copies of x given a constant share H(x); given x itself, nothing.
    x = [0, 1, 0, 1]
    assert seq_mutual_multi([x, x], [0, 0, 0, 0]) == 1.0
    assert seq_mutual_multi([x, x], x) == 0.0


def test_seq_mutual_multi_copy():
    x = [0, 1]
    assert abs(seq_mutual_multi([x, x], [0, 0]) - 1.0) < 1e-12


def test_seq_mutual_multi_nonnegative_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        xs = [rng.integers(2, size=n) for _ in range(2)]
        u = rng.integers(2, size=n)
        assert seq_mutual_multi(xs, u) >= -1e-12


def _mutual_information(u, v):
    """I(u; v) = H(u) + H(v) - H(u, v) of two binary sequences, from their joint counts."""
    n = len(u)
    c = joint_counts((u, v), (2, 2))
    return float(_entropy_counts(c.sum(axis=1), n) + _entropy_counts(c.sum(axis=0), n)
                 - _entropy_counts(c.ravel(), n))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_chain_rule_exhaustive(n):
    # Given a constant, the multi-information of two sequences is I(u; v).
    const = [0] * n
    for u_bits in itertools.product((0, 1), repeat=n):
        for v_bits in itertools.product((0, 1), repeat=n):
            got = seq_mutual_multi([u_bits, v_bits], const)
            assert abs(got - _mutual_information(u_bits, v_bits)) < 1e-12


def test_chain_rule_all_types_n10():
    # Every pair's entropies depend only on its joint type; cover all of them.
    n = 10
    for c00 in range(n + 1):
        for c01 in range(n + 1 - c00):
            for c10 in range(n + 1 - c00 - c01):
                c11 = n - c00 - c01 - c10
                u, v = [], []
                for (a, b), c in zip(((0, 0), (0, 1), (1, 0), (1, 1)),
                                     (c00, c01, c10, c11)):
                    u += [a] * c
                    v += [b] * c
                got = seq_mutual_multi([u, v], [0] * n)
                assert abs(got - _mutual_information(u, v)) < 1e-12


def test_typicality_examples():
    fair = Pmf((0, 1), [0.5, 0.5])
    assert is_typical([0, 1, 0, 1], fair, 0.01)
    assert not is_typical([0, 0, 0, 0], fair, 0.5)
    assert is_typical([0, 0, 0, 0], fair, 1.01)


def test_cond_typicality():
    cond = CondPmf((0, 1), (0, 1), [[0.5, 0.5], [0.5, 0.5]])
    assert is_cond_typical([0, 1], [0, 0], cond, 0.01)
    assert not is_cond_typical([0, 0], [0, 0], cond, 0.5)


def test_divergence_to_matches_prob_divergence():
    mu = Pmf((0, 1), [0.75, 0.25])
    seq = [0, 0, 0, 1]
    want = 0.0
    assert abs(divergence_to(seq, mu) - want) < 1e-12
    assert divergence_to([1, 1], Pmf((0, 1), [1.0, 0.0])) == math.inf


def test_divergence_to_matches_cellwise_reference():
    # Both are one-row calls of the shared kernel; the reference sums the
    # occupied cells one by one, so the float order differs: 1e-12 tolerance.
    rng = np.random.default_rng(7)
    mu = Pmf(("a", "b", "c"), [0.5, 0.25, 0.25])
    cond = CondPmf(("p", "q"), ("a", "b", "c"), [[0.6, 0.3, 0.1], [0.0, 0.5, 0.5]])
    for n in (1, 5, 12):
        for _ in range(20):
            u = [mu.alphabet[i] for i in rng.integers(3, size=n)]
            v = [cond.given_alphabet[i] for i in rng.integers(2, size=n)]
            want = _ref_div_cells(Counter(u), lambda a: n * mu.probs[mu.alphabet.index(a)], n)
            assert abs(divergence_to(u, mu) - want) < 1e-12
            v_counts = Counter(v)
            want = _ref_div_cells(
                Counter(zip(v, u)),
                lambda c: v_counts[c[0]] * cond.rows[cond.given_alphabet.index(c[0]),
                                                     cond.alphabet.index(c[1])], n)
            ui = np.array([cond.alphabet.index(a) for a in u])
            vi = np.array([cond.given_alphabet.index(b) for b in v])
            got = float(conditional_divergences(ui[None, :], cond, vi)[0])
            assert got == want == math.inf or abs(got - want) < 1e-12


def test_divergence_to_errors():
    mu = Pmf((0, 1), [0.5, 0.5])
    cond = CondPmf((0, 1), (0, 1), [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="outside alphabet"):
        divergence_to([0, 2], mu)
    with pytest.raises(ValueError, match="outside alphabet"):
        is_cond_typical([0, 2], [0, 0], cond, 0.1)
    with pytest.raises(ValueError, match="outside alphabet"):
        is_cond_typical([0, 0], [0, 2], cond, 0.1)
    with pytest.raises(ValueError, match="length mismatch"):
        is_cond_typical([0, 1], [0], cond, 0.1)
    with pytest.raises(ValueError, match="empty"):
        is_cond_typical([], [], cond, 0.1)
    with pytest.raises(ValueError, match="gamma"):
        is_cond_typical([0, 1], [0, 1], cond, 0.0)
    with pytest.raises(ValueError, match="empty"):
        divergence_to([], mu)


def test_enumerate_types_counts(monkeypatch):
    types = enumerate_types(3, (0, 1))
    assert types.dtype == np.int64
    assert types.tolist() == [[0, 3], [1, 2], [2, 1], [3, 0]]
    assert len(types) < 4**2
    assert enumerate_types(1, (0, 1, 2)).tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert enumerate_types(4, (0,)).tolist() == [[4]]
    # The budget bounds the C(18, 6) = 18 564 types, not 13^7 count vectors.
    many = enumerate_types(12, range(7))
    assert many.shape == (math.comb(18, 6), 7) == (18564, 7)
    assert (many.sum(axis=1) == 12).all() and (many >= 0).all()
    assert [tuple(r) for r in many.tolist()] == sorted(set(map(tuple, many.tolist())))
    monkeypatch.setattr(gf, "ENUMERATION_BUDGET", 18563)

    def refuse(*args):
        raise AssertionError("a type was built past the budget")

    # The rows are built from itertools.combinations of the bar positions.
    monkeypatch.setattr(itertools, "combinations", refuse)
    with pytest.raises(gf.EnumerationBudgetError, match="18564 types"):
        enumerate_types(12, range(7))


def test_type_class_size():
    assert type_class_size(np.array([2, 2])) == 6
    assert type_class_size(empirical([0, 1, 1, 2], (0, 1, 2)).counts) == 12
    total = sum(type_class_size(t) for t in enumerate_types(4, (0, 1)))
    assert total == 16
