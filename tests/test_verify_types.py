"""The types suite's per-type statistics against a sequence-level reference.

`verify._pair_stats` and `verify._binary_stats` evaluate each statistic once
per joint type and gather it per pair.  The references below count every
symbol of every enumerated sequence instead, so a wrong type index, cell
order or enumeration order shows as a mismatch.
"""

import numpy as np
import pytest

from hashmac import verify
from hashmac.empirical import _count_symbols, _entropy_counts
from hashmac.gf import all_vectors


def reference_pair_stats(n, muv):
    """Every (v, u) pair as n base-4 digits 2v+u, in lex order of the digits."""
    digits = all_vectors(4, n)
    v = digits >> 1
    u = digits & 1
    m = digits.shape[0]
    counts = _count_symbols(v * 2 + u, 4).reshape(m, 2, 2)
    cv = counts.sum(axis=2)
    mu_v = muv.sum(axis=1)
    d_joint = verify._div_from_counts(counts.reshape(m, 4), n * muv.ravel()[None, :], n)
    d_v = verify._div_from_counts(cv, n * mu_v[None, :], n)
    mu_cond = muv / mu_v[:, None]
    d_cond = verify._div_from_counts(counts.reshape(m, 4),
                                     (cv[:, :, None] * mu_cond[None, :, :]).reshape(m, 4), n)
    h_v = _entropy_counts(cv, n)
    h_vu = _entropy_counts(counts.reshape(m, 4), n)
    v_id = v @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))
    return v_id, counts, d_joint, d_v, d_cond, h_v, h_vu


def reference_binary_stats(n, mu):
    seqs = all_vectors(2, n)
    c1 = seqs.sum(axis=1)
    counts = np.stack([n - c1, c1], axis=1)
    return counts, verify._div_from_counts(counts, n * mu[None, :], n)


@pytest.mark.parametrize("n", [4, 6])
def test_pair_stats_match_sequence_reference(n):
    ref = reference_pair_stats(n, verify.MUV)
    # The digit order interleaves v and u; sorted stably by v it is v-major, u ascending.
    order = np.argsort(ref[0], kind="stable")
    got = verify._pair_stats(n, verify.MUV)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype
        assert np.array_equal(g, r[order])


@pytest.mark.parametrize("n", [4, 10])
@pytest.mark.parametrize("mu", verify.MU_SET, ids=["uniform", "skewed"])
def test_binary_stats_match_sequence_reference(n, mu):
    got = verify._binary_stats(n, mu)
    ref = reference_binary_stats(n, mu)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype
        assert np.array_equal(g, r)


def test_types_suite_reports_at_defaults():
    reports = [(r.name, r.cases, r.violations, r.vacuous) for r in verify.types_suite()]
    assert reports == [
        ("type-count-bound", 8, 0, 0),
        ("type-class-size-bounds", 186, 0, 0),
        ("typical-total-variation", 3250, 0, 0),
        ("low-entropy-sequence-count", 20, 0, 0),
        ("typicality-transfer", 838656, 0, 0),
        ("typical-entropy-deviation", 152072, 0, 0),
        ("atypical-mass-bound", 1032, 0, 0),
        ("typical-set-size", 1650, 0, 399),
    ]
