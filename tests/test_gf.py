import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashmac.gf import (ENUMERATION_BUDGET, EnumerationBudgetError, FieldSpec,
                        LinearLabel, all_vectors, apply_label, coset_size,
                        enumerate_coset, rank, solve_affine, stack_labels)

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def label(rows, q=2):
    return LinearLabel(FieldSpec(q), np.array(rows, dtype=np.int64).reshape(len(rows), -1))


def test_field_spec_rejects_composite():
    with pytest.raises(ValueError):
        FieldSpec(4)


def test_apply_parity():
    A = label([[1, 1]])
    assert apply_label(A, [1, 1]).tolist() == [0]


def test_apply_identity_gf3():
    A = LinearLabel(F3, np.eye(3, dtype=np.int64))
    assert apply_label(A, [0, 1, 2]).tolist() == [0, 1, 2]


def test_apply_gf3_row():
    A = LinearLabel(F3, np.array([[1, 2]]))
    assert apply_label(A, [2, 2]).tolist() == [0]


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_label(label([[1, 1]]), [1, 0, 1])


def test_coset_parity_zero():
    A = label([[1, 1]])
    got = enumerate_coset(A, [0])
    assert got.tolist() == [[0, 0], [1, 1]]


def test_coset_parity_one():
    A = label([[1, 1]])
    got = enumerate_coset(A, [1])
    assert got.tolist() == [[0, 1], [1, 0]]


def test_coset_no_rows_is_everything():
    A = LinearLabel(F2, np.zeros((0, 2), dtype=np.int64))
    got = enumerate_coset(A, [])
    assert got.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_coset_unreachable_is_empty():
    A = label([[1, 1], [1, 1]])
    assert enumerate_coset(A, [0, 1]).shape == (0, 2)


def test_stack_concatenates_outputs():
    A = label([[1, 1]])
    B = label([[1, 0]])
    s = stack_labels(A, B)
    assert s.matrix.tolist() == [[1, 1], [1, 0]]
    assert apply_label(s, [1, 1]).tolist() == [0, 1]


def test_stack_with_empty_is_identity():
    A = label([[1, 0, 1]])
    empty = LinearLabel(F2, np.zeros((0, 3), dtype=np.int64))
    assert stack_labels(A, empty).matrix.tolist() == A.matrix.tolist()


def test_stacked_cosets_partition_plane():
    A = label([[1, 1]])
    B = label([[1, 0]])
    s = stack_labels(A, B)
    sizes = [enumerate_coset(s, [a, b]).shape[0] for a in range(2) for b in range(2)]
    assert sum(sizes) == 4
    for a in range(2):
        for b in range(2):
            joint = {tuple(v) for v in enumerate_coset(s, [a, b])}
            inter = ({tuple(v) for v in enumerate_coset(A, [a])}
                     & {tuple(v) for v in enumerate_coset(B, [b])})
            assert joint == inter


@pytest.mark.parametrize("q,n", [(2, 6), (3, 3)])
def test_linearity_exhaustive(q, n):
    rng = np.random.default_rng(5)
    A = LinearLabel(FieldSpec(q), rng.integers(q, size=(2, n)))
    space = all_vectors(q, n)
    outs = (space @ A.matrix.T) % q
    for i in range(space.shape[0]):
        for j in range(0, space.shape[0], 7):
            s = (space[i] + space[j]) % q
            assert (apply_label(A, s) == (outs[i] + outs[j]) % q).all()


@pytest.mark.parametrize("q,l,n", [(2, 2, 4), (3, 1, 3)])
def test_coset_partition(q, l, n):
    rng = np.random.default_rng(7)
    A = LinearLabel(FieldSpec(q), rng.integers(q, size=(l, n)))
    total = sum(enumerate_coset(A, list(a)).shape[0] for a in all_vectors(q, l))
    assert total == q**n


def test_full_rank_coset_sizes():
    A = label([[1, 0, 0, 1], [0, 1, 1, 0]])
    assert rank(A) == 2
    for a in all_vectors(2, 2):
        assert coset_size(A, list(a)) == 4


def test_enumeration_budget_error():
    A = LinearLabel(F2, np.zeros((0, 30), dtype=np.int64))
    with pytest.raises(EnumerationBudgetError):
        enumerate_coset(A, [])
    assert ENUMERATION_BUDGET == 1 << 24


def test_enumeration_budget_bounds_the_coset_not_the_space():
    # 2^40 ambient vectors, but a full-rank 24 x 40 label leaves 2^16 per coset.
    rng = np.random.default_rng(40)
    A = LinearLabel(F2, np.hstack([np.eye(24, dtype=np.int64),
                                   rng.integers(2, size=(24, 16))]))
    a = rng.integers(2, size=24)
    sols = enumerate_coset(A, a)
    assert sols.shape == (1 << 16, 40)
    assert ((sols @ A.matrix.T) % 2 == a).all()
    assert coset_size(A, a) == 1 << 16


def test_matrix_entries_validated():
    with pytest.raises(ValueError):
        LinearLabel(F2, np.array([[2, 0]]))


# Property tests over random labels.

@st.composite
def labels_and_syndromes(draw, max_rows=4, max_cols=7):
    q = draw(st.sampled_from((2, 3, 5)))
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    entries = st.integers(0, q - 1)
    mat = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows))
    a = draw(st.lists(entries, min_size=rows, max_size=rows))
    return LinearLabel(FieldSpec(q), np.array(mat, dtype=np.int64).reshape(rows, cols)), a


@settings(max_examples=150, deadline=None)
@given(labels_and_syndromes())
def test_solve_affine_solutions_satisfy_system(case):
    A, a = case
    particular, basis = solve_affine(A, a)
    if particular is None:
        assert enumerate_coset(A, a).shape[0] == 0
        return
    q = A.field.q
    assert (apply_label(A, particular) == np.asarray(a)).all()
    for v in basis:
        assert not apply_label(A, v).any()  # kernel vectors
        assert (apply_label(A, (particular + v) % q) == np.asarray(a)).all()


@settings(max_examples=150, deadline=None)
@given(labels_and_syndromes())
def test_coset_size_is_q_to_nullity(case):
    A, a = case
    size = coset_size(A, a)
    if size:
        assert size == A.field.q ** (A.cols - rank(A))
    assert enumerate_coset(A, a).shape[0] == size


@settings(max_examples=150, deadline=None)
@given(labels_and_syndromes())
def test_enumerate_coset_rows_unique_and_lex_sorted(case):
    A, a = case
    rows = [tuple(r) for r in enumerate_coset(A, a).tolist()]
    assert rows == sorted(set(rows))
