import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashmac import gf
from hashmac.ensembles import BinLabel
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
    for vecs in ([1, 0, 1], np.zeros((3, 3)), np.zeros((2, 1)), np.zeros(0), 1):
        with pytest.raises(ValueError, match="label columns 2"):
            apply_label(label([[1, 1]]), vecs)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_apply_rows_equal_row_by_row(q):
    rng = np.random.default_rng(q)
    A = LinearLabel(FieldSpec(q), rng.integers(q, size=(3, 4)))
    vecs = rng.integers(q, size=(2, 5, 4))
    got = apply_label(A, vecs)
    assert got.shape == (2, 5, 3) and got.dtype == np.int64
    for block, outs in zip(vecs, got):
        assert (apply_label(A, block) == outs).all()
        assert (np.stack([apply_label(A, v) for v in block]) == outs).all()
    assert (A(vecs) == got).all()


def test_apply_zero_rows_keeps_leading_axes():
    empty = LinearLabel(F3, np.zeros((0, 2), dtype=np.int64))
    assert apply_label(empty, [2, 1]).shape == (0,)
    assert apply_label(empty, np.zeros((4, 2), dtype=np.int64)).shape == (4, 0)
    assert apply_label(empty, np.zeros((3, 4, 2), dtype=np.int64)).shape == (3, 4, 0)


@pytest.mark.parametrize("bad", [-1, 3])
def test_apply_out_of_range_rows_raise(bad):
    vecs = np.zeros((4, 2), dtype=np.int64)
    vecs[2, 1] = bad
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        apply_label(LinearLabel(F3, np.array([[1, 2]])), vecs)


def test_bin_label_rows_equal_row_by_row():
    rng = np.random.default_rng(7)
    lab = BinLabel(F3, 2, rng.integers(3, size=(9, 2)))
    vecs = all_vectors(3, 2)[rng.permutation(9)]
    got = lab(vecs)
    assert got.shape == (9, 2)
    assert (np.stack([lab(v) for v in vecs]) == got).all()


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
    # The general elimination: a zero particular solution and the identity basis.
    for q, n in ((2, 2), (3, 5), (5, 1)):
        A = LinearLabel(FieldSpec(q), np.zeros((0, n), dtype=np.int64))
        particular, basis = solve_affine(A, [])
        assert particular.dtype == basis.dtype == np.int64
        assert np.array_equal(particular, np.zeros(n)) and np.array_equal(basis, np.eye(n))


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
    for shape in ((0, 4), (3, 0)):  # no rows, or no columns
        assert rank(LinearLabel(F3, np.zeros(shape, dtype=np.int64))) == 0
    for a in all_vectors(2, 2):
        assert coset_size(A, list(a)) == 4


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("n", range(6))
def test_all_vectors_lex_order_dtype_and_layout(q, n):
    vecs = all_vectors(q, n)
    assert vecs.tolist() == [list(v) for v in itertools.product(range(q), repeat=n)]
    assert vecs.shape == (q**n, n)
    assert vecs.dtype == np.int64 and vecs.flags.c_contiguous


def test_all_vectors_budget_error(monkeypatch):
    with pytest.raises(EnumerationBudgetError):
        all_vectors(3, 16)
    monkeypatch.setattr(gf, "ENUMERATION_BUDGET", 16)
    assert all_vectors(2, 4).shape == (16, 4)
    with pytest.raises(EnumerationBudgetError, match="2\\^5 vectors exceed the budget of 16"):
        all_vectors(2, 5)


def test_enumeration_budget_error():
    A = LinearLabel(F2, np.zeros((0, 30), dtype=np.int64))
    with pytest.raises(EnumerationBudgetError):
        enumerate_coset(A, [])
    assert ENUMERATION_BUDGET == 1 << 24


def test_enumeration_budget_bounds_the_coset_not_the_space(monkeypatch):
    # 2^40 ambient vectors, but a full-rank 24 x 40 label leaves 2^16 per coset.
    rng = np.random.default_rng(40)
    A = LinearLabel(F2, np.hstack([np.eye(24, dtype=np.int64),
                                   rng.integers(2, size=(24, 16))]))
    a = rng.integers(2, size=24)
    sols = enumerate_coset(A, a)
    assert sols.shape == (1 << 16, 40)
    assert ((sols @ A.matrix.T) % 2 == a).all()
    assert coset_size(A, a) == 1 << 16
    monkeypatch.setattr(gf, "ENUMERATION_BUDGET", (1 << 16) - 1)
    with pytest.raises(EnumerationBudgetError, match="coset size 2\\^16 exceeds"):
        enumerate_coset(A, a)


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


def numpy_row_reduce(mat: np.ndarray, q: int):
    """gf's earlier elimination, numpy row operations in place: the oracle of the int one."""
    m = mat % q
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + nz[0]
        if p != r:
            m[[r, p]] = m[[p, r]]
        inv = pow(int(m[r, c]), q - 2, q)
        m[r] = (m[r] * inv) % q
        for other in range(rows):
            if other != r and m[other, c]:
                m[other] = (m[other] - m[other, c] * m[r]) % q
        pivots.append(c)
        r += 1
    return m, pivots


def numpy_solve_affine(label, a):
    """gf's earlier solve_affine, on numpy_row_reduce."""
    q, n = label.field.q, label.cols
    red, pivots = numpy_row_reduce(np.hstack([label.matrix, np.asarray(a)[:, None]]), q)
    for r in range(red.shape[0]):
        if not red[r, :n].any() and red[r, n]:
            return None, None
    pivots = [c for c in pivots if c < n]
    free = [c for c in range(n) if c not in pivots]
    particular = np.zeros(n, dtype=np.int64)
    for i, c in enumerate(pivots):
        particular[c] = red[i, n]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, c in enumerate(pivots):
            basis[k, c] = (-red[i, fc]) % q
    return particular, basis


@st.composite
def elimination_cases(draw):
    """Up to 10 x 12 over GF(2, 3, 5), with planted zero rows and columns and repeated rows."""
    q = draw(st.sampled_from((2, 3, 5)))
    rows, cols = draw(st.integers(0, 10)), draw(st.integers(0, 12))
    entries = st.lists(st.integers(0, q - 1), min_size=rows * cols, max_size=rows * cols)
    mat = np.array(draw(entries), dtype=np.int64).reshape(rows, cols)
    if rows and draw(st.booleans()):
        mat[draw(st.integers(0, rows - 1))] = 0
    if cols and draw(st.booleans()):
        mat[:, draw(st.integers(0, cols - 1))] = 0
    if rows > 1 and draw(st.booleans()):  # a repeated row: inconsistent if its syndromes differ
        mat[rows - 1] = mat[0]
    a = np.array(draw(st.lists(st.integers(0, q - 1), min_size=rows, max_size=rows)),
                 dtype=np.int64)
    return LinearLabel(FieldSpec(q), mat), a


@settings(max_examples=400, deadline=None)
@given(elimination_cases())
def test_int_elimination_equals_numpy_elimination(case):
    A, a = case
    assert rank(A) == len(numpy_row_reduce(A.matrix.copy(), A.field.q)[1])
    got, want = solve_affine(A, a), numpy_solve_affine(A, a)
    if want[0] is None:
        assert got == (None, None)
        return
    for g, w in zip(got, want):
        assert (g.dtype, g.shape, g.tolist()) == (w.dtype, w.shape, w.tolist())


def test_solve_affine_on_inconsistent_and_columnless_systems():
    inconsistent = solve_affine(label([[1, 0, 1], [1, 0, 1]], 3), [0, 2])
    assert inconsistent == (None, None)
    particular, basis = solve_affine(LinearLabel(F3, np.zeros((2, 0), dtype=np.int64)), [0, 0])
    assert particular.shape == (0,) and basis.shape == (0, 0)
    assert solve_affine(LinearLabel(F3, np.zeros((1, 0), dtype=np.int64)), [1]) == (None, None)
    assert rank(LinearLabel(FieldSpec(5), np.zeros((3, 4), dtype=np.int64))) == 0
