"""Prime-field vectors and linear labeling maps, with coset enumeration.

A labeling map is an l x n matrix over GF(q) sending u in GF(q)^n to the
length-l vector Au.  The coset of a syndrome a is {u : Au = a}; cosets are
the bins of the hash families built on top of this module.  Systems are
solved by elimination on lists of Python ints, about twice as fast as numpy
row operations on a code's few-by-few matrices; cosets are expanded in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5)

# Hard cap on how many items one enumeration may produce: vectors, coset
# members, decoder candidates or types.  Every check reads it at call time.
ENUMERATION_BUDGET = 1 << 24


class EnumerationBudgetError(RuntimeError):
    """An enumeration would exceed ENUMERATION_BUDGET candidates."""


@dataclass(frozen=True)
class FieldSpec:
    """Prime field GF(q); arithmetic is mod q."""

    q: int

    def __post_init__(self):
        if self.q not in SUPPORTED_PRIMES:
            raise ValueError(f"unsupported field size {self.q}; supported: {SUPPORTED_PRIMES}")


def as_vec(elems, q: int) -> np.ndarray:
    """Validate and normalize a residue vector mod q."""
    v = np.asarray(elems, dtype=np.int64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.size and (v.min() < 0 or v.max() >= q):
        raise ValueError(f"vector entries must lie in [0, {q})")
    return v


@dataclass(frozen=True)
class LinearLabel:
    """Dense l x n matrix over GF(q) acting as a labeling map."""

    field: FieldSpec
    matrix: np.ndarray  # shape (rows, cols), entries in [0, q)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.int64)
        if m.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {m.shape}")
        if m.size and (m.min() < 0 or m.max() >= self.field.q):
            raise ValueError(f"matrix entries must lie in [0, {self.field.q})")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def __call__(self, u) -> np.ndarray:
        return apply_label(self, u)


def apply_label(label: LinearLabel, u) -> np.ndarray:
    """Au over GF(q) for each last-axis row of u: shape (..., rows)."""
    q = label.field.q
    u = np.asarray(u, dtype=np.int64)
    if u.shape[-1:] != (label.cols,):
        raise ValueError(f"input shape {u.shape} does not end in label columns {label.cols}")
    if u.size and (u.min() < 0 or u.max() >= q):
        raise ValueError(f"vector entries must lie in [0, {q})")
    return (u @ label.matrix.T) % q


def stack_labels(a: LinearLabel, b: LinearLabel) -> LinearLabel:
    """Stack two labels into one whose output is the concatenation (Au, Bu)."""
    if a.field.q != b.field.q:
        raise ValueError("field mismatch")
    if a.cols != b.cols:
        raise ValueError(f"column mismatch: {a.cols} != {b.cols}")
    return LinearLabel(a.field, np.vstack([a.matrix, b.matrix]))


def _row_reduce(rows: list[list[int]], q: int):
    """Reduced row echelon form mod q of int rows in [0, q), in place: (rows, pivot columns)."""
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = pow(rows[r][c], q - 2, q)
        pivot = rows[r] = [v * inv % q for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and (f := row[c]):
                rows[i] = [(v - f * w) % q for v, w in zip(row, pivot)]
        pivots.append(c)
    return rows, pivots


def rank(label: LinearLabel) -> int:
    return len(_row_reduce(label.matrix.tolist(), label.field.q)[1])


def solve_affine(label: LinearLabel, a):
    """Solve Ax = a; returns (particular solution | None, kernel basis (k, n))."""
    q = label.field.q
    n = label.cols
    a = as_vec(a, q)
    if a.size != label.rows:
        raise ValueError(f"syndrome length {a.size} != label rows {label.rows}")
    red, pivots = _row_reduce([row + [s] for row, s in zip(label.matrix.tolist(), a.tolist())], q)
    # A pivot in the augmented column means the system is inconsistent.
    if pivots and pivots[-1] == n:
        return None, None
    free = [c for c in range(n) if c not in pivots]
    particular = [0] * n
    basis = [[int(c == fc) for c in range(n)] for fc in free]
    for row, c in zip(red, pivots):
        particular[c] = row[n]
        for vec, fc in zip(basis, free):
            vec[c] = -row[fc] % q
    return (np.array(particular, dtype=np.int64),
            np.array(basis, dtype=np.int64).reshape(len(free), n))


def all_vectors(q: int, n: int) -> np.ndarray:
    """All q^n vectors of length n, in lexicographic order, as an (q^n, n) array."""
    if q**n > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(f"{q}^{n} vectors exceed the budget of {ENUMERATION_BUDGET}")
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.ascontiguousarray(np.indices((q,) * n, dtype=np.int64).reshape(n, -1).T)


def lex_index(vecs, q: int) -> np.ndarray:
    """Rank in lex order of each last-axis row: its base-q digits, first most significant.

    Python ints (object dtype) when q^width does not fit int64.
    """
    vecs = np.asarray(vecs, dtype=np.int64)
    width = vecs.shape[-1]
    if q**width >= 2**63:
        vecs = vecs.astype(object)
    index = np.zeros(vecs.shape[:-1], dtype=vecs.dtype)
    for j in range(width):
        index = index * q + vecs[..., j]
    return index


def lex_sort(vecs: np.ndarray) -> np.ndarray:
    """Sort rows lexicographically (first column most significant)."""
    if vecs.shape[0] <= 1:
        return vecs
    order = np.lexsort(vecs[:, ::-1].T)
    return vecs[order]


def enumerate_coset(label: LinearLabel, a) -> np.ndarray:
    """All solutions of Ax = a as a lexicographically sorted (m, n) array.

    Empty when a is not in the image of the specific matrix A.  The budget
    bounds the coset size, not the ambient space q^n.
    """
    q = label.field.q
    particular, basis = solve_affine(label, a)
    if particular is None:
        return np.zeros((0, label.cols), dtype=np.int64)
    k = basis.shape[0]
    if q**k > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"coset size {q}^{k} exceeds the budget of {ENUMERATION_BUDGET}")
    coeffs = all_vectors(q, k)
    sols = (coeffs @ basis + particular) % q
    return lex_sort(sols)


def coset_size(label: LinearLabel, a) -> int:
    """|{x : Ax = a}| without materializing the coset."""
    particular, basis = solve_affine(label, a)
    if particular is None:
        return 0
    return label.field.q ** basis.shape[0]
