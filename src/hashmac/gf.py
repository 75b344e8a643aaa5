"""Prime-field vectors and linear labeling maps, with coset enumeration.

A labeling map is an l x n matrix over GF(q) sending u in GF(q)^n to the
length-l vector Au.  The coset of a syndrome a is {u : Au = a}; cosets are
the bins of the hash families built on top of this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5)

# Hard cap on how many candidate vectors any single enumeration may produce.
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

    def inv(self, x: int) -> int:
        x %= self.q
        if x == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(x, self.q - 2, self.q)


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

    @property
    def im_size(self) -> int:
        """Size of the ensemble-level range GF(q)^rows."""
        return self.field.q ** self.rows

    def __call__(self, u) -> np.ndarray:
        return apply_label(self, u)


def apply_label(label: LinearLabel, u) -> np.ndarray:
    """Compute the length-l product Au over GF(q)."""
    u = as_vec(u, label.field.q)
    if u.size != label.cols:
        raise ValueError(f"vector length {u.size} != label columns {label.cols}")
    if label.rows == 0:
        return np.zeros(0, dtype=np.int64)
    return (label.matrix @ u) % label.field.q


def apply_label_many(label: LinearLabel, vecs: np.ndarray) -> np.ndarray:
    """Apply the label to each row of an (m, n) array; returns (m, rows)."""
    vecs = np.asarray(vecs, dtype=np.int64)
    if vecs.shape[1] != label.cols:
        raise ValueError("column mismatch")
    if label.rows == 0:
        return np.zeros((vecs.shape[0], 0), dtype=np.int64)
    return (vecs @ label.matrix.T) % label.field.q


def stack_labels(a: LinearLabel, b: LinearLabel) -> LinearLabel:
    """Stack two labels into one whose output is the concatenation (Au, Bu)."""
    if a.field.q != b.field.q:
        raise ValueError("field mismatch")
    if a.cols != b.cols:
        raise ValueError(f"column mismatch: {a.cols} != {b.cols}")
    return LinearLabel(a.field, np.vstack([a.matrix, b.matrix]))


def _row_reduce(mat: np.ndarray, q: int):
    """In-place row echelon reduction mod q; returns (reduced, pivot columns)."""
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


def rank(label: LinearLabel) -> int:
    if label.rows == 0 or label.cols == 0:
        return 0
    _, pivots = _row_reduce(label.matrix.copy(), label.field.q)
    return len(pivots)


def solve_affine(label: LinearLabel, a):
    """Solve Ax = a; returns (particular solution | None, kernel basis (k, n))."""
    q = label.field.q
    n = label.cols
    a = as_vec(a, q)
    if a.size != label.rows:
        raise ValueError(f"syndrome length {a.size} != label rows {label.rows}")
    if label.rows == 0:
        return np.zeros(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    aug = np.hstack([label.matrix, a[:, None]])
    red, pivots = _row_reduce(aug.copy(), q)
    # A pivot in the augmented column means the system is inconsistent.
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


def all_vectors(q: int, n: int, budget: int = ENUMERATION_BUDGET) -> np.ndarray:
    """All q^n vectors of length n, in lexicographic order, as an (q^n, n) array."""
    if q**n > budget:
        raise EnumerationBudgetError(f"{q}^{n} vectors exceed the budget of {budget}")
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.meshgrid(*([np.arange(q, dtype=np.int64)] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def lex_sort(vecs: np.ndarray) -> np.ndarray:
    """Sort rows lexicographically (first column most significant)."""
    if vecs.shape[0] <= 1:
        return vecs
    order = np.lexsort(vecs[:, ::-1].T)
    return vecs[order]


def enumerate_coset(label: LinearLabel, a, budget: int = ENUMERATION_BUDGET) -> np.ndarray:
    """All solutions of Ax = a as a lexicographically sorted (m, n) array.

    Empty when a is not in the image of the specific matrix A.  The budget
    bounds the coset size, not the ambient space q^n.
    """
    q = label.field.q
    particular, basis = solve_affine(label, a)
    if particular is None:
        return np.zeros((0, label.cols), dtype=np.int64)
    k = basis.shape[0]
    if q**k > budget:
        raise EnumerationBudgetError(f"coset size {q}^{k} exceeds the budget of {budget}")
    coeffs = all_vectors(q, k, budget)
    sols = (coeffs @ basis + particular) % q
    return lex_sort(sols)


def coset_size(label: LinearLabel, a) -> int:
    """|{x : Ax = a}| without materializing the coset."""
    particular, basis = solve_affine(label, a)
    if particular is None:
        return 0
    return label.field.q ** basis.shape[0]
