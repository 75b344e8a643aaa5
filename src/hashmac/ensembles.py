"""Random families of labeling maps and their collision statistics.

Three families are provided: matrices with i.i.d. uniform entries, sparse
matrices with a fixed number of nonzeros per column, and table-based random
binning.  Each family is summarized by an (alpha, beta) pair: alpha scales
the per-pair collision budget relative to 1/|range|, beta caps the total
mass of exceptional collisions.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import FieldSpec, LinearLabel, all_vectors, lex_index

# Kinds of label families.
UNIFORM = "uniform-all-linear"
SPARSE = "sparse-linear"
BINNING = "random-binning"
KINDS = (UNIFORM, SPARSE, BINNING)

BINNING_TABLE_BUDGET = 1 << 16
# Hard cap on the labels of one support walk (a product of supports
# included).  Every check reads it at call time.
SUPPORT_BUDGET = 1 << 20
# Cells (matrix entries plus outputs) one step of a support walk holds, so
# the walk's memory stays small whatever the support size.
SUPPORT_CHUNK_CELLS = 1 << 14
ALPHA_GRID = np.round(np.arange(1.0, 4.0 + 1e-9, 0.05), 2)


class SupportBudgetError(RuntimeError):
    """Exact computation would enumerate too large an ensemble support."""


def default_degree(cols: int, coeff: float) -> int:
    """The default nonzeros per column of a sparse map: ceil(coeff * log2(cols + 1))."""
    return math.ceil(coeff * math.log2(cols + 1))


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    rows: int
    cols: int
    field: FieldSpec
    column_degree: int | None = None   # nonzeros per column: required for sparse, else unused

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.rows < 0 or self.cols < 1:
            raise ValueError("rows must be >= 0 and cols >= 1")
        if self.kind == SPARSE:
            d = self.column_degree
            if d is None:
                raise ValueError("a sparse ensemble needs a column_degree")
            if not 1 <= d <= self.rows:
                raise ValueError(f"column degree {d} outside [1, rows={self.rows}]")
        if self.kind == BINNING and self.field.q**self.cols > BINNING_TABLE_BUDGET:
            raise ValueError(
                f"binning table with {self.field.q}^{self.cols} entries exceeds "
                f"the budget of {BINNING_TABLE_BUDGET}")

    def degree(self) -> int:
        if self.kind != SPARSE:
            raise ValueError("column degree only applies to sparse ensembles")
        return self.column_degree

    @property
    def im_size(self) -> int:
        return self.field.q ** self.rows


@dataclass(frozen=True)
class BinLabel:
    """Uniformly random function table from GF(q)^n to GF(q)^rows."""

    field: FieldSpec
    cols: int
    table: np.ndarray  # shape (q^cols, rows)

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int64)
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @property
    def rows(self) -> int:
        return self.table.shape[1]

    def __call__(self, u) -> np.ndarray:
        """The table row of each last-axis row of u: shape (..., rows)."""
        return self.table[lex_index(u, self.field.q)]


@dataclass(frozen=True)
class HashParams:
    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")


def sample(spec: EnsembleSpec, rng):
    """Draw one label from the family.

    rng is an `rng.Stream` or anything else with its `integers` and `choice`,
    such as a numpy Generator.
    """
    q = spec.field.q
    if spec.kind == UNIFORM:
        return LinearLabel(spec.field, rng.integers(0, q, size=(spec.rows, spec.cols)))
    if spec.kind == SPARSE:
        d = spec.degree()
        m = np.zeros((spec.rows, spec.cols), dtype=np.int64)
        for j in range(spec.cols):
            pos = rng.choice(spec.rows, size=d, replace=False, p=None)
            m[pos, j] = rng.integers(1, q, size=d)
        return LinearLabel(spec.field, m)
    table = rng.integers(0, q, size=(q**spec.cols, spec.rows))
    return BinLabel(spec.field, spec.cols, table)


# ---------------------------------------------------------------------------
# Exact collision probabilities.
#
# For the linear families P[Au = Au'] depends only on d = u - u'; for the
# sparse family it further depends only on the number of nonzero entries of
# d, because each column's contribution is a uniformly placed, uniformly
# valued sparse vector and scaling by a nonzero constant permutes outcomes.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _sparse_column_outcomes(rows: int, degree: int, q: int) -> np.ndarray:
    """Every column of a sparse matrix, in support order (read-only)."""
    out = []
    for pos in itertools.combinations(range(rows), degree):
        for vals in itertools.product(range(1, q), repeat=degree):
            v = np.zeros(rows, dtype=np.int64)
            v[list(pos)] = vals
            out.append(v)
    out = np.array(out, dtype=np.int64)
    out.flags.writeable = False
    return out


def collision_by_weight(spec: EnsembleSpec) -> list[Fraction]:
    """Exact P[A d = 0] for every family, by the nonzero count of d; index = weight.

    For the sparse family, with columns of degree t on l rows, a character
    sum over the syndromes s gives

        P[A d = 0] = q^-l * sum_k C(l, k) (q-1)^k lambda_k^w,

    where lambda_k = N_k / (C(l, t) (q-1)^t) is the mean character of one
    column against an s of weight k, and
    N_k = sum_i C(k, i) C(l-k, t-i) (-1)^i (q-1)^(t-i) counts the column
    outcomes by sign.  The powers of N_k stay Python ints over one running
    denominator, so each weight costs one Fraction.
    """
    if spec.kind != SPARSE:
        return [Fraction(1)] + [Fraction(1, spec.im_size)] * spec.cols
    q = spec.field.q
    l, t = spec.rows, spec.degree()
    terms = [math.comb(l, k) * (q - 1) ** k for k in range(l + 1)]
    signed = [sum(math.comb(k, i) * math.comb(l - k, t - i) * (-1) ** i * (q - 1) ** (t - i)
                  for i in range(t + 1)) for k in range(l + 1)]
    outcomes = math.comb(l, t) * (q - 1) ** t
    denom = q**l
    probs = [Fraction(1)]
    for _ in range(spec.cols):
        terms = [a * b for a, b in zip(terms, signed)]
        denom *= outcomes
        probs.append(Fraction(sum(terms), denom))
    return probs


def collision_prob(spec: EnsembleSpec, u, u2) -> float:
    """Probability over the family that u and u' share a label value."""
    q = spec.field.q
    u = np.asarray(u, dtype=np.int64) % q
    u2 = np.asarray(u2, dtype=np.int64) % q
    if u.shape != (spec.cols,) or u2.shape != (spec.cols,):
        raise ValueError("vectors must have length cols")
    diff = (u - u2) % q
    w = int(np.count_nonzero(diff))
    if w == 0:
        raise ValueError("u == u'; collision probability is trivially 1")
    return float(collision_by_weight(spec)[w])


@functools.cache
def _alpha_grid() -> tuple:
    """(alpha, alpha as an exact Fraction) for each ALPHA_GRID point, made on first use."""
    return tuple((a, Fraction(a).limit_denominator(10**9)) for a in map(float, ALPHA_GRID))


def _alpha_sweep(spec: EnsembleSpec, probs):
    """(alpha, beta) minimizing alpha + beta over ALPHA_GRID.

    probs are the exact collision probabilities of the weights 1..n.  The
    masses are integer numerators over one common denominator, kept as
    suffix sums in ascending order of probability: the weights whose
    probability exceeds alpha/|range| are the suffix past bisect_right, so
    each beta is one Fraction.
    """
    q, n = spec.field.q, spec.cols
    den = math.lcm(*(p.denominator for p in probs))
    masses = [math.comb(n, w) * (q - 1) ** w * p.numerator * (den // p.denominator)
              for w, p in enumerate(probs, 1)]
    order = sorted(range(n), key=probs.__getitem__)
    scaled = [probs[i] * spec.im_size for i in order]  # p > alpha/|range| iff p*|range| > alpha
    suffix = [0] * (n + 1)
    for k in reversed(range(n)):
        suffix[k] = suffix[k + 1] + masses[order[k]]
    best = None
    for alpha, exact in _alpha_grid():
        beta = float(Fraction(suffix[bisect_right(scaled, exact)], den))
        if best is None or alpha + beta < best[0] - 1e-15:
            best = (alpha + beta, alpha, beta)
    return best[1:]


@functools.lru_cache(maxsize=256)
def estimate_hash_params(spec: EnsembleSpec) -> HashParams:
    """Smallest-footprint (alpha, beta) pair for the family, exactly.

    For each alpha on a fixed grid, beta is the total collision mass of the
    differences whose collision probability exceeds alpha/|range|; the pair
    minimizing alpha+beta is reported (ties keep the smaller alpha).
    Memoized, as the spec is frozen.
    """
    return HashParams(*_alpha_sweep(spec, collision_by_weight(spec)[1:]))


def product_params(p1: HashParams, p2: HashParams) -> HashParams:
    """Parameters of the stacked family (outputs concatenated)."""
    return HashParams(p1.alpha * p2.alpha, p1.beta + p2.beta)


def multi_params(params, indices) -> HashParams:
    """Parameters governing a joint collision event across several senders."""
    indices = list(indices)
    if not indices:
        raise ValueError("empty index set")
    if len(indices) == 1:
        return params[indices[0]]
    alpha = 1.0
    one_plus_beta = 1.0
    for i in indices:
        p = params[i]
        alpha *= p.alpha
        one_plus_beta *= 1.0 + p.beta
    return HashParams(alpha, one_plus_beta - 1.0)


# ---------------------------------------------------------------------------
# Saturation and collision-resistance events: bounds, Monte Carlo rates, and
# exact rates by enumerating the family support.
# ---------------------------------------------------------------------------

def saturation_bound(alpha: float, beta: float, im_size: int, t_size: int) -> float:
    """Bound on P[(A, a): T misses the bin of a] for |T| = t_size."""
    if t_size < 1:
        raise ValueError("T must be nonempty")
    return alpha - 1.0 + im_size * (beta + 1.0) / t_size


def crp_bound(g_size: int, im_size: int, alpha: float, beta: float) -> float:
    """Bound on P[A: some other member of G lands in u's bin]."""
    return g_size * alpha / im_size + beta


def multi_crp_bound(maxima: dict, im_sizes, params) -> float:
    """Joint collision bound across senders.

    maxima maps each nonempty frozenset J of sender indices to the largest
    number of J-completions of any fixed choice of the other coordinates
    (the whole set size when J covers all senders).
    """
    k = len(im_sizes)
    everyone = frozenset(range(k))
    total = multi_params(params, everyone).beta
    for r in range(1, k + 1):
        for J in itertools.combinations(range(k), r):
            J = frozenset(J)
            comp = everyone - J
            alpha_j = multi_params(params, J).alpha
            beta_c = multi_params(params, comp).beta if comp else 0.0
            denom = 1
            for j in J:
                denom *= im_sizes[j]
            total += maxima[J] * alpha_j * (beta_c + 1.0) / denom
    return total


def conditional_maxima(tuples, k: int) -> dict:
    """The per-subset maxima used by multi_crp_bound, from an explicit set."""
    tuples = [tuple(tuple(int(x) for x in part) for part in t) for t in tuples]
    out = {}
    everyone = frozenset(range(k))
    for r in range(1, k + 1):
        for J in itertools.combinations(range(k), r):
            J = frozenset(J)
            if J == everyone:
                out[J] = len(tuples)
                continue
            comp = sorted(everyone - J)
            groups: dict = {}
            for t in tuples:
                key = tuple(t[i] for i in comp)
                groups[key] = groups.get(key, 0) + 1
            out[J] = max(groups.values()) if groups else 0
    return out


def support_size(spec: EnsembleSpec) -> int:
    q = spec.field.q
    if spec.kind == UNIFORM:
        return q ** (spec.rows * spec.cols)
    if spec.kind == SPARSE:
        return len(_sparse_column_outcomes(spec.rows, spec.degree(), q)) ** spec.cols
    return (q**spec.rows) ** (q**spec.cols)


def _checked_support_size(spec: EnsembleSpec) -> int:
    """support_size, or SupportBudgetError when it exceeds SUPPORT_BUDGET."""
    size = support_size(spec)
    if size > SUPPORT_BUDGET:
        q = spec.field.q
        if spec.kind == UNIFORM:
            what = f"{q}^{spec.rows * spec.cols} matrices"
        elif spec.kind == SPARSE:
            outcomes = len(_sparse_column_outcomes(spec.rows, spec.degree(), q))
            what = f"{outcomes}^{spec.cols} sparse matrices"
        else:
            what = f"{size} binning tables"
        raise SupportBudgetError(f"{what} exceed the budget of {SUPPORT_BUDGET}")
    return size


def _digits(idx: np.ndarray, base: int, width: int) -> np.ndarray:
    """Base-`base` digits of each index, most significant first: (len(idx), width)."""
    powers = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // powers) % base


def _members(spec: EnsembleSpec, idx: np.ndarray) -> np.ndarray:
    """Matrices (linear families) or tables (binning) of the labels at the
    given support positions.  This fixes the support order: the digits of
    the position pick the matrix entries (uniform), the column outcomes
    (sparse) or the output of each input (binning), first digit first.
    """
    q = spec.field.q
    if spec.kind == UNIFORM:
        return _digits(idx, q, spec.rows * spec.cols).reshape(len(idx), spec.rows, spec.cols)
    if spec.kind == SPARSE:
        outcomes = _sparse_column_outcomes(spec.rows, spec.degree(), q)
        return outcomes[_digits(idx, len(outcomes), spec.cols)].transpose(0, 2, 1)
    return all_vectors(q, spec.rows)[_digits(idx, spec.im_size, q**spec.cols)]


def support_label(spec: EnsembleSpec, index: int):
    """The label at position index of the support (all labels equally likely)."""
    size = _checked_support_size(spec)
    if not 0 <= index < size:
        raise IndexError(f"support position {index} outside [0, {size})")
    member = _members(spec, np.array([index], dtype=np.int64))[0]
    if spec.kind == BINNING:
        return BinLabel(spec.field, spec.cols, member)
    return LinearLabel(spec.field, member)


def _output_chunks(spec: EnsembleSpec, vecs):
    """The outputs of each support label on the rows of vecs, in support order.

    The only walk over a whole support.  Yields (labels, m, rows) arrays of
    about SUPPORT_CHUNK_CELLS cells (members plus outputs), so memory stays
    within one chunk; SupportBudgetError comes before any allocation.
    """
    vecs = np.asarray(vecs, dtype=np.int64)
    if vecs.ndim != 2 or vecs.shape[1] != spec.cols:
        raise ValueError(f"expected an (m, {spec.cols}) array of vectors")
    size = _checked_support_size(spec)
    q = spec.field.q
    inputs = lex_index(vecs, q) if spec.kind == BINNING else None
    width = q**spec.cols if inputs is not None else spec.cols
    step = max(1, SUPPORT_CHUNK_CELLS // max(spec.rows * (width + vecs.shape[0]), 1))
    for start in range(0, size, step):
        members = _members(spec, np.arange(start, min(start + step, size), dtype=np.int64))
        if inputs is not None:
            yield members[:, inputs]
        else:
            yield (vecs @ members.transpose(0, 2, 1)) % q


def saturation_rate_exact(spec: EnsembleSpec, T) -> float:
    """Exact P over (A, a uniform) that T meets no element of a's bin."""
    T = np.asarray(T, dtype=np.int64)
    if T.shape[0] < 1:
        raise ValueError("T must be nonempty")
    im = spec.im_size
    hit = labels = 0
    for outs in _output_chunks(spec, T):
        # Bins hit per label: sorted codes change once per further bin.
        codes = np.sort(lex_index(outs, spec.field.q), axis=1)
        hit += codes.shape[0] + int((codes[:, 1:] != codes[:, :-1]).sum())
        labels += codes.shape[0]
    return float(Fraction(labels * im - hit, im * labels))


def _bin_matches(outs: np.ndarray) -> np.ndarray:
    """(labels, m - 1): which of rows 1.. share row 0's output, per label."""
    return (outs[:, 1:] == outs[:, :1]).all(axis=2)


def crp_rate_exact(spec: EnsembleSpec, G, u) -> float:
    """Exact P over A that some other member of G shares u's bin."""
    G = np.asarray(G, dtype=np.int64)
    u = np.asarray(u, dtype=np.int64)
    others = G[~(G == u).all(axis=1)]
    if others.shape[0] == 0:
        return 0.0
    hits = labels = 0
    for outs in _output_chunks(spec, np.vstack([u[None, :], others])):
        hits += int(_bin_matches(outs).any(axis=1).sum())
        labels += outs.shape[0]
    return hits / labels


def _joint_hits(matches, alive=None) -> int:
    """Ways to pick one row per boolean matrix so the rows AND to some True.

    Recurses over the rows of the leading matrices; the last two are counted
    with one product, so memory stays within one row block per matrix plus
    an (L_{k-1}, L_k) result.
    """
    first, rest = matches[0], matches[1:]
    if alive is not None:
        first = first & alive
    if not rest:
        return int(first.any(axis=1).sum())
    if len(rest) == 1:
        # Sums of 0/1 products are exact in float64.
        common = first.astype(np.float64) @ rest[0].T.astype(np.float64)
        return int((common > 0).sum())
    return sum(_joint_hits(rest, row) for row in first if row.any())


def multi_crp_rate_exact(specs, tuples, u_parts) -> float:
    """Exact joint collision rate over independent per-sender families.

    For each sender and each label in its support, one boolean row marks the
    other tuples whose part shares u's bin; a combination of labels is a hit
    when its rows AND to some True.
    """
    u_parts = [np.asarray(p, dtype=np.int64) for p in u_parts]
    others = []
    for t in tuples:
        parts = [np.asarray(p, dtype=np.int64) for p in t]
        if all((a == b).all() for a, b in zip(parts, u_parts)):
            continue
        others.append(parts)
    if not others:
        return 0.0
    count = math.prod(_checked_support_size(s) for s in specs)
    if count > SUPPORT_BUDGET:
        raise SupportBudgetError(
            f"product support {count} exceeds the budget of {SUPPORT_BUDGET}")
    matches = []
    for i, spec in enumerate(specs):
        vecs = np.stack([u_parts[i]] + [parts[i] for parts in others])
        matches.append(np.concatenate([_bin_matches(outs)
                                       for outs in _output_chunks(spec, vecs)]))
    return _joint_hits(matches) / count


def uniform_syndrome_hit_rate(label, u) -> float:
    """Mean over uniform syndromes a of the indicator that u's label equals a."""
    syndromes = all_vectors(label.field.q, label.rows)
    return float((syndromes == label(u)).all(axis=1).mean())


def _syndrome_hits(spec: EnsembleSpec, vecs):
    """Per chunk of labels, how many uniform syndromes equal each output."""
    _checked_support_size(spec)  # before the syndrome grid is built
    q = spec.field.q
    per_code = np.bincount(lex_index(all_vectors(q, spec.rows), q), minlength=spec.im_size)
    for outs in _output_chunks(spec, vecs):
        yield per_code[lex_index(outs, q)]


def ensemble_syndrome_hit_rate(spec: EnsembleSpec, u) -> float:
    """Joint mean over (label, uniform syndrome) of the same indicator."""
    hits = labels = 0
    for chunk in _syndrome_hits(spec, np.asarray(u, dtype=np.int64)[None, :]):
        hits += int(chunk.sum())
        labels += chunk.shape[0]
    return float(Fraction(hits, spec.im_size * labels))
