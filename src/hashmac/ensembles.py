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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import codec
from .gf import FieldSpec, LinearLabel, all_vectors, apply_label_many

# Kinds of label families.
UNIFORM = "uniform-all-linear"
SPARSE = "sparse-linear"
BINNING = "random-binning"
KINDS = (UNIFORM, SPARSE, BINNING)

BINNING_TABLE_BUDGET = 1 << 16
SUPPORT_BUDGET = 1 << 20
ALPHA_GRID = np.round(np.arange(1.0, 4.0 + 1e-9, 0.05), 2)


class SupportBudgetError(RuntimeError):
    """Exact computation would enumerate too large an ensemble support."""


def default_degree(cols: int, coeff: float) -> int:
    """Nonzeros per column of a sparse map without an explicit degree."""
    return math.ceil(coeff * math.log2(cols + 1))


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    rows: int
    cols: int
    field: FieldSpec
    column_degree: int | None = None   # explicit nonzeros per column (sparse only)
    degree_coeff: float = 1.0          # d(n) = ceil(coeff * log2(n+1)) when not explicit

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.rows < 0 or self.cols < 1:
            raise ValueError("rows must be >= 0 and cols >= 1")
        if self.kind == SPARSE:
            d = self.degree()
            if not 1 <= d <= self.rows:
                raise ValueError(f"column degree {d} outside [1, rows={self.rows}]")
        if self.kind == BINNING and self.field.q**self.cols > BINNING_TABLE_BUDGET:
            raise ValueError(
                f"binning table with {self.field.q}^{self.cols} entries exceeds "
                f"the budget of {BINNING_TABLE_BUDGET}")

    def degree(self) -> int:
        if self.kind != SPARSE:
            raise ValueError("column degree only applies to sparse ensembles")
        if self.column_degree is not None:
            return self.column_degree
        return default_degree(self.cols, self.degree_coeff)

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

    @property
    def im_size(self) -> int:
        return self.field.q ** self.rows

    def __call__(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=np.int64)
        return self.table[_base_q(u, self.field.q)]

    def apply_many(self, vecs: np.ndarray) -> np.ndarray:
        return self.table[_base_q(np.asarray(vecs, dtype=np.int64), self.field.q)]


def _base_q(arr: np.ndarray, q: int) -> np.ndarray:
    """Base-q value of each last-axis row (first entry most significant).

    Python ints (object dtype) when q^width does not fit int64.
    """
    width = arr.shape[-1]
    dtype = np.int64 if q**width < 2**63 else object
    code = np.zeros(arr.shape[:-1], dtype=dtype)
    for j in range(width):
        code = code * q + arr[..., j]
    return code


def label_outputs(label, vecs: np.ndarray) -> np.ndarray:
    """Outputs of a label on each row of vecs, for either label kind."""
    if isinstance(label, LinearLabel):
        return apply_label_many(label, vecs)
    return label.apply_many(vecs)


@dataclass(frozen=True)
class HashParams:
    alpha: float
    beta: float
    provenance: str            # 'exact' | 'estimated'
    half_width: float = 0.0    # 95% normal-approximation CI when estimated

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.provenance not in ("exact", "estimated"):
            raise ValueError(f"unknown provenance {self.provenance!r}")


def sample(spec: EnsembleSpec, rng: np.random.Generator):
    """Draw one label from the family."""
    q = spec.field.q
    if spec.kind == UNIFORM:
        return LinearLabel(spec.field, rng.integers(q, size=(spec.rows, spec.cols)))
    if spec.kind == SPARSE:
        d = spec.degree()
        m = np.zeros((spec.rows, spec.cols), dtype=np.int64)
        for j in range(spec.cols):
            pos = rng.choice(spec.rows, size=d, replace=False)
            m[pos, j] = rng.integers(1, q, size=d)
        return LinearLabel(spec.field, m)
    table = rng.integers(q, size=(q**spec.cols, spec.rows))
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


def collision_by_weight(spec: EnsembleSpec, budget: int = 1 << 22) -> list[Fraction]:
    """Exact P[A d = 0] for every family, by the nonzero count of d; index = weight."""
    if spec.kind != SPARSE:
        return [Fraction(1)] + [Fraction(1, spec.im_size)] * spec.cols
    q = spec.field.q
    l, n, d = spec.rows, spec.cols, spec.degree()
    states = q**l
    outcomes = _sparse_column_outcomes(l, d, q)
    n_out = outcomes.shape[0]
    if n_out * states * n > budget:
        raise SupportBudgetError(
            f"sparse convolution cost {n_out}*{states}*{n} exceeds the budget of {budget}")
    digits = all_vectors(q, l)
    # Integer counts over the state group keep the computation exact.
    offsets = []
    for w_vec in outcomes:
        shifted = (digits + w_vec) % q
        idx = np.zeros(states, dtype=np.int64)
        for j in range(l):
            idx = idx * q + shifted[:, j]
        offsets.append(idx)
    counts = np.zeros(states, dtype=object)
    counts[0] = 1
    probs = [Fraction(1)]
    for w in range(1, n + 1):
        new = np.zeros(states, dtype=object)
        for idx in offsets:
            # idx is a permutation of the states (a group shift), so fancy
            # indexing accumulates without dropping duplicates.
            new[idx] += counts
        counts = new
        probs.append(Fraction(int(counts[0]), n_out**w))
    return probs


@dataclass(frozen=True)
class CollisionEstimate:
    value: float
    provenance: str
    half_width: float = 0.0


def collision_prob(spec: EnsembleSpec, u, u2, mode: str = "exact",
                   trials: int = 10000, rng: np.random.Generator | None = None
                   ) -> CollisionEstimate:
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
    if mode == "exact":
        return CollisionEstimate(float(collision_by_weight(spec)[w]), "exact")
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        raise ValueError("mc mode needs an rng")
    hits = 0
    for _ in range(trials):
        label = sample(spec, rng)
        out = label_outputs(label, np.stack([u, u2]))
        hits += int((out[0] == out[1]).all())
    p = hits / trials
    hw = 1.96 * math.sqrt(max(p * (1 - p), 0.0) / trials)
    return CollisionEstimate(p, "estimated", hw)


def _alpha_sweep(spec: EnsembleSpec, probs, widths, exact: bool):
    """(alpha, beta, half-width) minimizing alpha + beta over ALPHA_GRID.

    probs and widths run over the weights 1..n; exact mode passes Fractions.
    """
    q, n = spec.field.q, spec.cols
    counts = [math.comb(n, w) * (q - 1) ** w for w in range(1, n + 1)]
    best = None
    for alpha in map(float, ALPHA_GRID):
        thr = (Fraction(alpha).limit_denominator(10**9) if exact else alpha) / spec.im_size
        over = [w for w, p in enumerate(probs) if p > thr]
        beta = float(sum(counts[w] * probs[w] for w in over))
        if best is None or alpha + beta < best[0] - 1e-15:
            best = (alpha + beta, alpha, beta, float(sum(counts[w] * widths[w] for w in over)))
    return best[1:]


@functools.lru_cache(maxsize=256)
def _exact_hash_params(spec: EnsembleSpec) -> HashParams:
    """Exact-mode estimate_hash_params; memoized, as the spec is frozen."""
    q, n = spec.field.q, spec.cols
    if spec.kind == SPARSE and q**n > BINNING_TABLE_BUDGET:
        raise SupportBudgetError(f"exact sweep needs {q}^{n} <= {BINNING_TABLE_BUDGET}")
    alpha, beta, _ = _alpha_sweep(spec, collision_by_weight(spec)[1:], [0] * n, True)
    return HashParams(alpha, beta, "exact")


def estimate_hash_params(spec: EnsembleSpec, mode: str = "exact",
                         trials: int = 2000, rng: np.random.Generator | None = None
                         ) -> HashParams:
    """Smallest-footprint (alpha, beta) pair for the family.

    For each alpha on a fixed grid, beta is the total collision mass of the
    differences whose collision probability exceeds alpha/|range|; the pair
    minimizing alpha+beta is reported (ties keep the smaller alpha).
    """
    if mode == "exact":
        return _exact_hash_params(spec)
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        raise ValueError("mc mode needs an rng")
    n = spec.cols
    # One representative difference per weight: collision probability is a
    # function of the weight alone for every family here.
    reps = np.zeros((n, n), dtype=np.int64)
    for w in range(1, n + 1):
        reps[w - 1, :w] = 1
    zero = np.zeros(n, dtype=np.int64)
    hits = np.zeros(n, dtype=np.int64)
    for _ in range(trials):
        label = sample(spec, rng)
        out = label_outputs(label, np.vstack([reps, zero[None, :]]))
        hits += (out[:-1] == out[-1]).all(axis=1)
    phat = hits / trials
    hw = 1.96 * np.sqrt(np.maximum(phat * (1 - phat), 0.0) / trials)
    alpha, beta, half_width = _alpha_sweep(spec, phat, hw, False)
    return HashParams(alpha, beta, "estimated", half_width)


def product_params(p1: HashParams, p2: HashParams) -> HashParams:
    """Parameters of the stacked family (outputs concatenated)."""
    prov = "exact" if p1.provenance == p2.provenance == "exact" else "estimated"
    return HashParams(p1.alpha * p2.alpha, p1.beta + p2.beta, prov,
                      p1.half_width + p2.half_width)


def multi_params(params, indices) -> HashParams:
    """Parameters governing a joint collision event across several senders."""
    indices = list(indices)
    if not indices:
        raise ValueError("empty index set")
    if len(indices) == 1:
        return params[indices[0]]
    alpha = 1.0
    one_plus_beta = 1.0
    prov = "exact"
    hw = 0.0
    for i in indices:
        p = params[i]
        alpha *= p.alpha
        one_plus_beta *= 1.0 + p.beta
        hw += p.half_width
        if p.provenance != "exact":
            prov = "estimated"
    return HashParams(alpha, one_plus_beta - 1.0, prov, hw)


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


def _checked_support_size(spec: EnsembleSpec, budget: int) -> int:
    """support_size, or SupportBudgetError when it exceeds the budget."""
    size = support_size(spec)
    if size > budget:
        q = spec.field.q
        if spec.kind == UNIFORM:
            what = f"{q}^{spec.rows * spec.cols} matrices"
        elif spec.kind == SPARSE:
            outcomes = len(_sparse_column_outcomes(spec.rows, spec.degree(), q))
            what = f"{outcomes}^{spec.cols} sparse matrices"
        else:
            what = f"{size} binning tables"
        raise SupportBudgetError(f"{what} exceed the budget of {budget}")
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


def _member_chunks(spec: EnsembleSpec, size: int, cells_per_label: int):
    """_members over the whole support, about codec.SCAN_CHUNK_CELLS cells at a time."""
    step = max(1, codec.SCAN_CHUNK_CELLS // max(cells_per_label, 1))
    for start in range(0, size, step):
        yield _members(spec, np.arange(start, min(start + step, size), dtype=np.int64))


def _member_cells(spec: EnsembleSpec) -> int:
    width = spec.field.q**spec.cols if spec.kind == BINNING else spec.cols
    return spec.rows * width


def _label(spec: EnsembleSpec, member: np.ndarray):
    if spec.kind == BINNING:
        return BinLabel(spec.field, spec.cols, member)
    return LinearLabel(spec.field, member)


def enumerate_support(spec: EnsembleSpec, budget: int = SUPPORT_BUDGET):
    """Yield every label of an enumerable family (all equally likely)."""
    size = _checked_support_size(spec, budget)
    for members in _member_chunks(spec, size, _member_cells(spec)):
        for member in members:
            yield _label(spec, member)


def support_label(spec: EnsembleSpec, index: int, budget: int = SUPPORT_BUDGET):
    """The label at position index of enumerate_support, built on its own."""
    size = _checked_support_size(spec, budget)
    if not 0 <= index < size:
        raise IndexError(f"support position {index} outside [0, {size})")
    return _label(spec, _members(spec, np.array([index], dtype=np.int64))[0])


def _output_chunks(spec: EnsembleSpec, vecs, budget: int):
    """support_outputs, one chunk of labels at a time."""
    vecs = np.asarray(vecs, dtype=np.int64)
    if vecs.ndim != 2 or vecs.shape[1] != spec.cols:
        raise ValueError(f"expected an (m, {spec.cols}) array of vectors")
    size = _checked_support_size(spec, budget)
    q = spec.field.q
    inputs = _base_q(vecs, q) if spec.kind == BINNING else None
    cells = _member_cells(spec) + vecs.shape[0] * spec.rows
    for members in _member_chunks(spec, size, cells):
        if inputs is not None:
            yield members[:, inputs]
        else:
            yield (vecs @ members.transpose(0, 2, 1)) % q


def support_outputs(spec: EnsembleSpec, vecs, budget: int = SUPPORT_BUDGET) -> np.ndarray:
    """Outputs of every support label on every row of vecs, as (M, m, rows).

    Entry i is label_outputs of the i-th label of enumerate_support.  The
    labels are built in chunks of about codec.SCAN_CHUNK_CELLS cells and
    never all at once; SupportBudgetError comes before any allocation.
    """
    return np.concatenate(list(_output_chunks(spec, vecs, budget)))


def saturation_rate_exact(spec: EnsembleSpec, T, budget: int = SUPPORT_BUDGET) -> float:
    """Exact P over (A, a uniform) that T meets no element of a's bin."""
    T = np.asarray(T, dtype=np.int64)
    if T.shape[0] < 1:
        raise ValueError("T must be nonempty")
    im = spec.im_size
    hit = labels = 0
    for outs in _output_chunks(spec, T, budget):
        # Bins hit per label: sorted codes change once per further bin.
        codes = np.sort(_base_q(outs, spec.field.q), axis=1)
        hit += codes.shape[0] + int((codes[:, 1:] != codes[:, :-1]).sum())
        labels += codes.shape[0]
    return float(Fraction(labels * im - hit, im * labels))


def _bin_matches(outs: np.ndarray) -> np.ndarray:
    """(labels, m - 1): which of rows 1.. share row 0's output, per label."""
    return (outs[:, 1:] == outs[:, :1]).all(axis=2)


def crp_rate_exact(spec: EnsembleSpec, G, u, budget: int = SUPPORT_BUDGET) -> float:
    """Exact P over A that some other member of G shares u's bin."""
    G = np.asarray(G, dtype=np.int64)
    u = np.asarray(u, dtype=np.int64)
    others = G[~(G == u).all(axis=1)]
    if others.shape[0] == 0:
        return 0.0
    hits = labels = 0
    for outs in _output_chunks(spec, np.vstack([u[None, :], others]), budget):
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


def multi_crp_rate_exact(specs, tuples, u_parts, budget: int = SUPPORT_BUDGET) -> float:
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
    count = math.prod(_checked_support_size(s, budget) for s in specs)
    if count > budget:
        raise SupportBudgetError(f"product support {count} exceeds the budget of {budget}")
    matches = [_bin_matches(support_outputs(
                   spec, np.stack([u_parts[i]] + [parts[i] for parts in others]), budget))
               for i, spec in enumerate(specs)]
    return _joint_hits(matches) / count


def uniform_syndrome_hit_rate(label, u) -> float:
    """Mean over uniform syndromes a of the indicator that u's label equals a."""
    q = label.field.q
    au = label_outputs(label, np.asarray(u, dtype=np.int64)[None, :])[0]
    syndromes = all_vectors(q, label.rows)
    return float((syndromes == au).all(axis=1).mean())


def _syndrome_hits(spec: EnsembleSpec, vecs, budget: int):
    """Per chunk of labels, how many uniform syndromes equal each output."""
    _checked_support_size(spec, budget)  # before the syndrome grid is built
    q = spec.field.q
    per_code = np.bincount(_base_q(all_vectors(q, spec.rows), q), minlength=spec.im_size)
    for outs in _output_chunks(spec, vecs, budget):
        yield per_code[_base_q(outs, q)]


def syndrome_hit_rates(spec: EnsembleSpec, vecs, budget: int = SUPPORT_BUDGET) -> np.ndarray:
    """uniform_syndrome_hit_rate of each support label (axis 0) on each row of vecs."""
    return np.concatenate(list(_syndrome_hits(spec, vecs, budget))) / spec.im_size


def ensemble_syndrome_hit_rate(spec: EnsembleSpec, u, budget: int = SUPPORT_BUDGET) -> float:
    """Joint mean over (label, uniform syndrome) of the same indicator."""
    hits = labels = 0
    for chunk in _syndrome_hits(spec, np.asarray(u, dtype=np.int64)[None, :], budget):
        hits += int(chunk.sum())
        labels += chunk.shape[0]
    return float(Fraction(hits, spec.im_size * labels))
