"""Joint-law builders and achievable-region membership tests.

Regions are tested pointwise with strict inequalities; boundary points are
outside.  Mutual informations come from exact joint tables.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import Dmc
from .prob import Pmf, as_distribution, entropy

TABLE_CELL_BUDGET = 1 << 16
# A joint table's total is checked more loosely than an input law's rows: it
# is a product of the channel and every input law, each off by up to prob's
# row tolerance, rounded in as many as TABLE_CELL_BUDGET cells.
JOINT_TOTAL_TOL = 1e-9


@dataclass(frozen=True)
class JointLaw:
    """Full joint table with named axes."""

    names: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != len(self.names):
            raise ValueError("one name per axis required")
        if t.size > TABLE_CELL_BUDGET:
            raise ValueError(f"joint table with {t.size} cells exceeds {TABLE_CELL_BUDGET}")
        object.__setattr__(self, "table",
                           as_distribution(t.ravel(), JOINT_TOTAL_TOL).reshape(t.shape))
        object.__setattr__(self, "names", tuple(self.names))
        # Marginals, entropies and region bounds, filled on first use.  Not
        # a field, so eq and repr are unchanged; the table is read-only, so
        # nothing stored here can go stale.
        object.__setattr__(self, "_memo", {})

    def axis(self, name: str) -> int:
        return self.names.index(name)

    def size(self, name: str) -> int:
        return self.table.shape[self.axis(name)]

    def marginal(self, names) -> np.ndarray:
        """The sum of the table over the axes not named, as a read-only view.

        The sum is made once per set of kept axes, then transposed so its
        axes come in the order named.  entropy reads it through a ravel, so
        that order fixes the float order of its sums.
        """
        keep = [self.axis(n) for n in names]
        kept = ("marginal", frozenset(keep))
        t = self._memo.get(kept)
        if t is None:
            drop = tuple(i for i in range(len(self.names)) if i not in keep)
            t = np.asarray(self.table.sum(axis=drop)) if drop else self.table
            t.flags.writeable = False
            self._memo[kept] = t
        return t.transpose(np.argsort(np.argsort(keep)))

    def entropy(self, names) -> float:
        # Keyed by the ordered names: the float sum depends on axis order.
        key = ("entropy", tuple(names))
        h = self._memo.get(key)
        if h is None:
            h = self._memo[key] = entropy(self.marginal(names).ravel())
        return h


def mutual_information(law: JointLaw, a_names, b_names, c_names=()) -> float:
    """I(A;B|C) in bits, from exact marginals."""
    a, b, c = list(a_names), list(b_names), list(c_names)
    h_ac = law.entropy(a + c)
    h_bc = law.entropy(b + c)
    h_abc = law.entropy(a + b + c)
    h_c = law.entropy(c) if c else 0.0
    return h_ac + h_bc - h_abc - h_c


def sender_names(k: int) -> list[str]:
    return [f"x{j + 1}" for j in range(k)]


def joint_ts(mu_u, input_conds, dmc: Dmc) -> JointLaw:
    """Time-shared inputs: senders independent given the shared u.

    A one-point mu_u ([1.0], one row per conditional) is the law of plain
    private inputs.
    """
    k = dmc.n_senders
    mu_u = as_distribution(mu_u.probs if isinstance(mu_u, Pmf) else mu_u)
    mu = mu_u.size
    conds = []
    for j, c in enumerate(input_conds):
        c = as_distribution(c)
        if c.shape != (mu, dmc.input_sizes[j]):
            raise ValueError(f"conditional {j} shape {c.shape} != ({mu}, {dmc.input_sizes[j]})")
        conds.append(c)
    if len(conds) != k:
        raise ValueError("one conditional per sender required")
    t = np.zeros((mu,) + tuple(dmc.input_sizes) + (dmc.output_size,))
    for ui in range(mu):
        cell = dmc.table.copy()
        for j, c in enumerate(conds):
            shape = [1] * (k + 1)
            shape[j] = -1
            cell = cell * c[ui].reshape(shape)
        t[ui] = cell * mu_u[ui]
    return JointLaw(("u",) + tuple(sender_names(k)) + ("y",), t)


def joint_sw(mu0, cond1, cond2, dmc: Dmc) -> JointLaw:
    """Cloud-center law: satellites independent given x0, channel sees (x1, x2)."""
    if dmc.n_senders != 2:
        raise ValueError("this construction needs a two-sender channel")
    mu0 = as_distribution(mu0.probs if isinstance(mu0, Pmf) else mu0)
    m0 = mu0.size
    c1 = as_distribution(cond1)
    c2 = as_distribution(cond2)
    if c1.shape != (m0, dmc.input_sizes[0]) or c2.shape != (m0, dmc.input_sizes[1]):
        raise ValueError("conditional shapes do not match the alphabets")
    t = (mu0[:, None, None, None]
         * c1[:, :, None, None]
         * c2[:, None, :, None]
         * dmc.table[None, :, :, :])
    return JointLaw(("x0", "x1", "x2", "y"), t)


@dataclass(frozen=True)
class RegionVerdict:
    inside: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.inside


def _constraints(law: JointLaw):
    """The law's region as (witness label, coefficients, bound) rows, once per law.

    Returns (base, aux).  A law with a cloud axis x0 gives the superposition
    rows, with the cloud-decodability rows in aux; any other law gives
    R_J < I(X_J;Y|u,X_J^c) for every nonempty subset J of its senders,
    largest first so a sum-rate violation is the reported witness, and no
    aux rows.
    """
    cached = law._memo.get("constraints")
    if cached is not None:
        return cached
    mi = functools.partial(mutual_information, law)
    if "x0" in law.names:
        base = (
            ("R1 < I(X1;Y|X0,X2)", (0, 1, 0), mi(["x1"], ["y"], ["x0", "x2"])),
            ("R2 < I(X2;Y|X0,X1)", (0, 0, 1), mi(["x2"], ["y"], ["x0", "x1"])),
            ("R1+R2 < I(X1,X2;Y|X0)", (0, 1, 1), mi(["x1", "x2"], ["y"], ["x0"])),
            ("R0+R1+R2 < I(X1,X2;Y)", (1, 1, 1), mi(["x1", "x2"], ["y"])),
        )
        aux = (
            ("R0 < I(X0;X1,X2,Y)", (1, 0, 0), mi(["x0"], ["x1", "x2", "y"])),
            ("R0+R1 < I(X0,X1;X2,Y)", (1, 1, 0), mi(["x0", "x1"], ["x2", "y"])),
            ("R0+R2 < I(X0,X2;X1,Y)", (1, 0, 1), mi(["x0", "x2"], ["x1", "y"])),
        )
    else:
        names = [nm for nm in law.names if nm.startswith("x")]
        cond = ["u"] if "u" in law.names else []
        k = len(names)
        rows = []
        for r in range(k, 0, -1):
            for J in itertools.combinations(range(k), r):
                rest = [names[j] for j in range(k) if j not in J]
                rows.append(("J={" + ",".join(str(j + 1) for j in J) + "}",
                             tuple(int(j in J) for j in range(k)),
                             mi([names[j] for j in J], ["y"], cond + rest)))
        base, aux = tuple(rows), ()
    cached = law._memo["constraints"] = (base, aux)
    return cached


def _row_margins(cols, rows):
    """The row loop over arrays: (every total < bound, max of total - bound).

    cols holds one float64 array per rate component, all of one shape.  Each
    row's total is coef . rate summed left to right, as `_verdict` sums it, so
    the two agree bit for bit (up to the sign of a zero total).  A NaN rate
    makes every total NaN, since 0 * NaN is NaN, so its point fails each row.
    """
    ok = True
    worst = -np.inf
    for _, coef, bound in rows:
        total = coef[0] * cols[0]
        for c, col in zip(coef[1:], cols[1:]):
            total = total + c * col
        ok = ok & (total < bound)
        worst = np.maximum(worst, total - bound)
    return ok, worst


def inside(rates, law: JointLaw) -> np.ndarray:
    """Array region verdict: one bool per row of an (m, k) rate array.

    Row i is True exactly when in_region_private(rates[i], law), or
    in_region_sw(rates[i], law) for a cloud law, is inside: no component
    is negative and every base row of the law's table holds.
    """
    base, _ = _constraints(law)
    rates = np.asarray(rates, dtype=float)
    k = len(base[0][1])
    if rates.ndim != 2 or rates.shape[1] != k:
        raise ValueError(f"expected an (m, {k}) rate array, got shape {rates.shape}")
    ok, _ = _row_margins(rates.T, base)
    return ok & ~(rates < 0).any(axis=1)


def _verdict(rates, rows) -> RegionVerdict:
    for label, coef, bound in rows:
        total = sum(c * r for c, r in zip(coef, rates))
        if not total < bound:
            return RegionVerdict(False, f"{label}: sum {total:.6g} >= bound {bound:.6g}")
    return RegionVerdict(True)


def in_region_private(rates, law: JointLaw) -> RegionVerdict:
    """Private-message region; time-shared when the law has a u axis."""
    base, _ = _constraints(law)
    k = len(base[0][1])
    if len(rates) != k:
        raise ValueError(f"expected {k} rates")
    bad = [i for i, r in enumerate(rates) if r < 0]
    if bad:
        return RegionVerdict(False, f"R_{bad[0] + 1} < 0")
    return _verdict(rates, base)


in_region_ts = in_region_private


def in_region_sw(rates, law: JointLaw, include_aux: bool = False) -> RegionVerdict:
    if len(rates) != 3:
        raise ValueError("expected (R0, R1, R2)")
    if rates[0] < 0:
        return RegionVerdict(False, "R0 < 0")
    if rates[1] < 0 or rates[2] < 0:
        return RegionVerdict(False, "private rates must be nonnegative")
    base, aux = _constraints(law)
    return _verdict(rates, base + aux if include_aux else base)


class RateSplitInfeasible(RuntimeError):
    pass


@dataclass(frozen=True)
class RateSplit:
    """Common/private reallocation moving a target triple into the buildable set.

    The built code's private rates each carry `moved[i]` bits/symbol of the
    target's common message; recombine() recovers the target triple.
    """

    built: tuple[float, float, float]       # triple handed to the construction
    moved: tuple[float, float]              # common-message share on each private code

    def recombine(self) -> tuple[float, float, float]:
        r0, r1, r2 = self.built
        m1, m2 = self.moved
        return (r0 + m1 + m2, r1 - m1, r2 - m2)


GRID_STEP = 2.0**-10  # dyadic, so split bookkeeping is exact in floats


def rate_split(target, law: JointLaw) -> RateSplit:
    """Find a reallocation of the private rates satisfying every constraint.

    Searches moved amounts on a dyadic grid of GRID_STEP (coarse pass plus
    a refinement around near misses), preferring the smallest total moved
    mass.
    """
    r0, r1, r2 = (float(t) for t in target)
    if not in_region_sw((r0, r1, r2), law):
        raise RateSplitInfeasible("target triple is outside the base region")
    base, aux = _constraints(law)
    rows = base + aux

    def scan(m1_grid, m2_grid):
        m1g, m2g = np.meshgrid(m1_grid, m2_grid, indexing="ij")
        nr0 = r0 - m1g - m2g
        nonneg = nr0 >= 0
        ok, worst = _row_margins((nr0, r1 + m1g, r2 + m2g), rows)
        ok &= nonneg
        worst = np.maximum(worst, np.where(nonneg, 0.0, np.inf))
        if not ok.any():
            return None, worst
        # argmin takes the first flat index on ties: smallest total moved
        # mass, then smallest first component (grids are ascending).
        score = np.where(ok, m1g + m2g, np.inf)
        flat = int(np.argmin(score))
        return (float(m1g.ravel()[flat]), float(m2g.ravel()[flat])), worst

    lim1 = max(0.0, min(r0, base[0][2] - r1)) + GRID_STEP
    lim2 = max(0.0, min(r0, base[1][2] - r2)) + GRID_STEP
    g1 = np.arange(0.0, lim1 + GRID_STEP, GRID_STEP)
    g2 = np.arange(0.0, lim2 + GRID_STEP, GRID_STEP)
    found, worst = scan(g1, g2)
    if found is None:
        # Refine around the least-violating coarse point.
        flat = int(np.argmin(worst))
        c1 = g1[flat // len(g2)]
        c2 = g2[flat % len(g2)]
        fine = GRID_STEP / 64.0
        f1 = np.arange(max(0.0, c1 - GRID_STEP), c1 + GRID_STEP + fine, fine)
        f2 = np.arange(max(0.0, c2 - GRID_STEP), c2 + GRID_STEP + fine, fine)
        found, _ = scan(f1, f2)
    if found is None:
        raise RateSplitInfeasible("no feasible reallocation found")
    m1, m2 = found
    # Exact dyadic arithmetic keeps the inverse map exact in floats.
    built = (float(Fraction(r0) - Fraction(m1) - Fraction(m2)),
             float(Fraction(r1) + Fraction(m1)),
             float(Fraction(r2) + Fraction(m2)))
    return RateSplit(built, (m1, m2))
