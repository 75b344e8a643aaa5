"""Joint-law builders and achievable-region membership tests.

Regions are tested pointwise with strict inequalities; boundary points are
outside.  Mutual informations come from exact joint tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import Dmc
from .prob import Pmf, SUM_TOL, entropy
from .slack import feasibility_slack

TABLE_CELL_BUDGET = 1 << 16


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
        if t.min() < 0 or abs(t.sum() - 1.0) > 1e-9:
            raise ValueError("table must be a distribution")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "names", tuple(self.names))
        # Entropies and region bounds, filled on first use.  Not a field,
        # so eq and repr are unchanged; the table is read-only, so nothing
        # stored here can go stale.
        object.__setattr__(self, "_memo", {})

    def axis(self, name: str) -> int:
        return self.names.index(name)

    def size(self, name: str) -> int:
        return self.table.shape[self.axis(name)]

    def marginal(self, names) -> np.ndarray:
        keep = [self.axis(n) for n in names]
        drop = tuple(i for i in range(len(self.names)) if i not in keep)
        t = self.table.sum(axis=drop) if drop else self.table
        return np.moveaxis(t, np.argsort(keep), range(len(keep)))

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


def _as_pmf_array(p, size: int) -> np.ndarray:
    arr = p.probs if isinstance(p, Pmf) else np.asarray(p, dtype=float)
    if arr.shape != (size,):
        raise ValueError(f"distribution shape {arr.shape} != ({size},)")
    if arr.min() < 0 or abs(arr.sum() - 1.0) > SUM_TOL:
        raise ValueError("not a distribution")
    return arr


def sender_names(k: int) -> list[str]:
    return [f"x{j + 1}" for j in range(k)]


def joint_private(input_dists, dmc: Dmc) -> JointLaw:
    """Independent per-sender inputs through the channel."""
    k = dmc.n_senders
    dists = [_as_pmf_array(p, s) for p, s in zip(input_dists, dmc.input_sizes)]
    if len(dists) != k:
        raise ValueError("one input distribution per sender required")
    t = dmc.table.copy()
    for j, d in enumerate(dists):
        shape = [1] * (k + 1)
        shape[j] = -1
        t = t * d.reshape(shape)
    return JointLaw(tuple(sender_names(k)) + ("y",), t)


def joint_ts(mu_u, input_conds, dmc: Dmc) -> JointLaw:
    """Time-shared inputs: senders independent given the shared u."""
    k = dmc.n_senders
    mu_u = np.asarray(mu_u.probs if isinstance(mu_u, Pmf) else mu_u, dtype=float)
    mu = mu_u.size
    conds = []
    for j, c in enumerate(input_conds):
        c = np.asarray(c, dtype=float)
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
    mu0 = np.asarray(mu0.probs if isinstance(mu0, Pmf) else mu0, dtype=float)
    m0 = mu0.size
    c1 = np.asarray(cond1, dtype=float)
    c2 = np.asarray(cond2, dtype=float)
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
    mi = lambda a, b, c=(): mutual_information(law, a, b, c)
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


def eps_feasible(rates, law: JointLaw, eps, n: int) -> bool:
    """Region test with per-component margins and the block-length-n slack.

    Every row of the law's table, aux rows included, must hold with the
    margins added to the rates and the slack taken off the bound.
    """
    eps = [float(e) for e in eps]
    if any(e <= 0 for e in eps):
        raise ValueError("margins must be positive")
    base, aux = _constraints(law)
    k = len(base[0][1])
    if len(rates) != k or len(eps) != k:
        raise ValueError(f"expected {k} rates and {k} margins")
    # Input symbols span the x axes (a cloud included); y and u condition.
    m_inputs = math.prod(law.size(nm) for nm in law.names if nm.startswith("x"))
    m_cond = math.prod(law.size(nm) for nm in law.names if not nm.startswith("x"))
    slack = feasibility_slack(eps, n, m_inputs, m_cond)
    if any(r < 0 for r in rates):
        return False
    return all(sum(c * (r + e) for c, r, e in zip(coef, rates, eps)) < bound - slack
               for _, coef, bound in base + aux)


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


def rate_split(target, law: JointLaw, step: float = GRID_STEP) -> RateSplit:
    """Find a reallocation of the private rates satisfying every constraint.

    Searches moved amounts on a dyadic grid (coarse pass plus a refinement
    around near misses), preferring the smallest total moved mass.
    """
    r0, r1, r2 = (float(t) for t in target)
    if not in_region_sw((r0, r1, r2), law):
        raise RateSplitInfeasible("target triple is outside the base region")
    base, aux = _constraints(law)
    rows = base + aux

    def scan(m1_grid, m2_grid):
        m1g, m2g = np.meshgrid(m1_grid, m2_grid, indexing="ij")
        nr0 = r0 - m1g - m2g
        nr1 = r1 + m1g
        nr2 = r2 + m2g
        ok = nr0 >= 0
        worst = np.where(ok, 0.0, np.inf)
        for _, coef, bound in rows:
            total = coef[0] * nr0 + coef[1] * nr1 + coef[2] * nr2
            ok &= total < bound
            worst = np.maximum(worst, total - bound)
        if not ok.any():
            return None, worst
        # argmin takes the first flat index on ties: smallest total moved
        # mass, then smallest first component (grids are ascending).
        score = np.where(ok, m1g + m2g, np.inf)
        flat = int(np.argmin(score))
        return (float(m1g.ravel()[flat]), float(m2g.ravel()[flat])), worst

    lim1 = max(0.0, min(r0, base[0][2] - r1)) + step
    lim2 = max(0.0, min(r0, base[1][2] - r2)) + step
    g1 = np.arange(0.0, lim1 + step, step)
    g2 = np.arange(0.0, lim2 + step, step)
    found, worst = scan(g1, g2)
    if found is None:
        # Refine around the least-violating coarse point.
        flat = int(np.argmin(worst))
        c1 = g1[flat // len(g2)]
        c2 = g2[flat % len(g2)]
        fine = step / 64.0
        f1 = np.arange(max(0.0, c1 - step), c1 + step + fine, fine)
        f2 = np.arange(max(0.0, c2 - step), c2 + step + fine, fine)
        found, _ = scan(f1, f2)
    if found is None:
        raise RateSplitInfeasible("no feasible reallocation found")
    m1, m2 = found
    # Exact dyadic arithmetic keeps the inverse map exact in floats.
    built = (float(Fraction(r0) - Fraction(m1) - Fraction(m2)),
             float(Fraction(r1) + Fraction(m1)),
             float(Fraction(r2) + Fraction(m2)))
    return RateSplit(built, (m1, m2))
