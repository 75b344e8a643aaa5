"""End-to-end code constructions: build, encode, transmit, decode, diagnose.

Every code here is a context plus coded components.  Each component's
codeword is the minimum-divergence member of its coset, against a target
law conditioned on the context sequence.  The context is either shared or
coded:

- shared: u is drawn from its law when the code is built, and every
  component is a sender (private messages with time sharing; a one-point
  law gives the plain private-message code);
- coded: component 0 is a cloud center carrying a common message.  It is
  coded against the context law itself, and its codeword is the context of
  the two senders' satellites.  A one-point cloud has no rows and its
  codeword is all zeros, fixed at build time like a shared u.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng as rng_mod
from .channel import Dmc, sample_channel
# min_div_decode is not called here; it stays importable from this module
# because perfbench/spans.py traces it at this import site.
from .codec import (CosetSpec, EmptyCosetError, EncodeTarget, MinDivDecoder,  # noqa: F401
                    min_div_decode, min_div_encode)
from .empirical import divergence_to, is_cond_typical, marginal_divergences, seq_mutual_multi
from .ensembles import (EnsembleSpec, SupportBudgetError, UNIFORM, estimate_hash_params,
                        multi_params, occupancy_factor, product_params, sample)
from .gf import FieldSpec, LinearLabel, all_vectors, apply_label
from .prob import CondPmf, Pmf
from .regions import JointLaw, in_region_sw, in_region_ts, joint_sw, joint_ts
from .slack import (MAX_RADIUS, cond_entropy_slack, cond_typical_size_slack,
                    entropy_slack, typical_size_slack)

STAGE_ENCODER = "encoder-atypical"
STAGE_MI = "empirical-mi"
STAGE_CHANNEL = "channel-atypical"
STAGE_DECODER = "decoder-collision"
STAGE_EMPTY = "empty-coset"
STAGES = (STAGE_ENCODER, STAGE_MI, STAGE_CHANNEL, STAGE_DECODER, STAGE_EMPTY)

GAMMA_GRID = tuple(0.005 * 2**i for i in range(5) if 0.005 * 2**i <= MAX_RADIUS)


class InfeasibleRateError(RuntimeError):
    """Requested rates cannot be realized; carries the violated constraint."""


def uniform_ensemble_factory(rows: int, cols: int, field: FieldSpec) -> EnsembleSpec:
    return EnsembleSpec(UNIFORM, rows, cols, field)


@dataclass(frozen=True)
class TrialResult:
    success: bool
    stage: str | None = None

    def __post_init__(self):
        if self.success != (self.stage is None):
            raise ValueError("failed trials carry exactly one stage")
        if self.stage is not None and self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")


@dataclass(frozen=True)
class CodeInstance:
    scenario: str                      # 'private' | 'superposition'
    n: int
    dmc: Dmc
    law: JointLaw                      # model law used by the decoder
    checks: tuple                      # syndrome maps A_j, one per component
    message_maps: tuple                # message maps A'_j
    syndromes: tuple
    check_specs: tuple                 # None for a one-point cloud
    message_specs: tuple
    rates: tuple                       # realized message rates
    srates: tuple                      # realized syndrome rates
    eps: tuple
    requested_rates: tuple
    gamma: float
    gamma_ok: bool
    kappa: float                       # bin-occupancy factor of the coded components
    ctx_law: Pmf                       # law of the context symbol (u or the cloud x0)
    u: np.ndarray | None               # context fixed at build time; None if a cloud codes it
    cond_inputs: tuple                 # per component: law given the context; None: a cloud
    channel_cond: CondPmf              # y given the full input context

    @property
    def k_messages(self) -> int:
        return len(self.message_maps)

    @cached_property
    def n_cloud(self) -> int:
        """Components before the senders: 1 with a cloud center, else 0."""
        return self.k_messages - self.dmc.n_senders

    @cached_property
    def fixed(self) -> int:
        """Leading components fixed at build time: a one-point cloud, whose codeword is u."""
        return self.check_specs.count(None)

    # A code's encoder and decoder are fixed functions of the message and of
    # y, so both are compiled on the first trial and kept with the code.

    @cached_property
    def codebooks(self) -> tuple[dict, ...]:
        """Per-component message -> codeword tables, filled on first use.

        A satellite of a cloud is keyed by the cloud message's bytes
        followed by its own, since its target is conditioned on the cloud
        codeword.  An empty coset is
        stored as its error text, never as the raised exception, whose
        traceback would keep every failing trial's frames alive.
        """
        return tuple({} for _ in self.message_maps)

    @cached_property
    def decoder(self) -> MinDivDecoder:
        """Joint decoder over the cosets of the components not fixed by u."""
        f = self.fixed
        return MinDivDecoder(self.checks[f:], self.syndromes[f:], self.law.table, u=self.u)


def _round_rows(n: int, rate: float, q: int) -> int:
    return max(0, round(n * rate / math.log2(q)))


def _rows_rate(rows: int, n: int, q: int) -> float:
    return rows * math.log2(q) / n


def _select_gamma(per_sender, sum_terms, eps, n, kappa):
    """Largest grid radius meeting the margin constraints, if any.

    per_sender[j](gamma) is the per-sender slack that must fit under eps_j
    together with log2(kappa)/n; sum_terms(gamma) must fit under sum(eps).
    """
    log_kappa = math.log2(kappa) / n if kappa > 1 else 0.0
    chosen = None
    for g in GAMMA_GRID:
        ok = all(f(g) + log_kappa <= e for f, e in zip(per_sender, eps))
        ok = ok and sum_terms(g) <= sum(eps)
        if ok:
            chosen = g
    if chosen is not None:
        return chosen, True
    return GAMMA_GRID[0], False


def _channel_cond(dmc: Dmc, ctx_sizes: tuple[int, ...]) -> CondPmf:
    """Output law conditioned on the composite (context, senders) symbol."""
    k = dmc.n_senders
    extra = len(ctx_sizes) - k
    rows = np.broadcast_to(dmc.table, tuple(ctx_sizes[:extra]) + dmc.table.shape)
    rows = rows.reshape(-1, dmc.output_size)
    return CondPmf(tuple(range(rows.shape[0])), tuple(range(dmc.output_size)), rows)


def _ctx_seq(seqs, sizes) -> np.ndarray:
    return np.ravel_multi_index(tuple(np.asarray(s, dtype=np.int64) for s in seqs),
                                tuple(sizes))


def _as_cond(rows, given_size: int, out_size: int) -> CondPmf:
    if isinstance(rows, CondPmf):
        return rows
    rows = np.asarray(rows, dtype=float)
    if rows.shape != (given_size, out_size):
        raise ValueError(f"conditional shape {rows.shape} != ({given_size}, {out_size})")
    return CondPmf(tuple(range(given_size)), tuple(range(out_size)), rows)


def _as_pmf(p) -> Pmf:
    return p if isinstance(p, Pmf) else Pmf(tuple(range(len(p))), p)


def _stacked_beta(check_specs, message_specs) -> float:
    params = []
    for cs, ms in zip(check_specs, message_specs):
        try:
            pc = estimate_hash_params(cs)
            pm = estimate_hash_params(ms)
        except SupportBudgetError:
            return 0.0  # beyond the exact sweep: fall back to the limit value
        params.append(product_params(pc, pm))
    return multi_params(params, range(len(params))).beta


def _build(scenario, law: JointLaw, ctx_law: Pmf, conds, in_region, dmc: Dmc,
           rates, eps, n: int, rng, ensemble_factory, check_region) -> CodeInstance:
    """Sample one code: coded components conditioned on a context.

    conds[j] is component j's input law given the context symbol, or None
    for a cloud center (component 0), whose target is ctx_law itself.  The
    components are named by the law's axes before y; the context is its
    first axis.  in_region(rates, law) is the region verdict.
    """
    k = len(conds)
    rates = tuple(float(r) for r in rates)
    eps = tuple(float(e) for e in eps)
    if len(rates) != k or len(eps) != k:
        raise ValueError(f"expected one rate and one margin per component ({k})")
    if any(e <= 0 for e in eps):
        raise ValueError("margins must be positive")
    c = k - dmc.n_senders
    m = ctx_law.size
    ctx, names = law.names[0], law.names[-1 - k:-1]
    qs = [m if x is None else x.size for x in conds]
    live = [j for j in range(k) if qs[j] > 1]  # a one-point cloud carries nothing
    if any(rates[j] != 0 for j in range(k) if j not in live):
        raise InfeasibleRateError("a one-point cloud alphabet forces R0 = 0")
    h_ctx = law.entropy([ctx])
    h = [h_ctx if x is None else law.entropy([name, ctx]) - h_ctx
         for x, name in zip(conds, names)]

    msg_rows = [_round_rows(n, rates[j], qs[j]) if j in live else 0 for j in range(k)]
    act_rates = tuple(_rows_rate(r, n, q) for r, q in zip(msg_rows, qs))
    if check_region:
        verdict = in_region(act_rates, law)
        if not verdict:
            raise InfeasibleRateError(f"rates outside the region: {verdict.witness}")
    chk_rows = [0] * k
    for j in live:
        r_j = h[j] - act_rates[j] - eps[j]
        chk_rows[j] = _round_rows(n, r_j, qs[j])
        if check_region and (chk_rows[j] < 1 or r_j <= 0):
            # Forced control runs may proceed with empty syndrome maps.
            raise InfeasibleRateError(
                f"{names[j]}: syndrome rate {r_j:.4g} not positive after rounding")
    act_srates = tuple(_rows_rate(r, n, q) for r, q in zip(chk_rows, qs))
    tol = max(math.log2(qs[j]) / n for j in live)
    for j in live:
        drift = act_srates[j] + act_rates[j] - (h[j] - eps[j])
        if abs(drift) > tol:
            raise InfeasibleRateError(
                f"{names[j]}: rounding drift {drift:.4g} exceeds {tol:.4g}")

    no_rows = LinearLabel(FieldSpec(2), np.zeros((0, n), dtype=np.int64))
    check_specs, message_specs = [None] * k, [None] * k
    checks, message_maps = [no_rows] * k, [no_rows] * k
    syndromes = [np.zeros(0, dtype=np.int64)] * k
    for j in live:
        field = FieldSpec(qs[j])
        check_specs[j] = ensemble_factory(chk_rows[j], n, field)
        message_specs[j] = ensemble_factory(msg_rows[j], n, field)
        checks[j] = sample(check_specs[j], rng)
        message_maps[j] = sample(message_specs[j], rng)
        syndromes[j] = rng.integers(qs[j], size=chk_rows[j])
    # The context is fixed now unless a cloud codes it; a one-point law
    # draws all zeros.
    u = None
    if c == 0 or m == 1:
        u = rng.choice(m, size=n, p=ctx_law.probs).astype(np.int64)
        u.flags.writeable = False

    kappa = occupancy_factor(_stacked_beta([check_specs[j] for j in live],
                                           [message_specs[j] for j in live]), n, len(live))
    per_component = [
        (lambda g: typical_size_slack(g, n, m)) if x is None
        else (lambda g, q=x.size: cond_typical_size_slack(g, g, n, q, m))
        for x in conds]

    def sum_terms(g):
        total = (dmc.n_senders + 3) * g
        for _ in conds[:c]:  # a cloud adds its own entropy slack
            total += entropy_slack(g, m)
        return total + sum(cond_entropy_slack(g, g, x.size, m) for x in conds[c:])

    gamma, gamma_ok = _select_gamma(per_component, sum_terms, eps, n, kappa)
    return CodeInstance(
        scenario=scenario, n=n, dmc=dmc, law=law,
        checks=tuple(checks), message_maps=tuple(message_maps), syndromes=tuple(syndromes),
        check_specs=tuple(check_specs), message_specs=tuple(message_specs),
        rates=act_rates, srates=act_srates, eps=eps, requested_rates=rates,
        gamma=gamma, gamma_ok=gamma_ok, kappa=kappa,
        ctx_law=ctx_law, u=u, cond_inputs=tuple(conds),
        channel_cond=_channel_cond(dmc, (m,) + tuple(dmc.input_sizes)))


def build_private_code(mu_u, input_conds, dmc: Dmc, rates, eps, n: int,
                       rng: np.random.Generator,
                       ensemble_factory=uniform_ensemble_factory,
                       check_region: bool = True) -> CodeInstance:
    """Sample one private-message code with a shared time-sharing sequence.

    Pass a one-point mu_u for the plain construction without time sharing.
    """
    mu_u = _as_pmf(mu_u)
    conds = tuple(_as_cond(c, mu_u.size, dmc.input_sizes[j])
                  for j, c in enumerate(input_conds))
    law = joint_ts(mu_u, [c.rows for c in conds], dmc)
    return _build("private", law, mu_u, conds, in_region_ts, dmc, rates, eps, n, rng,
                  ensemble_factory, check_region)


def build_superposition_code(mu_cloud, cond1, cond2, dmc: Dmc, rates, eps, n: int,
                             rng: np.random.Generator,
                             ensemble_factory=uniform_ensemble_factory,
                             check_region: bool = True) -> CodeInstance:
    """Sample one cloud-center code for a common plus two private messages."""
    if dmc.n_senders != 2:
        raise ValueError("this construction needs a two-sender channel")
    mu_cloud = _as_pmf(mu_cloud)
    conds = (_as_cond(cond1, mu_cloud.size, dmc.input_sizes[0]),
             _as_cond(cond2, mu_cloud.size, dmc.input_sizes[1]))
    law = joint_sw(mu_cloud, conds[0].rows, conds[1].rows, dmc)
    # Without a cloud the auxiliary (cloud-decodability) constraints are vacuous.
    degenerate = mu_cloud.size == 1
    in_region = lambda r, law: in_region_sw(r, law, include_aux=not degenerate)
    return _build("superposition", law, mu_cloud, (None,) + conds, in_region, dmc,
                  rates, eps, n, rng, ensemble_factory, check_region)


def _target(code: CodeInstance, i: int, ctx) -> EncodeTarget:
    """Component i's design law: the context law for a cloud, else its law given ctx."""
    cond = code.cond_inputs[i]
    return (EncodeTarget.for_marginal(code.ctx_law) if cond is None
            else EncodeTarget.for_conditional(cond, ctx))


def _codeword(code: CodeInstance, i: int, key, message, ctx) -> np.ndarray:
    """Component i's codeword for `message`, from its codebook or min_div_encode."""
    book = code.codebooks[i]
    x = book.get(key)
    if x is None:
        cs = CosetSpec(code.checks[i], code.message_maps[i], code.syndromes[i], message)
        try:
            x = min_div_encode(cs, _target(code, i, ctx))
        except EmptyCosetError as exc:
            book[key] = str(exc)
            raise
        x = x.copy()  # a view would keep the whole coset array alive
        x.flags.writeable = False
        book[key] = x
    if isinstance(x, str):
        raise EmptyCosetError(x)
    return x


def _message_key(m) -> bytes:
    return np.asarray(m, dtype=np.int64).tobytes()


def encode_components(code: CodeInstance, messages) -> tuple[np.ndarray, ...]:
    """Every component's codeword, a cloud center's first.

    The context is u when it is fixed, else the cloud codeword.
    """
    c = code.n_cloud
    key = b"".join(map(_message_key, messages[:c]))
    ctx = code.u if code.u is not None else _codeword(code, 0, key, messages[0], None)
    return (ctx,) * c + tuple(_codeword(code, i, key + _message_key(m), m, ctx)
                              for i, m in enumerate(messages[c:], c))


def decode_components(code: CodeInstance, y):
    """Returns (decoded messages, decoded codewords) of every component."""
    xs = (code.u,) * code.fixed + code.decoder(y)
    return tuple(apply_label(mm, x) for mm, x in zip(code.message_maps, xs)), xs


def reduce_common_to_private(dmc: Dmc, msg_sets, symbol_maps, aux_sizes):
    """Derived channel over the per-message auxiliaries plus the input wrapper.

    Returns (derived Dmc, to_physical) where to_physical maps auxiliary
    sequences to the per-sender channel inputs by applying each symbol map
    componentwise; the decoder of the derived-channel code is reused as is.
    """
    k = dmc.n_senders
    kt = len(aux_sizes)
    if len(msg_sets) != k or len(symbol_maps) != k:
        raise ValueError("one message-index set and one symbol map per sender required")
    for s in msg_sets:
        if any(i < 0 or i >= kt for i in s):
            raise ValueError("message index outside the auxiliary roster")
    aux_sizes = tuple(int(s) for s in aux_sizes)
    fmaps = []
    for j in range(k):
        shape = tuple(aux_sizes[i] for i in msg_sets[j])
        fm = np.zeros(shape, dtype=np.int64)
        for combo in itertools.product(*(range(s) for s in shape)):
            val = int(symbol_maps[j](*combo))
            if not 0 <= val < dmc.input_sizes[j]:
                raise ValueError(f"symbol map {j} leaves the channel alphabet")
            fm[combo] = val
        fmaps.append(fm)
    table = np.zeros(aux_sizes + (dmc.output_size,))
    for combo in itertools.product(*(range(s) for s in aux_sizes)):
        xs = tuple(int(fmaps[j][tuple(combo[i] for i in msg_sets[j])]) for j in range(k))
        table[combo] = dmc.table[xs]
    derived = Dmc(aux_sizes, dmc.output_size, table)

    def to_physical(aux_seqs):
        aux_seqs = [np.asarray(s, dtype=np.int64) for s in aux_seqs]
        if len(aux_seqs) != kt:
            raise ValueError(f"expected {kt} auxiliary sequences")
        return [fmaps[j][tuple(aux_seqs[i] for i in msg_sets[j])] for j in range(k)]

    return derived, to_physical


def _classify(code: CodeInstance, xs, y) -> str:
    g = code.gamma
    c = code.n_cloud
    m = code.ctx_law.size
    ctx = code.u if code.u is not None else xs[0]
    for x in xs[:c]:
        if not divergence_to(x, code.ctx_law) < g:
            return STAGE_ENCODER
    for i in range(c, len(xs)):
        if not is_cond_typical(xs[i], ctx, code.cond_inputs[i], g):
            return STAGE_ENCODER
    threshold = g
    for e in code.eps[:c]:  # a cloud adds its entropy slack and margin
        threshold = threshold + entropy_slack(g, m) + e
    threshold = threshold + sum(
        cond_entropy_slack(g, g, code.cond_inputs[i].size, m) + code.eps[i]
        for i in range(c, len(xs)))
    if not seq_mutual_multi(xs[c:], ctx) < threshold:
        return STAGE_MI
    cells = _ctx_seq((ctx,) + tuple(xs[c:]), (m,) + tuple(code.dmc.input_sizes))
    if not is_cond_typical(y, cells, code.channel_cond, g):
        return STAGE_CHANNEL
    return STAGE_DECODER


@dataclass(frozen=True)
class SimulationResult:
    trials: int
    errors: int
    stage_counts: dict

    @property
    def error(self) -> float:
        return self.errors / self.trials

    @property
    def half_width(self) -> float:
        p = self.error
        return 1.96 * math.sqrt(max(p * (1 - p), 0.0) / self.trials)


def _draw_messages(code: CodeInstance, rng) -> list[np.ndarray]:
    # An empty message draws nothing, so it leaves the trial's stream as is.
    return [rng.integers(mm.field.q, size=mm.rows) if mm.rows else np.zeros(0, dtype=np.int64)
            for mm in code.message_maps]


def run_trial(code: CodeInstance, rng: np.random.Generator) -> TrialResult:
    """One uniform-message round trip; failures carry the first violated stage."""
    msgs = _draw_messages(code, rng)
    try:
        xs = encode_components(code, msgs)
    except EmptyCosetError:
        return TrialResult(False, STAGE_EMPTY)
    y = sample_channel(code.dmc, xs[code.n_cloud:], rng)
    got, _ = decode_components(code, y)
    ok = all((g == m).all() for g, m in zip(got, msgs))
    if ok:
        return TrialResult(True)
    return TrialResult(False, _classify(code, xs, y))


def simulate_error(code: CodeInstance, trials: int, seed: int, path=()) -> SimulationResult:
    """Monte Carlo block-error rate with per-trial independent streams."""
    if trials < 1:
        raise ValueError("trials must be positive")
    counts = {s: 0 for s in STAGES}
    errors = 0
    for t in range(trials):
        res = run_trial(code, rng_mod.stream(seed, *path, t))
        if not res.success:
            errors += 1
            counts[res.stage] += 1
    return SimulationResult(trials, errors, counts)


@dataclass(frozen=True)
class SearchResult:
    code: CodeInstance
    candidate: int
    pilot_scores: tuple


def search_code(builder, candidates: int, pilot_trials: int, seed: int,
                path=()) -> SearchResult:
    """Best-of-N construction: build, pilot, keep the lowest pilot error."""
    if candidates < 1:
        raise ValueError("candidates must be positive")
    best = None
    scores = []
    for c in range(candidates):
        try:
            code = builder(rng_mod.stream(seed, *path, rng_mod.BUILD, c))
        except InfeasibleRateError as e:
            scores.append(math.inf)
            last_error = e
            continue
        if pilot_trials > 0:
            score = simulate_error(code, pilot_trials, seed,
                                   (*path, rng_mod.PILOT, c)).error
        else:
            score = 0.0
        scores.append(score)
        if best is None or score < best[0]:
            best = (score, c, code)
    if best is None:
        raise InfeasibleRateError(f"all {candidates} candidates infeasible: {last_error}")
    return SearchResult(best[2], best[1], tuple(scores))


def saturation_audit(code: CodeInstance, budget: int = 1 << 20) -> list[dict]:
    """Check whether each component's typical set can fill its bins kappa-fold.

    Diagnostic only; reports, per coded component, the typical-set size
    against the [kappa, 2*kappa] bin-occupancy window.  Satellites of a
    coded cloud are audited given its most typical sequence.
    """
    ctx = code.u if code.u is not None else _typical_cloud(code)
    kappa = code.kappa
    out = []
    for i in range(code.fixed, code.k_messages):
        cands = all_vectors(code.checks[i].field.q, code.n, budget)
        t_size = int((_target(code, i, ctx).divergences(cands) < code.gamma).sum())
        bins = code.checks[i].im_size * code.message_maps[i].im_size
        lo = math.ceil(kappa * bins)
        hi = math.floor(min(2 * kappa * bins, t_size))
        out.append({"index": i, "typical_size": t_size, "bins": bins,
                    "kappa": kappa, "feasible": lo <= hi and lo >= 1})
    return out


def _typical_cloud(code: CodeInstance) -> np.ndarray:
    cands = all_vectors(code.ctx_law.size, code.n)
    return cands[int(np.argmin(marginal_divergences(cands, code.ctx_law)))]
