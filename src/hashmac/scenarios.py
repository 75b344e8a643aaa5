"""End-to-end code constructions: build, encode, transmit, decode, diagnose.

Every code here is a context plus coded components.  Each component's
codeword is the minimum-divergence member of its coset, against a target
law conditioned on the context sequence.  The context is either shared or
coded:

- shared: u is drawn from its law when the code is built, and every
  component is a sender (private messages with time sharing; a one-point
  law gives the plain private-message code);
- coded: component 0 is a cloud center carrying a common message.  It is
  coded against the context law given a context of one symbol, and its
  codeword is the context of the two senders' satellites.  A one-point
  cloud has no rows and its codeword is all zeros, fixed at build time like
  a shared u.

A failed trial's stage is read from one joint count table of the trial's
context, sender codewords and channel output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng as rng_mod
from .channel import Dmc, sample_channel
# min_div_encode, min_div_decode, divergence_to, is_cond_typical and
# seq_mutual_multi are not called here; they stay importable from this
# module because perfbench/spans.py traces them at this import site.
from .codec import (AllCosetsEmptyError, EmptyCosetError, EncodeTarget,  # noqa: F401
                    MinDivDecoder, min_div_decode, min_div_encode, min_div_member)
from .empirical import (_entropy_counts, conditional_divergences, count_divergence,  # noqa: F401
                        divergence_to, is_cond_typical, joint_counts, seq_mutual_multi)
from .ensembles import (EnsembleSpec, SupportBudgetError, UNIFORM, estimate_hash_params,
                        multi_params, occupancy_factor, product_params, sample)
from .gf import FieldSpec, LinearLabel, all_vectors, apply_label, apply_label_many
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
    cond_inputs: tuple                 # per component: law given its context (a cloud: 1 row)

    @property
    def k_messages(self) -> int:
        return len(self.message_maps)

    @cached_property
    def n_cloud(self) -> int:
        """Components before the senders: 1 with a cloud center, else 0."""
        return self.k_messages - self.dmc.n_senders

    @cached_property
    def mi_allowance(self) -> float:
        """Allowance of the empirical-mi stage: radius plus each component's slack and margin."""
        g, c, m = self.gamma, self.n_cloud, self.ctx_law.size
        threshold = g
        for e in self.eps[:c]:  # a cloud adds its entropy slack and margin
            threshold = threshold + entropy_slack(g, m) + e
        return threshold + sum(
            cond_entropy_slack(g, g, self.cond_inputs[i].size, m) + self.eps[i]
            for i in range(c, self.k_messages))

    @cached_property
    def fixed(self) -> int:
        """Leading components fixed at build time: a one-point cloud, whose codeword is u."""
        return self.check_specs.count(None)

    # A code's encoder and decoder are fixed functions of the message and of
    # y, so both are compiled on the first trial and kept with the code.  A
    # message travels as its index: its base-q digits read with the first
    # digit most significant, which is its rank in lex order.

    @cached_property
    def message_counts(self) -> tuple[int, ...]:
        """Per component, the number of messages q^rows."""
        return tuple(mm.field.q ** mm.rows for mm in self.message_maps)

    @cached_property
    def place_values(self) -> tuple[np.ndarray, ...]:
        """Per component, the place value of each message digit.

        Object dtype (Python ints) where an index may not fit in int64.
        """
        return tuple(np.array([mm.field.q ** r for r in range(mm.rows - 1, -1, -1)],
                              dtype=np.int64 if count <= 1 << 63 else object)
                     for mm, count in zip(self.message_maps, self.message_counts))

    @cached_property
    def codebooks(self) -> tuple[dict, ...]:
        """Per-component message index -> codeword tables, filled on first use.

        A satellite of a cloud is keyed by cloud_index * q^rows + own_index,
        since its target is conditioned on the cloud codeword.  An empty
        coset is stored as its error text, never as the raised exception,
        whose traceback would keep every failing trial's frames alive.
        """
        return tuple({} for _ in self.message_maps)

    @cached_property
    def decoder(self) -> MinDivDecoder | None:
        """Joint decoder over the cosets of the components not fixed by u.

        None if a check syndrome is unreachable: stored, not raised, since a
        cached_property does not cache an exception.
        """
        f = self.fixed
        try:
            return MinDivDecoder(self.checks[f:], self.syndromes[f:], self.law.table, u=self.u)
        except AllCosetsEmptyError:
            return None

    @cached_property
    def coset_messages(self) -> tuple[np.ndarray, ...]:
        """Per decoded component, the message index of A'_j x for each row x of its coset."""
        f = self.fixed
        return tuple(apply_label_many(mm, c) @ w for mm, c, w in
                     zip(self.message_maps[f:], self.decoder.cosets, self.place_values[f:]))

    @cached_property
    def draw_runs(self) -> tuple[tuple[int, tuple[int, ...], np.ndarray], ...]:
        """(q, components, weights) of each run of message-carrying components.

        A run is a maximal sequence of components with message rows over one
        field; components without rows draw nothing, so they split no run.
        The run's digits times weights give its components' message indices.
        """
        runs = []
        for i, mm in enumerate(self.message_maps):
            if not mm.rows:
                continue
            if not runs or runs[-1][0] != mm.field.q:
                runs.append((mm.field.q, []))
            runs[-1][1].append(i)
        out = []
        for q, comps in runs:
            places = [self.place_values[i] for i in comps]
            weights = np.zeros((sum(p.size for p in places), len(comps)),
                               dtype=np.result_type(*places))
            start = 0
            for k, p in enumerate(places):
                weights[start:start + p.size, k] = p
                start += p.size
            out.append((q, tuple(comps), weights))
        return tuple(out)


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

    conds[j] is component j's input law given the context symbol; a cloud
    center (component 0 when the components outnumber the senders) has
    ctx_law as its one row, given a context of one symbol.  The components
    are named by the law's axes before y; the context is its first axis.
    in_region(rates, law) is the region verdict.
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
    qs = [x.size for x in conds]
    live = [j for j in range(k) if qs[j] > 1]  # a one-point cloud carries nothing
    if any(rates[j] != 0 for j in range(k) if j not in live):
        raise InfeasibleRateError("a one-point cloud alphabet forces R0 = 0")
    h_ctx = law.entropy([ctx])
    h = [h_ctx if j < c else law.entropy([name, ctx]) - h_ctx
         for j, name in enumerate(names)]

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
        (lambda g: typical_size_slack(g, n, m)) if j < c
        else (lambda g, q=x.size: cond_typical_size_slack(g, g, n, q, m))
        for j, x in enumerate(conds)]

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
        ctx_law=ctx_law, u=u, cond_inputs=tuple(conds))


# A caller that builds many codes from the same inputs may pass _law, the
# joint law the builder would make from them (joint_ts or joint_sw), so the
# law and its region constraints are computed once, not once per code.

def build_private_code(mu_u, input_conds, dmc: Dmc, rates, eps, n: int,
                       rng: np.random.Generator,
                       ensemble_factory=uniform_ensemble_factory,
                       check_region: bool = True, *, _law: JointLaw | None = None
                       ) -> CodeInstance:
    """Sample one private-message code with a shared time-sharing sequence.

    Pass a one-point mu_u for the plain construction without time sharing.
    """
    mu_u = _as_pmf(mu_u)
    conds = tuple(_as_cond(c, mu_u.size, dmc.input_sizes[j])
                  for j, c in enumerate(input_conds))
    law = _law or joint_ts(mu_u, [c.rows for c in conds], dmc)
    return _build("private", law, mu_u, conds, in_region_ts, dmc, rates, eps, n, rng,
                  ensemble_factory, check_region)


def build_superposition_code(mu_cloud, cond1, cond2, dmc: Dmc, rates, eps, n: int,
                             rng: np.random.Generator,
                             ensemble_factory=uniform_ensemble_factory,
                             check_region: bool = True, *, _law: JointLaw | None = None
                             ) -> CodeInstance:
    """Sample one cloud-center code for a common plus two private messages."""
    if dmc.n_senders != 2:
        raise ValueError("this construction needs a two-sender channel")
    mu_cloud = _as_pmf(mu_cloud)
    conds = (_as_cond(cond1, mu_cloud.size, dmc.input_sizes[0]),
             _as_cond(cond2, mu_cloud.size, dmc.input_sizes[1]))
    law = _law or joint_sw(mu_cloud, conds[0].rows, conds[1].rows, dmc)
    # Without a cloud the auxiliary (cloud-decodability) constraints are vacuous.
    degenerate = mu_cloud.size == 1
    in_region = lambda r, law: in_region_sw(r, law, include_aux=not degenerate)
    cloud = _as_cond(mu_cloud.probs[None, :], 1, mu_cloud.size)
    return _build("superposition", law, mu_cloud, (cloud,) + conds, in_region, dmc,
                  rates, eps, n, rng, ensemble_factory, check_region)


def _codeword(code: CodeInstance, i: int, key: int, message: int, ctx) -> np.ndarray:
    """Component i's codeword for message index `message`, from its codebook or _fill."""
    book = code.codebooks[i]
    x = book.get(key)
    if x is None:
        x = book[key] = _fill(code, i, message, ctx)
    if isinstance(x, str):
        raise EmptyCosetError(x)
    return x


def _fill(code: CodeInstance, i: int, message: int, ctx):
    """Component i's codeword for `message`, or the error text of an empty coset.

    The stacked coset {x : A_i x = s_i, A'_i x = message} is the rows of
    the decoder's check coset that carry the message, in the same lex
    order, so min_div_member picks the codeword min_div_encode would.  A
    None context is the one-symbol context of a cloud center.
    """
    if code.decoder is None:
        return "a check syndrome is unreachable for its matrix"
    j = i - code.fixed
    coset = code.decoder.cosets[j]
    rows = np.flatnonzero(code.coset_messages[j] == message)
    if rows.size == 0:
        return (f"no vector satisfies the {code.checks[i].rows}+"
                f"{code.message_maps[i].rows} constraints")
    if ctx is None:
        ctx = np.zeros(code.n, dtype=np.int64)
    target = EncodeTarget.for_conditional(code.cond_inputs[i], ctx)
    pick = min_div_member(coset[rows], target, code.checks[i].field.q)
    return coset[rows[pick]]  # a read-only row of the decoder's coset


def _encode(code: CodeInstance, msgs) -> tuple[np.ndarray, ...]:
    """Every component's codeword for the message indices `msgs`, a cloud center's first.

    The context is u when it is fixed, else the cloud codeword, which is
    coded given a context of one symbol.
    """
    c = code.n_cloud
    cloud = msgs[0] if c else 0
    ctx = code.u
    if ctx is None:
        ctx = _codeword(code, 0, cloud, cloud, None)
    counts = code.message_counts
    return (ctx,) * c + tuple(_codeword(code, i, cloud * counts[i] + msgs[i], msgs[i], ctx)
                              for i in range(c, code.k_messages))


def _message_index(code: CodeInstance, i: int, message) -> int:
    """Index of component i's message, given as its digit sequence."""
    mm = code.message_maps[i]
    m = np.asarray(message, dtype=np.int64)
    if m.shape != (mm.rows,) or ((m < 0) | (m >= mm.field.q)).any():
        raise ValueError(f"message {i} must be {mm.rows} symbols of GF({mm.field.q})")
    return int(m @ code.place_values[i])


def encode_components(code: CodeInstance, messages) -> tuple[np.ndarray, ...]:
    """Every component's codeword for one digit sequence per message, a cloud center's first."""
    if len(messages) != code.k_messages:
        raise ValueError(f"expected {code.k_messages} messages")
    return _encode(code, [_message_index(code, i, m) for i, m in enumerate(messages)])


def decode_components(code: CodeInstance, y):
    """Returns (decoded messages, decoded codewords) of every component."""
    if code.decoder is None:
        raise AllCosetsEmptyError("a check syndrome is unreachable for its matrix")
    f = code.fixed
    xs = (code.u,) * f + tuple(c[r] for c, r in zip(code.decoder.cosets, code.decoder.rows(y)))
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
    """First failed stage of a trial, each read off the trial's joint type.

    The one table counts (context, senders, y); every stage is a marginal
    of it against the code's laws.
    """
    g, c = code.gamma, code.n_cloud
    ctx = code.u if code.u is not None else xs[0]
    table = joint_counts((ctx,) + tuple(xs[c:]) + (y,), code.law.table.shape)
    axes = range(table.ndim)
    ctx_counts = table.sum(axis=tuple(axes[1:]))
    senders = [table.sum(axis=tuple(a for a in axes[1:] if a != j)) for j in axes[1:-1]]
    given = [ctx_counts[None, :]] * c + senders  # a cloud's context is one symbol
    if not all(count_divergence(t, x.rows) < g for t, x in zip(given, code.cond_inputs)):
        return STAGE_ENCODER
    n = len(y)
    h_ctx = _entropy_counts(ctx_counts, n)
    h_each = sum(_entropy_counts(t.ravel(), n) - h_ctx for t in senders)
    h_joint = _entropy_counts(table.sum(axis=-1).ravel(), n) - h_ctx
    if not h_each - h_joint < code.mi_allowance:
        return STAGE_MI
    if not count_divergence(table, code.dmc.table) < g:
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


def _draw_messages(code: CodeInstance, rng) -> list[int]:
    """Every component's message index, drawn uniformly.

    One draw per run of components over one field: a bounded draw takes the
    bit generator's words one at a time, so a draw of a + b digits equals a
    draw of a followed by a draw of b, and the stream is left as one draw
    per component would leave it.  A component without rows draws nothing.
    """
    msgs = [0] * code.k_messages
    for q, comps, weights in code.draw_runs:
        for i, m in zip(comps, (rng.integers(q, size=weights.shape[0]) @ weights).tolist()):
            msgs[i] = m
    return msgs


_SUCCESS = TrialResult(True)


def run_trial(code: CodeInstance, rng: np.random.Generator) -> TrialResult:
    """One uniform-message round trip; failures carry the first violated stage.

    Messages travel as indices, so a trial succeeds when each decoded
    component's coset row carries its message index.
    """
    msgs = _draw_messages(code, rng)
    try:
        xs = _encode(code, msgs)
    except EmptyCosetError:
        return TrialResult(False, STAGE_EMPTY)
    y = sample_channel(code.dmc, xs[code.n_cloud:], rng)
    rows = code.decoder.rows(y)
    if all(t[r] == m for t, r, m in zip(code.coset_messages, rows, msgs[code.fixed:])):
        return _SUCCESS
    return TrialResult(False, _classify(code, xs, y))


def simulate_error(code: CodeInstance, trials: int, seed: int, path=()) -> SimulationResult:
    """Monte Carlo block-error rate with per-trial independent streams."""
    if trials < 1:
        raise ValueError("trials must be positive")
    counts = {s: 0 for s in STAGES}
    errors = 0
    for rng in rng_mod.trial_streams(seed, path, trials):
        res = run_trial(code, rng)
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
    ctxs = (np.zeros(code.n, dtype=np.int64),) * code.n_cloud + (ctx,) * code.dmc.n_senders
    kappa = code.kappa
    out = []
    for i in range(code.fixed, code.k_messages):
        cands = all_vectors(code.checks[i].field.q, code.n, budget)
        d = conditional_divergences(cands, code.cond_inputs[i], ctxs[i])
        t_size = int((d < code.gamma).sum())
        bins = code.checks[i].im_size * code.message_maps[i].im_size
        lo = math.ceil(kappa * bins)
        hi = math.floor(min(2 * kappa * bins, t_size))
        out.append({"index": i, "typical_size": t_size, "bins": bins,
                    "kappa": kappa, "feasible": lo <= hi and lo >= 1})
    return out


def _typical_cloud(code: CodeInstance) -> np.ndarray:
    cands = all_vectors(code.ctx_law.size, code.n)
    d = conditional_divergences(cands, code.cond_inputs[0], np.zeros(code.n, dtype=np.int64))
    return cands[int(np.argmin(d))]
