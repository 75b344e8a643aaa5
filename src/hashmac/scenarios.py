"""End-to-end code constructions: build, encode, transmit, decode, diagnose.

Two constructions are wired here: per-sender private messages with an
optional shared time-sharing sequence (a constant sequence recovers the
plain private-message code), and the two-sender cloud-center construction
carrying one common and two private messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng as rng_mod
from .channel import Dmc, sample_channel
# min_div_decode is not called here; it stays importable from this module
# because perfbench/spans.py traces it at this import site.
from .codec import (CosetSpec, EmptyCosetError, EncodeTarget, MinDivDecoder,  # noqa: F401
                    conditional_divergences, marginal_divergences,
                    min_div_decode, min_div_encode)
from .empirical import divergence_to, is_cond_typical, seq_mutual_multi
from .ensembles import (EnsembleSpec, UNIFORM, estimate_hash_params, multi_params,
                        occupancy_factor, product_params, sample)
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
    checks: tuple                      # syndrome maps A_j
    message_maps: tuple                # message maps A'_j
    syndromes: tuple
    check_specs: tuple
    message_specs: tuple
    rates: tuple                       # realized message rates
    srates: tuple                      # realized syndrome rates
    eps: tuple
    requested_rates: tuple
    gamma: float
    gamma_ok: bool
    gamma_prime: float
    u: np.ndarray | None = None        # shared time-sharing sequence
    mu_u: Pmf | None = None
    cond_inputs: tuple = ()            # per-sender conditional input laws
    mu_cloud: Pmf | None = None        # cloud-center law (superposition)
    degenerate_cloud: bool = False
    channel_cond: CondPmf | None = None  # y given the full input context

    @property
    def k_messages(self) -> int:
        return len(self.message_maps)

    # A code's encoder and decoder are fixed functions of the message and of
    # y, so both are compiled on the first trial and kept with the code.

    @cached_property
    def codebooks(self) -> tuple[dict, ...]:
        """Per-sender message -> codeword tables, filled on first use.

        A superposition satellite is keyed by (cloud message, message),
        since its target is conditioned on the cloud codeword.  An empty
        coset is stored as its error text, never as the raised exception,
        whose traceback would keep every failing trial's frames alive.
        """
        return tuple({} for _ in self.message_maps)

    @cached_property
    def decoder(self) -> MinDivDecoder:
        """Joint decoder over the syndrome cosets, built on first use."""
        if self.scenario == "private":
            return MinDivDecoder(self.checks, self.syndromes, self.law.table, u=self.u)
        if self.degenerate_cloud:
            return MinDivDecoder(self.checks[1:], self.syndromes[1:], self.law.table[0])
        return MinDivDecoder(self.checks, self.syndromes, self.law.table)


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


def _as_pmf(p, size: int) -> Pmf:
    if isinstance(p, Pmf):
        if p.size != size:
            raise ValueError("distribution size mismatch")
        return p
    arr = np.asarray(p, dtype=float)
    if arr.shape != (size,):
        raise ValueError(f"distribution shape {arr.shape} != ({size},)")
    return Pmf(tuple(range(size)), arr)


def _stacked_beta(check_specs, message_specs) -> float:
    from .ensembles import SupportBudgetError
    params = []
    for cs, ms in zip(check_specs, message_specs):
        try:
            pc = estimate_hash_params(cs)
            pm = estimate_hash_params(ms)
        except SupportBudgetError:
            return 0.0  # beyond the exact sweep: fall back to the limit value
        params.append(product_params(pc, pm))
    return multi_params(params, range(len(params))).beta


def build_private_code(mu_u, input_conds, dmc: Dmc, rates, eps, n: int,
                       rng: np.random.Generator,
                       ensemble_factory=uniform_ensemble_factory,
                       check_region: bool = True) -> CodeInstance:
    """Sample one private-message code with a shared time-sharing sequence.

    Pass a one-point mu_u for the plain construction without time sharing.
    """
    k = dmc.n_senders
    rates = tuple(float(r) for r in rates)
    eps = tuple(float(e) for e in eps)
    if len(rates) != k or len(eps) != k:
        raise ValueError("one rate and one margin per sender required")
    if any(e <= 0 for e in eps):
        raise ValueError("margins must be positive")
    mu_u = mu_u if isinstance(mu_u, Pmf) else Pmf(tuple(range(len(mu_u))), mu_u)
    conds = tuple(_as_cond(c, mu_u.size, dmc.input_sizes[j])
                  for j, c in enumerate(input_conds))
    law = joint_ts(mu_u, [c.rows for c in conds], dmc)

    fields = [FieldSpec(q) for q in dmc.input_sizes]
    h_cond = [law.entropy([f"x{j + 1}", "u"]) - law.entropy(["u"]) for j in range(k)]
    msg_rows = [_round_rows(n, rates[j], fields[j].q) for j in range(k)]
    act_rates = tuple(_rows_rate(msg_rows[j], n, fields[j].q) for j in range(k))
    if check_region:
        verdict = in_region_ts(act_rates, law)
        if not verdict:
            raise InfeasibleRateError(f"rates outside the region: {verdict.witness}")
    chk_rows = []
    for j in range(k):
        r_j = h_cond[j] - act_rates[j] - eps[j]
        rows = _round_rows(n, r_j, fields[j].q)
        if check_region and (rows < 1 or r_j <= 0):
            # Forced control runs may proceed with empty syndrome maps.
            raise InfeasibleRateError(
                f"sender {j + 1}: syndrome rate {r_j:.4g} not positive after rounding")
        chk_rows.append(rows)
    act_srates = tuple(_rows_rate(chk_rows[j], n, fields[j].q) for j in range(k))
    tol = max(math.log2(f.q) / n for f in fields)
    for j in range(k):
        drift = act_srates[j] + act_rates[j] - (h_cond[j] - eps[j])
        if abs(drift) > tol:
            raise InfeasibleRateError(
                f"sender {j + 1}: rounding drift {drift:.4g} exceeds {tol:.4g}")

    check_specs = tuple(ensemble_factory(chk_rows[j], n, fields[j]) for j in range(k))
    message_specs = tuple(ensemble_factory(msg_rows[j], n, fields[j]) for j in range(k))
    checks, message_maps, syndromes = [], [], []
    for j in range(k):
        checks.append(sample(check_specs[j], rng))
        message_maps.append(sample(message_specs[j], rng))
        syndromes.append(rng.integers(fields[j].q, size=chk_rows[j]))
    u = rng.choice(mu_u.size, size=n, p=mu_u.probs).astype(np.int64)

    kappa = occupancy_factor(_stacked_beta(check_specs, message_specs), n, k)
    per_sender = [
        (lambda g, j=j: cond_typical_size_slack(g, g, n, dmc.input_sizes[j], mu_u.size))
        for j in range(k)]
    sum_terms = lambda g: (k + 3) * g + sum(
        cond_entropy_slack(g, g, dmc.input_sizes[j], mu_u.size) for j in range(k))
    gamma, gamma_ok = _select_gamma(per_sender, sum_terms, eps, n, kappa)
    ctx_sizes = (mu_u.size,) + tuple(dmc.input_sizes)
    return CodeInstance(
        scenario="private", n=n, dmc=dmc, law=law,
        checks=tuple(checks), message_maps=tuple(message_maps),
        syndromes=tuple(np.asarray(s) for s in syndromes),
        check_specs=check_specs, message_specs=message_specs,
        rates=act_rates, srates=act_srates, eps=eps, requested_rates=rates,
        gamma=gamma, gamma_ok=gamma_ok, gamma_prime=2 * sum(eps),
        u=u, mu_u=mu_u, cond_inputs=conds,
        channel_cond=_channel_cond(dmc, ctx_sizes))


def _codeword(code: CodeInstance, i: int, key, message, given) -> np.ndarray:
    """Sender i's codeword for `message`, from its codebook or min_div_encode.

    The target is the cloud law when `given` is None, else sender i's
    conditional law given the sequence `given`.
    """
    book = code.codebooks[i]
    x = book.get(key)
    if x is None:
        cs = CosetSpec(code.checks[i], code.message_maps[i], code.syndromes[i], message)
        target = (EncodeTarget.for_marginal(code.mu_cloud) if given is None
                  else EncodeTarget.for_conditional(code.cond_inputs[i], given))
        try:
            x = min_div_encode(cs, target)
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


def encode_private(code: CodeInstance, messages) -> tuple[np.ndarray, ...]:
    if code.scenario != "private":
        raise ValueError("not a private-message code")
    return tuple(_codeword(code, j, _message_key(m), m, code.u)
                 for j, m in enumerate(messages))


def decode_private(code: CodeInstance, y):
    """Returns (decoded messages, decoded channel inputs)."""
    if code.scenario != "private":
        raise ValueError("not a private-message code")
    xs = code.decoder(y)
    msgs = tuple(apply_label(code.message_maps[j], xs[j]) for j in range(len(xs)))
    return msgs, xs


def build_superposition_code(mu_cloud, cond1, cond2, dmc: Dmc, rates, eps, n: int,
                             rng: np.random.Generator,
                             ensemble_factory=uniform_ensemble_factory,
                             check_region: bool = True) -> CodeInstance:
    """Sample one cloud-center code for a common plus two private messages."""
    if dmc.n_senders != 2:
        raise ValueError("this construction needs a two-sender channel")
    rates = tuple(float(r) for r in rates)
    eps = tuple(float(e) for e in eps)
    if len(rates) != 3 or len(eps) != 3:
        raise ValueError("expected (R0, R1, R2) and three margins")
    if any(e <= 0 for e in eps):
        raise ValueError("margins must be positive")
    m0 = mu_cloud.size if isinstance(mu_cloud, Pmf) else len(mu_cloud)
    mu_cloud = _as_pmf(mu_cloud, m0)
    degenerate = m0 == 1
    conds = (_as_cond(cond1, m0, dmc.input_sizes[0]),
             _as_cond(cond2, m0, dmc.input_sizes[1]))
    law = joint_sw(mu_cloud, conds[0].rows, conds[1].rows, dmc)

    if degenerate and rates[0] != 0:
        raise InfeasibleRateError("a one-point cloud alphabet forces R0 = 0")
    fields = [None if degenerate else FieldSpec(m0),
              FieldSpec(dmc.input_sizes[0]), FieldSpec(dmc.input_sizes[1])]
    h = [law.entropy(["x0"]),
         law.entropy(["x1", "x0"]) - law.entropy(["x0"]),
         law.entropy(["x2", "x0"]) - law.entropy(["x0"])]
    qs = [1 if degenerate else m0, dmc.input_sizes[0], dmc.input_sizes[1]]
    msg_rows = [0 if (i == 0 and degenerate) else _round_rows(n, rates[i], qs[i])
                for i in range(3)]
    act_rates = tuple(0.0 if (i == 0 and degenerate) else _rows_rate(msg_rows[i], n, qs[i])
                      for i in range(3))
    if check_region:
        # Without a cloud the auxiliary (cloud-decodability) constraints are vacuous.
        verdict = in_region_sw(act_rates, law, include_aux=not degenerate)
        if not verdict:
            raise InfeasibleRateError(f"rates outside the region: {verdict.witness}")
    chk_rows = []
    for i in range(3):
        if i == 0 and degenerate:
            chk_rows.append(0)
            continue
        r_i = h[i] - act_rates[i] - eps[i]
        rows = _round_rows(n, r_i, qs[i])
        if check_region and (rows < 1 or r_i <= 0):
            raise InfeasibleRateError(
                f"index {i}: syndrome rate {r_i:.4g} not positive after rounding")
        chk_rows.append(rows)
    act_srates = tuple(0.0 if (i == 0 and degenerate) else _rows_rate(chk_rows[i], n, qs[i])
                       for i in range(3))
    tol = max(math.log2(q) / n for q in qs if q > 1)
    for i in range(3):
        if i == 0 and degenerate:
            continue
        drift = act_srates[i] + act_rates[i] - (h[i] - eps[i])
        if abs(drift) > tol:
            raise InfeasibleRateError(f"index {i}: rounding drift {drift:.4g} exceeds {tol:.4g}")

    check_specs, message_specs, checks, message_maps, syndromes = [], [], [], [], []
    for i in range(3):
        if i == 0 and degenerate:
            lbl = LinearLabel(FieldSpec(2), np.zeros((0, n), dtype=np.int64))
            for seq in (check_specs, message_specs):
                seq.append(None)
            checks.append(lbl)
            message_maps.append(lbl)
            syndromes.append(np.zeros(0, dtype=np.int64))
            continue
        cs = ensemble_factory(chk_rows[i], n, fields[i])
        ms = ensemble_factory(msg_rows[i], n, fields[i])
        check_specs.append(cs)
        message_specs.append(ms)
        checks.append(sample(cs, rng))
        message_maps.append(sample(ms, rng))
        syndromes.append(rng.integers(qs[i], size=chk_rows[i]))

    live_specs = [(c, m) for c, m in zip(check_specs, message_specs) if c is not None]
    kappa = occupancy_factor(
        _stacked_beta([c for c, _ in live_specs], [m for _, m in live_specs]), n, 3)
    per_sender = [
        lambda g: typical_size_slack(g, n, m0),
        lambda g: cond_typical_size_slack(g, g, n, qs[1], m0),
        lambda g: cond_typical_size_slack(g, g, n, qs[2], m0),
    ]
    sum_terms = lambda g: 5 * g + entropy_slack(g, m0) + sum(
        cond_entropy_slack(g, g, qs[i], m0) for i in (1, 2))
    gamma, gamma_ok = _select_gamma(per_sender, sum_terms, eps, n, kappa)
    ctx_sizes = (m0,) + tuple(dmc.input_sizes)
    return CodeInstance(
        scenario="superposition", n=n, dmc=dmc, law=law,
        checks=tuple(checks), message_maps=tuple(message_maps),
        syndromes=tuple(syndromes),
        check_specs=tuple(check_specs), message_specs=tuple(message_specs),
        rates=act_rates, srates=act_srates, eps=eps, requested_rates=rates,
        gamma=gamma, gamma_ok=gamma_ok, gamma_prime=2 * sum(eps),
        mu_cloud=mu_cloud, cond_inputs=(None,) + conds,
        degenerate_cloud=degenerate,
        channel_cond=_channel_cond(dmc, ctx_sizes))


def _encode_superposition_full(code: CodeInstance, m0, m1, m2):
    k0 = _message_key(m0)
    if code.degenerate_cloud:
        x0 = np.zeros(code.n, dtype=np.int64)
    else:
        x0 = _codeword(code, 0, k0, m0, None)
    return (x0,) + tuple(_codeword(code, i, (k0, _message_key(m)), m, x0)
                         for i, m in ((1, m1), (2, m2)))


def encode_superposition(code: CodeInstance, m0, m1, m2) -> tuple[np.ndarray, np.ndarray]:
    """Channel inputs (x1, x2); the cloud center is shared state, not transmitted."""
    if code.scenario != "superposition":
        raise ValueError("not a cloud-center code")
    _, x1, x2 = _encode_superposition_full(code, m0, m1, m2)
    return x1, x2


def decode_superposition(code: CodeInstance, y):
    """Returns ((m0, m1, m2), (x0, x1, x2))."""
    if code.scenario != "superposition":
        raise ValueError("not a cloud-center code")
    xs = code.decoder(y)
    if code.degenerate_cloud:
        xs = (np.zeros(code.n, dtype=np.int64),) + xs
    msgs = tuple(apply_label(code.message_maps[i], xs[i]) for i in range(3))
    return msgs, xs


def reduce_common_to_private(dmc: Dmc, msg_sets, symbol_maps, aux_sizes):
    """Derived channel over the per-message auxiliaries plus the input wrapper.

    Returns (derived Dmc, to_physical) where to_physical maps auxiliary
    sequences to the per-sender channel inputs by applying each symbol map
    componentwise; the decoder of the derived-channel code is reused as is.
    """
    import itertools
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
    if code.scenario == "private":
        parts = list(xs)
        cond_seq = code.u
        sizes = (code.mu_u.size,) + tuple(code.dmc.input_sizes)
        for j, x in enumerate(parts):
            if not is_cond_typical(x, cond_seq, code.cond_inputs[j], g):
                return STAGE_ENCODER
        threshold = g + sum(
            cond_entropy_slack(g, g, code.dmc.input_sizes[j], code.mu_u.size) + code.eps[j]
            for j in range(len(parts)))
        if not seq_mutual_multi(parts, cond_seq) < threshold:
            return STAGE_MI
        ctx = _ctx_seq([cond_seq] + parts, sizes)
    else:
        x0, x1, x2 = xs
        m0 = code.mu_cloud.size
        if not divergence_to(x0, code.mu_cloud) < g:
            return STAGE_ENCODER
        for i, x in ((1, x1), (2, x2)):
            if not is_cond_typical(x, x0, code.cond_inputs[i], g):
                return STAGE_ENCODER
        threshold = (g + entropy_slack(g, m0) + code.eps[0]
                     + sum(cond_entropy_slack(g, g, code.dmc.input_sizes[i - 1], m0)
                           + code.eps[i] for i in (1, 2)))
        if not seq_mutual_multi([x1, x2], x0) < threshold:
            return STAGE_MI
        ctx = _ctx_seq([x0, x1, x2], (m0,) + tuple(code.dmc.input_sizes))
    if not is_cond_typical(y, ctx, code.channel_cond, g):
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
    out = []
    for i, mm in enumerate(code.message_maps):
        if mm.rows == 0:
            out.append(np.zeros(0, dtype=np.int64))
        else:
            out.append(rng.integers(mm.field.q, size=mm.rows))
    return out


def run_trial(code: CodeInstance, rng: np.random.Generator) -> TrialResult:
    """One uniform-message round trip; failures carry the first violated stage."""
    msgs = _draw_messages(code, rng)
    try:
        if code.scenario == "private":
            xs = encode_private(code, msgs)
            sent = xs
        else:
            xs = _encode_superposition_full(code, *msgs)
            sent = xs[1:]
    except EmptyCosetError:
        return TrialResult(False, STAGE_EMPTY)
    y = sample_channel(code.dmc, sent, rng)
    if code.scenario == "private":
        got, _ = decode_private(code, y)
    else:
        got, _ = decode_superposition(code, y)
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
    """Check whether each sender's typical set can fill its bins kappa-fold.

    Diagnostic only; reports, per live sender, the typical-set size against
    the [kappa, 2*kappa] bin-occupancy window.
    """
    live = [i for i in range(len(code.checks))
            if not (code.scenario == "superposition" and code.degenerate_cloud and i == 0)]
    beta = _stacked_beta([code.check_specs[i] for i in live],
                         [code.message_specs[i] for i in live])
    kappa = occupancy_factor(beta, code.n, len(live))
    out = []
    for i in live:
        q = code.checks[i].field.q
        cands = all_vectors(q, code.n, budget)
        if code.scenario == "private":
            d = conditional_divergences(cands, code.cond_inputs[i], code.u)
        elif i == 0:
            d = marginal_divergences(cands, code.mu_cloud)
        else:
            d = conditional_divergences(cands, code.cond_inputs[i], _audit_cloud(code))
        t_size = int((d < code.gamma).sum())
        bins = code.checks[i].im_size * code.message_maps[i].im_size
        lo = math.ceil(kappa * bins)
        hi = math.floor(min(2 * kappa * bins, t_size))
        out.append({"index": i, "typical_size": t_size, "bins": bins,
                    "kappa": kappa, "feasible": lo <= hi and lo >= 1})
    return out


def _audit_cloud(code: CodeInstance) -> np.ndarray:
    """Reference cloud sequence for auditing satellite typical sets."""
    if code.degenerate_cloud:
        return np.zeros(code.n, dtype=np.int64)
    cands = all_vectors(code.mu_cloud.size, code.n)
    d = marginal_divergences(cands, code.mu_cloud)
    return cands[int(np.argmin(d))]
