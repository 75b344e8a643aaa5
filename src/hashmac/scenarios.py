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

A failed trial's encoder stage is read from the scores the encoder kept
with each codeword; the empirical-mi stage from a joint count table of the
context and sender codewords, and the channel stage from one with the
channel output too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng as rng_mod
from .channel import Dmc, inverse_cdf, sample_channel  # noqa: F401
# sample_channel, min_div_encode, min_div_decode, divergence_to,
# is_cond_typical, seq_mutual_multi and estimate_hash_params are not called
# here; they stay importable from this module because perfbench/spans.py
# traces them at this import site.
from .codec import (AllCosetsEmptyError, Codebook, EmptyCosetError, EncodeTarget,  # noqa: F401
                    MinDivDecoder, message_runs, min_div_decode, min_div_encode)
from .empirical import (_entropy_counts, count_divergence, divergence_to,  # noqa: F401
                        is_cond_typical, joint_counts, seq_mutual_multi)
from .ensembles import EnsembleSpec, UNIFORM, estimate_hash_params, sample  # noqa: F401
from .gf import FieldSpec, LinearLabel, apply_label, lex_index
from .prob import CondPmf, Pmf
from .regions import JointLaw, in_region_sw, in_region_ts, joint_sw, joint_ts
from .slack import cond_entropy_slack, entropy_slack

STAGE_ENCODER = "encoder-atypical"
STAGE_MI = "empirical-mi"
STAGE_CHANNEL = "channel-atypical"
STAGE_DECODER = "decoder-collision"
STAGE_EMPTY = "empty-coset"
STAGES = (STAGE_ENCODER, STAGE_MI, STAGE_CHANNEL, STAGE_DECODER, STAGE_EMPTY)

# The failure classifier's typicality radius, fixed rather than searched
# for.  A radius meets the analysis's margin constraints only if every
# margin exceeds its component's typical-size slack, which is over 0.33
# bits at this radius for any n and larger at every radius up to
# slack.MAX_RADIUS, so at margins like the lab's 0.05 none qualifies.
RADIUS = 0.005


class InfeasibleRateError(RuntimeError):
    """Requested rates cannot be realized; carries the violated constraint."""


def uniform_ensemble_factory(rows: int, cols: int, field: FieldSpec) -> EnsembleSpec:
    return EnsembleSpec(UNIFORM, rows, cols, field)


@dataclass(frozen=True)
class CodeInstance:
    n: int
    dmc: Dmc
    law: JointLaw                      # model law used by the decoder
    checks: tuple                      # syndrome maps A_j, one per component
    message_maps: tuple                # message maps A'_j
    syndromes: tuple
    rates: tuple                       # realized message rates
    srates: tuple                      # realized syndrome rates
    eps: tuple
    gamma: float                       # classifier radius: RADIUS when built
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
        return self.n_cloud if self.u is not None else 0

    # A code's encoder and decoder are fixed functions of the message and of
    # y, so both are tabled as trials come up and kept with the code.  A
    # message travels as its index, its rank in lex order (gf.lex_index).

    @cached_property
    def draw_runs(self) -> tuple[tuple[int, int], ...]:
        """Per run of consecutive components over one field, (q - 1, digits): one bounded draw."""
        return tuple((q - 1, sum(mm.rows for mm in maps)) for q, maps in
                     itertools.groupby(self.message_maps, key=lambda mm: mm.field.q))

    @cached_property
    def codebooks(self) -> tuple[dict, ...]:
        """Per component, context -> message index -> (codeword, score, row), filled on first use.

        The context is the cloud index for a satellite of a cloud, whose
        target is conditioned on the cloud codeword, and 0 otherwise.  Each
        context's table is a codec.Codebook, made by one scoring pass (_fill) on
        its first lookup; a score is the codeword's divergence from its
        target law, and a row the codeword's index in the decoder's coset.
        """
        return tuple({} for _ in self.message_maps)

    @cached_property
    def sent(self) -> dict:
        """Message-index tuple -> [codewords, scores, cell per position, rows, y-free stage].

        Filled as tuples are drawn, so it holds at most one entry per
        distinct tuple.  A tuple with an empty coset has codewords None.
        The scores are each coded codeword's divergence from its target law,
        a cloud center's first, and a position's cell is the combined index
        of its senders' symbols, whose row of `dmc.cdf` it draws y from.
        The rows, each codeword's in its decoder coset, seed the decodes.
        The y-free stage (the encoder stage, read from the scores, and the
        empirical-mi stage, from the codewords and the context; neither
        reads y) is classified when the tuple first fails.
        """
        return {}

    @cached_property
    def decoded(self) -> dict:
        """Channel output tuple(y) -> the decoded message-index tuple, filled as outputs come up.

        The tuple holds the message index of each component the decoder
        decodes (those not fixed by u), so a trial succeeds when it equals
        the drawn indices of those components.  The table holds at most one
        entry per distinct y decoded, each about 8n + 150 bytes, and lives as
        long as the code.
        """
        return {}

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
        return tuple(lex_index(apply_label(mm, c), mm.field.q)
                     for mm, c in zip(self.message_maps[f:], self.decoder.cosets))

    @cached_property
    def message_runs(self) -> tuple[tuple[np.ndarray, np.ndarray, list], ...]:
        """Per decoded component, codec.message_runs of its coset rows."""
        return tuple(map(message_runs, self.coset_messages))


def _round_rows(n: int, rate: float, q: int) -> int:
    return max(0, round(n * rate / math.log2(q)))


def _rows_rate(rows: int, n: int, q: int) -> float:
    return rows * math.log2(q) / n


def _as_cond(rows, given_size: int, out_size: int) -> CondPmf:
    if isinstance(rows, CondPmf):
        return rows
    return CondPmf(tuple(range(given_size)), tuple(range(out_size)), rows)


def _as_pmf(p) -> Pmf:
    return p if isinstance(p, Pmf) else Pmf(tuple(range(len(p))), p)


def _build(law: JointLaw, ctx_law: Pmf, conds, dmc: Dmc,
           rates, eps, n: int, rng, ensemble_factory, check_region) -> CodeInstance:
    """Sample one code: coded components conditioned on a context.

    conds[j] is component j's input law given the context symbol; a cloud
    center (component 0 when the components outnumber the senders) has
    ctx_law as its one row, given a context of one symbol.  The components
    are named by the law's axes before y; the context is its first axis.
    A code with a cloud is a superposition code, judged by in_region_sw,
    whose auxiliary (cloud-decodability) constraints are vacuous for a
    one-point cloud; any other is a private code, judged by in_region_ts.
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
    if 1 in qs[c:]:
        raise ValueError(f"sender {qs.index(1, c) - c} has a one-symbol alphabet: "
                         "it carries nothing and has no field")
    live = [j for j in range(k) if qs[j] > 1]  # a one-point cloud carries nothing
    if any(rates[j] != 0 for j in range(k) if j not in live):
        raise InfeasibleRateError("a one-point cloud alphabet forces R0 = 0")
    h_ctx = law.entropy([ctx])
    h = [h_ctx if j < c else law.entropy([name, ctx]) - h_ctx
         for j, name in enumerate(names)]

    msg_rows = [_round_rows(n, rates[j], qs[j]) if j in live else 0 for j in range(k)]
    act_rates = tuple(_rows_rate(r, n, q) for r, q in zip(msg_rows, qs))
    if check_region:
        verdict = (in_region_sw(act_rates, law, include_aux=m > 1) if c
                   else in_region_ts(act_rates, law))
        if not verdict:
            raise InfeasibleRateError(f"rates outside the region: {verdict.witness}")
    chk_rows = [0] * k
    tol = max(math.log2(qs[j]) / n for j in live)
    for j in live:
        r_j = h[j] - act_rates[j] - eps[j]
        chk_rows[j] = _round_rows(n, r_j, qs[j])
        if check_region and (chk_rows[j] < 1 or r_j <= 0):
            raise InfeasibleRateError(
                f"{names[j]}: syndrome rate {r_j:.4g} not positive after rounding")
        # Forced control runs may proceed with empty syndrome maps, but not
        # past a rate so negative that no row count comes within rounding of it.
        if r_j < -tol:
            raise InfeasibleRateError(
                f"{names[j]}: syndrome rate {r_j:.4g} is negative: rate plus margin "
                f"exceeds the entropy by more than rounding allows ({tol:.4g})")
    act_srates = tuple(_rows_rate(r, n, q) for r, q in zip(chk_rows, qs))

    no_rows = LinearLabel(FieldSpec(2), np.zeros((0, n), dtype=np.int64))
    checks, message_maps = [no_rows] * k, [no_rows] * k
    syndromes = [np.zeros(0, dtype=np.int64)] * k
    for j in live:
        field = FieldSpec(qs[j])
        checks[j] = sample(ensemble_factory(chk_rows[j], n, field), rng)
        message_maps[j] = sample(ensemble_factory(msg_rows[j], n, field), rng)
        syndromes[j] = rng.integers(0, qs[j], size=chk_rows[j])
    # The context is fixed now unless a cloud codes it; a one-point law
    # draws all zeros.
    u = None
    if c == 0 or m == 1:
        u = rng.choice(m, size=n, p=ctx_law.probs, replace=True).astype(np.int64)
        u.flags.writeable = False

    return CodeInstance(
        n=n, dmc=dmc, law=law,
        checks=tuple(checks), message_maps=tuple(message_maps), syndromes=tuple(syndromes),
        rates=act_rates, srates=act_srates, eps=eps, gamma=RADIUS,
        ctx_law=ctx_law, u=u, cond_inputs=tuple(conds))


# rng is an `rng.Stream` or anything else with its `integers`, `random` and
# `choice`, such as a numpy Generator.  A caller that builds many codes from
# the same inputs may pass _law, the joint law the builder would make from
# them (joint_ts or joint_sw), so the law and its region constraints are
# computed once, not once per code.

def build_private_code(mu_u, input_conds, dmc: Dmc, rates, eps, n: int,
                       rng,
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
    return _build(law, mu_u, conds, dmc, rates, eps, n, rng, ensemble_factory, check_region)


def build_superposition_code(mu_cloud, cond1, cond2, dmc: Dmc, rates, eps, n: int,
                             rng,
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
    cloud = _as_cond(mu_cloud.probs[None, :], 1, mu_cloud.size)
    return _build(law, mu_cloud, (cloud,) + conds, dmc, rates, eps, n, rng,
                  ensemble_factory, check_region)


def _codeword(code: CodeInstance, i: int, key: int, message: int, ctx):
    """Component i's (codeword, score, row) for message index `message` given context ctx.

    `key` is the context's key in the codebooks (see codebooks).
    """
    books = code.codebooks[i]
    book = books.get(key)
    if book is None:
        book = books[key] = _fill(code, i, ctx)
    return book[message]


def _fill(code: CodeInstance, i: int, ctx) -> Codebook:
    """Component i's codebook in the context sequence ctx, from one scoring pass.

    The codebook is built on the decoder's check coset, grouped by message
    once per code.  A None context is the one-symbol context of a cloud
    center.  Without a decoder (a check syndrome is unreachable) there is
    no coset, so every call raises a fresh EmptyCosetError and nothing is
    stored.
    """
    if code.decoder is None:
        raise EmptyCosetError("a check syndrome is unreachable for its matrix")
    j = i - code.fixed
    if ctx is None:
        ctx = np.zeros(code.n, dtype=np.int64)
    return Codebook(f"no vector satisfies the {code.checks[i].rows}+"
                    f"{code.message_maps[i].rows} constraints",
                    code.decoder.cosets[j], code.message_runs[j],
                    EncodeTarget.for_conditional(code.cond_inputs[i], ctx),
                    code.checks[i].field.q)


def _encode(code: CodeInstance, msgs) -> tuple[tuple, tuple, tuple]:
    """Every component's codeword for the message indices `msgs`, each coded one's score and row.

    All run a cloud center's first.  The context is u when it is fixed (a
    one-point cloud's codeword, never encoded, so it has no score or row),
    else the cloud codeword, which is coded given a context of one symbol.
    """
    c = code.n_cloud
    cloud = msgs[0] if c else 0
    ctx, coded = code.u, []
    if ctx is None:
        coded.append(_codeword(code, 0, 0, cloud, None))
        ctx = coded[0][0]
    coded += [_codeword(code, i, cloud, msgs[i], ctx) for i in range(c, code.k_messages)]
    xs, scores, rows = zip(*coded)
    return (ctx,) * code.fixed + xs, scores, rows


def _message_index(code: CodeInstance, i: int, message) -> int:
    """Index of component i's message, given as its digit sequence."""
    mm = code.message_maps[i]
    m = np.asarray(message, dtype=np.int64)
    if m.shape != (mm.rows,) or ((m < 0) | (m >= mm.field.q)).any():
        raise ValueError(f"message {i} must be {mm.rows} symbols of GF({mm.field.q})")
    return int(lex_index(m, mm.field.q))


def encode_components(code: CodeInstance, messages) -> tuple[np.ndarray, ...]:
    """Every component's codeword for one digit sequence per message, a cloud center's first."""
    if len(messages) != code.k_messages:
        raise ValueError(f"expected {code.k_messages} messages")
    return _encode(code, [_message_index(code, i, m) for i, m in enumerate(messages)])[0]


def decode_components(code: CodeInstance, y):
    """Returns (decoded messages, decoded codewords) of every component."""
    if code.decoder is None:
        raise AllCosetsEmptyError("a check syndrome is unreachable for its matrix")
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


def _stage_without_y(code: CodeInstance, xs, scores) -> str | None:
    """The encoder or empirical-mi stage of codewords xs, or None if both pass.

    scores holds each coded codeword's divergence from its target law, as
    the encoder computed it: the number count_divergence reads from the joint
    count table of the context and that codeword, summed over the same
    cells in the same order.  The empirical-mi stage is read from one
    count table of (context, senders).  Neither reads the channel output.
    """
    if not all(s < code.gamma for s in scores):
        return STAGE_ENCODER
    n = code.n
    ctx = code.u if code.u is not None else xs[0]
    table = joint_counts((ctx,) + tuple(xs[code.n_cloud:]), code.law.table.shape[:-1])
    axes = range(table.ndim)
    ctx_counts = table.sum(axis=tuple(axes[1:]))
    senders = [table.sum(axis=tuple(a for a in axes[1:] if a != j)) for j in axes[1:]]
    h_ctx = _entropy_counts(ctx_counts, n)
    h_each = sum(_entropy_counts(t.ravel(), n) - h_ctx for t in senders)
    h_joint = _entropy_counts(table.ravel(), n) - h_ctx
    if not h_each - h_joint < code.mi_allowance:
        return STAGE_MI
    return None


def _channel_stage(code: CodeInstance, xs, y) -> str:
    """Channel-atypical or decoder-collision: whether y is typical given the inputs."""
    ctx = code.u if code.u is not None else xs[0]
    table = joint_counts((ctx,) + tuple(xs[code.n_cloud:]) + (y,), code.law.table.shape)
    if not count_divergence(table, code.dmc.table) < code.gamma:
        return STAGE_CHANNEL
    return STAGE_DECODER


@dataclass(frozen=True)
class SimulationResult:
    trials: int
    stage_counts: dict                 # stage -> failed trials

    @property
    def errors(self) -> int:
        return sum(self.stage_counts.values())

    @property
    def error(self) -> float:
        return self.errors / self.trials

    @property
    def half_width(self) -> float:
        p = self.error
        return 1.96 * math.sqrt(max(p * (1 - p), 0.0) / self.trials)


def _send(code: CodeInstance, msgs) -> list:
    """The entry of `code.sent` for the message-index tuple msgs, made on a miss."""
    entry = code.sent.get(msgs)
    if entry is None:
        try:
            xs, scores, rows = _encode(code, msgs)
        except EmptyCosetError:
            entry = [None, None, None, None, STAGE_EMPTY]
        else:
            entry = [xs, scores, np.dot(code.dmc.strides, xs[code.n_cloud:]), rows, _UNCLASSIFIED]
        code.sent[msgs] = entry
    return entry


_UNCLASSIFIED = object()  # y-free stage of a tuple that has not failed yet


def _decode(code: CodeInstance, ys, seeds) -> None:
    """Keep in `code.decoded` the decoded message indices of every output of ys it lacks.

    The new outputs are decoded together, in the decoder's batched passes,
    each seeded by the coset rows (seeds) of the first trial that sent it.
    """
    new = {}
    for y, seed in zip(ys, seeds):
        if y not in code.decoded:
            new.setdefault(y, seed)
    if new:
        cols = zip(*code.decoder.rows(list(new), list(new.values())))  # each component's rows
        msgs = [t[list(r)].tolist() for t, r in zip(code.coset_messages, cols)]
        code.decoded.update(zip(new, zip(*msgs)))


def run_trial(code: CodeInstance, msgs: tuple, y: tuple | None) -> str | None:
    """Judge one drawn trial: None on success, else the first violated stage.

    msgs is the tuple of message indices drawn, and y the channel output as
    a tuple, None when nothing was sent (the messages' coset is empty).
    Both are read from the code's tables, which `_send` and `_decode` fill:
    a trial succeeds when y decodes to the drawn indices of the components
    the decoder decodes.
    """
    entry = code.sent[msgs]
    xs, scores, _, _, stage = entry
    if xs is None:
        return stage
    if code.decoded[y] == msgs[code.fixed:]:
        return None
    if stage is _UNCLASSIFIED:
        stage = entry[4] = _stage_without_y(code, xs, scores)
    return stage or _channel_stage(code, xs, y)


def _messages(code: CodeInstance, digits: np.ndarray) -> list[tuple]:
    """Each trial's tuple of message indices, from its row of digits as trial_draws draws them.

    Each component's digits are read by gf.lex_index, as a message is
    everywhere else.
    """
    ends = np.cumsum([mm.rows for mm in code.message_maps])[:-1]
    return list(zip(*(lex_index(d, mm.field.q).tolist()
                      for mm, d in zip(code.message_maps, np.split(digits, ends, axis=1)))))


def _tally(code: CodeInstance, trials: int, draws) -> SimulationResult:
    """The stage counts of the next `trials` trials of draws, a piece at a time.

    draws yields (digits, uniforms) pieces as `rng.trial_draws` does, none
    holding trials past the last of these.  A piece's messages are sent
    (each new message tuple is encoded once, in `code.sent`), its outputs
    drawn in one inverse-CDF pass over the cells of the sent codewords, its
    new outputs decoded in batched passes, and then each trial is judged
    by `run_trial`.
    """
    counts = {s: 0 for s in STAGES}
    left = trials
    while left:
        digits, uniforms = next(draws)
        left -= len(digits)
        msgs = _messages(code, digits)
        entries = [_send(code, m) for m in msgs]
        live = [t for t, e in enumerate(entries) if e[0] is not None]
        ys = [None] * len(msgs)
        if live:
            # Each y is built from a list, at its final length: a tuple grown
            # from an iterator is resized, which fills CPython's n-tuple free
            # list with blocks it never reuses (about 0.3 MB more peak RSS).
            cells = np.array([entries[t][2] for t in live])
            for t, y in zip(live, inverse_cdf(code.dmc, cells, uniforms[live]).tolist()):
                ys[t] = tuple(y)
            _decode(code, [ys[t] for t in live], [entries[t][3] for t in live])
        for m, y in zip(msgs, ys):
            stage = run_trial(code, m, y)
            if stage is not None:
                counts[stage] += 1
    return SimulationResult(trials, counts)


def simulate_error(code: CodeInstance, trials: int, seed: int, path) -> SimulationResult:
    """Monte Carlo block-error rate with per-trial independent streams."""
    if trials < 1:
        raise ValueError("trials must be positive")
    return _tally(code, trials, rng_mod.trial_draws(seed, (path,), trials, code.draw_runs, code.n))


@dataclass(frozen=True)
class SearchResult:
    code: CodeInstance
    candidate: int
    pilot_scores: tuple


def search_code(builder, candidates: int, pilot_trials: int, seed: int,
                path) -> SearchResult:
    """Best-of-N construction: build, pilot, keep the lowest pilot error."""
    if candidates < 1:
        raise ValueError("candidates must be positive")
    best = draws = None
    scores = []
    first = rng_mod.stream(seed, *path, rng_mod.BUILD, 0)
    for c in range(candidates):
        if c == 1:
            # Candidates draw alike: the others' build streams are made ahead,
            # in one Philox pass, with as many blocks as candidate 0 drew.
            builds = rng_mod.streams(seed, (*path, rng_mod.BUILD), candidates, first.drawn)
            next(builds)  # candidate 0's
        try:
            code = builder(next(builds) if c else first)
        except InfeasibleRateError as e:
            scores.append(math.inf)
            last_error = e
            draws = None  # its pilot draws are skipped: the next pilot draws anew
            continue
        score = 0.0
        if pilot_trials > 0:
            # The candidates of a search draw the same digits and block
            # length, so this and every later pilot are drawn from one key
            # hash and one block pass per chunk of trials, unless a
            # candidate breaks the run.
            if draws is None or (code.draw_runs, code.n) != layout:
                layout = (code.draw_runs, code.n)
                draws = rng_mod.trial_draws(
                    seed, [(*path, rng_mod.PILOT, d) for d in range(c, candidates)],
                    pilot_trials, *layout)
            score = _tally(code, pilot_trials, draws).error
        scores.append(score)
        if best is None or score < best[0]:
            best = (score, c, code)
    if best is None:
        raise InfeasibleRateError(f"all {candidates} candidates infeasible: {last_error}")
    return SearchResult(best[2], best[1], tuple(scores))
