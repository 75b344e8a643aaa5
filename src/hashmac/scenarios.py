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

A failed trial's stage is read from joint count tables: the encoder and
empirical-mi stages from the context and sender codewords alone, the
channel stage with the channel output too.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng as rng_mod
from .channel import Dmc, sample_channel  # noqa: F401
# sample_channel, min_div_encode, min_div_decode, divergence_to,
# is_cond_typical, seq_mutual_multi and estimate_hash_params are not called
# here; they stay importable from this module because perfbench/spans.py
# traces them at this import site.
from .codec import (AllCosetsEmptyError, EmptyCosetError, EncodeTarget,  # noqa: F401
                    MinDivDecoder, min_div_decode, min_div_encode, min_div_member)
from .empirical import (_entropy_counts, count_divergence, divergence_to,  # noqa: F401
                        is_cond_typical, joint_counts, seq_mutual_multi)
from .ensembles import EnsembleSpec, UNIFORM, estimate_hash_params, sample  # noqa: F401
from .gf import FieldSpec, LinearLabel, apply_label, apply_label_many
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
        return self.check_specs.count(None)

    # A code's encoder and decoder are fixed functions of the message and of
    # y, so both are tabled as trials come up and kept with the code.  A
    # message travels as its index: its base-q digits read with the first
    # digit most significant, which is its rank in lex order.

    @cached_property
    def digit_draws(self) -> tuple[tuple[int, int, int], ...]:
        """Per component, (q, rows, rejection threshold (2^32 - q) mod q) of its message digits."""
        return tuple((mm.field.q, mm.rows, (2**32 - mm.field.q) % mm.field.q)
                     for mm in self.message_maps)

    @cached_property
    def raw_words(self) -> int:
        """Raw words a trial draws first: half a word per message digit, one per position."""
        return -(-sum(mm.rows for mm in self.message_maps) // 2) + self.n

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
    def sent(self) -> dict:
        """Message-index tuple -> [codewords, channel-CDF row of each position, y-free stage].

        Filled as tuples are drawn, so it holds at most one entry per
        distinct tuple.  A tuple with an empty coset has codewords None.
        The y-free stage (the encoder and empirical-mi stages, which read
        the codewords and the context but never y) is classified when the
        tuple first fails.
        """
        return {}

    @cached_property
    def decoded(self) -> dict:
        """Channel output tuple(y) -> the decoder's coset rows, filled as outputs come up.

        It holds at most one entry per distinct y decoded, each about
        8n + 150 bytes, and lives as long as the code.
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
        return tuple(apply_label_many(mm, c) @ w for mm, c, w in
                     zip(self.message_maps[f:], self.decoder.cosets, self.place_values[f:]))


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

    return CodeInstance(
        scenario=scenario, n=n, dmc=dmc, law=law,
        checks=tuple(checks), message_maps=tuple(message_maps), syndromes=tuple(syndromes),
        check_specs=tuple(check_specs), message_specs=tuple(message_specs),
        rates=act_rates, srates=act_srates, eps=eps, requested_rates=rates,
        gamma=RADIUS,
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


def _stage_without_y(code: CodeInstance, xs) -> str | None:
    """The encoder or empirical-mi stage of codewords xs, or None if both pass.

    Both are marginals of one count table of (context, senders) against the
    code's laws; neither reads the channel output.
    """
    g, c, n = code.gamma, code.n_cloud, code.n
    ctx = code.u if code.u is not None else xs[0]
    table = joint_counts((ctx,) + tuple(xs[c:]), code.law.table.shape[:-1])
    axes = range(table.ndim)
    ctx_counts = table.sum(axis=tuple(axes[1:]))
    senders = [table.sum(axis=tuple(a for a in axes[1:] if a != j)) for j in axes[1:]]
    given = [ctx_counts[None, :]] * c + senders  # a cloud's context is one symbol
    if not all(count_divergence(t, x.rows) < g for t, x in zip(given, code.cond_inputs)):
        return STAGE_ENCODER
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
    errors: int
    stage_counts: dict

    @property
    def error(self) -> float:
        return self.errors / self.trials

    @property
    def half_width(self) -> float:
        p = self.error
        return 1.96 * math.sqrt(max(p * (1 - p), 0.0) / self.trials)


_TO_UNIT = 2.0**-53


def _draw(code: CodeInstance, bits) -> tuple[tuple[int, ...], list[float]]:
    """Every component's message index and the n channel uniforms of one trial.

    `bits` is a fresh stream's bit generator.  The draws equal
    `integers(q, size=rows)` per component with rows, then `random(n)`:
    a digit is numpy's bounded draw on the raw words' uint32 halves, low
    half first, `(h * q) >> 32`, drawn again from the next half while
    `(h * q) mod 2^32` is under `(2^32 - q) mod q`; the uniforms are
    `(w >> 11) * 2^-53` of the whole words after the last half used.
    """
    words = bits.random_raw(code.raw_words).tolist()
    h = 0  # halves used
    msgs = []
    for q, rows, reject in code.digit_draws:
        m = 0
        for _ in range(rows):
            p = (words[h >> 1] >> 32 * (h & 1) & 0xFFFFFFFF) * q
            h += 1
            while p & 0xFFFFFFFF < reject:
                # Keep a trial's worth of words ahead, so no later digit runs out.
                if len(words) - (h >> 1) < code.raw_words:
                    words += bits.random_raw(code.raw_words).tolist()
                p = (words[h >> 1] >> 32 * (h & 1) & 0xFFFFFFFF) * q
                h += 1
            m = m * q + (p >> 32)
        msgs.append(m)
    start = (h + 1) >> 1
    if len(words) < start + code.n:
        words += bits.random_raw(start + code.n - len(words)).tolist()
    return tuple(msgs), [(w >> 11) * _TO_UNIT for w in words[start:start + code.n]]


def _send(code: CodeInstance, msgs) -> list:
    """The entry of `code.sent` for the message-index tuple msgs."""
    try:
        xs = _encode(code, msgs)
    except EmptyCosetError:
        return [None, None, STAGE_EMPTY]
    cells = np.dot(code.dmc.strides, xs[code.n_cloud:]).tolist()
    return [xs, list(map(code.dmc.cdf_rows.__getitem__, cells)), _UNCLASSIFIED]


_UNCLASSIFIED = object()  # y-free stage of a tuple that has not failed yet
_SUCCESS = TrialResult(True)
_FAILURES = {s: TrialResult(False, s) for s in STAGES}


def run_trial(code: CodeInstance, rng: np.random.Generator) -> TrialResult:
    """One uniform-message round trip; failures carry the first violated stage.

    `rng` must be fresh, nothing drawn from it yet, as `rng_mod.stream` and
    `rng_mod.trial_streams` give: the trial reads its raw words from the
    start of the stream.  Messages travel as indices, so a trial succeeds
    when each decoded component's coset row carries its message index.
    y_i is the inverse CDF of its position's channel row at uniform i, as
    in `sample_channel`.
    """
    msgs, uniforms = _draw(code, rng.bit_generator)
    entry = code.sent.get(msgs)
    if entry is None:
        entry = code.sent[msgs] = _send(code, msgs)
    xs, cdf_rows, stage = entry
    if xs is None:
        return _FAILURES[stage]
    # y is built from a list, at its final length: a tuple grown from an
    # iterator is resized, which fills CPython's n-tuple free list with
    # blocks it never reuses (about 0.3 MB more peak RSS on `trend`).
    y = tuple(list(map(bisect_right, cdf_rows, uniforms)))
    rows = code.decoded.get(y)
    if rows is None:
        rows = code.decoded[y] = code.decoder.rows(y)
    if all(t[r] == m for t, r, m in zip(code.coset_messages, rows, msgs[code.fixed:])):
        return _SUCCESS
    if stage is _UNCLASSIFIED:
        stage = entry[2] = _stage_without_y(code, xs)
    return _FAILURES[stage or _channel_stage(code, xs, y)]


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
