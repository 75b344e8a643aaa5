"""Per-code encoder tables against reference scans; the compiled decoder against one-shot calls."""

import dataclasses
import gc
import itertools
import weakref
from collections import Counter

import numpy as np
import pytest

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hashmac import codec, scenarios, verify
from hashmac import rng as rng_mod
from hashmac.channel import Dmc
from hashmac.codec import (AllCosetsEmptyError, EmptyCosetError, EncodeTarget, MinDivDecoder,
                           _exact_key, _key_powers, _least_key, min_div_decode)
from hashmac.empirical import _divergence_from_counts, _log2_denom
from hashmac.gf import FieldSpec, LinearLabel, all_vectors
from hashmac.scenarios import (build_private_code, build_superposition_code,
                               decode_components, encode_components, simulate_error)

SEED = 20250811


def noisy_adder(q, p_each):
    """x1 + x2 over the integers, moved to each other output with p_each."""
    out = 2 * q - 1
    t = np.full((q, q, out), p_each)
    for a in range(q):
        for b in range(q):
            t[a, b, a + b] = 1 - (out - 1) * p_each
    return Dmc((q, q), out, t)


def decodable(build):
    """The first sampled code whose decoder syndromes are all reachable."""
    for attempt in range(20):
        code = build(rng_mod.stream(SEED, "compiled", attempt))
        if code.decoder is not None:
            return code
    raise AssertionError("no sampled code had reachable syndromes")


def private_binary_with_u():
    conds = [np.array([[0.75, 0.25], [0.25, 0.75]])] * 2
    return decodable(lambda rng: build_private_code(
        [0.5, 0.5], conds, noisy_adder(2, 1 / 16), (0.25, 0.25), (0.05, 0.05), 8, rng))


def private_ternary():
    conds = [np.full((1, 3), 1 / 3)] * 2
    return decodable(lambda rng: build_private_code(
        [1.0], conds, noisy_adder(3, 1 / 40), (0.25, 0.25), (0.05, 0.05), 6, rng))


def superposition():
    mu0 = np.array([0.5, 0.5])
    c = np.array([[0.875, 0.125], [0.125, 0.875]])
    code = decodable(lambda rng: build_superposition_code(
        mu0, c, c.copy(), noisy_adder(2, 1 / 16), (0.125, 0.125, 0.125),
        (0.05, 0.05, 0.05), 8, rng))
    assert code.u is None  # the cloud codeword is the context
    return code


def superposition_one_point_cloud():
    """A cloud of one symbol: component 0 is fixed and the decoder skips it."""
    c1, c2 = np.array([[0.75, 0.25]]), np.array([[0.5, 0.5]])
    code = decodable(lambda rng: build_superposition_code(
        [1.0], c1, c2, noisy_adder(2, 1 / 16), (0.0, 0.25, 0.25),
        (0.05, 0.05, 0.05), 8, rng))
    assert code.fixed == 1 and not code.u.any()
    return code


def all_messages(code, i):
    mm = code.message_maps[i]
    return all_vectors(mm.field.q, mm.rows)


def one_shot(code, i, m, given):
    """Component i's codeword for message digits m, by a scan that shares no code with codec.

    A None context is a cloud center's, coded against the context law.
    GF(2) components run verify's reference encoder; GF(3) ones
    ternary_scan.  None if no vector satisfies the constraints.
    """
    labels = [code.checks[i].matrix, code.message_maps[i].matrix]
    targets = [code.syndromes[i], m]
    mu, u = (code.ctx_law.probs, None) if given is None else (code.cond_inputs[i].rows, given)
    if code.checks[i].field.q == 2:
        return verify._ref_encode(labels, targets, code.n, mu, u)
    return ternary_scan(labels, targets, code.n, mu, u)


def ternary_scan(labels, targets, n, rows, u):
    """The encoder's order over GF(3)^n, scanned in lex order: float tie group, then lex-first.

    There is no exact step, as in codec, which refines ties on GF(2) only.
    Scores come from verify's scalar reference kernel.
    """
    space = np.array(list(itertools.product(range(3), repeat=n)), dtype=np.int64)
    keep = np.ones(len(space), dtype=bool)
    for a, t in zip(labels, targets):
        keep &= ((space @ a.T) % 3 == t).all(axis=1)
    sols = list(space[keep])
    if not sols:
        return None
    u = [int(b) for b in u]
    cv = Counter(u)

    def div_fn(x):
        return verify._ref_div_cells(Counter(zip(u, x.tolist())),
                                     lambda cell: cv[cell[0]] * rows[cell], n)

    return verify._ref_select(sols, div_fn, None, exact=False)


def expected_private(code, msgs):
    xs = []
    for j, m in enumerate(msgs):
        x = one_shot(code, j, m, code.u)
        if x is None:
            return None
        xs.append(x)
    return xs


def expected_superposition(code, msgs):
    x0 = code.u if code.fixed else one_shot(code, 0, msgs[0], None)
    if x0 is None:
        return None
    xs = [x0]
    for i in (1, 2):
        x = one_shot(code, i, msgs[i], x0)
        if x is None:
            return None
        xs.append(x)
    return xs


def check_encoder(code, encode, expected):
    combos = list(itertools.product(*(all_messages(code, i)
                                      for i in range(code.k_messages))))
    # The second pass reads every codeword back from the tables.
    for _ in range(2):
        for msgs in combos:
            want = expected(code, msgs)
            if want is None:
                with pytest.raises(EmptyCosetError):
                    encode(code, msgs)
                continue
            got = encode(code, msgs)
            assert len(got) == len(want)
            assert all((g == w).all() for g, w in zip(got, want))


@pytest.mark.parametrize("make", [private_binary_with_u, private_ternary])
def test_private_encoder_table_matches_one_shot(make):
    check_encoder(make(), encode_components, expected_private)


def test_superposition_encoder_table_matches_one_shot():
    for make in (superposition, superposition_one_point_cloud):
        check_encoder(make(), encode_components, expected_superposition)


def check_entry(code, i, context, m, ctx, want):
    """Component i's codebook entry for message index m against the reference codeword."""
    if want is None:
        with pytest.raises(EmptyCosetError):
            scenarios._codeword(code, i, context, m, ctx)
        return
    x, score, row = scenarios._codeword(code, i, context, m, ctx)
    assert (x == want).all(), (i, context, m)
    assert (code.decoder.cosets[i - code.fixed][row] == x).all()  # the decoder's row of x
    seq = np.zeros(code.n, dtype=np.int64) if ctx is None else ctx
    target = EncodeTarget.for_conditional(code.cond_inputs[i], seq)
    assert score == target.divergences(want[None, :])[0]


def check_codebooks(code):
    """Every component's codebook, in every context it can be asked for, message by message."""
    contexts = [(0, code.u)]
    if code.u is None:  # the cloud codewords are the satellites' contexts
        contexts = []
        for m, digits in enumerate(all_messages(code, 0)):
            want = one_shot(code, 0, digits, None)
            check_entry(code, 0, 0, m, None, want)
            if want is not None:
                contexts.append((m, want))
    for i in range(code.n_cloud, code.k_messages):
        for context, ctx in contexts:
            for m, digits in enumerate(all_messages(code, i)):
                check_entry(code, i, context, m, ctx, one_shot(code, i, digits, ctx))


def drawn_law(draw, size):
    """A law of `size` symbols with positive integer weights."""
    w = np.array(draw(st.lists(st.integers(1, 7), min_size=size, max_size=size)), dtype=float)
    return w / w.sum()


@st.composite
def codebook_codes(draw):
    """Small decodable codes of every kind: private GF(2) and GF(3), time sharing, uniform
    targets (whole weight classes tie), clouds and one-point clouds.

    A margin of 0.3 leaves several check-coset rows per message, a cloud's
    included, so the target law decides each pick.
    """
    kind = draw(st.sampled_from(("private-gf2", "private-gf3", "time-sharing", "uniform",
                                 "cloud", "one-point")))
    n = draw(st.integers(4, 6))
    eps = draw(st.sampled_from((0.05, 0.3)))
    rate = draw(st.sampled_from((0.0, 0.2, 0.34)))
    q = 3 if kind == "private-gf3" else 2
    m = 2 if kind in ("time-sharing", "cloud") else 1
    ctx_law = drawn_law(draw, m)
    conds = [np.stack([drawn_law(draw, q) for _ in range(m)]) for _ in range(2)]
    if kind == "uniform":
        conds = [np.full((1, 2), 0.5)] * 2
    dmc = noisy_adder(q, 1 / 16 if q == 2 else 1 / 40)
    seed = draw(st.integers(0, 2**32 - 1))
    for attempt in range(10):
        rng = rng_mod.stream(seed, "codebook", attempt)
        try:
            if kind in ("cloud", "one-point"):
                r0 = 0.0 if kind == "one-point" else draw(st.sampled_from((0.2, 0.34)))
                code = build_superposition_code(ctx_law, conds[0], conds[1], dmc,
                                                (r0, rate, rate), (eps,) * 3, n, rng,
                                                check_region=False)
            else:
                code = build_private_code(ctx_law, conds, dmc, (rate, rate), (eps, eps), n,
                                          rng, check_region=False)
        except scenarios.InfeasibleRateError:
            continue
        if code.decoder is not None:
            return code
    assume(False)


@settings(max_examples=80, deadline=None)
@given(codebook_codes())
def test_codebook_gives_min_div_encode_codeword(code):
    check_codebooks(code)


def test_codebook_covers_exact_ties_and_multi_row_clouds(monkeypatch):
    """Fixed codes on which the per-context codebook refines tie groups and weighs clouds."""
    uniform = decodable(lambda rng: build_private_code(
        [1.0], [np.full((1, 2), 0.5)] * 2, noisy_adder(2, 1 / 16), (0.2, 0.2), (0.3, 0.3), 6,
        rng, check_region=False))
    cloud = decodable(lambda rng: build_superposition_code(
        [0.75, 0.25], np.array([[0.75, 0.25], [0.25, 0.75]]), np.array([[0.5, 0.5]] * 2),
        noisy_adder(2, 1 / 16), (0.2, 0.2, 0.2), (0.3, 0.3, 0.3), 6, rng, check_region=False))
    refined = counting(monkeypatch, "exact_min", codec)
    for code in (uniform, cloud):
        check_codebooks(code)
    assert refined  # some message's float tie group needed exact refinement
    # The cloud's messages each have several coset rows, so its target picks among them.
    assert (np.diff(cloud.message_runs[0][1]) > 1).all()


def random_outputs(code, count):
    rng = rng_mod.stream(SEED, "compiled", "y")
    return [rng.integers(0, code.dmc.output_size, size=code.n) for _ in range(count)]


def check_decoder(code):
    f = code.fixed
    for y in random_outputs(code, 50):
        msgs, got = decode_components(code, y)
        want = min_div_decode(code.checks[f:], code.syndromes[f:], y, code.law.table,
                              u=code.u)
        assert all((g == w).all() for g, w in zip(got[f:], want))
        assert all((m == mm(x)).all() for m, mm, x in zip(msgs, code.message_maps, got))


@pytest.mark.parametrize("make", [private_binary_with_u, private_ternary])
def test_private_compiled_decoder_matches_one_shot(make):
    check_decoder(make())


def test_superposition_compiled_decoder_matches_one_shot():
    for make in (superposition, superposition_one_point_cloud):
        check_decoder(make())


def with_empty_coset(code):
    """The same code with sender 0's message map equal to its first check row.

    Then every message whose bit differs from that syndrome bit has an empty
    coset.  dataclasses.replace gives a new instance with empty tables.
    """
    mm = code.message_maps[0]
    row = code.checks[0].matrix[:1]
    maps = (LinearLabel(mm.field, row),) + code.message_maps[1:]
    return dataclasses.replace(code, message_maps=maps)


def with_unreachable_check_syndrome(code):
    """The same code with sender 1's check repeating a row with two different syndrome bits."""
    chk = code.checks[1]
    checks = code.checks[:1] + (LinearLabel(chk.field, chk.matrix[[0, 0]]),)
    syndromes = code.syndromes[:1] + (np.array([0, 1]),)
    return dataclasses.replace(code, checks=checks, syndromes=syndromes)


def counting(monkeypatch, name, module=scenarios):
    """Replace module.<name> by a wrapper that records each call."""
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_empty_coset_raises_fresh_error_every_call(monkeypatch):
    code = with_empty_coset(private_binary_with_u())
    bad = [np.array([1 - code.syndromes[0][0]]),
           np.zeros(code.message_maps[1].rows, dtype=np.int64)]
    calls = counting(monkeypatch, "_fill")
    raised = []
    for _ in range(3):
        with pytest.raises(EmptyCosetError) as err:
            encode_components(code, bad)
        raised.append(err.value)
    assert len(calls) == 1  # later calls hit the context's stored codebook
    assert raised[0] is not raised[1] and raised[1] is not raised[2]
    # Every other message of either sender comes from the same two codebooks,
    # one per (component, context): u is the only context.
    for msgs in itertools.product(*(all_messages(code, i) for i in range(2))):
        try:
            encode_components(code, msgs)
        except EmptyCosetError:
            pass
    assert len(calls) == 2


def test_unreachable_check_syndrome_builds_decoder_once(monkeypatch):
    code = with_unreachable_check_syndrome(private_binary_with_u())
    builds = counting(monkeypatch, "MinDivDecoder")
    res = simulate_error(code, 30, SEED, ("compiled", "unreachable"))
    assert res.stage_counts[scenarios.STAGE_EMPTY] == res.errors == 30
    assert len(builds) == 1
    with pytest.raises(AllCosetsEmptyError):
        decode_components(code, np.zeros(code.n, dtype=np.int64))


def assert_freed_after_simulation(make):
    """Reference counting alone frees the code make() builds, once simulate_error is done.

    Nothing the code stores may point back at it (a stored exception's
    traceback would, through the frames of the trials that raised it).
    """
    code = make()
    gc.collect()
    gc.disable()
    try:
        res = simulate_error(code, 40, SEED, ("compiled", "weakref"))
        assert res.stage_counts[scenarios.STAGE_EMPTY] > 1
        ref = weakref.ref(code)
        del code
        assert ref() is None
    finally:
        gc.enable()


def test_code_is_freed_after_simulation():
    assert_freed_after_simulation(lambda: with_empty_coset(private_binary_with_u()))


def test_unreachable_check_syndrome_stores_no_codebook(monkeypatch):
    # Without a decoder there is no coset: every encode raises a fresh
    # EmptyCosetError from _fill, and no codebook is stored.
    code = with_unreachable_check_syndrome(private_binary_with_u())
    msgs = [np.zeros(mm.rows, dtype=np.int64) for mm in code.message_maps]
    calls = counting(monkeypatch, "_fill")
    raised = []
    for _ in range(3):
        with pytest.raises(EmptyCosetError, match="unreachable") as err:
            encode_components(code, msgs)
        raised.append(err.value)
    assert len(calls) == 3
    assert raised[0] is not raised[1] and raised[1] is not raised[2]
    assert code.codebooks == ({}, {})
    assert_freed_after_simulation(
        lambda: with_unreachable_check_syndrome(private_binary_with_u()))


@st.composite
def term_table_cases(draw):
    """A two-sender model with some zero-mass cells, and random candidate cells."""
    n = draw(st.integers(1, 12))
    weights = draw(st.lists(st.integers(0, 3), min_size=12, max_size=12))
    weights[draw(st.integers(0, 11))] = 1  # some mass
    model = np.array(weights, dtype=float).reshape(2, 2, 3)
    model /= model.sum()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.integers(12, size=(draw(st.integers(1, 6)), n))
    return n, model, cells


@settings(max_examples=100, deadline=None)
@given(term_table_cases())
def test_term_table_scores_equal_kernel(case):
    n, model, cells = case
    check = LinearLabel(FieldSpec(2), np.eye(n, dtype=np.int64)[:max(0, n - 3)])
    dec = MinDivDecoder([check] * 2, [np.zeros(check.rows, dtype=np.int64)] * 2, model,
                        u=None)
    counts = np.stack([np.bincount(c, minlength=12) for c in cells])
    got, rows = dec._divergences(counts.copy())
    want = _divergence_from_counts(counts, _log2_denom(n * model.ravel())[None, :], n)
    assert np.array_equal(got, want)
    assert np.array_equal(rows - dec._term_rows, counts)  # the count rows exact keys read


def fraction_key(counts, denoms):
    """The exact key as a product of Fractions, cell by cell."""
    key = Fraction(1)
    for c, den in zip(counts, denoms):
        c = int(c)
        if c == 0:
            continue
        if den == 0:
            return None
        key *= Fraction(c, 1) ** c / Fraction(den) ** c
    return key


@st.composite
def exact_key_cases(draw):
    k = draw(st.integers(1, 8))
    counts = draw(st.lists(st.integers(0, 12), min_size=k, max_size=k))
    n = max(1, sum(counts))
    # Dyadic probabilities, as every float is; zero mass in some cells.
    denoms = [n * Fraction(draw(st.integers(0, 64)), 2 ** draw(st.integers(0, 60)))
              for _ in range(k)]
    return counts, denoms


def integer_key(counts, denoms):
    """_exact_key of counts over cells of expected counts denoms, from their integer powers."""
    ratios = tuple((d.numerator, d.denominator) for d in denoms)
    return _exact_key(counts, _key_powers(ratios, max(counts)))


@settings(max_examples=300, deadline=None)
@given(exact_key_cases())
def test_integer_exact_key_equals_fraction_product(case):
    counts, denoms = case
    num, den = integer_key(counts, denoms)
    want = fraction_key(counts, denoms)
    assert (den == 0) == (want is None)
    assert want is None or Fraction(num, den) == want


@st.composite
def exact_key_rows(draw):
    """Several count rows over the same cells, some of equal key or of infinite key."""
    counts, denoms = draw(exact_key_cases())
    rows = draw(st.lists(st.permutations(counts).map(list), min_size=1, max_size=6))
    return rows + draw(st.lists(st.sampled_from(rows), max_size=3)), denoms


@settings(max_examples=300, deadline=None)
@given(exact_key_rows())
def test_cross_multiplied_key_order_equals_fraction_order(case):
    rows, denoms = case
    keys = [integer_key(c, denoms) for c in rows]
    want = [fraction_key(c, denoms) for c in rows]
    for (an, ad), a in zip(keys, want):
        for (bn, bd), b in zip(keys, want):
            if a is not None and b is not None:
                assert (an * bd < bn * ad) == (a < b)
    finite = [k for k in want if k is not None]
    assert _least_key(keys) == (want.index(min(finite)) if finite else 0)
