"""The per-code encoder tables and compiled decoder against one-shot calls."""

import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hashmac import rng as rng_mod
from hashmac import scenarios
from hashmac.channel import Dmc
from hashmac.codec import (AllCosetsEmptyError, CosetSpec, EmptyCosetError, EncodeTarget,
                           MinDivDecoder, _exact_key, min_div_decode, min_div_encode)
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
    cs = CosetSpec(code.checks[i], code.message_maps[i], code.syndromes[i], m)
    target = (EncodeTarget.for_marginal(code.ctx_law, code.n) if given is None
              else EncodeTarget.for_conditional(code.cond_inputs[i], given))
    try:
        return min_div_encode(cs, target)
    except EmptyCosetError:
        return None


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


def random_outputs(code, count):
    rng = rng_mod.stream(SEED, "compiled", "y")
    return [rng.integers(code.dmc.output_size, size=code.n) for _ in range(count)]


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


def counting(monkeypatch, name):
    """Replace scenarios.<name> by a wrapper that records each call."""
    calls = []
    orig = getattr(scenarios, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(scenarios, name, counted)
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
    assert len(calls) == 1  # later calls hit the stored empty entry
    assert raised[0] is not raised[1] and raised[1] is not raised[2]


def test_unreachable_check_syndrome_builds_decoder_once(monkeypatch):
    # Sender 1's check repeats a row with two different syndrome bits.
    code = private_binary_with_u()
    chk = code.checks[1]
    checks = code.checks[:1] + (LinearLabel(chk.field, chk.matrix[[0, 0]]),)
    syndromes = code.syndromes[:1] + (np.array([0, 1]),)
    code = dataclasses.replace(code, checks=checks, syndromes=syndromes)
    builds = counting(monkeypatch, "MinDivDecoder")
    res = simulate_error(code, 30, SEED, ("compiled", "unreachable"))
    assert res.stage_counts[scenarios.STAGE_EMPTY] == res.errors == 30
    assert len(builds) == 1
    with pytest.raises(AllCosetsEmptyError):
        decode_components(code, np.zeros(code.n, dtype=np.int64))


def test_code_is_freed_after_simulation():
    # Reference counting alone must free the code: nothing it stores may
    # point back at it (a stored exception's traceback would, through the
    # frames of the trials that raised it).
    code = with_empty_coset(private_binary_with_u())
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
    dec = MinDivDecoder([check] * 2, [np.zeros(check.rows, dtype=np.int64)] * 2, model)
    m = cells.shape[0]
    counts = np.stack([np.bincount(c, minlength=12) for c in cells])
    shifted = cells + (np.arange(m) * 12)[:, None]
    got = dec._divergences(shifted, np.zeros(n, dtype=np.int64))
    want = _divergence_from_counts(counts, _log2_denom(n * model.ravel())[None, :], n)
    assert np.array_equal(got, want)


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


@settings(max_examples=300, deadline=None)
@given(exact_key_cases())
def test_integer_exact_key_equals_fraction_product(case):
    counts, denoms = case
    assert _exact_key(counts, denoms) == fraction_key(counts, denoms)
