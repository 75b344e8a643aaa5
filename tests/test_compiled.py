"""The per-code encoder tables and compiled decoder against one-shot calls."""

import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

from hashmac import rng as rng_mod
from hashmac import scenarios
from hashmac.channel import Dmc
from hashmac.codec import (AllCosetsEmptyError, CosetSpec, EmptyCosetError,
                           EncodeTarget, min_div_decode, min_div_encode)
from hashmac.gf import LinearLabel, all_vectors
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
        try:
            code.decoder
        except AllCosetsEmptyError:
            continue
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


def all_messages(code, i):
    mm = code.message_maps[i]
    return all_vectors(mm.field.q, mm.rows)


def one_shot(code, i, m, given):
    cs = CosetSpec(code.checks[i], code.message_maps[i], code.syndromes[i], m)
    target = (EncodeTarget.for_marginal(code.ctx_law) if given is None
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
    x0 = one_shot(code, 0, msgs[0], None)
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
    check_encoder(superposition(), encode_components, expected_superposition)


def random_outputs(code, count):
    rng = rng_mod.stream(SEED, "compiled", "y")
    return [rng.integers(code.dmc.output_size, size=code.n) for _ in range(count)]


@pytest.mark.parametrize("make", [private_binary_with_u, private_ternary])
def test_private_compiled_decoder_matches_one_shot(make):
    code = make()
    for y in random_outputs(code, 50):
        _, got = decode_components(code, y)
        want = min_div_decode(code.checks, code.syndromes, y, code.law.table, u=code.u)
        assert all((g == w).all() for g, w in zip(got, want))


def test_superposition_compiled_decoder_matches_one_shot():
    code = superposition()
    for y in random_outputs(code, 50):
        _, got = decode_components(code, y)
        want = min_div_decode(code.checks, code.syndromes, y, code.law.table)
        assert all((g == w).all() for g, w in zip(got, want))


def with_empty_coset(code):
    """The same code with sender 0's message map equal to its first check row.

    Then every message whose bit differs from that syndrome bit has an empty
    coset.  dataclasses.replace gives a new instance with empty tables.
    """
    mm = code.message_maps[0]
    row = code.checks[0].matrix[:1]
    maps = (LinearLabel(mm.field, row),) + code.message_maps[1:]
    return dataclasses.replace(code, message_maps=maps)


def test_empty_coset_raises_fresh_error_every_call(monkeypatch):
    code = with_empty_coset(private_binary_with_u())
    bad = [np.array([1 - code.syndromes[0][0]]),
           np.zeros(code.message_maps[1].rows, dtype=np.int64)]
    calls = []
    orig = scenarios.min_div_encode

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(scenarios, "min_div_encode", counted)
    raised = []
    for _ in range(3):
        with pytest.raises(EmptyCosetError) as err:
            encode_components(code, bad)
        raised.append(err.value)
    assert len(calls) == 1  # later calls hit the stored empty entry
    assert raised[0] is not raised[1] and raised[1] is not raised[2]


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
