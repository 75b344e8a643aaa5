import numpy as np
import pytest

from hashmac import rng as rng_mod
from hashmac.channel import Dmc, deterministic_dmc, sample_channel


def test_xor_channel_is_componentwise():
    dmc = deterministic_dmc((2, 2), 2, lambda a, b: (a + b) % 2)
    x1 = np.array([0, 1, 1, 0])
    x2 = np.array([1, 1, 0, 0])
    y = sample_channel(dmc, [x1, x2], rng_mod.stream(1))
    assert y.tolist() == [1, 0, 1, 0]


def test_adder_channel_example():
    dmc = deterministic_dmc((2, 2), 3, lambda a, b: a + b)
    y = sample_channel(dmc, [np.array([0, 1]), np.array([1, 1])], rng_mod.stream(2))
    assert y.tolist() == [1, 2]


def test_uniform_noise_channel_chi_square():
    table = np.full((2, 2, 4), 0.25)
    dmc = Dmc((2, 2), 4, table)
    n = 100_000
    y = sample_channel(dmc, [np.zeros(n, int), np.ones(n, int)], rng_mod.stream(3))
    counts = np.bincount(y, minlength=4)
    expected = n / 4
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 25  # df=3; generous beyond the 0.999 quantile


def test_alphabet_mismatch_rejected():
    dmc = deterministic_dmc((2, 2), 3, lambda a, b: a + b)
    with pytest.raises(ValueError):
        sample_channel(dmc, [np.array([0, 2]), np.array([0, 1])], rng_mod.stream(4))
    with pytest.raises(ValueError):
        sample_channel(dmc, [np.array([0, 1])], rng_mod.stream(4))


def test_table_rows_validated():
    bad = np.full((2, 2, 2), 0.4)
    with pytest.raises(ValueError):
        Dmc((2, 2), 2, bad)


def test_sampling_replays_deterministically():
    table = np.array([[[0.5, 0.5], [0.25, 0.75]], [[0.75, 0.25], [1.0, 0.0]]])
    dmc = Dmc((2, 2), 2, table)
    xs = [np.array([0, 1, 1, 0, 1]), np.array([1, 1, 0, 0, 1])]
    a = sample_channel(dmc, xs, rng_mod.stream(7, "c"))
    b = sample_channel(dmc, xs, rng_mod.stream(7, "c"))
    assert (a == b).all()


def test_input_checks_name_the_fault():
    dmc = deterministic_dmc((2, 3), 6, lambda a, b: 3 * a + b)
    rng = rng_mod.stream(5)
    for xs, match in (([np.array([0, 1]), np.array([0, 3])], "sender 1 symbol"),
                      ([np.array([0, -1]), np.array([0, 1])], "sender 0 symbol"),
                      ([np.array([0, 1]), np.array([-2, 1])], "sender 1 symbol"),
                      ([np.array([0, 1]), np.array([0, 1, 2])], "length mismatch"),
                      ([np.array([0, 1])] * 3, "expected 2 input sequences")):
        with pytest.raises(ValueError, match=match):
            sample_channel(dmc, xs, rng)
    assert sample_channel(dmc, [np.array([1, 0]), np.array([2, 0])], rng).tolist() == [5, 0]


class _Uniforms:
    """An rng stand-in whose every uniform is `value`."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


@pytest.mark.parametrize("row", [[0.3, 0.7 - 1e-13], [0.3, 0.7 - 1e-13, 0.0]])
def test_uniform_near_one_stays_in_the_alphabet(row):
    # The row sums just under 1, so its plain cumulative sum ends under 1,
    # and a trailing zero-mass symbol must stay unreachable.
    dmc = Dmc((1, 1), len(row), np.array([[row]]))
    assert dmc.cdf[0, 1:].tolist() == [1.0] * (len(row) - 1)
    y = sample_channel(dmc, [np.zeros(3, int)] * 2, _Uniforms(0.99999999999999))
    assert y.tolist() == [1, 1, 1]
    assert sample_channel(dmc, [np.zeros(3, int)] * 2, _Uniforms(0.0)).tolist() == [0, 0, 0]


def test_dyadic_cdf_is_the_plain_cumulative_sum():
    table = np.array([[[0.875, 0.0625, 0.0625], [0.0625, 0.875, 0.0625]],
                      [[0.0625, 0.875, 0.0625], [0.0625, 0.0625, 0.875]]])
    dmc = Dmc((2, 2), 3, table)
    assert np.array_equal(dmc.cdf, np.cumsum(table, axis=-1).reshape(4, 3))
    assert dmc.cdf_rows == tuple(map(tuple, dmc.cdf.tolist()))
