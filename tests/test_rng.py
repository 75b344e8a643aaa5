import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashmac import rng as rng_mod
from hashmac.rng import stream, trial_streams

# Seeds: zero, one word, two words, and values `stream` masks to 64 bits.
SEEDS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                  st.integers(-2**70, -1), st.integers(2**64, 2**80))
PARTS = st.one_of(st.text(max_size=6), st.integers(0, 9), st.integers(2**32, 2**96))
PATHS = st.lists(PARTS, max_size=4).map(tuple)
COUNTS = st.one_of(st.just(0), st.just(1), st.integers(2, 40))


def _draws(g):
    """Draws over every path of the bit generator, ending with half a word buffered."""
    return (g.integers(3, size=5).tolist(), g.integers(2**40, size=2).tolist(),
            g.random(3).tolist(), g.integers(2, size=2).tolist())


@settings(max_examples=60, deadline=None)
@given(SEEDS, PATHS, COUNTS)
def test_trial_streams_equal_stream(seed, path, count):
    spawn = tuple(rng_mod._as_key(p) for p in path)
    t = -1
    for t, g in enumerate(trial_streams(seed, path, count)):
        ss = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=spawn + (t,))
        key = g.bit_generator.state["state"]["key"]
        assert key.tolist() == ss.generate_state(2, np.uint64).tolist()
        assert _draws(g) == _draws(stream(seed, *path, t))
    assert t == count - 1


def _fresh_state(g):
    st_ = g.bit_generator.state
    return (st_["state"]["counter"].tolist(), st_["state"]["key"].tolist(),
            st_["buffer_pos"], st_["has_uint32"], st_["uinteger"])


def test_rekeyed_generator_leaks_nothing_between_trials():
    # An odd-length draw of small ints leaves half of a 64-bit word
    # buffered; the next trial must start from its own fresh state.
    for t, g in enumerate(trial_streams(7, ("leak",), 4)):
        want = stream(7, "leak", t)
        assert _fresh_state(g) == _fresh_state(want)
        assert g.integers(2, size=3).tolist() == want.integers(2, size=3).tolist()
        assert g.bit_generator.state["has_uint32"] == 1


@pytest.mark.parametrize("part, err", [(-1, ValueError), (1.5, TypeError),
                                       (None, TypeError), (b"x", TypeError)])
def test_bad_path_part_raises_like_stream(part, err):
    with pytest.raises(err) as want:
        stream(3, "a", part)
    with pytest.raises(err) as got:
        trial_streams(3, ("a", part), 2)
    assert str(got.value) == str(want.value)


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        trial_streams(3, (), -1)
