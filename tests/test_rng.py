"""The lab's Philox streams against numpy's Generator(Philox(SeedSequence)) as the oracle."""

import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashmac import rng as rng_mod
from hashmac.rng import stream, trial_draws

# Seeds: zero, one word, two words, and values `stream` masks to 64 bits.
SEEDS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                  st.integers(-2**70, -1), st.integers(2**64, 2**80))
PARTS = st.one_of(st.text(max_size=6), st.integers(0, 9), st.integers(2**32, 2**96))
PATHS = st.lists(PARTS, max_size=4).map(tuple)
COUNTS = st.one_of(st.just(0), st.just(1), st.integers(2, 40))
ROOT = pathlib.Path(__file__).resolve().parent.parent


def numpy_stream(seed, *path):
    ss = np.random.SeedSequence(entropy=seed & (2**64 - 1),
                                spawn_key=tuple(rng_mod._as_key(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


# numpy's forms of the draws a Stream offers that a Generator does not.
NUMPY_FORMS = {"random_raw": lambda g, size: g.bit_generator.random_raw(size).tolist(),
               "bounded": lambda g, top, count: g.integers(0, top + 1, size=count).tolist(),
               "doubles": lambda g, count: g.random(count).tolist()}


def _call(g, name, *args):
    if isinstance(g, np.random.Generator) and name in NUMPY_FORMS:
        return NUMPY_FORMS[name](g, *args)
    return getattr(g, name)(*args)


def _draws(g):
    """Draws over every path of the stream, ending with half a word kept."""
    return (g.integers(0, 3, size=5).tolist(), g.integers(0, 2**40, size=2).tolist(),
            g.random(3).tolist(), g.integers(0, 2, size=2).tolist(), _call(g, "random_raw", 2))


def _same(got, want):
    """The same values, dtype and shape; an int or float stands for numpy's scalar."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tolist()) == (want.dtype, want.shape, want.tolist())


def _run(g, calls):
    return [_call(g, name, *args) for name, *args in calls]


SIZES = st.one_of(st.none(), st.integers(0, 7), st.just((2, 3)), st.just((0, 3)))
# Ranges of 2^31 + 1 and 2^63 + 1 values reject about half their draws; 2^32
# and 2^64 values take whole halves and words with no rejection at all.
BOUNDS = st.one_of(st.sampled_from([(0, 2), (0, 3), (0, 5), (0, 2**40), (7, 8), (0, 2**31 + 1),
                                    (-2**62, 2**62 + 1), (0, 2**32), (-2**63, 2**63)]),
                   st.tuples(st.integers(-5, 5), st.integers(1, 100)).map(
                       lambda t: (t[0], t[0] + t[1])))


@st.composite
def choices(draw):
    a = draw(st.one_of(st.integers(1, 30), st.lists(st.floats(-1, 1), min_size=1, max_size=8)))
    pop = a if isinstance(a, int) else len(a)
    if draw(st.booleans()):
        size = draw(st.one_of(st.none(), st.integers(0, pop), st.just((1, min(pop, 2)))))
        return ("choice", a, size, False, None)
    weights = np.array(draw(st.lists(st.integers(0, 9), min_size=pop, max_size=pop))) + 0.5
    p = draw(st.one_of(st.none(), st.just(weights / weights.sum())))
    return ("choice", a, draw(SIZES), True, p)


CALLS = st.one_of(
    st.tuples(st.just("integers"), BOUNDS, SIZES).map(lambda t: (t[0], *t[1], t[2])),
    st.tuples(st.just("random"), st.one_of(SIZES, st.just((1024, 3)))),
    choices(),
    st.tuples(st.just("random_raw"), st.integers(0, 6)),
    st.tuples(st.just("bounded"), st.sampled_from([0, 1, 2, 4, 2**31, 2**32 - 1, 2**32, 2**63 - 1]),
              st.integers(0, 7)),
    st.tuples(st.just("doubles"), st.integers(0, 7)))


@settings(max_examples=200, deadline=None)
@given(SEEDS, PATHS, st.lists(CALLS, max_size=8))
def test_stream_draws_equal_numpy(seed, path, calls):
    # The trailing draws show any difference in the kept half word or the word position.
    calls = calls + [("integers", 0, 3, None), ("random_raw", 3)]
    got, want = _run(stream(seed, *path), calls), _run(numpy_stream(seed, *path), calls)
    for call, a, b in zip(calls, got, want):
        assert _same(a, b), call


@pytest.mark.parametrize("calls", [
    # A half word kept by a scalar draw opens the next array draw.
    [("integers", 0, 3, None), ("integers", 0, 3, 4), ("integers", 0, 5, (2, 3))],
    # ... and outlives whole-word draws between them.
    [("integers", 0, 2, 1), ("random", None), ("integers", 0, 2**40, 2), ("integers", 0, 3, 2)],
    # Rejections, on halves and on whole words.
    [("integers", 0, 2**31 + 1, 9), ("integers", 5, 2**31 + 6, None),
     ("integers", -2**62, 2**62 + 1, 9), ("integers", 0, 3, 1)],
    # The whole 32- and 64-bit ranges.
    [("integers", 0, 2**32, 3), ("integers", -2**63, 2**63, 3), ("integers", 0, 2**32, None)],
    # A one-value range and an empty size draw nothing.
    [("integers", 7, 8, 5), ("integers", 0, 3, 0), ("integers", 0, 3, None)],
    [("random", (1024, 3)), ("integers", -3, 4, None)],
    # Array draws that refill after unread words, and one that reads them.
    [("random_raw", 5), ("random", (1024, 3)), ("random", (700, 3)), ("random", (1, 3)),
     ("integers", 0, 3, 3)],
    # The list forms keep and use the kept half word as the array draws do.
    [("bounded", 2, 3), ("integers", 0, 3, 2), ("bounded", 4, 1), ("doubles", 2), ("bounded", 2, 2),
     ("bounded", 2**31, 5)],
    [("choice", 10, 4, False, None), ("choice", ["a", "b", "c"], None, True, None),
     ("choice", 3, 6, True, np.array([0.25, 0.25, 0.5]))],
    # Floyd's sampling up to numpy's tail-shuffle cutoff.
    [("choice", 20000, 400, False, None), ("choice", 10000, 10000, False, None)],
])
def test_named_call_sequences_equal_numpy(calls):
    calls = calls + [("integers", 0, 3, None), ("random_raw", 3)]
    got, want = _run(stream(11, "named"), calls), _run(numpy_stream(11, "named"), calls)
    for call, a, b in zip(calls, got, want):
        assert _same(a, b), call


@settings(max_examples=100, deadline=None)
@given(SEEDS, PATHS, st.integers(0, 5), st.integers(0, 6), st.lists(CALLS, max_size=6))
def test_streams_equal_stream(seed, path, count, blocks, calls):
    # Within the blocks made ahead and past them: the last call reads every
    # made word and more.  Ranges of 2^31 + 1 values reject about half their
    # draws; a q = 3 draw (a range of 3) is rejected too rarely to be drawn.
    calls = [("bounded", 2, 5)] + calls + [("integers", 0, 3, None), ("random_raw", 4 * blocks + 3),
                                           ("bounded", 2**31, 9), ("bounded", 2, 9)]
    made = list(rng_mod.streams(seed, path, count, blocks))
    assert len(made) == count and all(g.made == blocks for g in made)
    for t, g in enumerate(made):
        want = _run(stream(seed, *path, t), calls)
        for call, a, b in zip(calls, _run(g, calls), want):
            assert _same(a, b), (t, call)


def test_streams_that_reject_draw_past_their_blocks_as_stream_does():
    # A stream made ahead with exactly the blocks of a draw without rejections:
    # the rejected halves of ranges of 2^31 + 1 values push its draws past them.
    made = list(rng_mod.streams(3, ("ahead",), 4, 2))
    for t, g in enumerate(made):
        want = stream(3, "ahead", t)
        assert g.bounded(2**31, 16) == want.bounded(2**31, 16)
        assert g.made > 2 and g.doubles(3) == want.doubles(3)


def test_refills_make_read_ahead_blocks_without_moving_a_draw(monkeypatch):
    # Every block a stream holds comes from its passes, counter after counter,
    # and each refill is one pass of max(blocks short, _READ_AHEAD) blocks.
    passes, blocks = [], rng_mod._blocks

    def spy(k0, k1, first, count):
        passes.append((first, count))
        return blocks(k0, k1, first, count)

    monkeypatch.setattr(rng_mod, "_blocks", spy)
    g, want = stream(7, "ahead"), numpy_stream(7, "ahead")
    drawn = 0
    # Words a few at a time, then draws of fewer and more than _READ_AHEAD blocks.
    for size in [1] * 40 + [3] * 1500 + [1100, 5, 4 * 600]:
        made, before = g.made, len(passes)
        short = -(-(drawn + size - 4 * made) // 4)  # blocks this draw reads past those made
        assert g.random_raw(size) == want.bit_generator.random_raw(size).tolist()
        drawn += size
        assert passes[before:] == ([(made + 1, max(short, rng_mod._READ_AHEAD))] if short > 0
                                   else [])
    # The first 1 135 blocks, drawn a few words at a time, take 5 passes.
    assert len(passes) == 7 and g.made == sum(count for _, count in passes)


def test_drawn_counts_the_blocks_read():
    g = stream(7, "drawn")
    assert (g.made, g.drawn) == (0, 0)
    g.bounded(2, 1)  # reads a word and keeps its high half
    assert (g.made, g.drawn) == (rng_mod._READ_AHEAD, 1)
    g.bounded(2, 1)  # the kept half reads no word
    g.random_raw(3)  # the rest of block 1
    assert g.drawn == 1
    g.random_raw(1)  # a block partly read counts as drawn
    assert g.drawn == 2
    g.random_raw(4 * rng_mod._READ_AHEAD - 5)  # to the last word made
    assert (g.made, g.drawn) == (rng_mod._READ_AHEAD, rng_mod._READ_AHEAD)
    g.random_raw(1)  # a refill
    assert (g.made, g.drawn) == (2 * rng_mod._READ_AHEAD, rng_mod._READ_AHEAD + 1)
    # A stream made ahead holds blocks it has not drawn.
    g = next(rng_mod.streams(7, ("drawn",), 1, 3))
    assert (g.made, g.drawn) == (3, 0)
    g.random_raw(5)
    assert g.drawn == 2
    g.random_raw(7)
    assert (g.made, g.drawn) == (3, 3)
    g.random_raw(1)
    assert (g.made, g.drawn) == (3 + rng_mod._READ_AHEAD, 4)


def test_choice_past_the_tail_shuffle_cutoff_is_not_offered():
    with pytest.raises(NotImplementedError):
        stream(11, "named").choice(20000, 401, False, None)
    with pytest.raises(NotImplementedError):
        stream(11, "named").choice(3, 2, False, np.array([0.25, 0.25, 0.5]))


@settings(max_examples=60, deadline=None)
@given(SEEDS, PATHS, COUNTS, st.integers(1, 3))
def test_trial_keys_equal_seed_sequence(seed, path, count, paths):
    # One hash pass keys every trial of every path; a candidate index is
    # the word where the paths differ.
    spawn = tuple(rng_mod._as_key(p) for p in path)
    k0, k1 = rng_mod._trial_keys(seed, [(*path, c) for c in range(paths)], count)
    assert len(k0) == len(k1) == paths * count
    for i, (a, b) in enumerate(zip(k0.tolist(), k1.tolist())):
        c, t = divmod(i, count)
        ss = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=spawn + (c, t))
        assert (a, b) == tuple(ss.generate_state(2, np.uint64).tolist())
        assert stream(seed, *path, c, t)._key == (a, b)


def test_trial_keys_need_paths_of_one_word_count():
    with pytest.raises(ValueError, match="same number of words"):
        rng_mod._trial_keys(3, [("a", 1), ("a", 2**40)], 2)


def _scalar_draws(g, runs, n):
    """The draws trial_draws reads from a trial's stream g, one call at a time."""
    return [d for top, c in runs for d in g.bounded(top, c)], g.doubles(n)


def _stacked(pieces):
    pieces = list(pieces)
    return (np.concatenate([d for d, _ in pieces]), np.concatenate([u for _, u in pieces]),
            [len(d) for d, _ in pieces])


# Mixed fields in one trial (q = 2, 3, 5), runs with no digits, a one-value
# range, and an odd digit count, whose kept half the doubles skip.
MIXED_RUNS = [(1, 3), (2, 4), (4, 5), (0, 2), (2, 0), (1, 1)]


@pytest.mark.parametrize("count", [1, 1023, 1024, 1025])
def test_trial_draws_equal_stream(count):
    n = 3
    paths = [("draws", 5, c) for c in range(2)]
    digits, doubles, sizes = _stacked(trial_draws(11, paths, count, MIXED_RUNS, n))
    assert digits.dtype == np.int64 and doubles.dtype == np.float64
    assert digits.shape == (2 * count, 15) and doubles.shape == (2 * count, n)
    # Pieces hold at most one chunk and one path's trials only.
    assert max(sizes) <= rng_mod._CHUNK
    assert np.cumsum(sizes).tolist()[-1] == 2 * count and count in np.cumsum(sizes).tolist()
    for i in range(2 * count):
        c, t = divmod(i, count)
        want_digits, want_doubles = _scalar_draws(stream(11, *paths[c], t), MIXED_RUNS, n)
        assert digits[i].tolist() == want_digits, (c, t)
        assert doubles[i].tolist() == want_doubles, (c, t)


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.lists(st.tuples(st.sampled_from([0, 1, 2, 4, 6, 2**31, 2**32 - 1]),
                                 st.integers(0, 9)), max_size=4), st.integers(0, 5))
def test_trial_draws_start_each_trial_fresh(seed, runs, n):
    # An odd digit count keeps half a word; each trial still starts from its
    # own stream, and ranges of 2^31 + 1 values reject about half their halves.
    digits, doubles, _ = _stacked(trial_draws(seed, [("fresh",)], 5, runs, n))
    for t in range(5):
        want_digits, want_doubles = _scalar_draws(stream(seed, "fresh", t), runs, n)
        assert digits[t].tolist() == want_digits
        assert doubles[t].tolist() == want_doubles


@pytest.mark.parametrize("at", [0, 3, 5])
def test_rejected_half_is_drawn_again_by_the_stream(at):
    # For q = 3 the threshold (2^32 - 3) mod 3 is 1, so a zero half is
    # rejected.  A planted zero at digit `at` of six (the first, a middle or
    # the last) pushes the draws one half on, so the doubles start a word
    # later and read past the two blocks made ahead.
    runs, n = [(2, 6)], 5
    k0, k1 = rng_mod._trial_keys(5, [("planted",)], 3)
    words = rng_mod._blocks(k0, k1, 1, 2)  # 6 / 2 + 5 words, in 2 blocks
    planted = words.copy()
    planted[1, at // 2] &= np.uint64(2**32 - 1) << np.uint64(32) if at % 2 == 0 else \
        np.uint64(2**32 - 1)
    digits, doubles = rng_mod._chunk_draws(k0, k1, planted, runs, n)
    for t in range(3):
        key = (int(k0[t]), int(k1[t]))
        want = _scalar_draws(rng_mod.Stream(key, planted[t].tolist()), runs, n)
        assert (digits[t].tolist(), doubles[t].tolist()) == want, t
    # The planted trial differs from its unplanted draws: one more half was read.
    plain = _scalar_draws(rng_mod.Stream((int(k0[1]), int(k1[1])), words[1].tolist()), runs, n)
    assert doubles[1].tolist() != plain[1]


def test_trial_draws_take_32_bit_ranges():
    with pytest.raises(ValueError):
        trial_draws(3, [()], 2, [(2**32, 1)], 1)


@pytest.mark.parametrize("part, err", [(-1, ValueError), (1.5, TypeError),
                                       (None, TypeError), (b"x", TypeError)])
def test_bad_path_part_raises_like_stream(part, err):
    with pytest.raises(err) as want:
        stream(3, "a", part)
    with pytest.raises(err) as got:
        trial_draws(3, [("a", part)], 2, [(1, 4)], 1)
    assert str(got.value) == str(want.value)


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        trial_draws(3, [()], -1, [(1, 4)], 1)


def test_package_never_names_numpy_random():
    for path in sorted((ROOT / "src" / "hashmac").glob("*.py")):
        assert not re.search(r"np\.random|numpy\.random", path.read_text()), path.name


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "perfbench/configs/trend.json", "--out", "{tmp}/trend.csv"],
    ["verify", "--suite", "all"]])
def test_runs_never_import_numpy_random(argv, tmp_path):
    # Importing numpy's random module loads OpenSSL too, about 5 MB of a run's peak RSS.
    script = ("import sys\nfrom hashmac.cli import main\nrc = main(sys.argv[1:])\n"
              "print('numpy.random' in sys.modules)\nsys.exit(rc)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", script, *(a.format(tmp=tmp_path) for a in argv)],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"
