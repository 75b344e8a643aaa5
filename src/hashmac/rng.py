"""Counter-based random streams with stable, order-independent stream ids.

A stream is Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC 2011), keyed by numpy's SeedSequence hash of (seed, *path),
and its draws are numpy's: `stream(seed, *path)` gives exactly the values of
`Generator(Philox(SeedSequence(seed, spawn_key=path)))` for the calls it
offers (`random_raw`, `integers`, `random` and `choice`; `bounded` and
`doubles` are the list forms of `integers` and `random`).  A seed is read
modulo 2^64, so this holds for seeds in [0, 2^64), which the CLI checks:
numpy rejects a negative seed and keys a larger one by all its words.
This module is the only one that knows numpy's draw rules.  The lab owns the
generator, rather than importing numpy's random module, because numpy does
not promise that a Generator's streams stay the same across versions, and a
lab's reruns must; that module also loads OpenSSL, about 5 MB of a run.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

# Sub-stream tags used by the harness: code construction, pilot runs,
# measurement runs.
BUILD, PILOT, MEASURE = 0, 1, 2

_M32, _M64 = 2**32 - 1, 2**64 - 1

# numpy's SeedSequence hash constants (pool of four uint32 words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# Philox4x64's multipliers and key increments (Weyl constants), and its rounds.
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10

# The same constants as numpy scalars, for the passes over uint64 arrays.
_U32, _U64_32 = np.uint64(_M32), np.uint64(32)
_U_M0, _U_M1 = np.uint64(_PHILOX_M0), np.uint64(_PHILOX_M1)
_U_W0, _U_W1 = np.uint64(_PHILOX_W0), np.uint64(_PHILOX_W1)

_TO_UNIT = 2.0**-53
# Trials whose leading blocks trial_draws makes in one numpy pass.
_CHUNK = 1024
# A stream makes this many blocks or more at once in one numpy pass: a pass
# costs about as much as 50 blocks made with ints.
_PASS_BLOCKS = 64
# Most blocks a stream reads ahead in one refill: a long stream makes its
# blocks a few passes' worth at a time, holding at most ~40 kB it has not drawn.
_READ_AHEAD = 4 * _PASS_BLOCKS


def _as_key(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"stream path parts must be non-negative, got {part}")
        return int(part)
    raise TypeError(f"stream path part must be int or str, got {type(part)!r}")


def _words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int, as SeedSequence splits it."""
    return [value >> s & _M32 for s in range(0, max(value.bit_length(), 1), 32)]


def _spawn_words(path) -> list[int]:
    return [w for p in path for w in _words(_as_key(p))]


# The hash below runs on ints, or on uint32 arrays once a word of the spawn
# key is an array; the hash constants never depend on the data, so they
# stay ints, and the masks are no-ops on arrays.

def _hashmix(value, h, mult=_MULT_A):
    """SeedSequence's hashmix: the hashed word and the next hash constant."""
    value = value ^ h
    h = h * mult & _M32
    value = value * h & _M32
    return value ^ (value >> 16), h


def _mix(x, y):
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ (r >> 16)


def _key(seed: int, spawn: list):
    """Philox key (k0, k1) of the SeedSequence of seed and a spawn key of uint32 words spawn.

    A word may be a uint32 array; the key is then a pair of uint64 arrays,
    one key per entry.  The seed's one or two words are padded to the
    pool size, as a spawn key makes SeedSequence do.
    """
    entropy = int(seed) & _M64
    h = _INIT_A
    pool = []
    for w in (entropy & _M32, entropy >> 32, 0, 0):
        v, h = _hashmix(w, h)
        pool.append(v)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    for w in spawn:
        for dst in range(4):
            v, h = _hashmix(w, h)
            pool[dst] = _mix(pool[dst], v)
    h = _INIT_B
    state = []
    for w in pool:
        v, h = _hashmix(w, h, _MULT_B)
        state.append(v.astype(np.uint64) if isinstance(v, np.ndarray) else v)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _block(counter: int, round_keys) -> list[int]:
    """The four words of the Philox block at counter, with round_keys from _round_keys.

    The counter's three upper words are zero: no stream reaches 2^64 blocks.
    """
    c0, c1, c2, c3 = counter, 0, 0, 0
    for k0, k1 in round_keys:
        p0 = _PHILOX_M0 * c0
        p1 = _PHILOX_M1 * c2
        c0, c1, c2, c3 = p1 >> 64 ^ c1 ^ k0, p1 & _M64, p0 >> 64 ^ c3 ^ k1, p0 & _M64
    return [c0, c1, c2, c3]


def _round_keys(key) -> tuple[tuple[int, int], ...]:
    k0, k1 = key
    return tuple(((k0 + r * _PHILOX_W0) & _M64, (k1 + r * _PHILOX_W1) & _M64)
                 for r in range(_ROUNDS))


def _mulhi(a: np.ndarray, m: np.uint64) -> np.ndarray:
    """High words of the 128-bit products a * m, from the 32-bit halves of a and m."""
    a0, a1 = a & _U32, a >> _U64_32
    m0, m1 = m & _U32, m >> _U64_32
    t = a0 * m0
    u = a1 * m0 + (t >> _U64_32)
    v = a0 * m1 + (u & _U32)
    return a1 * m1 + (u >> _U64_32) + (v >> _U64_32)


def _blocks(k0: np.ndarray, k1: np.ndarray, first: int, blocks: int) -> np.ndarray:
    """Blocks first to first + blocks - 1 of the stream of each key (k0[i], k1[i]).

    As in _block, the counters' upper words are zero.  Shape (len(k0), 4 * blocks), uint64.
    """
    c0 = np.broadcast_to(np.arange(first, first + blocks, dtype=np.uint64), (len(k0), blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    k0, k1 = k0[:, None], k1[:, None]
    for r in range(_ROUNDS):
        if r:
            k0, k1 = k0 + _U_W0, k1 + _U_W1
        c0, c1, c2, c3 = (_mulhi(c2, _U_M1) ^ c1 ^ k0, c2 * _U_M1,
                          _mulhi(c0, _U_M0) ^ c3 ^ k1, c0 * _U_M0)
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(len(k0), 4 * blocks)


def _shape(size) -> tuple:
    return tuple(size) if isinstance(size, (tuple, list)) else (size,)


class Stream:
    """One Philox4x64-10 stream with numpy Generator's draws on it.

    Made fresh: counter 0, nothing buffered, or holding its first whole
    blocks already made (`streams`, or a trial that `trial_draws` draws
    again).  Blocks are made as draws need them, and a refill reads ahead,
    doubling what the stream has made, up to _READ_AHEAD blocks: with ints,
    or in one numpy pass for _PASS_BLOCKS or more.  No draw moves with what
    is made ahead.  A 32-bit draw takes the low half of a word and keeps
    the high half for the next 32-bit draw, as numpy does; 64-bit draws do
    not touch a kept half.
    """

    __slots__ = ("_key", "_round_keys", "made", "_words", "_pos", "_half")

    def __init__(self, key: tuple[int, int], words: list[int]):
        self._key = key
        self._round_keys = None
        self.made = len(words) // 4  # blocks made so far, drawn or not
        self._words = words  # words made, read up to _pos
        self._pos = 0
        self._half = None

    def _make(self, need: int) -> None:
        """Make blocks until `need` words are unread."""
        words = self._words[self._pos:]
        more = max(-(-(need - len(words)) // 4), min(self.made, _READ_AHEAD))
        if more >= _PASS_BLOCKS:
            k0, k1 = (np.array([k], dtype=np.uint64) for k in self._key)
            words += _blocks(k0, k1, self.made + 1, more)[0].tolist()
        else:
            if self._round_keys is None:
                self._round_keys = _round_keys(self._key)
            for counter in range(self.made + 1, self.made + more + 1):
                words += _block(counter, self._round_keys)
        self.made += more
        self._words, self._pos = words, 0

    def random_raw(self, size: int) -> list[int]:
        """The next `size` raw 64-bit words, as ints."""
        if len(self._words) - self._pos < size:
            self._make(size)
        pos = self._pos
        self._pos = pos + size
        return self._words[pos:pos + size]

    def _halves(self, count: int) -> list[int]:
        """The next `count` 32-bit draws: a kept half first, then words low half first."""
        out = []
        if self._half is not None and count:
            out.append(self._half)
            self._half, count = None, count - 1
        for word in self.random_raw((count + 1) // 2):
            out += (word & _M32, word >> 32)
        if count & 1:
            self._half = out.pop()
        return out

    def bounded(self, top: int, count: int) -> list[int]:
        """count draws in [0, top]: numpy's random_bounded_uint64_fill, Lemire's method.

        A range up to 2^32 - 1 draws on 32-bit halves, a larger one on whole
        words.  A draw whose low product is under (2^b - top - 1) mod (top + 1)
        is rejected, and the draw takes the next value.  A one-value range
        draws nothing.
        """
        if top == 0:
            return [0] * count
        take, bits, mask = (self._halves, 32, _M32) if top <= _M32 else (self.random_raw, 64, _M64)
        span = top + 1
        reject = (mask - top) % span
        out = []
        while len(out) < count:  # each value taken either ends a draw or is rejected
            for v in take(count - len(out)):
                m = v * span
                if m & mask >= reject:
                    out.append(m >> bits)
        return out

    def integers(self, low, high, size):
        """Generator.integers: int64 draws in [low, high); size None draws an int."""
        low, high = int(low), int(high) - 1
        if low > high:
            raise ValueError("low >= high")
        if low < -2**63 or high >= 2**63:
            raise ValueError("bounds out of int64 range")
        if size is None:
            return low + self.bounded(high - low, 1)[0]
        shape = _shape(size)
        draws = self.bounded(high - low, math.prod(shape))
        return np.array([low + d for d in draws] if low else draws, dtype=np.int64).reshape(shape)

    def doubles(self, count: int) -> list[float]:
        """count draws in [0, 1): numpy's doubles (w >> 11) * 2^-53 of whole words."""
        return [(w >> 11) * _TO_UNIT for w in self.random_raw(count)]

    def random(self, size):
        """Generator.random, as doubles does it; size None draws a float."""
        if size is None:
            return self.doubles(1)[0]
        # An array is made by the same rule in one numpy pass: about 4x
        # faster than a list from doubles at verify's 3 072 doubles a call.
        shape = _shape(size)
        words = np.array(self.random_raw(math.prod(shape)), dtype=np.uint64)
        return ((words >> 11) * _TO_UNIT).reshape(shape)

    def choice(self, a, size, replace, p):
        """Generator.choice on axis 0, shuffled; p only with replace."""
        pool = np.asarray(a)
        pop = int(pool) if pool.ndim == 0 else len(pool)
        shape = () if size is None else _shape(size)
        count = math.prod(shape)
        if p is not None:
            if not replace:
                raise NotImplementedError("choice with p draws with replacement only")
            cdf = np.cumsum(np.asarray(p, dtype=np.float64))
            if cdf.shape != (pop,):
                raise ValueError("a and p must have same size")
            cdf /= cdf[-1]
            idx = cdf.searchsorted(self.random(shape), side="right")
        elif replace:
            idx = self.integers(0, pop, shape)
        elif count > pop:
            raise ValueError("Cannot take a larger sample than population when replace is False")
        elif pop > 10000 and count > pop // 50:
            raise NotImplementedError("numpy shuffles a range for this sample; not offered")
        else:
            # Floyd's sampling, then a shuffle of the sample.
            idx, seen = [], set()
            for j in range(pop - count, pop):
                v = self.bounded(j, 1)[0]
                v = j if v in seen else v
                seen.add(v)
                idx.append(v)
            for i in reversed(range(1, count)):  # numpy's _shuffle_int
                j = self.bounded(i, 1)[0]
                idx[i], idx[j] = idx[j], idx[i]
            idx = np.array(idx, dtype=np.int64).reshape(shape)
        if size is None:
            idx = int(idx)
        return idx if pool.ndim == 0 else pool[idx]


def stream(seed: int, *path) -> Stream:
    """Independent Philox stream identified by (seed, *path).

    Streams for distinct paths are independent; the same (seed, path)
    always replays the same values, regardless of creation order.
    """
    return Stream(_key(seed, _spawn_words(path)), [])


def streams(seed: int, path, count: int, blocks: int):
    """`stream(seed, *path, t)` for each t in range(count), each holding its first `blocks` blocks.

    The keys come out of one hash pass (_trial_keys) and the blocks out of
    one numpy pass; a stream that draws past them makes the rest itself.
    """
    k0, k1 = _trial_keys(seed, [path], count)
    for key, words in zip(zip(k0.tolist(), k1.tolist()), _blocks(k0, k1, 1, blocks)):
        yield Stream(key, words.tolist())


def _trial_keys(seed: int, paths, count: int):
    """Keys (k0, k1) of `stream(seed, *path, t)` for each path of paths, then t in range(count).

    SeedSequence's pool depends on the spawn words one at a time, so a word
    the paths share is hashed once as an int, and a word where they differ,
    like the trial index, is a uint32 array with one entry per trial: every
    key comes out of one pass over those arrays.  So the paths must split
    into the same number of words, as candidate indices below 2^32 do.
    """
    if not 0 <= count <= 1 << 32:
        raise ValueError(f"count must be in [0, 2**32], got {count}")
    spawn = [_spawn_words(p) for p in paths]
    if len({len(words) for words in spawn}) > 1:
        raise ValueError("paths must split into the same number of words")
    columns = [col[0] if len(set(col)) == 1 else np.repeat(np.array(col, dtype=np.uint32), count)
               for col in zip(*spawn)]
    return _key(seed, columns + [np.tile(np.arange(count, dtype=np.uint32), len(spawn))])


def trial_draws(seed: int, paths, count: int, runs, n: int):
    """Every trial's `bounded(top, c)` for each (top, c) of runs, then its `doubles(n)`, as arrays.

    The trials are the streams `stream(seed, *path, t)` for each path of
    paths, then each t in range(count); every run's range must fit 32 bits.
    Yields (digits, doubles) per piece of at most _CHUNK trials of one path:
    digits is int64 with the runs' draws side by side, doubles is float64
    with n columns.  The keys come out of one hash pass (_trial_keys) and
    each chunk's leading blocks out of one numpy pass, as many as the draws
    take when no half is rejected.  Every trial's draws are then read from
    the blocks in whole-array ops; a trial with a rejected half is drawn
    again by its `Stream`, which makes the words the rejections need.
    """
    if any(not 0 <= top <= _M32 for top, _ in runs):
        raise ValueError("array draws take ranges of at most 2**32 values")
    k0, k1 = _trial_keys(seed, paths, count)
    halves = sum(c for top, c in runs if top)
    return _pieces(k0, k1, -(-((halves + 1) // 2 + n) // 4), count, runs, n)


def _pieces(k0: np.ndarray, k1: np.ndarray, blocks: int, count: int, runs, n: int):
    """trial_draws' pieces, from each trial's first `blocks` blocks, a chunk at a time."""
    for at in range(0, len(k0), _CHUNK):
        a, b = k0[at:at + _CHUNK], k1[at:at + _CHUNK]
        digits, doubles = _chunk_draws(a, b, _blocks(a, b, 1, blocks), runs, n)
        end = at + len(a)
        cuts = [at, *range(at - at % count + count, end, count), end]  # where a path ends
        for lo, hi in zip(cuts, cuts[1:]):
            yield digits[lo - at:hi - at], doubles[lo - at:hi - at]


def _chunk_draws(k0: np.ndarray, k1: np.ndarray, words: np.ndarray, runs, n: int):
    """trial_draws' draws of the trials of keys (k0[i], k1[i]), whose leading words are words[i]."""
    digits = np.zeros((len(words), sum(c for _, c in runs)), dtype=np.int64)
    lead = words[:, :(sum(c for top, c in runs if top) + 1) // 2]  # the words digits read
    halves = np.empty((len(words), 2 * lead.shape[1]), dtype=np.uint64)
    halves[:, 0::2] = lead & _U32  # a word's low half is drawn first
    halves[:, 1::2] = lead >> _U64_32
    rejected = np.zeros(len(words), dtype=bool)
    at = col = 0
    for top, c in runs:
        if top:  # a one-value range draws nothing
            m = halves[:, at:at + c] * np.uint64(top + 1)
            reject = (_M32 - top) % (top + 1)
            if reject:
                rejected |= ((m & _U32) < np.uint64(reject)).any(axis=1)
            digits[:, col:col + c] = m >> _U64_32
            at += c
        col += c
    start = (at + 1) // 2  # 64-bit draws skip a kept half
    doubles = (words[:, start:start + n] >> np.uint64(11)) * _TO_UNIT
    for i in rejected.nonzero()[0].tolist():
        g = Stream((int(k0[i]), int(k1[i])), words[i].tolist())
        digits[i] = [d for top, c in runs for d in g.bounded(top, c)]
        doubles[i] = g.doubles(n)
    return digits, doubles
