"""Counter-based random streams with stable, order-independent stream ids."""

from __future__ import annotations

import zlib

import numpy as np

# Sub-stream tags used by the harness: code construction, pilot runs,
# measurement runs.
BUILD, PILOT, MEASURE = 0, 1, 2

# numpy.random.SeedSequence's hash constants (pool of four uint32 words).
_INIT_A, _MULT_A = np.uint32(0x43B0D7E5), np.uint32(0x931E8875)
_INIT_B, _MULT_B = np.uint32(0x8B51F9DD), np.uint32(0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _as_key(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"stream path parts must be non-negative, got {part}")
        return int(part)
    raise TypeError(f"stream path part must be int or str, got {type(part)!r}")


def stream(seed: int, *path) -> np.random.Generator:
    """Independent Philox stream identified by (seed, *path).

    Streams for distinct paths are independent; the same (seed, path)
    always replays the same values, regardless of creation order.
    """
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                spawn_key=tuple(_as_key(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def _words(value: int) -> list[np.uint32]:
    """Little-endian uint32 words of a non-negative int, as SeedSequence splits it."""
    return [np.uint32(value >> s & 0xFFFFFFFF) for s in range(0, max(value.bit_length(), 1), 32)]


def _hashmix(value, h, mult=_MULT_A):
    """SeedSequence's hashmix: the hashed word and the next hash constant."""
    value = value ^ h
    h = h * mult
    value = value * h
    return value ^ (value >> 16), h


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _trial_keys(seed: int, path, count: int) -> np.ndarray:
    """Philox keys of `stream(seed, *path, t)` for every `t in range(count)`, shape (count, 2).

    SeedSequence's pool depends on the trial index only through the last
    entropy word, so the shared `(seed, *path)` prefix is hashed once and
    the trial words are mixed in as one uint32 array.
    """
    if not 0 <= count <= 1 << 32:
        raise ValueError(f"count must be in [0, 2**32], got {count}")
    entropy = int(seed) & (2**64 - 1)
    # A spawn key pads the seed's one or two words to the pool size.
    run = [np.uint32(entropy & 0xFFFFFFFF), np.uint32(entropy >> 32), np.uint32(0), np.uint32(0)]
    tail = [w for p in path for w in _words(_as_key(p))] + [np.arange(count, dtype=np.uint32)]
    with np.errstate(over="ignore"):
        h = _INIT_A
        pool = []
        for w in run:
            v, h = _hashmix(w, h)
            pool.append(v)
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    v, h = _hashmix(pool[src], h)
                    pool[dst] = _mix(pool[dst], v)
        for w in tail:
            for dst in range(4):
                v, h = _hashmix(w, h)
                pool[dst] = _mix(pool[dst], v)
        h = _INIT_B
        state = []
        for w in pool:
            v, h = _hashmix(w, h, _MULT_B)
            state.append(v.astype(np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=1)


def trial_streams(seed: int, path, count: int):
    """Iterate the streams `stream(seed, *path, t)` for `t in range(count)`.

    Every trial's key is derived in one pass, and one Philox generator is
    reset to each trial's fresh state in turn (counter 0, nothing
    buffered), so a yielded generator is valid until the next is drawn.
    """
    keys = _trial_keys(seed, path, count)
    gen = np.random.Generator(np.random.Philox(0))
    zeros = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": None},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rekey(key):
        state["state"]["key"] = key
        gen.bit_generator.state = state
        return gen
    return map(rekey, keys)
