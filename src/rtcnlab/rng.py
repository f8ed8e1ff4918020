"""Deterministic counter-based random streams.

Every random draw in this package is a pure function of (seed, stream,
step, index), realised with the Philox-4x64 bit generator.  This makes
replication exact: replaying a run with the same seed reproduces every
draw, regardless of how the replications are split into blocks.
"""

from __future__ import annotations

import threading

import numpy as np

_M64 = (1 << 64) - 1
_KEY_CONST = 0x9E3779B97F4A7C15  # fixed second key word
# each thread's one generator, re-keyed for every draw by _rekeyed
_local = threading.local()


def _key_word(stream: int) -> int:
    return (_KEY_CONST ^ stream) & _M64


def _rekeyed(seed: int, streams, counter: int = 0):
    """For each stream in turn, this thread's generator in the state that
    Philox(key=(seed, key word of stream), counter=counter) starts in.

    Constructing a Philox from a key reads OS entropy for a seed sequence
    that the key then overrides; the generator here is made once per
    thread from a fixed seed, which reads none, and is re-keyed by
    assigning its state.  The state's arrays are Python-int lists, which
    numpy's setter converts faster than uint64 arrays, and only the
    stream's key word changes between streams."""
    bg = getattr(_local, "bg", None)
    if bg is None:
        bg = _local.bg = np.random.Philox(0)
    key = [int(seed) & _M64, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [counter & _M64, counter >> 64 & _M64,
                                   counter >> 128 & _M64, counter >> 192],
                       "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for stream in streams:
        key[1] = _key_word(int(stream))
        bg.state = state
        yield bg


def raw_block(seed: int, step: int, lo: int, hi: int) -> np.ndarray:
    """uint64 words for replication indices lo..hi-1 at a given step.

    lo and hi must be multiples of 4 (Philox emits 4 words per counter
    block).  The word for replication r at a step is independent of the
    block boundaries, so any 4-aligned chunking yields identical draws.
    """
    if lo % 4 or hi % 4:
        raise ValueError("block bounds must be multiples of 4")
    bg = next(_rekeyed(seed, (0,), (int(step) << 64) + (lo >> 2)))
    return bg.random_raw(hi - lo)


class CounterStream:
    """Scalar per-step stream: one uint64 word per (seed, stream, step),
    namely the first word of Philox block number `step`."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)

    def words(self, n_steps: int) -> np.ndarray:
        """Words for steps 0..n_steps-1, in one generator call."""
        bg = next(_rekeyed(self.seed, (self.stream,)))
        return bg.random_raw(4 * n_steps)[::4]


def stream_words(seed: int, streams, n_steps: int) -> np.ndarray:
    """(len(streams), n_steps) uint64 words; row s equals
    CounterStream(seed, streams[s]).words(n_steps)."""
    out = np.empty((len(streams), n_steps), dtype=np.uint64)
    for row, bg in zip(out, _rekeyed(seed, streams)):
        row[:] = bg.random_raw(4 * n_steps)[::4]
    return out
