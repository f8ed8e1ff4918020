"""Deterministic counter-based random streams.

Every random draw in this package is a pure function of (seed, stream,
step, index), realised with the Philox-4x64 bit generator.  This makes
replication exact: replaying a run with the same seed reproduces every
draw, regardless of how work is chunked across threads.
"""

from __future__ import annotations

import numpy as np

_M64 = (1 << 64) - 1
_KEY_CONST = 0x9E3779B97F4A7C15  # fixed second key word


def _key(seed: int, stream: int) -> np.ndarray:
    return np.array([seed & _M64, (_KEY_CONST ^ stream) & _M64], dtype=np.uint64)


def _philox(seed: int, stream: int, counter: int) -> np.random.Philox:
    return np.random.Philox(key=_key(seed, stream), counter=counter)


def raw_block(seed: int, step: int, lo: int, hi: int, stream: int = 0) -> np.ndarray:
    """uint64 words for replication indices lo..hi-1 at a given step.

    lo and hi must be multiples of 4 (Philox emits 4 words per counter
    block).  The word for replication r at a step is independent of the
    block boundaries, so any 4-aligned chunking yields identical draws.
    """
    if lo % 4 or hi % 4:
        raise ValueError("block bounds must be multiples of 4")
    bg = _philox(seed, stream, (int(step) << 64) + (lo >> 2))
    return bg.random_raw(hi - lo)


class CounterStream:
    """Scalar per-step stream: one uint64 word per (seed, stream, step),
    namely the first word of Philox block number `step`."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)

    def words(self, n_steps: int) -> np.ndarray:
        """Words for steps 0..n_steps-1, in one generator call."""
        bg = _philox(self.seed, self.stream, 0)
        return bg.random_raw(4 * n_steps)[::4]


def stream_words(seed: int, streams, n_steps: int) -> np.ndarray:
    """(len(streams), n_steps) uint64 words; row s equals
    CounterStream(seed, streams[s]).words(n_steps).

    One generator is re-keyed per stream by assigning its state, which
    is cheaper than constructing a generator per stream."""
    bg = _philox(seed, 0, 0)
    state = bg.state  # a copy: counter 0 and an empty buffer
    out = np.empty((len(streams), n_steps), dtype=np.uint64)
    for row, stream in zip(out, streams):
        state["state"]["key"] = _key(seed, stream)
        bg.state = state
        row[:] = bg.random_raw(4 * n_steps)[::4]
    return out
