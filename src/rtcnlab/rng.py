"""Deterministic counter-based random streams.

Every random draw in this package is a pure function of (seed, stream,
step, index), realised with the Philox-4x64 bit generator keyed by the
seed, which must lie in 0..2^64-1, and the stream.  raw_block gives a
step's words for a block of replications (stream 0 for the chain kernel,
1 for the forward source), so replaying a run with the same seed
reproduces every draw however the replications are split into blocks;
CounterStream gives one network's word per step.
"""

from __future__ import annotations

import threading

import numpy as np

_M64 = (1 << 64) - 1
_KEY_CONST = 0x9E3779B97F4A7C15  # fixed second key word
# each thread's one generator, re-keyed for every draw by _rekeyed
_local = threading.local()


def check_seed(seed: int) -> int:
    """The seed as an int; a ValueError unless it lies in 0..2^64-1."""
    seed = int(seed)
    if not 0 <= seed <= _M64:
        raise ValueError(f"seed {seed} is outside 0..2^64-1")
    return seed


def _rekeyed(seed: int, stream: int, counter: int = 0):
    """This thread's generator in the state that Philox(key=(seed,
    (_KEY_CONST ^ stream) mod 2^64), counter=counter) starts in.

    Constructing a Philox from a key reads OS entropy for a seed sequence
    that the key then overrides; the generator here is made once per
    thread from a fixed seed, which reads none, and is re-keyed by
    assigning its state.  The state's arrays are Python-int lists, which
    numpy's setter converts faster than uint64 arrays."""
    seed = check_seed(seed)
    bg = getattr(_local, "bg", None)
    if bg is None:
        bg = _local.bg = np.random.Philox(0)
    bg.state = {"bit_generator": "Philox",
                "state": {"counter": [counter & _M64, counter >> 64 & _M64,
                                      counter >> 128 & _M64, counter >> 192],
                          "key": [seed, (_KEY_CONST ^ int(stream)) & _M64]},
                "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                "has_uint32": 0, "uinteger": 0}
    return bg


def raw_block(seed: int, step: int, lo: int, hi: int,
              stream: int = 0) -> np.ndarray:
    """uint64 words for replication indices lo..hi-1 at a given step of a
    stream (0 for the chain kernel, 1 for the forward source).

    lo and hi must be multiples of 4 (Philox emits 4 words per counter
    block).  The word for replication r at a step is independent of the
    block boundaries, so any 4-aligned chunking yields identical draws."""
    if lo % 4 or hi % 4:
        raise ValueError("block bounds must be multiples of 4")
    counter = (int(step) << 64) + (int(lo) >> 2)
    return _rekeyed(seed, stream, counter).random_raw(hi - lo)


class CounterStream:
    """Scalar per-step stream: one uint64 word per (seed, stream, step),
    namely the first word of Philox block number `step`."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)

    def words(self, n_steps: int) -> np.ndarray:
        """Words for steps 0..n_steps-1, in one generator call."""
        return _rekeyed(self.seed, self.stream).random_raw(4 * n_steps)[::4]
