import numpy as np
import pytest

from rtcnlab import rng


def test_counter_stream_is_first_word_of_each_philox_block():
    # key (seed, 0x9E3779B97F4A7C15 ^ stream), counter 0 upwards
    for seed, stream in ((0, 0), (9, 1), (9, 2**63 + 5)):
        word = (0x9E3779B97F4A7C15 ^ stream) % 2**64
        key = np.array([seed, word], dtype=np.uint64)
        bg = np.random.Philox(key=key)
        assert rng.CounterStream(seed, stream).words(7).tolist() == \
            bg.random_raw(28)[::4].tolist()


def test_counter_stream_takes_numpy_ids():
    for seed, stream in ((np.int64(3), np.int64(-5)), (3, np.int64(2**62)),
                         (np.uint64(3), np.uint64(2**64 - 1))):
        assert rng.CounterStream(seed, stream).words(5).tolist() == \
            rng.CounterStream(int(seed), int(stream)).words(5).tolist()


def test_counter_stream_words_are_pinned():
    # recorded from the Philox-4x64 layout; a change that moved the
    # reader and its reference together would break these
    assert rng.CounterStream(0, 1).words(3).tolist() == [
        18072645602323277955, 2125436972693201840, 4853128930990007699]
    assert [rng.CounterStream(7, s).words(2).tolist()
            for s in (0, 2**64 - 1)] == [
        [9838608486294842333, 191517063772914450],
        [6209462064672312193, 5451637895438113424]]


def test_forward_words_are_pinned_and_no_chain_words():
    forward = rng.raw_block(0, 2, 0, 4, stream=1).tolist()
    assert forward == [12660212332134260416, 12694832495753587561,
                       3231418990447598124, 15493941859157255384]
    chain = rng.raw_block(0, 2, 0, 4).tolist()
    assert chain == rng.raw_block(0, 2, 0, 4, stream=0).tolist()
    assert not set(forward) & set(chain)


def test_seeds_outside_64_bits_are_refused():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=f"seed {seed} "):
            rng.raw_block(seed, 2, 0, 4)
        with pytest.raises(ValueError, match=f"seed {seed} "):
            rng.CounterStream(seed).words(0)
    assert len(rng.raw_block(2**64 - 1, 2, 0, 4)) == 4
