import numpy as np

from rtcnlab import rng


def test_stream_words_rows_are_counter_streams():
    streams = [0, 1, 2**63 + 5]
    for seed in (0, 9):
        words = rng.stream_words(seed, streams, 7)
        assert words.shape == (3, 7)
        for row, stream in zip(words, streams):
            assert row.tolist() == rng.CounterStream(seed, stream).words(7).tolist()


def test_stream_words_take_numpy_stream_ids():
    for streams in (np.arange(1, 4), np.array([-5, 0, 2**62], dtype=np.int64),
                    np.array([0, 2**63 + 5, 2**64 - 1], dtype=np.uint64)):
        words = rng.stream_words(np.int64(3), streams, 5)
        for row, stream in zip(words, streams):
            assert row.tolist() == rng.CounterStream(3, stream).words(5).tolist()


def test_stream_words_are_pinned():
    # recorded from the Philox-4x64 layout; a change that moved both
    # readers together would break these
    assert rng.CounterStream(0, 1).words(3).tolist() == [
        18072645602323277955, 2125436972693201840, 4853128930990007699]
    assert rng.stream_words(7, [0, 2**64 - 1], 2).tolist() == [
        [9838608486294842333, 191517063772914450],
        [6209462064672312193, 5451637895438113424]]
