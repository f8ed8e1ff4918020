from rtcnlab import rng


def test_stream_words_rows_are_counter_streams():
    streams = [0, 1, 2**63 + 5]
    for seed in (0, 9):
        words = rng.stream_words(seed, streams, 7)
        assert words.shape == (3, 7)
        for row, stream in zip(words, streams):
            assert row.tolist() == rng.CounterStream(seed, stream).words(7).tolist()
