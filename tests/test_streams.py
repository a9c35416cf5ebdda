import numpy as np

from splitmerge.streams import (
    CLOCK,
    EVENTS,
    NOISE,
    PROBE,
    path_generator,
    path_key,
)


def test_stream_ids_are_distinct():
    assert len({NOISE, CLOCK, EVENTS, PROBE}) == 4


def test_key_separates_paths_and_streams():
    seen = set()
    for path in range(50):
        for stream in (NOISE, CLOCK, EVENTS, PROBE):
            seen.add(tuple(path_key(7, path, stream).tolist()))
    assert len(seen) == 200


def test_generator_reproducible():
    a = path_generator(7, 3, NOISE).standard_normal(16)
    b = path_generator(7, 3, NOISE).standard_normal(16)
    assert np.array_equal(a, b)


def test_generators_differ_across_streams_and_paths():
    a = path_generator(7, 3, NOISE).standard_normal(8)
    b = path_generator(7, 3, CLOCK).standard_normal(8)
    c = path_generator(7, 4, NOISE).standard_normal(8)
    d = path_generator(8, 3, NOISE).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_bulk_equals_sequential():
    # buffered prefetching relies on one stream being a stream: a block
    # of 100 draws equals 100 single draws
    bulk = path_generator(11, 0, NOISE).standard_normal(100)
    gen = path_generator(11, 0, NOISE)
    seq = np.array([gen.standard_normal() for _ in range(100)])
    assert np.array_equal(bulk, seq)

    bulk_u = path_generator(11, 0, CLOCK).random(64)
    gen = path_generator(11, 0, CLOCK)
    seq_u = np.array([gen.random() for _ in range(64)])
    assert np.array_equal(bulk_u, seq_u)

