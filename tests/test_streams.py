import numpy as np
import pytest

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



@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("path", [0, 2**62 - 1])
@pytest.mark.parametrize("stream", [NOISE, CLOCK, EVENTS, PROBE])
def test_generator_is_philox_keyed_by_path_key(seed, path, stream):
    # the generator skips the OS-entropy seed sequence of Philox(key=...),
    # and must give that generator's state and draws exactly
    want = np.random.Generator(np.random.Philox(key=path_key(seed, path, stream)))
    got = path_generator(seed, path, stream)
    assert str(got.bit_generator.state) == str(want.bit_generator.state)
    assert got.standard_normal(1000).tobytes() == want.standard_normal(1000).tobytes()
    assert got.random(1000).tobytes() == want.random(1000).tobytes()


def test_key_sequence_gives_only_the_key():
    seq = path_generator(1, 2, NOISE).bit_generator.seed_seq
    assert seq.generate_state(2, np.uint64).tolist() == [1, (2 << 2) | NOISE]
    for n_words, dtype in [(4, np.uint32), (2, np.uint32), (3, np.uint64)]:
        with pytest.raises(ValueError, match="2 uint64 words"):
            seq.generate_state(n_words, dtype)
