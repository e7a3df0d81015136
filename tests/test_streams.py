import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsdsim.streams import RandomStream, Uniforms, map_replicas, seed_words


def test_same_stream_reproduces():
    a = RandomStream(42).generator().random(8)
    b = RandomStream(42).generator().random(8)
    assert np.array_equal(a, b)


def test_substreams_differ_from_parent_and_each_other():
    root = RandomStream(42)
    seqs = [root.generator().random(4)]
    seqs.append(root.substream(0).generator().random(4))
    seqs.append(root.substream(1).generator().random(4))
    seqs.append(root.substream(0, 1).generator().random(4))
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            assert not np.array_equal(seqs[i], seqs[j])


def test_substream_keys_compose():
    assert RandomStream(7).substream(1).substream(2) == RandomStream(7).substream(1, 2)


def _third_uniform(rng):
    rng.random(2)
    return float(rng.random())


def test_map_replicas_sequential_matches_parallel():
    stream = RandomStream(9)
    seq = map_replicas(_third_uniform, 300, stream, workers=1)
    par = map_replicas(_third_uniform, 300, stream, workers=3, chunk_size=32)
    assert seq == par
    assert len(seq) == 300
    # replica i depends only on (seed, i)
    assert seq[17] == _third_uniform(stream.substream(17).generator())


def test_map_replicas_chunk_edges():
    stream = RandomStream(10)
    for n in (1, 2, 31, 32, 33):
        out = map_replicas(_third_uniform, n, stream, workers=2, chunk_size=16)
        assert len(out) == n


def _shifted_uniform(rng, item):
    return item + float(rng.random())


def test_map_replicas_passes_one_item_per_replica():
    stream = RandomStream(11)
    items = list(range(70))
    ref = [r + float(stream.substream(r).generator().random()) for r in range(70)]
    for workers in (1, 2):
        assert map_replicas(_shifted_uniform, 70, stream, workers=workers, chunk_size=16,
                            items=items) == ref
    with pytest.raises(ValueError, match="one item per replica"):
        map_replicas(_shifted_uniform, 70, stream, items=items[:-1])


def test_map_replicas_rejects_a_chunk_size_below_one():
    for workers in (1, 2):
        with pytest.raises(ValueError, match="chunk_size"):
            map_replicas(_third_uniform, 10, RandomStream(1), workers=workers, chunk_size=0)


def test_seed_words_rejects_indices_past_one_word():
    with pytest.raises(ValueError):
        seed_words(1, (), 2**32, 2**32 + 1)
    with pytest.raises(ValueError):
        seed_words(1, (), 3, 2)


entropies = st.integers(0, 2**64 - 1)
keys = st.lists(st.integers(0, 2**40), max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(entropy=entropies, key=keys, start=st.integers(0, 5000), length=st.integers(0, 40))
def test_seed_words_match_seed_sequence(entropy, key, start, length):
    words = seed_words(entropy, key, start, start + length)
    assert words.shape == (length, 4) and words.dtype == np.uint64
    for i, row in enumerate(words):
        ref = np.random.SeedSequence(entropy, spawn_key=key + (start + i,))
        assert np.array_equal(row, ref.generate_state(4, np.uint64))


@settings(max_examples=30, deadline=None)
@given(entropy=entropies, key=keys, start=st.integers(0, 2**32 - 8))
def test_replica_generators_draw_as_substream_generators(entropy, key, start):
    stream = RandomStream(entropy, key)
    for r, gen in enumerate(stream.replica_generators(start, start + 8), start):
        ref = stream.substream(r).generator()
        assert np.array_equal(gen.integers(0, 2**63, size=4), ref.integers(0, 2**63, size=4))
        assert gen.random() == ref.random()


@settings(max_examples=15, deadline=None)
@given(entropy=entropies, key=keys, n=st.integers(0, 40), chunk=st.integers(1, 9))
def test_map_replicas_equals_the_per_replica_reference(entropy, key, n, chunk):
    stream = RandomStream(entropy, key)
    ref = [_third_uniform(stream.substream(r).generator()) for r in range(n)]
    assert map_replicas(_third_uniform, n, stream, workers=1, chunk_size=chunk) == ref
    assert map_replicas(_third_uniform, n, stream, workers=2, chunk_size=chunk) == ref


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), length=st.integers(0, 9000))
@example(seed=1, length=9000)
def test_uniforms_hand_out_what_scalar_draws_give(seed, length):
    # blocks of 64, 128, ..., 4096, 4096 values: 9000 draws take eight blocks
    blocks = Uniforms(np.random.default_rng(seed))
    scalar = np.random.default_rng(seed)
    assert [blocks.random() for _ in range(length)] == [scalar.random() for _ in range(length)]
