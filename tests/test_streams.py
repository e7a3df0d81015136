import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsdsim.streams import RandomStream, Uniforms, map_replicas


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


def _third_uniform(rng, item=None):
    rng.random(2)
    return float(rng.random())


def _shifted_uniform(rng, item):
    return item + float(rng.random())


def test_map_replicas_passes_one_item_per_replica():
    stream = RandomStream(11)
    items = list(range(70))
    ref = [r + float(stream.substream(r).generator().random()) for r in range(70)]
    assert map_replicas(_shifted_uniform, stream, items) == ref
    assert map_replicas(_shifted_uniform, stream, []) == []


def test_map_replicas_hands_each_chunk_its_generators():
    # item c draws from substream c, whatever the items are
    stream = RandomStream(12)
    ref = [_third_uniform(stream.substream(c).generator()) for c in range(5)]
    assert map_replicas(_third_uniform, stream, [None] * 5) == ref
    assert map_replicas(_third_uniform, stream, "abcde") == ref


entropies = st.integers(0, 2**64 - 1)
keys = st.lists(st.integers(0, 2**40), max_size=3).map(tuple)


@settings(max_examples=15, deadline=None)
@given(entropy=entropies, key=keys, n=st.integers(0, 40))
def test_map_replicas_equals_the_per_replica_reference(entropy, key, n):
    stream = RandomStream(entropy, key)
    seeds = (np.random.SeedSequence(entropy, spawn_key=key + (c,)) for c in range(n))
    ref = [_third_uniform(np.random.default_rng(seed)) for seed in seeds]
    assert map_replicas(_third_uniform, stream, range(n)) == ref


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), length=st.integers(0, 9000))
@example(seed=1, length=9000)
def test_uniforms_hand_out_what_scalar_draws_give(seed, length):
    # blocks of 64, 128, ..., 4096, 4096 values: 9000 draws take eight blocks
    blocks = Uniforms(np.random.default_rng(seed))
    scalar = np.random.default_rng(seed)
    assert [blocks.random() for _ in range(length)] == [scalar.random() for _ in range(length)]
