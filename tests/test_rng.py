import pickle

import numpy as np
import pytest

from glmbandit import rng as streams
from glmbandit.errors import InvalidConfigError


def test_same_key_reproduces():
    a = streams.stream(42, 3, streams.CONTEXTS).random(10)
    b = streams.stream(42, 3, streams.CONTEXTS).random(10)
    assert np.array_equal(a, b)


def test_purposes_are_distinct_streams():
    draws = {
        purpose: streams.stream(7, 0, purpose).random(8).tobytes()
        for purpose in (streams.CONTEXTS, streams.REWARDS, streams.POLICY, streams.THETA)
    }
    assert len(set(draws.values())) == len(draws)


def test_replications_are_distinct_streams():
    a = streams.stream(7, 0, streams.REWARDS).random(8)
    b = streams.stream(7, 1, streams.REWARDS).random(8)
    assert not np.array_equal(a, b)


def test_draws_do_not_depend_on_construction_order():
    first = streams.stream(1, 0, streams.CONTEXTS)
    _ = streams.stream(1, 1, streams.CONTEXTS).random(100)
    a = first.random(5)
    b = streams.stream(1, 0, streams.CONTEXTS).random(5)
    assert np.array_equal(a, b)


def test_key_validation():
    with pytest.raises(InvalidConfigError, match="master_seed"):
        streams.stream(-1, 0, 0)
    with pytest.raises(ValueError):
        streams.stream(0, -1, 0)
    with pytest.raises(ValueError):
        streams.stream(0, 0, 256)


@pytest.mark.parametrize(
    "master_seed, replication, purpose", [(0, 0, 0), (2**64 - 1, 2**56 - 1, 255)]
)
def test_stream_equals_philox_keyed_directly(master_seed, replication, purpose):
    gen = streams.stream(master_seed, replication, purpose)
    key = np.array([master_seed, (replication << 8) | purpose], dtype=np.uint64)
    ref = np.random.Generator(np.random.Philox(key=key))
    assert repr(gen.bit_generator.state) == repr(ref.bit_generator.state)
    copy = pickle.loads(pickle.dumps(gen))
    draws = gen.standard_normal(10**4)
    assert np.array_equal(draws, ref.standard_normal(10**4))
    assert np.array_equal(draws, copy.standard_normal(10**4))
