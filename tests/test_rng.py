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
