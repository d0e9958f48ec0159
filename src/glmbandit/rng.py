"""Deterministic random streams built on the Philox counter-based generator.

Every stochastic component draws from its own stream, keyed by
``(master_seed, replication, purpose)``.  Philox (of the Random123 family)
derives its output purely from the key and counter, so distinct keys give
independent streams and a stream's draws never depend on construction
order.  Replications can therefore run in any order, or in parallel, and
still reproduce bit-identical results.
"""

from __future__ import annotations

import numpy as np

from .errors import check_config

# Purpose ids.  One stream per concern keeps consumers decoupled: a policy
# drawing extra randomness can never perturb the context or reward sequence.
CONTEXTS = 0
REWARDS = 1
POLICY = 2
THETA = 3
DIRECTIONS = 4

_PURPOSE_BITS = 8


def stream(master_seed: int, replication: int, purpose: int) -> np.random.Generator:
    """Return the generator for one (master seed, replication, purpose) cell."""
    check_config(master_seed=master_seed)
    if replication < 0 or purpose < 0:
        raise ValueError("stream keys must be nonnegative integers")
    if purpose >= (1 << _PURPOSE_BITS):
        raise ValueError(f"purpose id must be below {1 << _PURPOSE_BITS}")
    if replication >= (1 << (64 - _PURPOSE_BITS)):
        raise ValueError("replication index too large to key a stream")
    key = np.array(
        [master_seed, (replication << _PURPOSE_BITS) | purpose],
        dtype=np.uint64,
    )
    if not _Key.registered:  # loads numpy.random, which importing the package does not
        _Key.registered = np.random.bit_generator.ISpawnableSeedSequence.register(_Key)
    return np.random.Generator(np.random.Philox(_Key(key)))


class _Key:
    """A seed sequence that hands Philox the key as its state, so the
    stream equals ``Philox(key=key)``'s without the OS entropy read of the
    ``SeedSequence()`` that ``key=`` builds and drops."""

    registered = False

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.key  # Philox asks for (2, np.uint64): the key's shape

    def spawn(self, n_children: int):
        raise TypeError("keyed streams do not spawn")
