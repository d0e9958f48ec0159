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
    return np.random.Generator(np.random.Philox(key=key))
