"""Deterministic random-stream derivation.

Every stochastic component draws from a ``numpy`` Generator keyed by a master
seed plus a tuple of integer tags (stream kind, vertex, replication, ...).
Streams derived this way are independent of evaluation order, which is what
makes common-random-number coupling across solvers and simulators exact.
"""

import numpy as np

# Stream kind tags. Fixed integers, never Python hash(), so that identical
# seeds reproduce bit-identically across processes.
PROPAGATE = 11
INITIAL = 12
POP_BROWNIAN = 21
POP_INITIAL = 22
CUT_NORM = 31
DEVIATION = 41


def stream(seed, *tags):
    """Generator seeded by ``seed`` and a tuple of integer tags."""
    entropy = [int(seed) & 0xFFFFFFFF] + [int(t) & 0xFFFFFFFF for t in tags]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
