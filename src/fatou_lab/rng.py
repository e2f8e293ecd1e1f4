"""Reproducible random streams.

Every stochastic routine in the toolkit draws from a Philox 4x64
counter-based generator keyed by an explicit integer seed.  Philox is
stateless apart from its (key, counter) pair, so identical seeds produce
identical streams on every platform.
"""

import numpy as np


def stream(seed: int) -> np.random.Generator:
    """Return the canonical generator for an integer seed."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def substream(seed: int, label: int) -> np.random.Generator:
    """Independent stream derived from (seed, label); order of use is irrelevant."""
    return np.random.Generator(np.random.Philox(key=(int(seed) << 16) ^ int(label)))
