import itertools
import math

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20240601))


@pytest.fixture
def image_distance():
    """Torus distance as the least Euclidean distance over the 3^dim
    nearest periodic images of b: an oracle that shares no code with
    grid.py."""
    def dist(a, b, extent):
        a, b = np.atleast_1d(a), np.atleast_1d(b)
        return min(math.dist(a, b + extent * np.array(q))
                   for q in itertools.product((-1, 0, 1), repeat=a.size))
    return dist
