import itertools
import math
import time

import numpy as np
import pytest

from fatou_lab.experiments import acceptance_configs, run_experiment


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


class _Battery(dict):
    """experiment name -> (report, wall seconds) of its acceptance config,
    run on first lookup."""

    configs = {cfg.experiment: cfg for cfg in acceptance_configs()}

    def __missing__(self, name):
        t0 = time.time()
        rep = run_experiment(self.configs[name])
        self[name] = (rep, time.time() - t0)
        return self[name]


@pytest.fixture(scope="session")
def battery():
    """The acceptance battery as `fatou-lab suite` runs it, each experiment
    run at most once per session and shared by every test that reads it."""
    return _Battery()
