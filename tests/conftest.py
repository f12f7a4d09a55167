import numpy as np
import pytest

from qscramble.entropy import TSALLIS, EntropySpec, get_separable_boundary
from qscramble.quantum import random_hs_stack


@pytest.fixture(scope="session")
def tsallis2():
    return EntropySpec(TSALLIS, 2.0)


@pytest.fixture(scope="session")
def boundary_22(tsallis2):
    # (grid, values) of the default pair, built once per session
    return get_separable_boundary(tsallis2, tsallis2)


@pytest.fixture(scope="session")
def random_states_2k():
    return random_hs_stack(718281828, 2000)


def probs_of(states, label):
    from qscramble.measurement import probabilities_stack
    return np.clip(probabilities_stack(states, label), 0.0, 1.0)
