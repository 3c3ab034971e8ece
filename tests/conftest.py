import numpy as np
import pytest

from simcf import SystemConfig, allocate_pilots, generate_drop
from simcf.pipeline import NetworkModel


@pytest.fixture(scope="session")
def small_cfg():
    # Small enough for Monte-Carlo loops, pilot sharing forced (K > tau_p).
    return SystemConfig(L=3, K=3, U=2, M=2, N=9, tau_p=2)


@pytest.fixture(scope="session")
def small_drop(small_cfg):
    return generate_drop(small_cfg, 42)


@pytest.fixture(scope="session")
def small_pilots(small_drop):
    return allocate_pilots(small_drop)


@pytest.fixture(scope="session")
def small_model(small_drop, small_pilots):
    return NetworkModel.from_drop(small_drop, small_pilots)


@pytest.fixture(scope="session")
def small_phases(small_model):
    return small_model.random_phases(np.random.default_rng(7))


@pytest.fixture(scope="session")
def small_terms(small_model, small_phases):
    return small_model.terms(small_phases)
