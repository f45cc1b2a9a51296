"""Shared fixtures for the test suite."""

import pytest
from hypothesis import settings

from noisespec import (
    CpmgFilterProvider,
    default_experiment_spectrum,
    lorentzian_dc,
)

# CI selects this profile (--hypothesis-profile=ci): examples drawn from a
# fixed seed, so a failure reproduces on a rerun
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def bath():
    """Composite two-component bath used across the suite."""
    return default_experiment_spectrum()


@pytest.fixture(scope="session")
def dc_lorentzian():
    return lorentzian_dc(delta=1e5, sigma=5e4)


@pytest.fixture(scope="session")
def provider():
    # Session-scoped so canonical filter scans are computed once.
    return CpmgFilterProvider()
