import numpy as np
import pytest

from rbl.ambiguity import MeanMadSpec


@pytest.fixture(scope="session")
def half_spec():
    # mu = 1, d = 0.5: the light-dispersion workhorse, alpha_min = 0.25
    return MeanMadSpec(1.0, 0.5)


@pytest.fixture(scope="session")
def wide_spec():
    # d > mu: the dispersed regime where the zero-low-point member is feasible
    return MeanMadSpec(1.0, 1.5)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)


class _Drifted:
    """numpy as one module sees it, but with np.<name>'s results 2e-10
    heavier: an exact law built from them drifts past MASS_TOL."""

    def __init__(self, name):
        self.name = name

    def __getattr__(self, attr):
        fn = getattr(np, attr)
        if attr != self.name:
            return fn
        return lambda *args, **kw: fn(*args, **kw) * (1.0 + 2e-10)


@pytest.fixture()
def drift(monkeypatch):
    """drift(module, name): the module's np.<name> returns results 2e-10
    heavier until the test ends."""
    return lambda module, name: monkeypatch.setattr(module, "np", _Drifted(name))
