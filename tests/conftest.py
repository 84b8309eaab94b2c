import numpy as np
import pytest

from spinmaps import SectorPropagator, SpinNetwork


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def sector_builds(monkeypatch):
    """Excitation counts of the SectorPropagators built while the test runs, in order."""
    built = []
    init = SectorPropagator.__init__

    def counting_init(self, network, k):
        built.append(k)
        init(self, network, k)

    monkeypatch.setattr(SectorPropagator, "__init__", counting_init)
    return built


def random_network(rng, n_sites, with_zz=True, with_fields=True, scale=1.0):
    j = scale * rng.normal(size=(n_sites, n_sites))
    j = (j + j.T) / 2.0
    np.fill_diagonal(j, 0.0)
    zz = None
    if with_zz:
        zz = 0.4 * scale * rng.normal(size=(n_sites, n_sites))
        zz = (zz + zz.T) / 2.0
        np.fill_diagonal(zz, 0.0)
    h = 0.6 * scale * rng.normal(size=n_sites) if with_fields else None
    return SpinNetwork(j, zz, h)
