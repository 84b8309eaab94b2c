from collections import Counter

import numpy as np
import pytest

from spinmaps import SectorPropagator, SpinNetwork, maps, oracle


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class PropagationPaths:
    """Records, while installed, the shapes np.linalg.eigh diagonalises and the Chebyshev tables built.

    Stacks of small matrices (the measures' state spectra) are not recorded.
    """

    def __init__(self, monkeypatch):
        self.eigh_shapes = []
        self.chebyshev = 0
        eigh, columns = np.linalg.eigh, SectorPropagator._chebyshev_columns

        def recording_eigh(matrix):
            if np.ndim(matrix) == 2:
                self.eigh_shapes.append(np.shape(matrix))
            return eigh(matrix)

        def counting_columns(prop, *args):
            self.chebyshev += 1
            return columns(prop, *args)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(SectorPropagator, "_chebyshev_columns", counting_columns)

    @property
    def counts(self) -> tuple:
        """(eigh calls, Chebyshev tables)."""
        return len(self.eigh_shapes), self.chebyshev


@pytest.fixture
def paths(monkeypatch):
    return PropagationPaths(monkeypatch)


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


@pytest.fixture
def check_calls(monkeypatch):
    """Calls of the two run checks, ``oracle.reduced_output`` and ``maps.is_cptp``, by name."""
    calls = Counter()
    for module, name in ((oracle, "reduced_output"), (maps, "is_cptp")):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


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
