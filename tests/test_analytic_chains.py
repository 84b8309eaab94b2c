"""Sector-engine amplitudes against closed forms that hold at any chain length, on both engine paths.

The dense oracle stops at about 14 sites; these witnesses do not.  Each case
runs twice: with ``EIGH_SECONDS_PER_D3`` at 0 no series is ever affordable, so
every table comes from ``eigh``; at 1e9 every column table takes the Chebyshev
series.

- Perfect-state-transfer chain (Christandl, Datta, Ekert & Landahl, PRL 92,
  187902 (2004)).  In this code's 2J hopping convention the couplings are
  J_i = (lambda/2) sqrt(i (N - i)), i = 1 ... N - 1, and the k = 1 column from
  site 0 is f_{0->j}(t) = sqrt(C(N-1, j)) cos^{N-1-j}(lambda t) (-i sin lambda t)^j.
  At lambda t = pi/2 the chain mirrors every configuration, so the mirrored
  configuration's amplitude has modulus 1 in every sector.
- Uniform chain, sites numbered 1 ... N:
  f_ij(t) = (2/(N+1)) sum_q sin(i q pi/(N+1)) sin(j q pi/(N+1)) exp(-4 i J cos(q pi/(N+1)) t).
"""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinmaps import NetworkChannel, SectorPropagator, SpinNetwork
from spinmaps import network as network_module

from conftest import PropagationPaths

BOUND = 1e-12
PATHS = {"eigh": 0.0, "chebyshev": 1e9}  # EIGH_SECONDS_PER_D3 that forces each path


@pytest.fixture(params=sorted(PATHS))
def path(request, monkeypatch, paths):
    """Forces one engine path; after the test, asserts that every table took it."""
    monkeypatch.setattr(network_module, "EIGH_SECONDS_PER_D3", PATHS[request.param])
    yield request.param
    eighs, series = paths.counts
    assert series == 0 < eighs if request.param == "eigh" else eighs == 0 < series


def pst_chain(n: int, lam: float) -> SpinNetwork:
    i = np.arange(1, n)
    return SpinNetwork.chain(0.5 * lam * np.sqrt(i * (n - i)))


def site_column(net: SpinNetwork, source: int, times: np.ndarray) -> np.ndarray:
    """The k = 1 column from ``source``, (T, N), its targets in site order."""
    table = SectorPropagator(net, 1).table(times, [(source,)])
    return table.column((source,))[..., table.sector.positions(np.arange(net.n_sites)[:, None])]


def pst_column(n: int, lam: float, times: np.ndarray) -> np.ndarray:
    """The closed-form k = 1 column of the PST chain from site 0, (T, N), its targets in site order."""
    j = np.arange(n)
    cos, sin = np.cos(lam * times)[:, None], np.sin(lam * times)[:, None]
    binom = np.sqrt([float(comb(n - 1, int(x))) for x in j])
    return binom * cos ** (n - 1 - j) * (-1j * sin) ** j


@pytest.mark.parametrize("n", [6, 40, 200])
def test_pst_column_matches_its_closed_form(n, path, rng):
    lam = float(rng.uniform(0.3, 1.5))
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 40.0, 8))])
    assert np.abs(site_column(pst_chain(n, lam), 0, times) - pst_column(n, lam, times)).max() < BOUND


@pytest.mark.parametrize("engine", sorted(PATHS))
@settings(max_examples=12, deadline=None)
@given(n=st.integers(2, 400), lam=st.floats(0.3, 1.5), t=st.floats(-40.0, 40.0))
def test_pst_column_matches_its_closed_form_at_any_length(engine, n, lam, t):
    times = np.array([t])
    with pytest.MonkeyPatch.context() as mp:
        paths = PropagationPaths(mp)
        mp.setattr(network_module, "EIGH_SECONDS_PER_D3", PATHS[engine])
        column = site_column(pst_chain(n, lam), 0, times)
    assert paths.counts == ((1, 0) if engine == "eigh" else (0, 1))
    assert np.abs(column - pst_column(n, lam, times)).max() < BOUND


@pytest.mark.parametrize("n", [7, 60])
def test_uniform_chain_column_matches_the_sine_modes(n, path, rng):
    coupling, source = float(rng.uniform(0.5, 1.5)), int(rng.integers(n))
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 250.0, 8))])
    q = np.arange(1, n + 1)
    modes = np.sin(np.outer(q, q) * np.pi / (n + 1))  # [site - 1, q - 1]
    phases = np.exp(-4j * coupling * np.cos(q * np.pi / (n + 1)) * times[:, None])
    expected = 2.0 / (n + 1) * (phases * modes[source]) @ modes.T
    assert np.abs(site_column(SpinNetwork.uniform_chain(n, coupling), source, times) - expected).max() < BOUND


@pytest.mark.parametrize("k, n", [(2, 6), (2, 40), (3, 6), (3, 24)])
def test_pst_chain_mirrors_k_excitations(k, n, path):
    lam = 0.8
    source = tuple(range(k))
    mirror = tuple(n - 1 - s for s in source)
    table = SectorPropagator(pst_chain(n, lam), k).table(np.pi / (2.0 * lam), [source])
    assert abs(abs(table.amplitude(source, mirror)) - 1.0) < BOUND


@pytest.mark.parametrize("n", [8, 50, 300])
def test_free_fermion_map_at_the_transfer_time_is_the_mirror_swap(n, path, sector_builds):
    lam = 0.8
    kraus = NetworkChannel(pst_chain(n, lam)).two_qubit((0, 1), (n - 1, n - 2), np.pi / (2.0 * lam))
    e0 = kraus.operators[0]
    # E_0 carries each sender's excitation and the pair to their mirror sites, up to phases
    assert np.abs(np.abs(e0) - np.eye(4)).max() < BOUND
    assert np.abs(kraus.operators[1:]).max() < BOUND  # every E_1 and the merged E_2: nothing is lost
    assert sector_builds == [1]  # the k = 1 table alone: no k = 2 sector
