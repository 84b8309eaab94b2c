"""The Chebyshev column path of SectorPropagator, its selection rule and free-fermion ground truth."""

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spinmaps import NumericalError, SectorPropagator, SpinNetwork
from spinmaps import chebyshev, network as network_module
from spinmaps.network import ExcitationSector, SectorHamiltonian, build_sector_hamiltonian

from conftest import PropagationPaths, pair_amplitude_determinant


def random_graph_network(seed: int, n: int) -> SpinNetwork:
    """Random coupling graph (not only chains), with ZZ couplings and fields."""
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < rng.uniform(0.2, 1.0), 1)
    xy = np.where(mask, rng.normal(size=(n, n)), 0.0)
    zz = np.where(np.triu(rng.random((n, n)) < 0.5, 1), 0.4 * rng.normal(size=(n, n)), 0.0)
    return SpinNetwork(xy + xy.T, zz + zz.T, 0.6 * rng.normal(size=n))


def open_xy_chain(rng, n: int) -> SpinNetwork:
    return SpinNetwork.chain(rng.uniform(0.5, 1.5, n - 1), fields=rng.uniform(-0.3, 0.3, n))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 15),
    k=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=4, unique=True),
    times=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=5),
)
def test_chebyshev_tables_match_eigh_tables(n, k, seed, picks, times):
    assume(k <= n and comb(n, k) <= 500)
    net = random_graph_network(seed, n)
    grid = np.array(times + [0.0, -abs(times[0]) - 0.25])  # unsorted, with t = 0 and a negative time
    reference = SectorPropagator(net, k).table(grid)  # a full table always diagonalises
    basis = [tuple(row) for row in reference.sector.sites.tolist()]
    sources = list(dict.fromkeys(basis[p % len(basis)] for p in picks))
    with pytest.MonkeyPatch.context() as mp:
        paths = PropagationPaths(mp)
        mp.setattr(network_module, "EIGH_SECONDS_PER_D3", 1e9)  # every column table pays
        cols = SectorPropagator(net, k).table(grid, sources)
    assert paths.counts == (0, 1)
    assert cols.amplitudes.shape == (grid.size, len(basis), len(sources))
    for source in sources:
        assert np.abs(cols.column(source) - reference.column(source)).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), k=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_gershgorin_interval_encloses_the_spectrum(n, k, seed):
    assume(k <= n and comb(n, k) <= 500)
    h = build_sector_hamiltonian(random_graph_network(seed, n), k)
    low, high = h.spectral_bounds
    eigvals = np.linalg.eigvalsh(h.matrix)
    slack = 1e-12 * max(1.0, np.abs(eigvals).max())
    assert low - slack <= eigvals.min() and eigvals.max() <= high + slack


def test_sparse_matrix_equals_dense_matrix():
    h = build_sector_hamiltonian(random_graph_network(5, 9), 3)
    assert np.array_equal(h.sparse().toarray(), h.matrix)
    assert np.allclose(h.sparse(0.3, 2.5).toarray(), 2.5 * (h.matrix - 0.3 * np.eye(84)), atol=1e-14)
    assert h.nnz == h.sparse().nnz


def test_non_hermitian_hops_are_rejected_in_either_form():
    sector = ExcitationSector(3, 1)
    h = SectorHamiltonian(sector, np.zeros(3), np.array([1]), np.array([0]), np.array([0.5]))  # no (0, 1) partner
    with pytest.raises(ValueError, match="not Hermitian"):
        h.matrix
    with pytest.raises(ValueError, match="not Hermitian"):
        h.sparse(0.1, 2.0)


def test_truncated_series_raises_numerical_error(monkeypatch):
    net = random_graph_network(3, 10)
    terms = network_module.chebyshev_terms
    monkeypatch.setattr(network_module, "EIGH_SECONDS_PER_D3", 1e9)
    monkeypatch.setattr(network_module, "chebyshev_terms", lambda x: terms(x) // 2)
    with pytest.raises(NumericalError, match="not orthonormal") as info:
        SectorPropagator(net, 2).table([0.5, 10.0], [(0, 1), (3, 7)])
    assert not isinstance(info.value, ValueError)


def test_term_count_leaves_a_negligible_bessel_tail():
    from scipy.special import jv

    for x in (0.0, 1e-9, 0.4, 3.0, 37.5, 400.0, -12.0):
        k = chebyshev.chebyshev_terms(x)
        orders = np.arange(k - 1, k + 200)
        assert 2.0 * np.abs(jv(orders[1:], x)).sum() < chebyshev.CHEBYSHEV_TAIL
        assert 2.0 * np.abs(jv(orders, x)).sum() >= chebyshev.CHEBYSHEV_TAIL
    assert chebyshev.chebyshev_terms(0.0) == 1


def test_column_tables_skip_eigh_until_the_budget_is_spent(rng, paths):
    prop = SectorPropagator(open_xy_chain(rng, 25), 2)  # d = 300
    prop.table(np.linspace(0.5, 12.0, 6), [(3, 8)])
    assert paths.counts == (0, 1)
    # scalar tables, as in a golden-section refinement: Chebyshev until the estimated cost of
    # the series would pass that of one eigh, then one eigh that every later table reuses
    for t in np.linspace(1.0, 9.0, 200):
        prop.table(t, [(3, 8)])
        if paths.eigh_shapes:
            break
    assert paths.counts[0] == 1 and paths.chebyshev >= 2
    used = paths.chebyshev
    prop.table(2.0, [(3, 8)])
    prop.table(2.0)
    assert paths.counts == (1, used)


def test_full_and_small_tables_use_eigh(rng, paths):
    SectorPropagator(open_xy_chain(rng, 40), 2).table(1.0)  # a full table
    assert paths.counts == (1, 0)
    for n, k in ((12, 1), (10, 2), (9, 2)):  # point_sweep and oracle_check sizes, d <= 45
        SectorPropagator(open_xy_chain(rng, n), k).table(np.linspace(0.05, 60.0, 200), [tuple(range(k))])
    assert paths.counts == (4, 0)


def test_empty_tables(rng, monkeypatch):
    monkeypatch.setattr(network_module, "EIGH_SECONDS_PER_D3", 1e9)
    prop = SectorPropagator(open_xy_chain(rng, 8), 2)
    assert prop.table(np.array([]), [(0, 1)]).amplitudes.shape == (0, 28, 1)
    assert prop.table(0.5, []).amplitudes.shape == (28, 0)


@pytest.mark.parametrize("n, k, sources", [
    (50, 3, [(0, 1, 2), (10, 24, 49)]),  # d = 19600
    (20, 4, [(0, 1, 2, 3), (2, 7, 11, 19)]),  # d = 4845
])
def test_free_fermion_minors_match_chebyshev_columns_past_dense_reach(n, k, sources, rng, paths):
    net = open_xy_chain(rng, n)
    times = np.array([0.0, 0.7, -1.3, 2.9])
    cols = SectorPropagator(net, k).table(times, sources)
    assert paths.counts == (0, 1)
    k1 = SectorPropagator(net, 1).table(times)  # full table: from eigh
    basis = [tuple(row) for row in cols.sector.sites.tolist()]
    picks = rng.choice(len(basis), size=150, replace=False)
    for source in sources:
        for target in [basis[p] for p in picks] + [source, basis[0], basis[-1]]:
            minor = pair_amplitude_determinant(net, k1, *source, *target)
            assert np.abs(minor - cols.amplitude(source, target)).max() <= 1e-12


def test_determinant_shortcut_covers_k_one_to_four(rng):
    net = open_xy_chain(rng, 7)
    t = 0.83
    for k in (1, 2, 3, 4):
        prop = SectorPropagator(net, k)
        table = prop.table(t)
        k1 = SectorPropagator(net, 1).table(t)
        basis = [tuple(row) for row in prop.sector.sites.tolist()]
        for source, target in itertools.product(basis[:5], basis[-5:]):
            minor = pair_amplitude_determinant(net, k1, *source, *target)
            assert abs(minor - table.amplitude(source, target)) <= 1e-12
    k1 = SectorPropagator(net, 1).table(t)
    with pytest.raises(ValueError, match="1 <= k <= 4"):
        pair_amplitude_determinant(net, k1, *range(5), *range(5))
    with pytest.raises(ValueError, match="1 <= k <= 4"):
        pair_amplitude_determinant(net, k1, 0, 1, 2)
    with pytest.raises(ValueError, match="ascending"):
        pair_amplitude_determinant(net, k1, 2, 1, 0, 1)
    with pytest.raises(ValueError, match="ascending"):
        pair_amplitude_determinant(net, k1, 0, 1, 3, 3)
