"""The Chebyshev column path of SectorPropagator, its selection rule and free-fermion ground truth."""

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spinmaps import NumericalError, SectorPropagator, SpinNetwork
from spinmaps import chebyshev, network as network_module, oracle
from spinmaps.network import ExcitationSector, SectorHamiltonian, build_sector_hamiltonian

from conftest import PropagationPaths, jv_seeded_terms, pair_amplitude_determinant, per_term_unit_columns

BLOCK = chebyshev.SERIES_BLOCK


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
    assert np.array_equal(h.sparse.toarray(), h.matrix)
    assert h.nnz == h.sparse.nnz
    assert h.sparse is h.sparse  # built on the first access only


def test_a_propagator_builds_its_csr_once_for_all_its_series_tables(rng, paths, monkeypatch):
    built = []

    def counting(*elements):
        built.append(elements[0].size)
        return chebyshev.symmetric_csr(*elements)

    monkeypatch.setattr(network_module, "symmetric_csr", counting)
    monkeypatch.setattr(network_module, "EIGH_SECONDS_PER_D3", 1e9)  # every column table takes the series
    prop = SectorPropagator(open_xy_chain(rng, 25), 2)  # d = 300
    for t in (np.linspace(0.5, 12.0, 6), 1.0, 2.5):
        prop.table(t, [(3, 8)])
    prop.table(4.0, [(0, 1), (3, 8)])
    assert paths.counts == (0, 4) and built == [300]


def test_non_hermitian_hops_are_rejected_in_either_form():
    sector = ExcitationSector(3, 1)

    def hops(rows, cols, values):
        return SectorHamiltonian(sector, np.zeros(3), np.array(rows), np.array(cols), np.array(values))

    for h in (hops([1], [0], [0.5]),  # no (0, 1) partner
              hops([1, 0, 2], [0, 1, 1], [0.5, 0.5, 0.3]),  # one partner missing among matched hops
              hops([1, 0], [0, 1], [0.5, 0.4])):  # a wrong partner value
        with pytest.raises(ValueError, match="not Hermitian"):
            h.matrix
        with pytest.raises(ValueError, match="not Hermitian"):
            h.sparse
    within = hops([1, 0, 2], [0, 1, 1], [0.5, 0.5 + 1e-13, 1e-13])  # both defects under 1e-12: accepted
    assert np.array_equal(within.sparse.toarray(), within.matrix)
    with pytest.raises(ValueError, match=r"hop positions must lie in \[0, 3\)"):
        hops([0, 2], [3, 1], [1e-15, 0.0]).sparse  # a hop past the sector


@pytest.mark.parametrize("net, k", [
    (SpinNetwork.chain([0.9, 1.2, 0.7, 1.1, 1.0, 0.8, 1.3]), 3),
    (SpinNetwork.chain([0.9, 1.2, 0.7, 1.1, 1.0], [0.2, -0.1, 0.3, 0.0, -0.2], [0.1, 0.0, -0.3, 0.2, 0.4, -0.1]), 2),
    (random_graph_network(4, 7), 3),
    (SpinNetwork(np.ones((6, 6)) - np.eye(6)), 2),  # every pair of sites coupled
    (SpinNetwork.uniform_chain(5), 0),
    (SpinNetwork(np.zeros((1, 1)), fields=[0.4]), 1),
    (random_graph_network(9, 8), None),  # the oracle's 2^N elements
], ids=["chain", "zz-chain", "graph", "all-to-all", "k0", "n1", "oracle"])
def test_sparse_arrays_equal_scipy_coo_conversion(net, k):
    from scipy.sparse import csr_array

    if k is None:
        diagonal, rows, cols, values = oracle.hamiltonian_elements(net)
        ours = chebyshev.symmetric_csr(diagonal, rows, cols, values)
    else:
        h = build_sector_hamiltonian(net, k)
        diagonal, rows, cols, values, ours = h.diagonal, h.rows, h.cols, h.values, h.sparse
    d = diagonal.size
    diag = np.arange(d)
    coo = csr_array((np.concatenate([diagonal, values]), (np.concatenate([diag, rows]), np.concatenate([diag, cols]))),
                    shape=(d, d))
    assert ours.shape == coo.shape
    for name in ("indptr", "indices", "data"):
        mine, theirs = getattr(ours, name), getattr(coo, name)
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), name


@pytest.mark.parametrize("width", [1, 3])
def test_csr_kernels_equal_the_sparse_product_bit_for_bit(width, rng):
    from scipy.sparse import _sparsetools

    m = build_sector_hamiltonian(random_graph_network(11, 10), 3).sparse
    d = m.shape[0]
    x = rng.normal(size=(d, width))
    y = np.zeros(d * width)
    if width == 1:
        _sparsetools.csr_matvec(d, d, m.indptr, m.indices, m.data, x.reshape(-1), y)
    else:
        _sparsetools.csr_matvecs(d, d, width, m.indptr, m.indices, m.data, x.reshape(-1), y)
    assert np.array_equal(y.reshape(d, width), m @ x)


def series_grids(rng) -> list:
    """No time, one time, six unsorted times with 0 and negatives, and 200 random times."""
    return [np.array([]), np.array([-0.7]), np.array([0.3, -1.1, 2.0, 0.0, -0.2, 1.4]),
            rng.uniform(-3.0, 3.0, 200)]


@pytest.mark.parametrize("terms", [1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_blocked_series_matches_the_per_term_reference(terms, width, rng):
    h = build_sector_hamiltonian(random_graph_network(7, 8), 2)  # d = 28
    rows = [27, 0, 13, 5][:width]
    for times in series_grids(rng):
        got = chebyshev.unit_columns(h.sparse, h.spectral_bounds, rows, times, terms)
        want = per_term_unit_columns(h.sparse, h.spectral_bounds, rows, times, terms)
        assert got.shape == want.shape == (times.size, 28, width)
        assert np.abs(got - want).max(initial=0.0) <= 1e-14


@pytest.mark.parametrize("width", [1, 4])
def test_blocks_narrowed_to_the_sums_match_the_reference(width, rng, monkeypatch):
    h = build_sector_hamiltonian(random_graph_network(7, 8), 2)
    rows = [27, 0, 13, 5][:width]
    monkeypatch.setattr(chebyshev, "SERIES_BLOCK_BYTES", 8)  # blocks of 2 T terms, 2 at least
    terms = 2 * BLOCK + 1
    for times in series_grids(rng)[1:]:
        assert chebyshev.block_width(terms, 28 * width, times.size) == min(2 * times.size, BLOCK)
        got = chebyshev.unit_columns(h.sparse, h.spectral_bounds, rows, times, terms)
        want = per_term_unit_columns(h.sparse, h.spectral_bounds, rows, times, terms)
        assert np.abs(got - want).max() <= 1e-14


def affordable_terms_with_full_count(prop, times, width):
    """``SectorPropagator._affordable_terms`` that counts the terms before every comparison with the budget."""
    d = prop.sector.dimension
    step = (network_module.CHEBYSHEV_STEP_SECONDS + network_module.CHEBYSHEV_SECONDS_PER_NONZERO
            * prop.hamiltonian.nnz * width + times.size * (network_module.CHEBYSHEV_SECONDS_PER_TIME
                                                           + network_module.CHEBYSHEV_SECONDS_PER_ENTRY * d * width))
    budget = network_module.EIGH_SECONDS_PER_D3 * d**3 - prop._chebyshev_seconds
    low, high = prop.hamiltonian.spectral_bounds
    terms = chebyshev.chebyshev_terms(0.5 * (high - low) * np.abs(times).max(initial=0.0))
    if terms * step >= budget:
        return None
    prop._chebyshev_seconds += terms * step
    return terms


def test_term_count_shortcut_makes_the_full_count_choice(rng):
    choices = set()
    for n, k in ((8, 2), (14, 2), (25, 2), (40, 2), (16, 3)):
        net = SpinNetwork.chain(rng.uniform(0.5, 1.5, n - 1), rng.uniform(-0.3, 0.3, n - 1), rng.uniform(-0.3, 0.3, n))
        prop = SectorPropagator(net, k)
        budget = network_module.EIGH_SECONDS_PER_D3 * prop.sector.dimension**3
        for tmax, points, width, spent in itertools.product((0.0, 0.3, 2.0, 12.0, 60.0, 400.0), (1, 6, 200),
                                                            (1, 2, 4), (0.0, 0.5, 0.95)):
            times = np.linspace(-tmax, tmax, points)
            prop._chebyshev_seconds = spent * budget
            got = prop._affordable_terms(times, width)
            got_spent = prop._chebyshev_seconds
            prop._chebyshev_seconds = spent * budget
            assert got == affordable_terms_with_full_count(prop, times, width)
            assert got_spent == prop._chebyshev_seconds
            choices.add(got is None)
    assert choices == {True, False}


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


def test_term_count_equals_the_jv_seeded_count():
    grid = np.concatenate([np.arange(20001) * 0.0025, np.logspace(-12.0, 5.0, 1000),
                           np.random.default_rng(29).uniform(0.0, 5000.0, 1000)])
    assert [chebyshev.chebyshev_terms(x) for x in grid] == [jv_seeded_terms(x) for x in grid]


@pytest.mark.parametrize("size", [8, 64, 128, 1 << 12, 1 << 18])
def test_circle_sines_match_sindg(size):
    from scipy.special import sindg

    sines, reference = chebyshev._circle_sines(size), sindg(360.0 * np.arange(size) / size)
    assert np.abs(sines - reference).max() <= 2.3e-16
    quarter = sines[::size // 4]  # 0, 90, 180 and 270 degrees, signed zeros included
    assert quarter.tolist() == [0.0, 1.0, 0.0, -1.0]
    assert np.array_equal(np.signbit(quarter), np.signbit(reference[::size // 4]))


def test_bessel_weights_stay_near_jv():
    from scipy.special import jv

    orders = np.arange(3100)
    assert np.abs(chebyshev._bessel_j(np.array([3000.0]), orders.size)[:, 0] - jv(orders, 3000.0)).max() <= 5e-14


def test_column_tables_skip_eigh_until_the_budget_is_spent(rng, paths):
    prop = SectorPropagator(open_xy_chain(rng, 25), 2)  # d = 300
    prop.table(np.linspace(0.5, 12.0, 6), [(3, 8)])
    assert paths.counts == (0, 1)
    # scalar tables, as in the Brent peak refinement: Chebyshev until the estimated cost of
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
