"""Two-qubit maps of free-fermion networks (open chains with no ZZ coupling) from the k = 1 table alone.

On such a network every pair amplitude is a 2 x 2 minor of the one-excitation
table, so :class:`NetworkChannel` builds no k = 2 sector.  The sector engine
(the same Kraus assembly fed from the k = 2 column) and the dense oracle are
this path's checks.
"""

import numpy as np
import pytest

from spinmaps import KrausSet, NetworkChannel, NumericalError, SectorPropagator, SpinNetwork, ScenarioSpec, run
from spinmaps import network as network_module
from spinmaps.maps import apply, random_density_matrix, superop_from_kraus, trace_distance, two_qubit_kraus
from spinmaps.oracle import FullPropagator, reduced_output


def open_chain(rng, n: int, fields: bool = True) -> SpinNetwork:
    # couplings of the paper's scale, J ~ 1: each path's phase error, about |E| t eps, stays near 1e-13 at t = 250
    return SpinNetwork.chain(rng.uniform(0.5, 1.5, n - 1), fields=rng.uniform(-0.3, 0.3, n) if fields else None)


def pair_cases(rng, n: int) -> list:
    """(senders, receivers): apart, both reversed, overlapping, storage, and storage with the qubits swapped."""
    i, j, a, b = (int(x) for x in rng.choice(n, 4, replace=False))
    return [((i, j), (a, b)), ((j, i), (b, a)), ((i, j), (j, a)), ((i, j), (i, j)), ((j, i), (i, j))]


def sector_superop(chan: NetworkChannel, senders, receivers, times) -> np.ndarray:
    """The same map with its pair amplitudes gathered from the k = 2 sector's (i, j) column."""
    k1 = chan.k1.table(times, [(senders[0],), (senders[1],)])
    k2 = chan.k2.table(times, [senders])
    return superop_from_kraus(two_qubit_kraus(k1, k2, senders, receivers))


@pytest.fixture
def no_k2_sector(monkeypatch):
    """Building any k = 2 sector Hamiltonian fails the test."""
    build = network_module.build_sector_hamiltonian

    def refuse_k2(network, k):
        if k == 2:
            raise AssertionError("a two-qubit map built the k = 2 sector Hamiltonian")
        return build(network, k)

    monkeypatch.setattr(network_module, "build_sector_hamiltonian", refuse_k2)


@pytest.mark.parametrize("path", ["eigh", "chebyshev"])
def test_free_fermion_maps_match_the_k2_sector(rng, monkeypatch, paths, path):
    # eigh: no series is ever affordable; chebyshev: every column table takes the series
    monkeypatch.setattr(network_module, "EIGH_SECONDS_PER_D3", 0.0 if path == "eigh" else 1e9)
    sizes = ((4, False), (9, True), (17, False), (28, True), (40, True))
    networks = [open_chain(rng, n, fields) for n, fields in sizes]
    networks.append(open_chain(rng, 12).disjoint_union(open_chain(rng, 7, fields=False)))  # a dual rail
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 250.0, 7))])
    for net in networks:
        chan = NetworkChannel(net)
        assert chan.k1.free_fermion
        for senders, receivers in pair_cases(rng, net.n_sites):
            free = superop_from_kraus(chan.two_qubit(senders, receivers, times))
            assert np.abs(free - sector_superop(chan, senders, receivers, times)).max() <= 1e-12
    assert (paths.chebyshev == 0) if path == "eigh" else (paths.eigh_shapes == [])


def test_free_fermion_maps_match_the_oracle(rng):
    for n, fields in ((4, False), (7, True), (10, True)):
        net = open_chain(rng, n, fields)
        prop, chan = FullPropagator(net), NetworkChannel(net)
        times = np.sort(rng.uniform(0.0, 40.0, 5))
        for senders, receivers in pair_cases(rng, n):
            rho = random_density_matrix(4, rng)
            out = apply(chan.two_qubit(senders, receivers, times), rho)
            ref = reduced_output(net, rho, senders, receivers, times, propagator=prop)
            assert trace_distance(out, ref).max() <= 1e-12
        assert "k2" not in vars(chan)


def test_zz_free_chains_build_no_k2_sector(rng, no_k2_sector):
    times = tuple(np.linspace(0.0, 20.0, 9))
    chain = open_chain(rng, 9)
    chan = NetworkChannel(chain)
    chan.two_qubit((0, 1), (8, 7), np.array(times))
    chan.two_qubit((3, 2), (3, 2), 4.5)
    assert "k2" not in vars(chan)
    dual = SpinNetwork.uniform_chain(4).disjoint_union(open_chain(rng, 5))
    for net, sites in ((chain, {"senders": [0, 1], "receivers": [8, 7]}),
                       (dual, {"senders": [0, 4], "receivers": [3, 8]})):
        transfer = run(ScenarioSpec(kind="two_qubit_transfer", times=times, network=net, sites=sites,
                                    initial={"kind": "werner", "p": 0.8, "bell": "phi+"},
                                    verify_oracle=True, verify_cptp=True))
        assert transfer.column("oracle_dev").max() <= 1e-12
    storage = run(ScenarioSpec(kind="storage", times=times, network=chain, sites={"senders": [2, 5]},
                               initial={"kind": "werner", "p": 0.9}, verify_oracle=True))
    assert storage.column("oracle_dev").max() <= 1e-12
    # the grid peak lies inside the grid, so the report's golden-section search evaluates maps off the grid
    weak = run(ScenarioSpec(kind="weak_pair", times=tuple(np.linspace(0.0, 314.0, 40)),
                            params={"wire_sites": 2, "J": 1.0, "g": 0.05}, verify_oracle=True))
    assert weak.meta["peak_concurrence"] > weak.column("concurrence").max()


def test_zz_bonds_and_rings_keep_the_k2_sector(rng, sector_builds):
    one_zz = SpinNetwork.chain(rng.uniform(0.5, 1.5, 5), zz_couplings=[0.0, 0.0, 0.3, 0.0, 0.0],
                               fields=rng.uniform(-0.3, 0.3, 6))
    ring = open_chain(rng, 6).xy.copy()
    ring[0, 5] = ring[5, 0] = 0.8
    for net in (one_zz, SpinNetwork(ring)):
        sector_builds.clear()
        chan = NetworkChannel(net)
        assert not chan.k1.free_fermion
        times = np.array([0.7, 3.1, 9.4])
        rho = random_density_matrix(4, rng)
        out = apply(chan.two_qubit((0, 1), (5, 4), times), rho)
        assert sector_builds == [1, 2]
        ref = reduced_output(net, rho, (0, 1), (5, 4), times, propagator=FullPropagator(net))
        assert trace_distance(out, ref).max() <= 1e-12


def test_free_path_keeps_the_column_and_completeness_checks(rng, monkeypatch):
    chan = NetworkChannel(open_chain(rng, 8))
    columns = SectorPropagator._eigh_columns
    monkeypatch.setattr(SectorPropagator, "_eigh_columns", lambda prop, *args: 1.001 * columns(prop, *args))
    with pytest.raises(NumericalError, match="not orthonormal"):
        chan.two_qubit((0, 1), (7, 6), 2.5)
    monkeypatch.setattr(SectorPropagator, "_eigh_columns", columns)
    defects = []
    defect = KrausSet.completeness_defect
    monkeypatch.setattr(KrausSet, "completeness_defect", lambda ks: defects.append(defect(ks)) or defects[-1])
    chan.two_qubit((0, 1), (7, 6), np.array([2.5, 7.0]))
    assert len(defects) == 1 and defects[0].shape == (2, 4, 4) and np.abs(defects[0]).max() <= 1e-10
    monkeypatch.setattr(KrausSet, "completeness_defect", lambda ks: defect(ks) + 1e-6)
    with pytest.raises(ValueError, match="Kraus completeness violated"):
        chan.two_qubit((0, 1), (7, 6), 2.5)


def test_minors_need_the_free_fermion_verdict_of_the_table(rng):
    """The k = 1 minors give wrong pair amplitudes off free fermions, so a table of such a network refuses them."""
    zz_chain = SpinNetwork.chain([1.0, 0.8, 1.2, 0.9], zz_couplings=[0.5, -0.4, 0.3, 0.6])
    ring = open_chain(rng, 5).xy.copy()
    ring[0, 4] = ring[4, 0] = 0.8
    for net, free in ((zz_chain, False), (SpinNetwork(ring), False), (open_chain(rng, 5), True)):
        chan = NetworkChannel(net)
        k1, k2 = chan.k1.table(1.3, [(0,), (1,)]), chan.k2.table(1.3, [(0, 1)])
        assert chan.k1.free_fermion == chan.k2.free_fermion == k1.free_fermion == k2.free_fermion == free
        assert not hasattr(chan, "free_fermion")
        rho = random_density_matrix(4, rng)
        ref = reduced_output(net, rho, (0, 1), (4, 3), 1.3, propagator=FullPropagator(net))
        assert trace_distance(apply(two_qubit_kraus(k1, k2, (0, 1), (4, 3)), rho), ref) <= 1e-12
        if free:
            assert trace_distance(apply(two_qubit_kraus(k1, None, (0, 1), (4, 3)), rho), ref) <= 1e-12
        else:
            with pytest.raises(ValueError, match="^k2 is required"):
                two_qubit_kraus(k1, None, (0, 1), (4, 3))
