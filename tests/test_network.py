import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinmaps import (
    NetworkChannel,
    NumericalError,
    SectorPropagator,
    SpinNetwork,
    build_sector_hamiltonian,
    pair_amplitude_determinant,
)
from spinmaps import network as network_module
from spinmaps.network import AmplitudeTable, ExcitationSector, reduced_state
from spinmaps.oracle import FullPropagator, basis_index, full_hamiltonian, reduced_output

from conftest import random_network


def test_network_validation():
    with pytest.raises(ValueError):
        SpinNetwork(np.array([[0.0, 1.0], [2.0, 0.0]]))  # not symmetric
    with pytest.raises(ValueError):
        SpinNetwork(np.array([[1.0, 0.5], [0.5, 0.0]]))  # nonzero diagonal
    with pytest.raises(ValueError):
        SpinNetwork(np.zeros((2, 2)), fields=np.zeros(3))  # inconsistent sizes
    with pytest.raises(ValueError, match="xy couplings must be finite"):
        SpinNetwork(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    with pytest.raises(ValueError, match="zz couplings must be finite"):
        SpinNetwork(np.eye(2)[::-1], np.array([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(ValueError, match="fields must be finite"):
        SpinNetwork(np.eye(2)[::-1], fields=[0.0, -np.inf])
    net = SpinNetwork.uniform_chain(4, 0.7)
    assert net.n_sites == 4
    assert net.is_open_chain()
    assert net.xy[0, 1] == 0.7 and net.xy[0, 2] == 0.0


def test_sector_basis_ordering():
    sector = ExcitationSector(4, 2)
    assert sector.dimension == 6
    assert sector.sites.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    assert not any(isinstance(v, (tuple, dict)) for v in vars(sector).values())  # one basis, the array
    assert sector.index_of((2, 0)) == 1  # canonicalized lookup
    with pytest.raises(ValueError):
        ExcitationSector(4, 5)
    with pytest.raises(ValueError):
        sector.index_of((0, 0))


def test_two_site_one_excitation_block():
    j = 0.83
    net = SpinNetwork(np.array([[0.0, j], [j, 0.0]]))
    h = build_sector_hamiltonian(net, 1).matrix
    assert np.allclose(h, [[0.0, 2 * j], [2 * j, 0.0]])


def test_vacuum_sector_is_scalar(rng):
    net = random_network(rng, 4)
    h0 = build_sector_hamiltonian(net, 0)
    assert h0.matrix.shape == (1, 1)
    # all spins down: s_i = -1 everywhere
    expected = -net.fields.sum() + 0.5 * net.zz.sum()
    assert abs(h0.matrix[0, 0] - expected) < 1e-12


def test_three_site_chain_spectrum_matches_dense_oracle():
    j = 1.3
    net = SpinNetwork.uniform_chain(3, j)
    h1 = build_sector_hamiltonian(net, 1).matrix
    evals = np.sort(np.linalg.eigvalsh(h1))
    assert np.allclose(evals, [-2 * np.sqrt(2) * j, 0.0, 2 * np.sqrt(2) * j], atol=1e-12)
    # frozen from the dense 8x8 Hamiltonian restricted to the one-excitation block
    full = full_hamiltonian(net)
    rows = [basis_index((s,), 3) for s in range(3)]
    block = full[np.ix_(rows, rows)]
    assert np.allclose(np.sort(np.linalg.eigvalsh(block)), evals, atol=1e-12)


def test_sector_out_of_range(rng):
    net = random_network(rng, 3)
    with pytest.raises(ValueError):
        build_sector_hamiltonian(net, 4)
    with pytest.raises(ValueError):
        build_sector_hamiltonian(net, -1)


def test_amplitudes_zero_time_is_identity(rng):
    net = random_network(rng, 5)
    for k in (0, 1, 2):
        table = SectorPropagator(net, k).table(0.0)
        assert np.allclose(table.amplitudes, np.eye(table.sector.dimension), atol=1e-14)


def test_two_site_amplitude_closed_form():
    j = 0.61
    net = SpinNetwork(np.array([[0.0, j], [j, 0.0]]))
    for t in (0.3, 1.7, 4.0):
        table = SectorPropagator(net, 1).table(t)
        assert abs(table.site_amplitude(0, 1) - (-1j * np.sin(2 * j * t))) < 1e-12
        assert abs(table.site_amplitude(0, 0) - np.cos(2 * j * t)) < 1e-12


def test_three_site_chain_end_to_end_amplitude():
    j = 0.9
    net = SpinNetwork.uniform_chain(3, j)
    for t in (0.2, 0.9, 2.4):
        f13 = SectorPropagator(net, 1).table(t).site_amplitude(0, 2)
        assert abs(f13 - (np.cos(2 * np.sqrt(2) * j * t) - 1.0) / 2.0) < 1e-12
    t_star = np.pi / (2 * np.sqrt(2) * j)
    assert abs(abs(SectorPropagator(net, 1).table(t_star).site_amplitude(0, 2)) - 1.0) < 1e-12


def test_amplitude_unitarity_and_completeness(rng):
    for _ in range(10):
        net = random_network(rng, int(rng.integers(2, 7)))
        t = float(rng.uniform(0.0, 4.0))
        for k in (1, 2):
            a = SectorPropagator(net, k).table(t).amplitudes
            dim = a.shape[0]
            assert np.abs(a @ a.conj().T - np.eye(dim)).max() < 1e-10
            assert np.abs((np.abs(a) ** 2).sum(axis=0) - 1.0).max() < 1e-10


def test_block_assembly_reproduces_full_unitary(rng):
    # every sector table is the full unitary's block at the sector's basis states, and nothing leaves it
    for n in (3, 5):
        net = random_network(rng, n)
        t = float(rng.uniform(0.5, 2.0))
        u_full = FullPropagator(net).unitary(t)
        for k in range(n + 1):
            table = SectorPropagator(net, k).table(t)
            index = basis_index(table.sector.sites, n)
            cols = u_full[:, index]
            assert np.abs(table.amplitudes - cols[index]).max() < 1e-9
            cols[index] = 0.0
            assert np.abs(cols).max() < 1e-9


def test_pair_amplitude_lookup_and_errors(rng):
    net = random_network(rng, 4)
    table = SectorPropagator(net, 2).table(0.0)
    assert table.amplitude((0, 1), (0, 1)) == pytest.approx(1.0)
    assert table.amplitude((0, 1), (2, 3)) == pytest.approx(0.0)
    table = SectorPropagator(net, 2).table(0.7)
    assert table.amplitude((0, 1), (2, 3)) == table.amplitudes[5, 0]  # (0, 1) is the first pair, (2, 3) the last
    assert table.amplitude((1, 0), (3, 2)) == table.amplitudes[5, 0]  # a pair in either order
    for source, target in (((1, 1), (2, 3)), ((0, 1), (3, 4)), ((0, 1), (2,)), ((0, 1), (0.5, 2))):
        with pytest.raises(ValueError, match="not a valid configuration"):
            table.amplitude(source, target)
    with pytest.raises(ValueError, match="not a valid configuration"):
        SectorPropagator(net, 1).table(0.0).amplitude((0, 1), (2, 3))


def test_determinant_identity_on_open_chain(rng):
    # N=4 uniform chain: pair amplitude equals the 2x2 determinant of
    # one-excitation amplitudes, cross-checked against the dense oracle
    net = SpinNetwork.uniform_chain(4, 1.1)
    t = 0.77
    k1 = SectorPropagator(net, 1).table(t)
    k2 = SectorPropagator(net, 2).table(t)
    f = k1.amplitudes
    det = f[2, 0] * f[3, 1] - f[3, 0] * f[2, 1]  # f_1^3 f_2^4 - f_1^4 f_2^3
    direct = k2.amplitude((0, 1), (2, 3))
    assert abs(det - direct) < 1e-12
    assert abs(pair_amplitude_determinant(net, k1, 0, 1, 2, 3) - direct) < 1e-12
    u = FullPropagator(net).unitary(t)
    oracle_amp = u[basis_index((2, 3), 4), basis_index((0, 1), 4)]
    assert abs(direct - oracle_amp) < 1e-12


def test_determinant_with_fields(rng):
    net = SpinNetwork.chain(rng.normal(size=4), fields=rng.normal(size=5))
    t = 1.21
    k1 = SectorPropagator(net, 1).table(t)
    k2 = SectorPropagator(net, 2).table(t)
    worst = 0.0
    from itertools import combinations

    for src in combinations(range(5), 2):
        for tgt in combinations(range(5), 2):
            det = pair_amplitude_determinant(net, k1, *src, *tgt)
            worst = max(worst, abs(det - k2.amplitude(src, tgt)))
    assert worst < 1e-12


def test_determinant_rejects_unsupported_networks(rng):
    ring = np.zeros((4, 4))
    for b in range(4):
        ring[b, (b + 1) % 4] = ring[(b + 1) % 4, b] = 1.0
    k1 = SectorPropagator(SpinNetwork.uniform_chain(4), 1).table(0.5)
    with pytest.raises(ValueError):
        pair_amplitude_determinant(SpinNetwork(ring), k1, 0, 1, 2, 3)
    with_zz = SpinNetwork.chain([1.0, 1.0, 1.0], zz_couplings=[0.3, 0.3, 0.3])
    with pytest.raises(ValueError):
        pair_amplitude_determinant(with_zz, k1, 0, 1, 2, 3)


def test_vacuum_amplitude_matches_full_propagator(rng):
    net = random_network(rng, 4)
    t = 0.9
    u = FullPropagator(net).unitary(t)
    assert abs(NetworkChannel(net).vacuum(t) - u[0, 0]) < 1e-12


def test_vacuum_amplitude_reads_the_sector_diagonal_without_a_sector(rng, monkeypatch, sector_builds):
    net = random_network(rng, 5)
    assert net.diagonal_energy() == build_sector_hamiltonian(net, 0).matrix[0, 0]
    chan = NetworkChannel(net)

    def no_sector(network, k):
        raise AssertionError("the vacuum phase built a sector Hamiltonian")

    monkeypatch.setattr(network_module, "build_sector_hamiltonian", no_sector)
    assert chan.vacuum(0.7) == complex(np.exp(-1j * net.diagonal_energy() * 0.7))
    assert sector_builds == [1]  # the channel's k=1 propagator, never a k=0 one


def test_disjoint_union_is_block_diagonal(rng):
    a, b = random_network(rng, 3), random_network(rng, 4)
    union = a.disjoint_union(b)
    assert union.n_sites == 7
    for name in ("xy", "zz"):
        m = getattr(union, name)
        assert np.array_equal(m[:3, :3], getattr(a, name))
        assert np.array_equal(m[3:, 3:], getattr(b, name))
        assert not m[:3, 3:].any() and not m[3:, :3].any()
    assert np.array_equal(union.fields, np.concatenate([a.fields, b.fields]))
    idle = SpinNetwork(np.zeros((1, 1))).disjoint_union(b)  # one uncoupled site first
    assert idle.n_sites == 5 and idle.fields[0] == 0.0
    assert not idle.xy[0].any() and not idle.zz[0].any()
    assert np.array_equal(idle.xy[1:, 1:], b.xy) and np.array_equal(idle.fields[1:], b.fields)


def reference_sector_hamiltonian(network, k):
    """Per-configuration loop with dictionary lookups, kept as the reference build.

    It enumerates its own lexicographic basis, so it reads nothing of the sector classes.
    """
    n = network.n_sites
    basis = list(itertools.combinations(range(n), k))
    index = {occ: a for a, occ in enumerate(basis)}
    h = np.zeros((len(basis), len(basis)), dtype=complex)
    for a, occ in enumerate(basis):
        s = -np.ones(n)
        s[list(occ)] = 1.0
        h[a, a] = s @ network.fields + 0.5 * s @ network.zz @ s
        occ_set = set(occ)
        for i in occ:
            for j in range(n):
                if j in occ_set or network.xy[i, j] == 0.0:
                    continue
                h[index[tuple(sorted(occ_set - {i} | {j}))], a] += 2.0 * network.xy[i, j]
    return h


def test_sector_hamiltonian_is_real_symmetric_and_matches_reference_loop(rng):
    nets = [random_network(rng, n) for n in range(1, 8)]
    nets.append(SpinNetwork.chain(rng.normal(size=8), rng.normal(size=8), rng.normal(size=9)))
    for net in nets:
        for k in range(net.n_sites + 1):
            h = build_sector_hamiltonian(net, k).matrix
            assert h.dtype == np.float64
            assert np.array_equal(h, h.T)
            assert np.array_equal(h, reference_sector_hamiltonian(net, k).real)


def test_sector_diagonal_matches_the_per_configuration_expression_at_workload_sizes(rng):
    """The stacked diagonal, over several row blocks, is bitwise the scalar expression of each configuration."""
    cases = [
        (SpinNetwork.chain(rng.uniform(0.5, 1.5, 39), rng.uniform(-0.3, 0.3, 39), rng.uniform(-0.2, 0.2, 40)), 2),
        (random_network(rng, 30), 2),  # dense ZZ couplings
        (SpinNetwork.chain(rng.uniform(0.5, 1.5, 49), rng.uniform(-0.3, 0.3, 49), rng.uniform(-0.2, 0.2, 50)), 3),
    ]
    for net, k in cases:
        reference = []
        for occ in itertools.combinations(range(net.n_sites), k):
            s = -np.ones(net.n_sites)
            s[list(occ)] = 1.0
            reference.append(s @ net.fields + 0.5 * s @ net.zz @ s)
        assert np.array_equal(build_sector_hamiltonian(net, k).diagonal, reference)
    assert len(reference) == 19600 > 4 * network_module.DIAGONAL_BLOCK_ROWS
    occupied = ExcitationSector(50, 3).occupation()
    assert np.array_equal(net.diagonal_energy(occupied[::-1].reshape(2, -1, 50)).ravel(), reference[::-1])
    s = -np.ones(50)
    assert net.diagonal_energy() == s @ net.fields + 0.5 * s @ net.zz @ s  # the vacuum, as a scalar
    for bad in (occupied[:, :49], [0, 2, 7]):  # a site list is not an occupation
        with pytest.raises(ValueError, match="boolean with 50 sites on its last axis"):
            net.diagonal_energy(bad)


def test_sector_positions_match_index_of():
    for n in range(1, 9):
        for k in range(n + 1):
            sector = ExcitationSector(n, k)
            assert list(sector.positions(sector.sites)) == list(range(sector.dimension))


def test_rank_lookups_do_not_enumerate_the_basis():
    sector = ExcitationSector(40, 4)
    assert sector.dimension == 91390
    assert sector.positions(np.array([[0, 1, 2, 3], [0, 1, 2, 4], [36, 37, 38, 39]])).tolist() == [0, 1, 91389]
    assert sector.index_of((39, 0, 38, 37)) == 9138  # the last of the C(39, 3) rows that start at site 0
    assert "sites" not in vars(sector)  # neither lookup built the (d, k) basis array
    sites = sector.sites
    assert sites.shape == (91390, 4) and sites.dtype == np.intp and not sites.flags.writeable
    assert sector.sites is sites
    assert sites[9138].tolist() == [0, 37, 38, 39]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 9))
def test_index_of_is_the_validated_rank_of_any_site_order(data, n):
    k = data.draw(st.integers(0, n), label="k")
    sector = ExcitationSector(n, k)
    assert sector.sites.tolist() == [list(c) for c in itertools.combinations(range(n), k)]
    a = data.draw(st.integers(0, sector.dimension - 1), label="position")
    row = sector.sites[a].tolist()
    order = data.draw(st.permutations(range(k)), label="order")
    assert sector.index_of([row[q] for q in order]) == a == sector.positions(sector.sites[a:a + 1])[0]
    assert sector.index_of(tuple(sector.sites[a][list(order)])) == a  # numpy integers are sites too
    bad = [row + [data.draw(st.integers(0, n - 1), label="extra")]]  # one site too many
    if k:
        q = data.draw(st.integers(0, k - 1), label="slot")
        for site in (None, data.draw(st.integers(-3, -1), label="negative"),
                     n + data.draw(st.integers(0, 3), label="beyond"),
                     row[q] + 0.5, float(row[q]), True):  # dropped, negative, out of range, non-integer, float, bool
            bad.append(row[:q] + ([] if site is None else [site]) + row[q + 1:])
    if k >= 2:
        bad.append(row[:-1] + [row[0]])  # a repeated site, the right count
    for config in bad:
        config = data.draw(st.permutations(config), label="bad order")
        with pytest.raises(ValueError, match=re.escape(f"{config} is not a valid configuration of this sector")):
            sector.index_of(config)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 7),
    k=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(-20.0, 20.0),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=4, unique=True),
)
def test_column_tables_match_full_table_columns(n, k, seed, t, picks):
    net = random_network(np.random.default_rng(seed), n)
    prop = SectorPropagator(net, k)
    full = prop.table(t)
    basis = [tuple(row) for row in prop.sector.sites.tolist()]
    sources = list(dict.fromkeys(basis[p % len(basis)] for p in picks))
    cols = prop.table(t, [tuple(reversed(s)) for s in sources])  # order inside a source is free
    assert cols.sources == tuple(sources)
    assert cols.amplitudes.shape == (len(basis), len(sources))
    for source in sources:
        assert np.abs(cols.column(source) - full.column(source)).max() <= 1e-13
        target = basis[(seed + len(source)) % len(basis)]
        assert abs(cols.amplitude(source, target) - full.amplitude(source, target)) <= 1e-13


def test_column_table_source_errors(rng):
    prop = SectorPropagator(random_network(rng, 5), 1)
    with pytest.raises(ValueError, match="duplicates"):
        prop.table(0.5, [(1,), (1,)])
    with pytest.raises(ValueError, match="not a valid configuration"):
        prop.table(0.5, [(7,)])
    table = prop.table(0.5, [(1,)])
    with pytest.raises(ValueError, match="not among the stored columns"):
        table.site_amplitude(2, 0)


def test_corrupted_eigenbasis_raises_numerical_error(rng, monkeypatch):
    net = random_network(rng, 5)
    eigh = np.linalg.eigh

    def skewed_eigh(matrix):
        w, v = eigh(matrix)
        return w, v * (1.0 + 1e-8)

    monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
    with pytest.raises(NumericalError, match="eigenbasis is not orthonormal") as info:
        SectorPropagator(net, 2).table(0.5)  # eigh runs inside the first eigh-backed table
    assert not isinstance(info.value, ValueError)


def test_column_gram_check_raises_numerical_error(rng):
    table = SectorPropagator(random_network(rng, 4), 1).table(0.7)
    sector, f = table.sector, table.amplitudes
    AmplitudeTable(sector, 0.7, f[:, [0, 2]], ((0,), (2,)))
    with pytest.raises(NumericalError, match="not orthonormal"):
        AmplitudeTable(sector, 0.7, f[:, [0, 2]] * (1.0 + 1e-9), ((0,), (2,)))
    with pytest.raises(NumericalError):
        AmplitudeTable(sector, 0.7, f[:, [0, 0]], ((0,), (1,)))
    with pytest.raises(ValueError, match="must be 4x2"):
        AmplitudeTable(sector, 0.7, f[:, [0]], ((0,), (2,)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_reduced_state_matches_the_dense_oracle(n, seed, data):
    """Any k, 1-4 kept sites in any order, kept sites occupied or not, unsorted grids."""
    net = random_network(np.random.default_rng(seed), n)
    k = data.draw(st.integers(0, n), label="k")
    source = tuple(sorted(data.draw(st.permutations(range(n)), label="order")[:k]))
    keep = data.draw(st.permutations(range(n)), label="keep")[:data.draw(st.integers(1, min(4, n)), label="q")]
    drawn = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4), label="times")
    times = np.array(drawn + [0.0, -0.75])
    prop = SectorPropagator(net, k)
    rho = reduced_state(prop.table(times, [source]), source, keep)
    assert rho.shape == (times.size, 2 ** len(keep), 2 ** len(keep))
    assert np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0).max() <= 1e-12
    sender = np.zeros((2**k, 2**k))
    sender[-1, -1] = 1.0  # every source site excited
    dense = FullPropagator(net)
    for t, slice_ in zip(times, rho):
        ref = reduced_output(net, sender, source, keep, t, propagator=dense)
        assert np.abs(slice_ - ref).max() <= 1e-12
    single = reduced_state(prop.table(times[0], [source]), source, keep)
    assert np.abs(single - rho[0]).max() <= 1e-12


def test_reduced_state_errors(rng):
    table = SectorPropagator(random_network(rng, 5), 2).table(0.4, [(0, 3)])
    with pytest.raises(ValueError, match=re.escape("kept sites [1, 1] contain duplicates")):
        reduced_state(table, (0, 3), [1, 1])
    with pytest.raises(ValueError, match=re.escape("kept sites [5] out of range for 5 sites")):
        reduced_state(table, (0, 3), [5])
    with pytest.raises(ValueError, match="not among the stored columns"):
        reduced_state(table, (1, 3), [0])
