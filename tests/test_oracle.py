import numpy as np
import pytest

from spinmaps import (
    NetworkChannel,
    SpinNetwork,
    amplitudes,
    apply,
    full_evolve,
    magnetization_expectation,
    reduced_output,
    trace_distance,
)
from spinmaps import network, oracle
from spinmaps.maps import partial_trace, random_density_matrix
from spinmaps.network import basis_index
from spinmaps.oracle import MAX_SITES, FullPropagator, full_hamiltonian, initial_density

from conftest import random_network


def random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def test_zero_time_is_identity(rng):
    net = random_network(rng, 4)
    psi = random_state(rng, 16)
    assert np.abs(full_evolve(net, psi, 0.0) - psi).max() < 1e-12


def test_site_cap():
    with pytest.raises(ValueError):
        full_hamiltonian(SpinNetwork.uniform_chain(MAX_SITES + 1))


def test_magnetization_basics():
    n = 5
    down = np.zeros(1 << n)
    down[0] = 1.0
    up = np.zeros(1 << n)
    up[-1] = 1.0
    assert magnetization_expectation(down) == pytest.approx(-n)
    assert magnetization_expectation(up) == pytest.approx(n)


def test_magnetization_conserved(rng):
    net = random_network(rng, 5)
    prop = FullPropagator(net)
    for _ in range(10):
        psi = random_state(rng, 32)
        t = float(rng.uniform(0, 5))
        before = magnetization_expectation(psi)
        after = magnetization_expectation(prop.evolve(psi, t))
        assert abs(before - after) < 1e-10


def test_purity_preserved(rng):
    net = random_network(rng, 4)
    rho = np.outer(*(lambda p: (p, p.conj()))(random_state(rng, 16)))
    out = full_evolve(net, rho, 1.4)
    assert abs(np.trace(out @ out).real - 1.0) < 1e-10


def test_excitation_overlap_matches_sector_amplitude(rng):
    net = SpinNetwork.uniform_chain(3, 0.8)
    prop = FullPropagator(net)
    psi0 = np.zeros(8, dtype=complex)
    psi0[basis_index((0,), 3)] = 1.0  # |100>
    for t in (0.3, 1.9):
        psi_t = prop.evolve(psi0, t)
        overlap = psi_t[basis_index((2,), 3)]
        f13 = amplitudes(net, 1, t).site_amplitude(0, 2)
        assert abs(overlap - f13) < 1e-10


def test_reduced_output_zero_time(rng):
    net = random_network(rng, 4)
    rho = random_density_matrix(4, rng)
    out = reduced_output(net, rho, [1, 3], [1, 3], 0.0)
    assert np.abs(out - rho).max() < 1e-12


def test_reduced_output_is_valid_state(rng):
    net = random_network(rng, 4)
    rho = random_density_matrix(4, rng)
    out = reduced_output(net, rho, [0, 1], [2, 3], 1.2)
    assert abs(np.trace(out) - 1.0) < 1e-10
    assert np.linalg.eigvalsh(out).min() > -1e-10


def test_reduced_output_receiver_order_matters(rng):
    net = random_network(rng, 4)
    rho = random_density_matrix(4, rng)
    a = reduced_output(net, rho, [0, 1], [2, 3], 0.9)
    b = reduced_output(net, rho, [0, 1], [3, 2], 0.9)
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.abs(swap @ a @ swap - b).max() < 1e-12


def test_central_equivalence_one_qubit(rng):
    net = random_network(rng, 5)
    prop = FullPropagator(net)
    chan = NetworkChannel(net)
    for _ in range(5):
        t = float(rng.uniform(0, 4))
        s, r = (int(x) for x in rng.integers(0, 5, 2))
        rho = random_density_matrix(2, rng)
        out = apply(chan.one_qubit(s, r, t), rho)
        ref = reduced_output(net, rho, [s], [r], t, propagator=prop)
        assert trace_distance(out, ref) < 1e-9


def test_initial_density_validation(rng):
    net = random_network(rng, 4)
    with pytest.raises(ValueError):
        initial_density(net, random_density_matrix(4, rng), [1, 1])
    with pytest.raises(ValueError):
        initial_density(net, random_density_matrix(4, rng), [1, 4])
    with pytest.raises(ValueError):
        initial_density(net, random_density_matrix(2, rng), [1, 2])


def test_full_hamiltonian_is_real_symmetric(rng):
    h = full_hamiltonian(random_network(rng, 5))
    assert h.dtype == np.float64
    assert np.array_equal(h, h.T)


def test_vector_evolve_matches_unitary(rng):
    net = random_network(rng, 6)
    prop = FullPropagator(net)
    for t in (0.0, 0.7, 3.1):
        psi = random_state(rng, 64)
        assert np.abs(prop.evolve(psi, t) - prop.unitary(t) @ psi).max() < 1e-12


@pytest.mark.parametrize(
    "n, senders, receivers",
    [
        (5, [2], [4]),
        (6, [0], [1, 5]),
        (6, [1, 3], [0]),
        (7, [0, 1], [5, 6]),
        (7, [4, 2], [2, 4]),  # same sites, reversed order
        (8, [1, 6], [6, 3]),  # overlapping sets
        (8, [3], [3]),
    ],
)
def test_reduced_output_matches_dense_reference(rng, n, senders, receivers):
    net = random_network(rng, n)
    prop = FullPropagator(net)
    for t in (0.4, 2.3):
        rho = random_density_matrix(1 << len(senders), rng)
        u = prop.unitary(t)
        sigma_t = u @ initial_density(net, rho, senders) @ u.conj().T
        ref = partial_trace(sigma_t, receivers, [2] * n)
        out = reduced_output(net, rho, senders, receivers, t, propagator=prop)
        assert np.abs(out - ref).max() < 1e-12


def test_reduced_output_rejects_bad_receivers(rng):
    net = random_network(rng, 4)
    rho = random_density_matrix(2, rng)
    for receivers in ([4], [0, 9], [-1], [2, 2]):
        with pytest.raises(ValueError):
            reduced_output(net, rho, [0], receivers, 1.0)


def test_oracle_shares_no_code_with_sector_engine():
    sector_engine = ("SectorPropagator", "build_sector_hamiltonian", "amplitudes",
                     "AmplitudeTable", "ExcitationSector")
    bound = list(vars(oracle).values())
    for name in sector_engine:
        assert not hasattr(oracle, name)
        assert all(value is not getattr(network, name) for value in bound)


def test_max_sites_follows_memory_estimate(monkeypatch):
    assert oracle.dense_peak_bytes(12) == 5 * 8 * 4**12
    monkeypatch.setattr(oracle, "physical_memory_bytes", lambda: 2**50)
    assert oracle.max_sites() == oracle.SITE_CEILING == 14
    monkeypatch.setattr(oracle, "physical_memory_bytes", lambda: 100 * 10**6)
    assert oracle.max_sites() == 10
    with pytest.raises(ValueError, match=r"dense Hamiltonian: 11 sites exceed the dense-oracle cap of 10 sites"):
        full_hamiltonian(SpinNetwork.uniform_chain(11))  # rejected before any allocation
