import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinmaps import (
    NetworkChannel,
    NumericalError,
    SectorPropagator,
    SpinNetwork,
    apply,
    reduced_output,
    trace_distance,
)
from spinmaps import network, oracle
from spinmaps.maps import partial_trace, random_density_matrix
from spinmaps.cli import main
from spinmaps.oracle import MAX_SITES, FullPropagator, basis_index, full_hamiltonian, hamiltonian_elements

from conftest import magnetization_expectation, random_network


def random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def initial_density(network, rho_s, sender_sites):
    """The sender state on ``sender_sites`` (in qubit order), every other spin in |0>, as a 2^N matrix."""
    n, k = network.n_sites, len(sender_sites)
    embed = [basis_index([s for q, s in enumerate(sender_sites) if (a >> (k - 1 - q)) & 1], n)
             for a in range(2**k)]
    sigma = np.zeros((1 << n, 1 << n), dtype=complex)
    sigma[np.ix_(embed, embed)] = rho_s
    return sigma


def test_zero_time_is_identity(rng):
    net = random_network(rng, 4)
    psi = random_state(rng, 16)
    assert np.abs(FullPropagator(net).evolve(psi, 0.0) - psi).max() < 1e-12


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
    prop = FullPropagator(net)
    u = prop.unitary(1.4)
    out = u @ rho @ u.conj().T
    assert abs(np.trace(out @ out).real - 1.0) < 1e-10
    with pytest.raises(ValueError, match="state vector"):
        prop.evolve(rho, 1.4)  # a density matrix evolves as U rho U^dag, above


def test_excitation_overlap_matches_sector_amplitude(rng):
    net = SpinNetwork.uniform_chain(3, 0.8)
    prop = FullPropagator(net)
    psi0 = np.zeros(8, dtype=complex)
    psi0[basis_index((0,), 3)] = 1.0  # |100>
    for t in (0.3, 1.9):
        psi_t = prop.evolve(psi0, t)
        overlap = psi_t[basis_index((2,), 3)]
        f13 = SectorPropagator(net, 1).table(t).site_amplitude(0, 2)
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
    with pytest.raises(ValueError, match="contain duplicates"):
        reduced_output(net, random_density_matrix(4, rng), [1, 1], [0], 1.0)
    with pytest.raises(ValueError, match="out of range"):
        reduced_output(net, random_density_matrix(4, rng), [1, 4], [0], 1.0)
    with pytest.raises(ValueError, match="does not match 2 sites"):
        reduced_output(net, random_density_matrix(2, rng), [1, 2], [0], 1.0)


def test_full_hamiltonian_is_real_symmetric(rng):
    h = full_hamiltonian(random_network(rng, 5))
    assert h.dtype == np.float64
    assert np.array_equal(h, h.T)


def loop_hamiltonian(network):
    """The dense 2^N Hamiltonian built bond by bond, as a reference for the vectorised builder.

    Its diagonal is measured from the energy of basis state 0, the vacuum.
    """
    n = network.n_sites
    dim = 1 << n
    bits = (np.arange(dim)[:, None] >> (n - 1 - np.arange(n))) & 1
    s = 2.0 * bits - 1.0
    energy = s @ network.fields + 0.5 * np.einsum("bi,ij,bj->b", s, network.zz, s)
    h = np.diag(energy - energy[0])
    states = np.arange(dim)
    for i in range(n):
        for j in range(i + 1, n):
            if network.xy[i, j] == 0.0:
                continue
            src = states[(bits[:, i] == 1) & (bits[:, j] == 0)]
            dst = src - (1 << (n - 1 - i)) + (1 << (n - 1 - j))
            h[dst, src] += 2.0 * network.xy[i, j]
            h[src, dst] += 2.0 * network.xy[i, j]
    return h


def test_hamiltonian_elements_form_the_loop_hamiltonian_exactly(rng):
    for n in (1, 2, 5, 8):
        for net in (random_network(rng, n), SpinNetwork.chain(rng.normal(size=n - 1), fields=rng.normal(size=n))):
            h = full_hamiltonian(net)
            assert h.tobytes() == loop_hamiltonian(net).tobytes()
            diagonal, rows, cols, values = hamiltonian_elements(net)
            assert len(set(zip(rows, cols))) == rows.size  # no position repeats


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
    sector_engine = ("SectorPropagator", "build_sector_hamiltonian", "reduced_state",
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


def verify_network(rng, n: int, chain: bool) -> SpinNetwork:
    """A random XY+ZZ+field chain, or an all-to-all network drawn as ``spinmaps verify`` draws it."""
    if chain:
        return SpinNetwork.chain(rng.normal(size=n - 1), 0.3 * rng.normal(size=n - 1), 0.5 * rng.normal(size=n))
    j, d = rng.normal(size=(n, n)), 0.3 * rng.normal(size=(n, n))
    j, d = (j + j.T) / 2, (d + d.T) / 2
    np.fill_diagonal(j, 0.0)
    np.fill_diagonal(d, 0.0)
    return SpinNetwork(j, d, 0.5 * rng.normal(size=n))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 10),
    chain=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    times=st.lists(st.floats(-8.0, 8.0), max_size=4),
    data=st.data(),
)
def test_series_oracle_matches_the_eigh_oracle(n, chain, seed, times, data):
    rng = np.random.default_rng(seed)
    net = verify_network(rng, n, chain)
    senders = data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, min(4, n)))]
    if data.draw(st.booleans()):
        receivers = senders[::-1]
    else:  # any sites, overlapping the senders or not
        receivers = data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, min(4, n)))]
    rho = random_density_matrix(1 << len(senders), rng)
    grid = np.array(times + [0.0, -abs(times[0]) - 0.5 if times else -1.5])  # unsorted, t = 0, a negative t
    prop = FullPropagator(net)
    series = reduced_output(net, rho, senders, receivers, grid)
    assert np.abs(series - reduced_output(net, rho, senders, receivers, grid, propagator=prop)).max() <= 1e-12
    r = 1 << len(receivers)
    for propagator in (None, prop):
        assert reduced_output(net, rho, senders, receivers, [], propagator=propagator).shape == (0, r, r)


@pytest.mark.parametrize("t", [np.nan, np.inf, [0.5, -np.inf], [[0.5, 1.0]]])
def test_reduced_output_rejects_bad_times_naming_t(rng, t):
    net = random_network(rng, 4)
    with pytest.raises(ValueError, match=r"^t must be"):
        reduced_output(net, random_density_matrix(2, rng), [0], [3], t)


def test_series_oracle_checks_its_csr_like_the_sector_engine(rng, monkeypatch):
    """The oracle's CSR comes from the same checked builder: a skewed or out-of-range element list is refused."""
    net, rho = random_network(rng, 4), random_density_matrix(2, rng)
    elements = hamiltonian_elements

    def skewed(network):
        diagonal, rows, cols, values = elements(network)
        return diagonal, rows, cols, values * (1.0 + 1e-3 * (rows < cols))  # upper hops off their mirrors

    def stray(network):
        diagonal, rows, cols, values = elements(network)
        return diagonal, rows, cols + (cols == cols.max()) * diagonal.size, values  # a hop past the 2^N space

    for broken, message in ((skewed, "not Hermitian"), (stray, r"hop positions must lie in \[0, 16\)")):
        monkeypatch.setattr(oracle, "hamiltonian_elements", broken)
        with pytest.raises(ValueError, match=message):
            reduced_output(net, rho, [0], [3], [0.5, 1.0])


def test_series_memory_cap_counts_the_chebyshev_terms(rng, monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle series started")

    monkeypatch.setattr(oracle, "unit_columns", refuse)
    # about 4e9 terms: their Bessel weights alone would take hundreds of GiB
    with pytest.raises(ValueError, match=r"^oracle series: 3 sites, 1 columns and 2 times exceed the series-oracle "
                                         r"cap \(estimated peak .* GiB for at most 400\d{7} Chebyshev terms"):
        reduced_output(SpinNetwork.uniform_chain(3), np.diag([0.0, 1.0]), [0], [2], [0.0, 1e9])
    # the cap's term count bounds the series' own, taken at the Gershgorin half-width of the full H
    monkeypatch.setattr(oracle, "physical_memory_bytes", lambda: 0)  # every estimate is rejected, naming its terms
    for n, chain in ((2, True), (5, False), (8, False), (8, True)):
        net = verify_network(rng, n, chain)
        diagonal, rows, _, values = hamiltonian_elements(net)
        radius = np.bincount(rows, np.abs(values), minlength=diagonal.size)
        half = 0.5 * ((diagonal + radius).max() - (diagonal - radius).min())
        with pytest.raises(ValueError, match=r"for at most \d+ Chebyshev terms") as info:
            oracle.require_series_memory(net, 1, np.array([0.5, -7.0]), "oracle series")
        assert oracle.chebyshev_terms(7.0 * half) <= int(re.search(r"at most (\d+)", str(info.value)).group(1))


def test_truncated_oracle_series_raises_numerical_error(rng, monkeypatch, tmp_path, capsys):
    terms = oracle.chebyshev_terms
    monkeypatch.setattr(oracle, "chebyshev_terms", lambda x: terms(x) // 2)
    net = random_network(rng, 6)
    with pytest.raises(NumericalError, match="oracle columns are not orthonormal") as info:
        reduced_output(net, random_density_matrix(4, rng), [0, 1], [4, 5], [0.5, 6.0])
    assert not isinstance(info.value, ValueError)
    config = tmp_path / "qst.yaml"
    config.write_text("scenario: qst\nnetwork: {kind: uniform_chain, sites: 8}\nsites: {sender: 0, receiver: 7}\n"
                      "times: {start: 0.5, stop: 6.0, points: 4}\nverify: {oracle: true}\n")
    out = tmp_path / "never.csv"
    assert main(["run", str(config), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "oracle columns are not orthonormal" in err
    assert not out.exists()
