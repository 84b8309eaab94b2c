import itertools

import numpy as np
import pytest

from spinmaps import maps
from spinmaps import (
    AmplitudeTable,
    KrausSet,
    NetworkChannel,
    NumericalError,
    SectorPropagator,
    SpinNetwork,
    apply,
    assert_density_matrix,
    choi_from_superop,
    extend_with_identity,
    is_cptp,
    one_qubit_kraus,
    partial_trace,
    superop_from_kraus,
    tensor_map,
    trace_distance,
    two_qubit_kraus,
    two_qubit_map_elements,
    two_qubit_sparsity_pattern,
)
from spinmaps.maps import (
    _pair_targets,
    apply_kraus,
    distributed_pair_matrix,
    dual_rail_matrix,
    one_qubit_transfer_matrix,
    partial_trace_outer,
    pure_state_density,
    random_density_matrix,
)
from spinmaps.measures import bell_state, concurrence
from spinmaps.oracle import FullPropagator, reduced_output

from conftest import random_network, rebuilt_two_qubit_kraus


def random_amplitude(rng):
    return rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())


def identity_kraus(dim):
    return KrausSet((np.eye(dim, dtype=complex),))


def random_complete_kraus(rng, dim, n_env=3):
    """Stinespring dilation of a Haar-ish unitary gives a complete Kraus family."""
    big = dim * n_env
    g = rng.normal(size=(big, big)) + 1j * rng.normal(size=(big, big))
    q, _ = np.linalg.qr(g)
    ops = tuple(q.reshape(n_env, dim, big)[r, :, :dim] for r in range(n_env))
    return KrausSet(ops)


# ---------------------------------------------------------------------------
# representations

def test_identity_superoperator():
    assert np.allclose(superop_from_kraus(identity_kraus(3)), np.eye(9))


def test_superop_matches_direct_application(rng):
    ks = random_complete_kraus(rng, 4)
    rho = random_density_matrix(4, rng)
    direct = apply(ks, rho)
    via_matrix = (superop_from_kraus(ks) @ rho.reshape(-1)).reshape(4, 4)  # row-major vectorization
    assert np.abs(direct - via_matrix).max() < 1e-12


def test_random_complete_kraus_satisfies_superop_constraints(rng):
    for _ in range(10):
        ks = random_complete_kraus(rng, 4)
        a = superop_from_kraus(ks)
        verdict = is_cptp(a)  # the superoperator input
        assert verdict.ok and verdict.trace_defect <= 1e-10
        # Hermiticity preservation: conj(A[(i,j),(n,m)]) = A[(j,i),(m,n)]
        a4 = a.reshape(4, 4, 4, 4)
        assert np.abs(a4.conj() - a4.transpose(1, 0, 3, 2)).max() <= 1e-10


def test_kraus_completeness_enforced():
    bad = np.array([[1.0, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError, match="Kraus completeness violated by 7.500e-01"):
        KrausSet((bad,))
    with pytest.raises(TypeError):  # there is no opt-out: a map that is not complete is a superoperator
        KrausSet((bad,), complete=False)


@pytest.mark.parametrize("operators, message", [
    ((), "needs at least one operator"),
    (np.zeros((0, 2, 2)), "needs at least one operator"),
    ((np.eye(2), np.eye(3)), "must share the same shape"),
    ((np.eye(2), np.ones((2, 2, 2))), "must share the same shape"),
    ((np.ones(2),), "must be matrices"),
    (np.eye(2), "must be matrices"),  # a bare matrix is a stack of vectors
    (np.ones((1, 1, 2, 2, 2)), "must be matrices"),
    (np.zeros((1, 0, 0)), "must be matrices"),  # an empty time axis passes; an empty matrix does not
])
def test_kraus_set_rejects_empty_ragged_and_non_matrix_operators(operators, message):
    with pytest.raises(ValueError, match=message):
        KrausSet(operators)


def _kron_ref(a, b):
    """Kronecker product of one pair of operators, broadcast over a time axis.

    The same elementwise products as ``maps`` forms (np.kron multiplies complex
    numbers with a different rounding).
    """
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def _stacked_sets(rng, dim, n_env, steps=7):
    """One random complete set per time, as a Kraus set of (T, dim, dim) operators."""
    return KrausSet(np.stack([random_complete_kraus(rng, dim, n_env).operators for _ in range(steps)], axis=1))


def test_stacked_kraus_sums_equal_per_operator_python_sums(rng):
    sets = [random_complete_kraus(rng, 2, 2), random_complete_kraus(rng, 4, 5),
            _stacked_sets(rng, 2, 2), _stacked_sets(rng, 4, 3)]
    for ks in sets:
        ops = list(ks.operators)  # the reference sums run over the operators one by one
        dim = ks.input_dim
        assert ks.operators.dtype == complex and len(ks.operators) == len(ops)
        defect = sum(op.conj().swapaxes(-1, -2) @ op for op in ops) - np.eye(dim)
        assert np.array_equal(ks.completeness_defect(), defect)
        assert np.array_equal(superop_from_kraus(ks), sum(_kron_ref(op, op.conj()) for op in ops))
        states = [random_density_matrix(dim, rng)]
        if ks.operators.ndim == 4:  # a stacked map also takes one state per time
            states.append(np.array([random_density_matrix(dim, rng) for _ in range(7)]))
        for rho in states:
            assert np.array_equal(apply(ks, rho), sum(op @ rho @ op.conj().swapaxes(-1, -2) for op in ops))
        eye = np.eye(2, dtype=complex)
        assert np.array_equal(extend_with_identity(ks).operators, np.array([_kron_ref(eye, op) for op in ops]))
        for other in sets:
            if other.operators.ndim == ks.operators.ndim:  # both single, or both on the one grid
                want = np.array([_kron_ref(a, b) for a in ops for b in other.operators])
                assert np.array_equal(tensor_map(ks, other).operators, want)


def test_single_and_stacked_maps_do_not_mix(rng):
    """A map of K operators and a stack of K == T slices would broadcast silently wrong: every mix is refused."""
    single, stacked = random_complete_kraus(rng, 2, 3), _stacked_sets(rng, 2, 2, steps=3)
    states = np.array([random_density_matrix(2, rng) for _ in range(3)])
    for ks, rho in ((single, states), (_stacked_sets(rng, 2, 2, steps=4), states), (stacked, states[:, None])):
        with pytest.raises(ValueError, match="does not match a map of shape"):
            apply_kraus(ks, rho)
    assert np.array_equal(apply(stacked, states[0]), apply(stacked, np.array([states[0]] * 3)))
    for m1, m2 in ((single, stacked), (stacked, single), (stacked, _stacked_sets(rng, 2, 2, steps=1))):
        with pytest.raises(ValueError, match="do not compose"):
            tensor_map(m1, m2)


def test_choi_of_identity_qubit_map():
    choi = choi_from_superop(superop_from_kraus(identity_kraus(2)), 2, 2)
    assert np.allclose(np.sort(np.linalg.eigvalsh(choi)), [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_is_cptp_flags_incomplete_map():
    verdict = is_cptp(one_qubit_transfer_matrix(1.2))
    assert not verdict.ok
    assert verdict.min_choi_eigenvalue < 0


def test_partial_trace_product_and_bell(rng):
    rho_a = random_density_matrix(2, rng)
    rho_b = random_density_matrix(3, rng)
    assert np.abs(partial_trace(np.kron(rho_a, rho_b), [0], [2, 3]) - rho_a).max() < 1e-12
    bell = np.outer(bell_state("phi+"), bell_state("phi+").conj())
    assert np.abs(partial_trace(bell, [1], [2, 2]) - np.eye(2) / 2).max() < 1e-12
    with pytest.raises(ValueError):
        partial_trace(bell, [0], [2, 3])


def test_partial_trace_reorders_kept_factors(rng):
    rho_a = random_density_matrix(2, rng)
    rho_b = random_density_matrix(2, rng)
    swapped = partial_trace(np.kron(rho_a, rho_b), [1, 0], [2, 2])
    assert np.abs(swapped - np.kron(rho_b, rho_a)).max() < 1e-12


def test_factored_partial_traces_match_dense_reference(rng):
    dims = [2, 3, 2, 2]
    a = rng.normal(size=(24, 3)) + 1j * rng.normal(size=(24, 3))
    b = rng.normal(size=(24, 3)) + 1j * rng.normal(size=(24, 3))
    for keep in ([1], [3, 0], [2, 1, 3], []):
        ref = partial_trace(a @ b.conj().T, keep, dims)
        assert np.abs(partial_trace_outer(a, b, keep, dims) - ref).max() < 1e-12
    with pytest.raises(ValueError):
        partial_trace_outer(a, b, [4], dims)
    with pytest.raises(ValueError):
        partial_trace_outer(a[:12], b[:12], [0], dims)


# ---------------------------------------------------------------------------
# one-qubit map

def test_one_qubit_identity_and_reset_channels(rng):
    rho = random_density_matrix(2, rng)
    assert np.abs(apply(one_qubit_kraus(1.0), rho) - rho).max() < 1e-12
    reset = apply(one_qubit_kraus(0.0), rho)
    assert np.abs(reset - np.diag([1.0, 0.0])).max() < 1e-12
    with pytest.raises(ValueError):
        one_qubit_kraus(1.0 + 1e-6)


def test_one_qubit_map_populations():
    f = 0.3 - 0.4j
    out = apply(one_qubit_kraus(f), np.diag([0.0, 1.0]).astype(complex))
    assert np.allclose(out, np.diag([1.0 - abs(f) ** 2, abs(f) ** 2]), atol=1e-14)


def test_one_qubit_superop_matches_reference_form(rng):
    # reference closed form uses the conjugate-amplitude convention
    for _ in range(20):
        f = random_amplitude(rng)
        built = superop_from_kraus(one_qubit_kraus(f))
        assert np.abs(built - one_qubit_transfer_matrix(np.conj(f))).max() < 1e-14


def test_coherence_never_amplified(rng):
    for _ in range(20):
        f = random_amplitude(rng)
        rho = random_density_matrix(2, rng)
        out = apply(one_qubit_kraus(f), rho)
        assert abs(out[0, 1]) <= abs(rho[0, 1]) + 1e-12
        assert abs(abs(out[0, 1]) - abs(f) * abs(rho[0, 1])) < 1e-12


def test_one_qubit_map_vs_oracle(rng):
    net = random_network(rng, 5)
    prop = FullPropagator(net)
    chan = NetworkChannel(net)
    for _ in range(5):
        t = float(rng.uniform(0, 4))
        s, r = (int(x) for x in rng.integers(0, 5, size=2))
        rho = random_density_matrix(2, rng)
        out = apply(chan.one_qubit(s, r, t), rho)
        ref = reduced_output(net, rho, [s], [r], t, propagator=prop)
        assert trace_distance(out, ref) < 1e-9


def test_extend_with_identity_forms(rng):
    assert np.allclose(superop_from_kraus(extend_with_identity(identity_kraus(2))), np.eye(16))
    for _ in range(10):
        f = random_amplitude(rng)
        ext = extend_with_identity(one_qubit_kraus(f))
        assert np.abs(superop_from_kraus(ext) - distributed_pair_matrix(np.conj(f))).max() < 1e-14


def test_distributed_bell_concurrence_is_amplitude_modulus(rng):
    for label in ("phi+", "phi-", "psi+", "psi-"):
        f = random_amplitude(rng)
        rho = np.outer(bell_state(label), bell_state(label).conj())
        out = apply(extend_with_identity(one_qubit_kraus(f)), rho)
        assert abs(concurrence(out) - abs(f)) < 1e-12


def test_tensor_map_composition(rng):
    assert np.allclose(
        superop_from_kraus(tensor_map(identity_kraus(2), identity_kraus(2))), np.eye(16)
    )
    for _ in range(10):
        f, g = random_amplitude(rng), random_amplitude(rng)
        two = tensor_map(one_qubit_kraus(f), one_qubit_kraus(g))
        assert np.abs(
            superop_from_kraus(two) - dual_rail_matrix(np.conj(f), np.conj(g))
        ).max() < 1e-14


# ---------------------------------------------------------------------------
# two-qubit map

def test_two_qubit_storage_identity_at_zero_time(rng):
    net = random_network(rng, 5)
    ks = NetworkChannel(net).two_qubit((1, 3), (1, 3), 0.0)
    e0 = ks.operators[0]
    assert np.abs(e0 - np.eye(4)).max() < 1e-12
    for op in ks.operators[1:]:
        assert np.abs(op).max() < 1e-12


def test_two_qubit_site_validation(rng):
    net = random_network(rng, 4)
    with pytest.raises(ValueError):
        NetworkChannel(net).two_qubit((1, 1), (2, 3), 0.5)
    chan = NetworkChannel(net)
    for receivers, message in (((2, 4), r"^receiver sites \[2, 4\] out of range for 4 sites$"),
                               ((3,), r"^receiver sites \[3\] must name 2 sites$")):
        with pytest.raises(ValueError, match=message):
            chan.two_qubit((0, 1), receivers, 0.5)
    assert "k2" not in vars(chan)  # the receivers are checked before either sector table is built
    k1 = SectorPropagator(net, 1).table(0.5)
    k2 = SectorPropagator(net, 2).table(0.7)
    with pytest.raises(ValueError):
        two_qubit_kraus(k1, k2, (0, 1), (2, 3))  # mismatched times


def test_two_qubit_sparsity_pattern(rng):
    # expected 16x16 layout written out explicitly: 1 where an element may appear
    expected = np.zeros((16, 16), dtype=bool)
    allowed = {
        0: [0, 5, 6, 9, 10, 15],
        1: [1, 2, 7, 11],
        2: [1, 2, 7, 11],
        3: [3],
        4: [4, 8, 13, 14],
        5: [5, 6, 9, 10, 15],
        6: [5, 6, 9, 10, 15],
        7: [7, 11],
        8: [4, 8, 13, 14],
        9: [5, 6, 9, 10, 15],
        10: [5, 6, 9, 10, 15],
        11: [7, 11],
        12: [12],
        13: [13, 14],
        14: [13, 14],
        15: [15],
    }
    for row, cols in allowed.items():
        expected[row, cols] = True
    assert np.array_equal(two_qubit_sparsity_pattern(), expected)
    for _ in range(5):
        net = random_network(rng, int(rng.integers(4, 7)))
        t = float(rng.uniform(0.2, 3.0))
        senders = tuple(int(x) for x in rng.choice(net.n_sites, 2, replace=False))
        receivers = tuple(int(x) for x in rng.choice(net.n_sites, 2, replace=False))
        a = superop_from_kraus(NetworkChannel(net).two_qubit(senders, receivers, t))
        assert np.abs(a[~expected]).max() == 0.0


def test_two_qubit_map_vs_oracle(rng):
    net = SpinNetwork.uniform_chain(4, 1.0)
    prop = FullPropagator(net)
    chan = NetworkChannel(net)
    for t in (0.4, 1.3, 2.9):
        rho = random_density_matrix(4, rng)
        out = apply(chan.two_qubit((0, 1), (2, 3), t), rho)
        ref = reduced_output(net, rho, [0, 1], [2, 3], t, propagator=prop)
        assert trace_distance(out, ref) < 1e-9


def test_two_qubit_map_vs_oracle_with_fields_and_zz(rng):
    net = random_network(rng, 5)
    prop = FullPropagator(net)
    chan = NetworkChannel(net)
    for _ in range(4):
        t = float(rng.uniform(0.2, 3.0))
        senders = tuple(int(x) for x in rng.choice(5, 2, replace=False))
        receivers = tuple(int(x) for x in rng.choice(5, 2, replace=False))
        rho = random_density_matrix(4, rng)
        out = apply(chan.two_qubit(senders, receivers, t), rho)
        ref = reduced_output(net, rho, senders, receivers, t, propagator=prop)
        assert trace_distance(out, ref) < 1e-9


def test_element_table_matches_kraus_superoperator(rng):
    net = random_network(rng, 5)
    for _ in range(4):
        t = float(rng.uniform(0.2, 3.0))
        senders = tuple(int(x) for x in rng.choice(5, 2, replace=False))
        receivers = tuple(int(x) for x in rng.choice(5, 2, replace=False))
        k1 = SectorPropagator(net, 1).table(t)
        k2 = SectorPropagator(net, 2).table(t)
        table = two_qubit_map_elements(k1, k2, senders, receivers)
        built = superop_from_kraus(two_qubit_kraus(k1, k2, senders, receivers))
        assert np.abs(table - built).max() < 1e-10


def test_merged_double_loss_operator_matches_per_pair_sum(rng):
    # reference: one E_2^{kl} with entry f_2(k, l) at [0, 3] per environment pair
    for n in (4, 5, 7):
        net = random_network(rng, n)
        for _ in range(3):
            t = float(rng.uniform(0.2, 4.0))
            senders = tuple(int(x) for x in rng.choice(n, 2, replace=False))
            receivers = tuple(int(x) for x in rng.choice(n, 2, replace=False))
            k1, k2 = SectorPropagator(net, 1).table(t), SectorPropagator(net, 2).table(t)
            ks = two_qubit_kraus(k1, k2, senders, receivers)
            assert len(ks.operators) == n  # E_0, n - 2 single losses, one merged E_2
            env = [k for k in range(n) if k not in receivers]
            reference = sum(np.kron(op, op.conj()) for op in ks.operators[:-1])
            for k, l in itertools.combinations(env, 2):
                e2 = np.zeros((4, 4), dtype=complex)
                e2[0, 3] = k2.amplitude(sorted(senders), (k, l))
                reference = reference + np.kron(e2, e2.conj())
            assert np.abs(superop_from_kraus(ks) - reference).max() <= 1e-14


def test_network_maps_from_sender_columns_match_full_tables(rng):
    net = random_network(rng, 6)
    chan = NetworkChannel(net)
    for _ in range(3):
        t = float(rng.uniform(0.2, 4.0))
        senders = tuple(int(x) for x in rng.choice(6, 2, replace=False))
        receivers = tuple(int(x) for x in rng.choice(6, 2, replace=False))
        k1, k2 = SectorPropagator(net, 1).table(t), SectorPropagator(net, 2).table(t)
        full = two_qubit_kraus(k1, k2, senders, receivers)
        built = chan.two_qubit(senders, receivers, t)
        assert np.abs(superop_from_kraus(built) - superop_from_kraus(full)).max() <= 1e-13
        f = k1.site_amplitude(senders[0], receivers[0])
        one = chan.one_qubit(senders[0], receivers[0], t)
        assert np.abs(superop_from_kraus(one) - superop_from_kraus(one_qubit_kraus(f))).max() <= 1e-13


def test_two_qubit_kraus_reads_whole_columns_without_scalar_lookups(rng, monkeypatch):
    net = SpinNetwork.chain(rng.uniform(0.5, 1.5, 39), rng.uniform(-0.3, 0.3, 39), rng.uniform(-0.2, 0.2, 40))
    chan = NetworkChannel(net)
    senders, receivers, t = (3, 30), (35, 2), 1.3
    k1, k2 = chan.k1.table(t, [(3,), (30,)]), chan.k2.table(t, [(3, 30)])
    elements = two_qubit_map_elements(k1, k2, senders, receivers)  # scalar lookups

    def no_lookup(*args):
        raise AssertionError("two_qubit_kraus made a scalar amplitude lookup")

    monkeypatch.setattr(AmplitudeTable, "amplitude", no_lookup)
    ks = two_qubit_kraus(k1, k2, senders, receivers)
    assert len(ks.operators) == 40
    assert np.abs(superop_from_kraus(ks) - elements).max() < 1e-10


@pytest.mark.parametrize("n", range(2, 13))
def test_cached_pair_bookkeeping_gives_the_rebuilt_operators(rng, n):
    free = SpinNetwork.chain(rng.uniform(0.5, 1.5, n - 1), fields=rng.uniform(-0.3, 0.3, n))
    zz = SpinNetwork.chain(rng.uniform(0.5, 1.5, n - 1), rng.uniform(-0.3, 0.3, n - 1), rng.uniform(-0.3, 0.3, n))
    p = [int(x) for x in rng.permutation(n)]
    # storage, a reversed sender pair, then (n >= 3) overlapping pairs and (n >= 4) pairs apart
    pairs = [((p[0], p[1]), (p[0], p[1])), ((max(p[:2]), min(p[:2])), (p[1], p[0]))]
    if n >= 3:
        pairs.append(((p[0], p[1]), (p[1], p[2])))
    if n >= 4:
        pairs.append(((p[0], p[1]), (p[3], p[2])))
    for net in (free, zz, random_network(rng, n)):
        k1_prop, k2_prop = SectorPropagator(net, 1), SectorPropagator(net, 2)
        for t, (senders, receivers) in itertools.product((1.7, np.array([0.0, 2.3, 9.1])), pairs):
            k1 = k1_prop.table(t, [(senders[0],), (senders[1],)])
            for k2 in [k2_prop.table(t, [senders])] + [None] * (net is free):
                built = two_qubit_kraus(k1, k2, senders, receivers).operators
                assert np.array_equal(built, rebuilt_two_qubit_kraus(k1, k2, senders, receivers).operators)
    for index in _pair_targets(n, p[0], p[1]):  # shared by every call: read-only
        with pytest.raises(ValueError, match="read-only"):
            index[...] = 0


def test_network_channel_builds_each_sector_once(rng, sector_builds):
    net = random_network(rng, 6)
    chan = NetworkChannel(net)
    times = np.linspace(0.0, 3.0, 7)
    for t in times:
        for s, r in itertools.product(range(6), repeat=2):
            chan.amplitude(s, r, t)
            chan.one_qubit(s, r, t)
    assert sector_builds == [1]  # the k=2 sector waits for the first two-qubit map
    for t in times:
        for senders, receivers in (((0, 1), (4, 5)), ((3, 2), (3, 2)), ((5, 0), (1, 4))):
            chan.two_qubit(senders, receivers, t)
    assert sector_builds == [1, 2]


def test_oracle_on_disjoint_union_is_tensor_product_of_channels(rng):
    net_a, net_b = random_network(rng, 3), random_network(rng, 4)
    chan_a, chan_b = NetworkChannel(net_a), NetworkChannel(net_b)
    union = net_a.disjoint_union(net_b)
    prop = FullPropagator(union)
    idle = SpinNetwork(np.zeros((1, 1))).disjoint_union(net_b)  # an idle first qubit
    idle_prop = FullPropagator(idle)
    for _ in range(4):
        t = float(rng.uniform(0.2, 4.0))
        sa, ra = (int(x) for x in rng.integers(0, 3, 2))
        sb, rb = (int(x) for x in rng.integers(0, 4, 2))
        rho = random_density_matrix(4, rng)
        out = apply(tensor_map(chan_a.one_qubit(sa, ra, t), chan_b.one_qubit(sb, rb, t)), rho)
        ref = reduced_output(union, rho, [sa, 3 + sb], [ra, 3 + rb], t, propagator=prop)
        assert trace_distance(out, ref) < 1e-10
        out = apply(extend_with_identity(chan_b.one_qubit(sb, rb, t)), rho)
        ref = reduced_output(idle, rho, [0, sb + 1], [0, rb + 1], t, propagator=idle_prop)
        assert trace_distance(out, ref) < 1e-10


def test_element_table_anchor_entries(rng):
    net = random_network(rng, 5)
    t = 1.1
    senders, receivers = (0, 2), (3, 4)
    k1 = SectorPropagator(net, 1).table(t)
    k2 = SectorPropagator(net, 2).table(t)
    a = two_qubit_map_elements(k1, k2, senders, receivers)
    assert a[0, 0] == 1.0
    fpair = k2.amplitude(tuple(sorted(senders)), tuple(sorted(receivers)))
    assert abs(a[3, 3] - np.conj(fpair)) < 1e-14  # coherence slot carries f_ij^nm*
    assert abs(a[15, 15] - abs(fpair) ** 2) < 1e-14


def test_bell_coherence_cannot_be_generated(rng):
    # rho_03 evolves in isolation: zero in, zero out
    net = random_network(rng, 5)
    ks = NetworkChannel(net).two_qubit((0, 1), (3, 4), 1.7)
    rho = random_density_matrix(4, rng)
    rho[0, 3] = rho[3, 0] = 0.0
    rho = (rho + rho.conj().T) / 2
    rho /= np.trace(rho).real
    out = apply_kraus(ks, rho)
    assert abs(out[0, 3]) < 1e-14


def test_constructed_maps_are_cptp(rng):
    for _ in range(5):
        net = random_network(rng, int(rng.integers(3, 6)))
        t = float(rng.uniform(0, 3))
        i, j = (int(x) for x in rng.integers(0, net.n_sites, 2))
        chan = NetworkChannel(net)
        verdict = is_cptp(chan.one_qubit(i, j, t))
        assert verdict.ok
        senders = tuple(int(x) for x in rng.choice(net.n_sites, 2, replace=False))
        receivers = tuple(int(x) for x in rng.choice(net.n_sites, 2, replace=False))
        verdict2 = is_cptp(chan.two_qubit(senders, receivers, t))
        assert verdict2.ok


def test_apply_validates_output(rng, monkeypatch):
    rho = random_density_matrix(2, rng)
    with pytest.raises(ValueError):
        apply(identity_kraus(2), random_density_matrix(4, rng))  # dimension mismatch
    lossy = np.diag([1.0, 0.5]).astype(complex)  # no Kraus set holds it: it does not preserve the trace
    monkeypatch.setattr(maps, "apply_kraus", lambda ks, state: lossy @ state @ lossy.conj().T)
    with pytest.raises(NumericalError, match="density matrix trace is"):
        apply(identity_kraus(2), rho)  # trace not preserved -> invalid output state


@pytest.mark.parametrize("state, message", [
    (np.zeros((2, 3)), r"must be square, got shape \(2, 3\)"),
    (np.zeros((0, 0)), r"at least one row, got shape \(0, 0\)"),
    (np.zeros((2, 0, 0)), r"at least one row, got shape \(2, 0, 0\)"),
])
def test_states_without_a_square_matrix_are_rejected(state, message):
    with pytest.raises(ValueError, match=message):
        assert_density_matrix(state)


@pytest.mark.parametrize("d", [1, 2])
def test_an_empty_time_axis_of_states_passes(d):
    assert_density_matrix(np.zeros((0, d, d)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_states_are_rejected(bad):
    rho = np.full((2, 2), bad)
    for state in (rho, np.stack([np.eye(2) / 2, rho])):
        with pytest.raises(ValueError, match="non-finite"):
            assert_density_matrix(state)
    with pytest.raises(ValueError, match="non-finite"):
        pure_state_density(np.array([1.0, bad]))
