"""The leading time axis: stacked tables, Kraus sets, apply and measures.

A stacked call must give, slice by slice, what the call on that one slice
gives, and a bad slice must fail with the same exception and message as the
slice on its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_network
from spinmaps import (
    KrausSet,
    NetworkChannel,
    ScenarioSpec,
    SectorPropagator,
    SpinNetwork,
    apply,
    concurrence,
    dual_rail_concurrence,
    four_qubit_closed_form,
    four_qubit_measures,
    one_qubit_kraus,
    run,
    transferred_concurrence,
    werner_state,
)
from spinmaps.maps import assert_density_matrix, is_cptp, superop_from_kraus
from spinmaps.measures import XState, _clip_unit, bell_state
from spinmaps.network import AmplitudeTable, NumericalError

TOL = 1e-12


def _qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def _pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def two_qubit_state(kind: str, rng) -> np.ndarray:
    """Generic, rank-deficient, product and Werner two-qubit states."""
    if kind == "product_pure":
        psi = np.kron(_qubit(rng), _qubit(rng))
        return np.outer(psi, psi.conj())
    if kind == "product_mixed":
        a, b = (np.outer(q, q.conj()) * w + np.eye(2) * (1 - w) / 2
                for q, w in ((_qubit(rng), rng.uniform()), (_qubit(rng), rng.uniform())))
        return np.kron(a, b)
    if kind == "werner":
        return werner_state(rng.uniform(), ("phi+", "phi-", "psi+", "psi-")[rng.integers(4)])
    rank = {"pure": 1, "rank2": 2, "rank3": 3, "generic": 4}[kind]
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def four_qubit_state(kind: str, rng) -> np.ndarray:
    """Generic, entangled and (bi)separable four-qubit pure states."""
    if kind == "product":
        return np.kron(np.kron(_qubit(rng), _qubit(rng)), np.kron(_qubit(rng), _qubit(rng)))
    if kind == "pair_product":
        return np.kron(_pure(rng, 4), _pure(rng, 4))
    if kind == "basis":
        psi = np.zeros(16, dtype=complex)
        psi[rng.integers(16)] = 1.0
        return psi
    if kind == "ghz":
        psi = np.zeros(16, dtype=complex)
        psi[0], psi[15] = 1.0, np.exp(2j * np.pi * rng.uniform())
        return psi / np.sqrt(2.0)
    if kind == "closed_form":
        return four_qubit_closed_form(0.1, 1.0, rng.uniform(0.0, 2000.0), ("1100", "1010")[rng.integers(2)])
    return _pure(rng, 16)


TWO_QUBIT_KINDS = ("pure", "rank2", "rank3", "generic", "product_pure", "product_mixed", "werner")
FOUR_QUBIT_KINDS = ("generic", "product", "pair_product", "basis", "ghz", "closed_form")


def _random_kraus_set(rng, dim: int, n_ops: int) -> tuple:
    """Operators of a random channel: the blocks of a random isometry."""
    g = rng.normal(size=(dim * n_ops, dim)) + 1j * rng.normal(size=(dim * n_ops, dim))
    q, _ = np.linalg.qr(g)
    return tuple(q[k * dim:(k + 1) * dim] for k in range(n_ops))


# ---------------------------------------------------------------------------
# stacked results equal the per-slice results

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(TWO_QUBIT_KINDS), min_size=1, max_size=6))
def test_stacked_concurrence_equals_per_slice(seed, kinds):
    rng = np.random.default_rng(seed)
    stack = np.array([two_qubit_state(kind, rng) for kind in kinds])
    stacked = concurrence(stack)
    assert stacked.shape == (len(kinds),)
    for rho, value in zip(stack, stacked):
        assert abs(value - concurrence(rho)) <= TOL


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(FOUR_QUBIT_KINDS), min_size=1, max_size=6))
def test_stacked_four_qubit_measures_equal_per_slice(seed, kinds):
    rng = np.random.default_rng(seed)
    stack = np.array([four_qubit_state(kind, rng) for kind in kinds])
    stacked = four_qubit_measures(stack)
    for idx, psi in enumerate(stack):
        single = four_qubit_measures(psi)
        for field in ("pair_concurrence", "pair_vs_pair", "three_tangle_bound"):
            for key, value in getattr(single, field).items():
                assert abs(getattr(stacked, field)[key][idx] - value) <= TOL
        for value, values in zip(single.one_vs_rest, stacked.one_vs_rest):
            assert abs(values[idx] - value) <= TOL
        assert abs(stacked.four_tangle[idx] - single.four_tangle) <= TOL
        c4 = stacked.four_qubit_concurrence[idx]
        assert abs(c4 - single.four_qubit_concurrence) <= TOL
        # the separability floor gives the same exact zeros
        assert (c4 == 0.0) == (single.four_qubit_concurrence == 0.0)
        if kinds[idx] in ("product", "pair_product", "basis"):
            assert c4 == 0.0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 5),
    dim=st.sampled_from((2, 4)),
    n_ops=st.integers(1, 3),
    kind=st.sampled_from(TWO_QUBIT_KINDS),
)
def test_stacked_kraus_set_and_apply_equal_per_slice(seed, steps, dim, n_ops, kind):
    rng = np.random.default_rng(seed)
    maps_ = [_random_kraus_set(rng, dim, n_ops) for _ in range(steps)]
    stacked = KrausSet(tuple(np.array(ops) for ops in zip(*maps_)))
    if dim == 4:
        rho = two_qubit_state(kind, rng)
        states = np.array([two_qubit_state(kind, rng) for _ in range(steps)])
    else:
        rho, *states = (0.5 * np.outer(q, q.conj()) + 0.25 * np.eye(2) for q in
                        (_qubit(rng) for _ in range(steps + 1)))
        states = np.array(states)
    out_one, out_many = apply(stacked, rho), apply(stacked, states)
    superop = superop_from_kraus(stacked)
    for idx, ops in enumerate(maps_):
        single = KrausSet(ops)
        assert np.abs(stacked.completeness_defect()[idx] - single.completeness_defect()).max() <= TOL
        assert np.abs(out_one[idx] - apply(single, rho)).max() <= TOL
        assert np.abs(out_many[idx] - apply(single, states[idx])).max() <= TOL
        assert np.abs(superop[idx] - superop_from_kraus(single)).max() <= TOL
        assert np.abs(apply(superop, rho)[idx] - out_one[idx]).max() <= TOL
        for got, want in zip(stacked.at(idx).operators, ops):
            assert np.array_equal(got, want)
        assert is_cptp(stacked.at(idx)).ok


def test_stacked_tables_and_channels_equal_per_time(rng):
    net = random_network(rng, 6)
    times = np.linspace(-1.0, 4.0, 7)
    chan = NetworkChannel(net)
    for k, sources in ((1, [(0,), (4,)]), (2, [(1, 3)]), (2, None)):
        prop = chan.k1 if k == 1 else chan.k2
        stacked = prop.table(times, sources)
        assert stacked.amplitudes.shape[0] == len(times)
        for idx, t in enumerate(times):
            assert np.abs(stacked.amplitudes[idx] - prop.table(t, sources).amplitudes).max() <= 1e-14
    f = chan.amplitude(0, 5, times)
    two = chan.two_qubit((0, 2), (5, 3), times)
    for idx, t in enumerate(times):
        assert abs(f[idx] - chan.amplitude(0, 5, t)) <= 1e-14
        for got, want in zip(two.operators, chan.two_qubit((0, 2), (5, 3), t).operators):
            assert np.abs(got[idx] - want).max() <= 1e-14


def test_stacked_closed_forms_equal_per_amplitude(rng):
    x = XState.werner(0.8, "psi+")
    f = np.array([0.0, 0.3, 0.7 * np.exp(1.1j), 1.0, 1.0 + 5e-11])
    for fn in (transferred_concurrence, dual_rail_concurrence):
        c, c1, c2 = fn(x, f)
        for idx, value in enumerate(f):
            assert (c[idx], c1[idx], c2[idx]) == fn(x, value)


# ---------------------------------------------------------------------------
# a bad slice fails as it fails on its own

def _same_error(call_stacked, call_single, exc=ValueError):
    with pytest.raises(exc) as single:
        call_single()
    with pytest.raises(exc) as stacked:
        call_stacked()
    assert type(stacked.value) is type(single.value)
    assert str(stacked.value) == str(single.value)


def test_incomplete_kraus_slice_fails_like_the_slice(rng):
    maps_ = [_random_kraus_set(rng, 4, 2) for _ in range(5)]
    maps_[3] = (maps_[3][0] * 1.01, maps_[3][1])
    _same_error(lambda: KrausSet(tuple(np.array(ops) for ops in zip(*maps_))), lambda: KrausSet(maps_[3]))


def test_non_psd_output_slice_fails_like_the_slice():
    # partial transpose of the second qubit, rho[ab, cd] -> rho[ad, cb]: not completely positive
    partial_transpose = np.zeros((16, 16))
    for a, b, c, d in np.ndindex(2, 2, 2, 2):
        partial_transpose[4 * (2 * a + b) + 2 * c + d, 4 * (2 * a + d) + 2 * c + b] = 1.0
    superops = np.array([np.eye(16)] * 4)
    superops[2] = partial_transpose
    bell = np.outer(bell_state("phi+"), bell_state("phi+").conj())
    _same_error(lambda: apply(superops, bell), lambda: apply(partial_transpose, bell))
    states = np.array([np.eye(4) / 4] * 3)
    states[1] = np.diag([0.6, 0.5, -0.05, -0.05])
    _same_error(lambda: assert_density_matrix(states), lambda: assert_density_matrix(states[1]))


def test_non_unit_state_in_stack_fails_like_the_state(rng):
    stack = np.array([_pure(rng, 16) for _ in range(4)])
    stack[2] *= 1.001
    _same_error(lambda: four_qubit_measures(stack), lambda: four_qubit_measures(stack[2]))


def test_amplitude_above_one_fails_like_the_amplitude():
    x = XState.werner(0.9, "phi+")
    f = np.array([0.2, 0.9, 1.0 + 1e-6, 0.5])
    for fn in (lambda v: transferred_concurrence(x, v), lambda v: dual_rail_concurrence(x, v),
               one_qubit_kraus):
        _same_error(lambda: fn(f), lambda: fn(f[2]))


def test_measure_outside_unit_interval_in_stack_fails_like_the_value():
    values = np.array([0.2, -1e-10, 1.0 + 2e-9, 0.4])
    assert np.array_equal(_clip_unit(values[:2]), [0.2, 0.0])
    _same_error(lambda: _clip_unit(values), lambda: _clip_unit(values[2]))


def test_non_orthonormal_table_slice_fails_like_the_slice(rng):
    prop = SectorPropagator(random_network(rng, 5), 1)
    times = np.linspace(0.0, 2.0, 4)
    f = prop.table(times, [(0,), (2,)]).amplitudes.copy()
    f[1] *= 1.001
    _same_error(
        lambda: AmplitudeTable(prop.sector, times, f, ((0,), (2,))),
        lambda: AmplitudeTable(prop.sector, float(times[1]), f[1], ((0,), (2,))),
        exc=NumericalError,
    )


# ---------------------------------------------------------------------------
# a full-grid run equals one-time runs, checks included

def _chain(rng, n):
    return SpinNetwork.chain(rng.uniform(0.5, 1.5, n - 1), rng.uniform(-0.3, 0.3, n - 1),
                             rng.uniform(-0.2, 0.2, n))


@pytest.mark.parametrize("kind, sites, initial, two_networks", [
    ("qst", {"sender": 0, "receiver": 4}, {"kind": "basis", "string": "1"}, False),
    ("distribute_single", {"sender": 1, "receiver": 4}, {"kind": "werner", "p": 0.8}, False),
    ("distribute_dual", {"sender_a": 0, "receiver_a": 3, "sender_b": 0, "receiver_b": 3},
     {"kind": "werner", "p": 0.9, "bell": "phi+"}, False),
    ("distribute_dual", {"sender_a": 0, "receiver_a": 3, "sender_b": 1, "receiver_b": 2},
     {"kind": "bell", "label": "psi-"}, True),
    ("two_qubit_transfer", {"senders": [0, 1], "receivers": [4, 3]},
     {"kind": "bell", "label": "psi+"}, False),
])
def test_full_grid_rows_equal_one_time_runs(kind, sites, initial, two_networks):
    rng = np.random.default_rng(7)
    net = _chain(rng, 4 if kind == "distribute_dual" else 5)
    net_b = _chain(rng, 4) if two_networks else None
    _assert_grid_rows_equal_one_time_runs(
        dict(kind=kind, network=net, network_b=net_b, sites=sites, initial=initial,
             verify_oracle=True, verify_cptp=True),
        ("oracle_dev", "cptp_min_eig"),
    )


@pytest.mark.parametrize("label", ["1100", "1010", "0111"])
def test_four_qubit_weak_grid_rows_equal_one_time_runs(label):
    """The one runner without a channel: its oracle column takes the same per-time check."""
    _assert_grid_rows_equal_one_time_runs(
        dict(kind="four_qubit_weak", params={"wire_sites": 3, "g": 0.3},
             initial={"kind": "basis", "string": label}, verify_oracle=True),
        ("oracle_dev",),
    )


def _assert_grid_rows_equal_one_time_runs(fields, check_columns):
    times = tuple(np.linspace(0.1, 6.0, 9))
    full = run(ScenarioSpec(times=times, **fields))
    assert full.columns[-len(check_columns):] == check_columns
    for t, row in zip(times, full.rows):
        (one,) = run(ScenarioSpec(times=(t,), **fields)).rows
        np.testing.assert_allclose(row, one, rtol=0, atol=1e-13)


def test_weak_pair_builds_one_k1_column_per_time(monkeypatch):
    """16 times: 16 k=1 and 16 k=2 time slices (the f_ab column comes from E_0)."""
    built = {1: 0, 2: 0}
    table = SectorPropagator.table

    def counting_table(self, t, sources=None):
        built[self.sector.excitation_count] += np.size(t)
        return table(self, t, sources)

    monkeypatch.setattr(SectorPropagator, "table", counting_table)
    spec = ScenarioSpec(kind="weak_pair", times=tuple(np.linspace(0.0, 40.0, 16)),
                        params={"wire_sites": 5, "g": 0.1, "refine": False})
    result = run(spec)
    assert built == {1: 16, 2: 16}
    chan = NetworkChannel(SpinNetwork.chain([0.1, 1.0, 1.0, 1.0, 1.0, 0.1]))
    expected = np.abs(chan.amplitude(0, 6, np.array(spec.times)))
    assert np.abs(result.column("f_ab_abs") - expected).max() <= 1e-14
