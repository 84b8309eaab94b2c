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
from spinmaps import maps
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
from spinmaps.maps import (
    assert_density_matrix,
    choi_from_superop,
    is_cptp,
    partial_trace_outer,
    random_density_matrix,
    superop_from_kraus,
    trace_distance,
)
from spinmaps.measures import (
    XState,
    _clip_unit,
    bell_state,
    four_tangle,
    three_tangle_decomposition_bound,
    three_tangle_pure,
)
from spinmaps.network import AmplitudeTable, NumericalError, reduced_state
from spinmaps.oracle import FullPropagator, reduced_output

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
        assert tuple(single) == tuple(stacked)
        for name, value in single.items():
            assert abs(stacked[name][idx] - value) <= TOL
        c4 = stacked["c4"][idx]
        # the separability floor gives the same exact zeros
        assert (c4 == 0.0) == (single["c4"] == 0.0)
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
    via_superop = (superop @ rho.reshape(-1)).reshape(-1, dim, dim)  # row-major vectorization
    verdict = is_cptp(stacked)
    for idx, ops in enumerate(maps_):
        single = KrausSet(ops)
        assert np.abs(stacked.completeness_defect()[idx] - single.completeness_defect()).max() <= TOL
        assert np.abs(out_one[idx] - apply(single, rho)).max() <= TOL
        assert np.abs(out_many[idx] - apply(single, states[idx])).max() <= TOL
        assert np.abs(superop[idx] - superop_from_kraus(single)).max() <= TOL
        assert np.abs(via_superop[idx] - out_one[idx]).max() <= TOL
        for got, want in zip((op[idx] for op in stacked.operators), ops):
            assert np.array_equal(got, want)
        assert verdict.ok[idx] and is_cptp(single).ok


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 6), extra=st.integers(0, 4), two=st.booleans())
def test_stacked_checks_equal_per_time(seed, n, extra, two):
    """The oracle and CPTP checks on a grid equal their one-time calls, on an unsorted grid with t <= 0."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n)
    times = np.concatenate([[0.0, -rng.uniform(0.1, 3.0)], rng.uniform(-4.0, 4.0, extra)])
    rng.shuffle(times)
    q = 2 if two else 1
    senders, receivers = ([int(x) for x in rng.choice(n, q, replace=False)] for _ in range(2))
    chan = NetworkChannel(net)
    stacked = (chan.two_qubit(senders, receivers, times) if two
               else chan.one_qubit(senders[0], receivers[0], times))
    rho = random_density_matrix(2**q, rng)
    prop = FullPropagator(net)
    refs = reduced_output(net, rho, senders, receivers, times, propagator=prop)
    outs = apply(stacked, rho)
    devs = trace_distance(outs, refs)
    superop = superop_from_kraus(stacked)
    choi = choi_from_superop(superop, 2**q, 2**q)
    verdict = is_cptp(stacked)
    keep = [int(x) for x in rng.choice(n, int(rng.integers(1, n)), replace=False)]
    shape = (len(times), 2**n, 3)
    a, b = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
    traced = partial_trace_outer(a, b, keep, [2] * n)
    for idx, t in enumerate(times):
        ref = reduced_output(net, rho, senders, receivers, t, propagator=prop)
        assert np.abs(refs[idx] - ref).max() <= 1e-13
        assert abs(devs[idx] - trace_distance(outs[idx], ref)) <= 1e-13
        assert np.abs(choi[idx] - choi_from_superop(superop[idx], 2**q, 2**q)).max() <= 1e-13
        single = is_cptp(KrausSet(tuple(op[idx] for op in stacked.operators)))
        assert verdict.ok[idx] == single.ok
        assert abs(verdict.min_choi_eigenvalue[idx] - single.min_choi_eigenvalue) <= 1e-13
        assert abs(verdict.trace_defect[idx] - single.trace_defect) <= 1e-13
        assert np.abs(traced[idx] - partial_trace_outer(a[idx], b[idx], keep, [2] * n)).max() <= 1e-13


def test_non_cptp_slice_fails_like_the_slice():
    """A stacked verdict holds, at a bad slice, that slice's own verdict and witnesses."""
    superops = np.array([np.eye(4)] * 4)
    superops[2, 0, 0] = 1.5  # |0><0| -> 1.5 |0><0|: not trace preserving
    verdict, single = is_cptp(superops), is_cptp(superops[2])
    assert not verdict and not single
    assert verdict.ok.tolist() == [True, True, False, True]
    assert (verdict.min_choi_eigenvalue[2], verdict.trace_defect[2]) == (single.min_choi_eigenvalue,
                                                                          single.trace_defect)


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
# an empty time grid gives an empty time axis at every layer

_NO_TIMES = np.array([])
_CHAIN = SpinNetwork.uniform_chain(4)


def _no_maps():
    return one_qubit_kraus(_NO_TIMES)  # operators of shape (2, 0, 2, 2)


def _checked(stack):
    assert_density_matrix(stack)
    return stack


@pytest.mark.parametrize("call", [
    lambda: NetworkChannel(_CHAIN).amplitude(0, 3, _NO_TIMES),
    lambda: NetworkChannel(_CHAIN).one_qubit(0, 3, _NO_TIMES).operators[0],
    lambda: NetworkChannel(_CHAIN).two_qubit((0, 1), (3, 2), _NO_TIMES).operators[0],
    lambda: SectorPropagator(_CHAIN, 2).table(_NO_TIMES, [(0, 1)]).amplitudes,
    lambda: reduced_state(SectorPropagator(_CHAIN, 2).table(_NO_TIMES, [(0, 1)]), (0, 1), [2, 3]),
    lambda: _no_maps().operators[0],
    lambda: maps.extend_with_identity(_no_maps()).operators[0],
    lambda: maps.tensor_map(_no_maps(), _no_maps()).operators[0],
    lambda: apply(maps.tensor_map(_no_maps(), _no_maps()), werner_state(0.7)),
    lambda: maps.apply_kraus(_no_maps(), np.zeros((0, 2, 2))),
    lambda: _checked(np.zeros((0, 4, 4))),
    lambda: superop_from_kraus(_no_maps()),
    lambda: choi_from_superop(superop_from_kraus(_no_maps()), 2, 2),
    lambda: is_cptp(_no_maps()).ok,
    lambda: trace_distance(np.zeros((0, 4, 4)), np.zeros((0, 4, 4))),
    lambda: maps.partial_trace(np.zeros((0, 4, 4)), [0], [2, 2]),
    lambda: partial_trace_outer(np.zeros((0, 4, 1)), np.zeros((0, 4, 1)), [0], [2, 2]),
    lambda: maps.amplitude_modulus(_NO_TIMES),
    lambda: concurrence(np.zeros((0, 4, 4))),
    lambda: transferred_concurrence(XState.werner(0.8), _NO_TIMES)[0],
    lambda: dual_rail_concurrence(XState.werner(0.8), _NO_TIMES)[0],
    lambda: four_qubit_measures(np.zeros((0, 16)))["c4"],
    lambda: four_tangle(np.zeros((0, 16))),
    lambda: three_tangle_pure(np.zeros((0, 8))),
    lambda: three_tangle_decomposition_bound(np.zeros((0, 8, 8))),
    lambda: reduced_output(_CHAIN, werner_state(0.7), [0, 1], [3, 2], _NO_TIMES),
], ids=["amplitude", "one_qubit", "two_qubit", "table", "reduced_state", "one_qubit_kraus",
        "extend_with_identity", "tensor_map", "apply", "apply_kraus", "assert_density_matrix",
        "superop_from_kraus", "choi_from_superop", "is_cptp", "trace_distance", "partial_trace",
        "partial_trace_outer", "amplitude_modulus", "concurrence", "transferred_concurrence",
        "dual_rail_concurrence", "four_qubit_measures", "four_tangle", "three_tangle_pure",
        "three_tangle_decomposition_bound", "reduced_output"])
def test_empty_time_grid_gives_an_empty_time_axis(call):
    out = np.asarray(call())
    assert out.ndim >= 1 and len(out) == 0


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


def test_non_psd_output_slice_fails_like_the_slice(monkeypatch):
    # a Kraus set maps states to valid states, so a bad output slice comes from a lossy product in its place
    ops = np.array([np.eye(4)] * 4, dtype=complex)
    ops[2] = np.diag([1.0, 1.0, 1.0, 0.5])
    bell = np.outer(bell_state("phi+"), bell_state("phi+").conj())

    def lossy_apply(ks, rho):  # the operator stack of the map's shape in place of its own
        lossy = ops if ks.operators.ndim == 4 else ops[2]
        return lossy @ rho @ lossy.conj().swapaxes(-1, -2)

    monkeypatch.setattr(maps, "apply_kraus", lossy_apply)
    identity, identity_stack = KrausSet(np.eye(4)[None]), KrausSet(np.array([np.eye(4)] * 4)[None])
    _same_error(lambda: apply(identity_stack, bell), lambda: apply(identity, bell), exc=NumericalError)
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
    """16 times: 16 k=1 time slices and no k=2 one (a ZZ-free chain; the f_ab column comes from E_0).

    The concurrence rises over the whole grid, so its peak is the last time and
    no Brent refinement adds tables.
    """
    built = {1: 0, 2: 0}
    table = SectorPropagator.table

    def counting_table(self, t, sources=None):
        built[self.sector.excitation_count] += np.size(t)
        return table(self, t, sources)

    monkeypatch.setattr(SectorPropagator, "table", counting_table)
    spec = ScenarioSpec(kind="weak_pair", times=tuple(np.linspace(0.0, 8.0, 16)),
                        params={"wire_sites": 5, "g": 0.1})
    result = run(spec)
    assert built == {1: 16, 2: 0}
    chan = NetworkChannel(SpinNetwork.chain([0.1, 1.0, 1.0, 1.0, 1.0, 0.1]))
    expected = np.abs(chan.amplitude(0, 6, np.array(spec.times)))
    assert np.abs(result.column("f_ab_abs") - expected).max() <= 1e-14
