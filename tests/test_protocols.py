import numpy as np
import pytest

from spinmaps import (
    ScenarioSpec,
    SpinNetwork,
    concurrence,
    four_qubit_closed_form,
    four_qubit_measure_sweep,
    partial_trace,
    run,
    sweep,
)
from spinmaps.maps import pure_state_density
from spinmaps.protocols import build_initial_state


def chain3():
    return SpinNetwork.uniform_chain(3, 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(kind="teleport", times=(0.0, 1.0))
    with pytest.raises(ValueError):
        ScenarioSpec(kind="qst", times=())
    with pytest.raises(ValueError):
        ScenarioSpec(kind="qst", times=(0.0, 1.0, 1.0))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="times must be finite"):
            ScenarioSpec(kind="qst", times=(0.0, bad))
    for bad in (np.nan, np.inf, 0.0, -1e-8):
        with pytest.raises(ValueError, match="tolerances.oracle must be finite and positive"):
            ScenarioSpec(kind="qst", times=(0.0, 1.0), oracle_tol=bad)


def test_initial_state_descriptions(rng):
    assert np.allclose(build_initial_state({"kind": "basis", "string": "10"}, 2),
                       np.diag([0, 0, 1, 0]).astype(complex))
    bell = build_initial_state({"kind": "bell", "label": "phi-"}, 2)
    assert abs(np.trace(bell) - 1) < 1e-12
    werner = build_initial_state({"kind": "werner", "p": 0.5}, 2)
    assert abs(werner[1, 1] - (0.25 + 0.125)) < 1e-12
    x = build_initial_state(
        {"kind": "xstate", "populations": [0.1, 0.4, 0.3, 0.2], "rho12": [0.2, 0.1]}, 2
    )
    assert x[1, 2] == pytest.approx(0.2 + 0.1j)
    with pytest.raises(ValueError):
        build_initial_state({"kind": "basis", "string": "2"}, 1)
    with pytest.raises(ValueError):
        build_initial_state({"kind": "spin"}, 1)


def test_qst_scenario_columns():
    spec = ScenarioSpec(
        kind="qst",
        times=tuple(np.linspace(0.0, 2.0, 11)),
        network=chain3(),
        sites={"sender": 0, "receiver": 2},
        initial={"kind": "basis", "string": "1"},
        verify_oracle=True,
        verify_cptp=True,
    )
    res = run(spec)
    assert res.columns[:4] == ("t", "f_re", "f_im", "f_abs")
    assert "oracle_dev" in res.columns and "cptp_min_eig" in res.columns
    assert res.column("oracle_dev").max() < 1e-9
    # at t=0 nothing has moved yet
    assert res.rows[0][res.columns.index("out_p1")] == pytest.approx(0.0, abs=1e-12)


def test_distribute_single_bell_concurrence_curve():
    times = tuple(np.linspace(0.0, np.pi / (2 * np.sqrt(2)), 41))
    spec = ScenarioSpec(
        kind="distribute_single",
        times=times,
        network=chain3(),
        sites={"sender": 0, "receiver": 2},
        initial={"kind": "bell", "label": "psi-"},
    )
    res = run(spec)
    expected = np.abs((np.cos(2 * np.sqrt(2) * np.array(times)) - 1) / 2)
    assert np.abs(res.column("concurrence") - expected).max() < 1e-10
    assert res.column("concurrence")[-1] == pytest.approx(1.0, abs=1e-10)


def test_distribute_single_werner_ratio_matches_closed_form():
    spec = ScenarioSpec(
        kind="distribute_single",
        times=tuple(np.linspace(0.01, 2.0, 25)),
        network=chain3(),
        sites={"sender": 0, "receiver": 2},
        initial={"kind": "werner", "p": 0.9},
    )
    res = run(spec)
    c = res.column("concurrence")
    c1 = res.column("c1")
    c2 = res.column("c2")
    closed = 2 * np.maximum(0.0, np.maximum(c1, c2))
    assert np.abs(c - closed).max() < 1e-10


def test_distribute_single_oracle_verified():
    spec = ScenarioSpec(
        kind="distribute_single",
        times=(0.4, 1.1),
        network=chain3(),
        sites={"sender": 0, "receiver": 2},
        initial={"kind": "werner", "p": 0.7},
        verify_oracle=True,
    )
    assert run(spec).column("oracle_dev").max() < 1e-9


def test_distribute_dual_matches_formula_and_oracle():
    spec = ScenarioSpec(
        kind="distribute_dual",
        times=tuple(np.linspace(0.05, 1.6, 12)),
        network=chain3(),
        sites={"sender_a": 0, "receiver_a": 2, "sender_b": 0, "receiver_b": 2},
        initial={"kind": "werner", "p": 0.9, "bell": "psi+"},
        verify_oracle=True,
    )
    res = run(spec)
    closed = 2 * np.maximum(0.0, np.maximum(res.column("c1"), res.column("c2")))
    assert np.abs(res.column("concurrence") - closed).max() < 1e-10
    assert res.column("oracle_dev").max() < 1e-9


def test_two_qubit_transfer_and_storage(rng):
    net = SpinNetwork.uniform_chain(4, 1.0)
    base = dict(
        times=(0.3, 0.9, 2.2),
        network=net,
        initial={"kind": "bell", "label": "psi+"},
        verify_oracle=True,
        verify_cptp=True,
    )
    transfer = run(ScenarioSpec(kind="two_qubit_transfer",
                                sites={"senders": (0, 1), "receivers": (2, 3)}, **base))
    assert transfer.column("oracle_dev").max() < 1e-9
    storage = run(ScenarioSpec(kind="storage", sites={"senders": (0, 1)}, **base))
    assert storage.column("oracle_dev").max() < 1e-9
    assert storage.column("concurrence").min() >= 0.0


def test_weak_pair_peak_at_half_transfer_time():
    # even wire keeps the end qubits off-resonant from every wire mode
    # effective end-to-end coupling 2 g^2 / J gives one transfer per t ~ pi J / (4 g^2)
    spec = ScenarioSpec(
        kind="weak_pair",
        times=tuple(np.linspace(0.0, 314.0, 315)),
        params={"wire_sites": 2, "J": 1.0, "g": 0.05},
        initial={"kind": "basis", "string": "10"},
    )
    res = run(spec)
    conc = res.column("concurrence")
    f_ab = res.column("f_ab_abs")
    t = res.column("t")
    transfer_idx = int(np.argmax(f_ab))
    peak_idx = int(np.argmax(conc))
    assert f_ab[transfer_idx] > 0.99 and t[transfer_idx] > 290.0
    # single Bell peak at half the excitation transfer time
    assert 0 < peak_idx < transfer_idx
    assert abs(t[peak_idx] - 0.5 * t[transfer_idx]) < 0.05 * t[transfer_idx]
    assert res.meta["peak_concurrence"] >= conc.max()
    assert res.meta["peak_concurrence"] > 0.99
    high = conc > 0.5
    edges = np.flatnonzero(np.diff(high.astype(int)) != 0)
    assert len(edges) == 2  # one contiguous high-concurrence window -> one maximum


def test_closed_form_initial_states():
    for label in ("1100", "1010"):
        psi = four_qubit_closed_form(0.05, 1.0, 0.0, label)
        expected = np.zeros(16)
        expected[int(label, 2)] = 1.0
        assert np.abs(psi - expected).max() < 1e-12
    with pytest.raises(ValueError):
        four_qubit_closed_form(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        four_qubit_closed_form(0.1, 1.0, 0.1, "0111")


def test_closed_form_bell_product_time():
    g, j = 1e-2, 1.0
    t_star = np.pi * j / (2 * g**2)
    for label in ("1100", "1010"):
        rho = pure_state_density(four_qubit_closed_form(g, j, t_star, label))
        for pair in ((0, 3), (1, 2)):
            marginal = partial_trace(rho, list(pair), [2] * 4)
            assert abs(np.trace(marginal @ marginal).real - 1.0) < 1e-10  # pure
            assert concurrence(marginal) == pytest.approx(1.0, abs=1e-10)


def test_closed_form_biseparable_factorization():
    # amplitude matrix across the (A1,B2)|(A2,B1) regrouping has rank one
    g, j = 0.05, 1.0
    for theta in (0.3, 1.1, 2.0):
        psi = four_qubit_closed_form(g, j, theta * j / g**2, "1100")
        m = psi.reshape(2, 2, 2, 2).transpose(0, 3, 1, 2).reshape(4, 4)
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] < 1e-12


def test_closed_form_scenario_and_sweep_grid():
    spec = ScenarioSpec(
        kind="closed_form_four_qubit",
        times=tuple(np.linspace(0.0, 200.0, 21)),
        params={"g": 0.1, "J": 1.0},
        initial={"kind": "basis", "string": "1100"},
    )
    res = run(spec)
    assert "tau4" in res.columns and "c4" in res.columns
    theta = res.column("theta")
    assert np.abs(res.column("tau4") - np.sin(theta) ** 4).max() < 1e-10
    assert np.abs(res.column("c_a1b2") - np.abs(np.sin(theta))).max() < 1e-10
    assert res.column("c_a1b1").max() < 1e-10


def test_four_qubit_measure_sweep_windows():
    res = four_qubit_measure_sweep(points_per_window=40)
    windows = res.column("window")
    assert set(windows) == {0.0, 1.0, 2.0}
    assert res.column("theta")[0] == 0.0
    # every emitted measure stays in [0, 1]
    for name in res.columns[3:]:
        col = res.column(name)
        assert col.min() >= 0.0 and col.max() <= 1.0 + 1e-9


def test_four_qubit_weak_wire_reports_fidelity():
    spec = ScenarioSpec(
        kind="four_qubit_weak",
        times=tuple(np.linspace(0.0, 40.0, 9)),
        params={"wire_sites": 2, "J": 1.0, "g": 0.1},
        initial={"kind": "basis", "string": "1100"},
    )
    res = run(spec)
    assert "closed_form_fidelity" in res.columns
    assert res.column("purity").max() <= 1.0 + 1e-9
    assert res.column("closed_form_fidelity")[0] == pytest.approx(1.0, abs=1e-10)


def test_four_qubit_weak_mirror_channels_stay_empty_from_1001():
    # the mirror-symmetric (A1,B2)/(A2,B1) channels are never populated when
    # the initial excitations already sit on a mirror pair
    spec = ScenarioSpec(
        kind="four_qubit_weak",
        times=tuple(np.linspace(0.0, 120.0, 13)),
        params={"wire_sites": 2, "J": 1.0, "g": 0.1},
        initial={"kind": "basis", "string": "1001"},
    )
    res = run(spec)
    assert res.column("c_a1b2").max() < 1e-6
    assert res.column("c_a2b1").max() < 1e-6


def test_werner_sweep_orders_curves_bottom_to_top():
    spec = ScenarioSpec(
        kind="distribute_single",
        times=tuple(np.linspace(0.1, 0.5, 9)),
        network=chain3(),
        sites={"sender": 0, "receiver": 2},
        initial={"kind": "werner", "p": 0.5},
    )
    results = sweep(spec, "p", [0.4, 0.5, 0.7, 0.9, 1.0])
    ratios = [r.column("ratio") for r in results]
    for low, high in zip(ratios, ratios[1:]):
        assert np.all(high >= low - 1e-12)


def test_sweep_carries_parameter_and_rejects_empty():
    spec = ScenarioSpec(
        kind="distribute_single",
        times=(0.2, 0.8),
        network=chain3(),
        sites={"sender": 0, "receiver": 2},
        initial={"kind": "werner", "p": 0.5},
    )
    results = sweep(spec, "p", [0.4, 0.9])
    assert [r.meta["p"] for r in results] == [0.4, 0.9]
    assert results[0].rows != results[1].rows
    with pytest.raises(ValueError):
        sweep(spec, "p", [])


def test_run_is_deterministic():
    spec = ScenarioSpec(
        kind="distribute_single",
        times=tuple(np.linspace(0.0, 1.0, 7)),
        network=chain3(),
        sites={"sender": 0, "receiver": 2},
        initial={"kind": "werner", "p": 0.7},
    )
    assert run(spec).rows == run(spec).rows


def test_dense_oracle_callers_name_the_memory_cap(monkeypatch):
    from spinmaps import oracle

    monkeypatch.setattr(oracle, "physical_memory_bytes", lambda: 100 * 10**6)  # cap: 10 sites
    spec = ScenarioSpec(
        kind="four_qubit_weak", times=(0.0, 1.0), params={"wire_sites": 7},
        initial={"kind": "basis", "string": "1100"},
    )
    with pytest.raises(ValueError, match=r"params.wire_sites 7: 11 sites exceed .* cap of 10 sites"):
        run(spec)
    spec = ScenarioSpec(
        kind="qst", times=(0.0, 1.0), network=SpinNetwork.uniform_chain(11),
        sites={"sender": 0, "receiver": 10}, verify_oracle=True,
    )
    with pytest.raises(ValueError, match=r"verify.oracle: 11 sites exceed .*estimated peak"):
        run(spec)
