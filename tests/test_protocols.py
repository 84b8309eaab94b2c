from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinmaps import (
    ScenarioSpec,
    SpinNetwork,
    concurrence,
    four_qubit_closed_form,
    four_qubit_measure_sweep,
    partial_trace,
    run,
    sweep,
    sweep_specs,
)
from spinmaps import maps, measures, oracle, protocols
from spinmaps.maps import pure_state_density, trace_distance
from spinmaps.protocols import SCENARIO_KINDS, VerificationError, build_initial_state


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


@pytest.mark.parametrize("kind, flag, field", [
    ("four_qubit_weak", "verify_cptp", "verify.cptp"),
    ("closed_form_four_qubit", "verify_cptp", "verify.cptp"),
    ("closed_form_four_qubit", "verify_oracle", "verify.oracle"),
])
def test_checks_without_a_channel_or_network_are_rejected(kind, flag, field):
    with pytest.raises(ValueError, match=f"{field} does not apply to scenario '{kind}'"):
        ScenarioSpec(kind=kind, times=(0.0, 1.0), **{flag: True})


@pytest.mark.parametrize("field, message", [
    ({"times": ("0", "1.5")}, "times must be a real number, got '0'"),
    ({"times": (0.0, True)}, "times must be a real number, got True"),
    ({"verify_oracle": "no"}, "verify.oracle must be true or false, got 'no'"),
    ({"verify_cptp": 1}, "verify.cptp must be true or false, got 1"),
    ({"times": 3}, "times must be a list of real numbers, got 3"),
])
def test_library_specs_get_the_config_checks(field, message):
    """A spec built in code is read as strictly as one from a config file: no float() of text, no truthy flags."""
    qst = dict(kind="qst", times=(0.0, 1.5), network=chain3(), sites={"sender": 0, "receiver": 2})
    with pytest.raises(ValueError, match=f"^{message}"):
        ScenarioSpec(**{**qst, **field})


@pytest.mark.parametrize("text, hinted", [("0.5", False), ("0", False), ("abc", False), ("1e-3", True),
                                          ("2E5", True), ("1.0e3", True), ("1.0e300", True)])
def test_real_number_hints_at_yaml_only_for_an_exponent(text, hinted):
    hint = " (YAML reads it as text: write an exponent as 1.0e-3 or 1.0e+3, with a decimal point and a sign)"
    with pytest.raises(ValueError) as info:
        protocols.real_number(text, "params.g")
    assert str(info.value) == f"params.g must be a real number, got {text!r}" + (hint if hinted else "")


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


def test_weak_pair_peak_search_keeps_the_grid_peak_when_scipy_rejects_the_bracket(monkeypatch):
    # a flat objective off the grid: scipy rejects the grid triple as no bracket (a ValueError of its own);
    # an error inside the objective is a numerical failure instead (test_cli, "weak-pair-peak-search")
    spec = ScenarioSpec(kind="weak_pair", times=tuple(np.linspace(0.0, 24.8, 16)), params={"wire_sites": 9})
    concurrence = measures.concurrence
    monkeypatch.setattr(measures, "concurrence", lambda rho: 0.5 if np.ndim(rho) == 2 else concurrence(rho))
    flat = run(spec)
    peak = int(np.argmax(flat.column("concurrence")))
    assert 0 < peak < 15
    assert flat.meta["peak_time"] == spec.times[peak]
    assert flat.meta["peak_concurrence"] == flat.column("concurrence")[peak]


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


@pytest.mark.parametrize("g, j, label, t, message", [
    (0.0, 1.0, "1100", [1.0], "no closed form at"), (0.1, -1.0, "1010", [1.0], "no closed form at"),
    (np.nan, 1.0, "1100", [1.0], "no closed form at"), (0.1, 1.0, "0111", [1.0], "no closed form at"),
    (1e200, 1.0, "1100", [0.0], "no closed form at"), (1e160, 1.0, "1010", [1.0], "no closed form at"),
    (0.1, 1e-310, "1100", [1e10], "no closed form at"), (0.1, 1e300, "1010", [-1e10, 0.0], "no closed form at"),
    (0.1, 1.0, "1100", [0.0, np.inf], r"^t must be finite, got \[0.0, inf\]"),  # the time rule comes first
], ids=["g-zero", "J-negative", "g-nan", "label", "g-squared-overflows", "phase-g", "phase-J-small", "phase-J-large",
        "infinite-time"])
def test_closed_form_holds_only_with_positive_couplings_and_finite_phases(g, j, label, t, message):
    assert protocols.closed_form_holds(0.1, 1.0, "1100", [0.0, 5.0])
    assert not protocols.closed_form_holds(g, j, label, t)
    with pytest.raises(ValueError, match=message):
        four_qubit_closed_form(g, j, t, label)


def test_closed_form_norm_check_catches_nan(monkeypatch):
    monkeypatch.setattr(protocols, "closed_form_holds", lambda *args: True)  # let an infinite phase through
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="closed-form state norm nan off unity"):
        four_qubit_closed_form(0.1, 1e-310, [0.0, 1e10])  # g^2 t / J overflows: an infinite phase


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
    result = sweep("p", sweep_specs(spec, "p", [0.4, 0.5, 0.7, 0.9, 1.0]))
    ratios = result.column("ratio").reshape(5, -1)
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
    result = sweep("p", sweep_specs(spec, "p", [0.4, 0.9]))
    assert result.columns[0] == "p" and result.column("p").tolist() == [0.4, 0.4, 0.9, 0.9]
    assert result.rows[:2] != result.rows[2:]
    with pytest.raises(ValueError):
        sweep_specs(spec, "p", [])


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
    monkeypatch.setattr(oracle, "physical_memory_bytes", lambda: 100 * 10**6)  # dense cap: 10 sites
    spec = ScenarioSpec(
        kind="four_qubit_weak", times=(0.0, 1.0), params={"wire_sites": 7},
        initial={"kind": "basis", "string": "1100"},
    )
    assert run(spec).meta == {"n_sites": 11}  # the sector engine has no dense cap
    # verify.oracle takes the series oracle, whose estimate here is 80 (2^11 + 10 x 2^10) + 64 x 2^11 x 16 x 2 bytes
    # for the build and the columns, plus 40 x 2 x 256 + 16 x (107 + 4) x 2 bytes for the weights of 107 terms
    # in blocks of 4, plus 8 x (4 + 2) x 2^11 x 16 bytes for the block
    assert oracle.series_peak_bytes(11, 10, 16, 2, 107) == 5_177_344 + 24_032 + 1_572_864
    assert run(replace(spec, verify_oracle=True)).column("oracle_dev").max() <= 1e-12
    # the cap is checked when the spec is built, before anything runs
    qst = dict(kind="qst", network=SpinNetwork.uniform_chain(11), sites={"sender": 0, "receiver": 10},
               verify_oracle=True)
    with pytest.raises(ValueError, match=r"verify.oracle: 11 sites, 2 columns and 400 times exceed the series-oracle "
                                         r"cap \(estimated peak 0.105 GiB for at most 114 Chebyshev terms, physical"):
        ScenarioSpec(times=tuple(np.linspace(0.0, 1.0, 400)), **qst)
    with pytest.raises(ValueError, match=r"verify.oracle: 15 sites, .* ceiling 14 sites"):
        ScenarioSpec(**{**qst, "times": (0.0, 1.0), "network": SpinNetwork.uniform_chain(15),
                        "sites": {"sender": 0, "receiver": 14}})
    with pytest.raises(ValueError, match=r"dense Hamiltonian: 11 sites exceed the dense-oracle cap of 10 sites"):
        oracle.full_hamiltonian(SpinNetwork.uniform_chain(11))  # the dense path keeps the dense cap


def test_verify_oracle_runs_every_channel_kind_without_the_dense_space(monkeypatch):
    def refuse(self, network):
        raise AssertionError(f"dense propagator built for {network.n_sites} sites")

    monkeypatch.setattr(oracle.FullPropagator, "__init__", refuse)
    net = SpinNetwork.chain([0.9, 1.1, 1.0, 0.8], [0.1, -0.2, 0.0, 0.1], [0.05, 0.0, -0.1, 0.0, 0.1])
    werner = {"kind": "werner", "p": 0.8}
    fields = {
        "qst": dict(network=net, sites={"sender": 0, "receiver": 4}),
        "distribute_single": dict(network=net, sites={"sender": 0, "receiver": 4}, initial=werner),
        "distribute_dual": dict(network=net, sites={"sender_a": 0, "receiver_a": 4, "sender_b": 1,
                                                    "receiver_b": 3}, initial=werner),
        "two_qubit_transfer": dict(network=net, sites={"senders": [0, 1], "receivers": [4, 3]},
                                   initial={"kind": "bell", "label": "psi+"}),
        "storage": dict(network=net, sites={"senders": [1, 3]}, initial={"kind": "bell", "label": "phi-"}),
        "weak_pair": dict(params={"wire_sites": 5}),
        "four_qubit_weak": dict(params={"wire_sites": 3, "g": 0.3}, initial={"kind": "basis", "string": "1010"}),
    }
    assert set(fields) == set(SCENARIO_KINDS) - {"closed_form_four_qubit"}  # the one kind without a network
    times = tuple(np.linspace(-1.0, 6.0, 5))
    for kind, extra in fields.items():
        result = run(ScenarioSpec(kind=kind, times=times, verify_oracle=True, **extra))
        assert result.column("oracle_dev").max() <= 1e-12


@pytest.mark.parametrize("label", ["1100", "1010"])
def test_four_qubit_weak_fidelity_is_the_closed_form_overlap_with_the_oracle_state(label):
    spec = ScenarioSpec(kind="four_qubit_weak", times=(3.0, 40.0, 90.0), params={"wire_sites": 3},
                        initial={"kind": "basis", "string": label})
    fidelity = run(spec).column("closed_form_fidelity")
    net = SpinNetwork.chain([1.0, 0.1, 1.0, 1.0, 0.1, 1.0])
    corners = [0, 1, 5, 6]
    for t, fid in zip(spec.times, fidelity):
        rho = oracle.reduced_output(net, build_initial_state(spec.initial, 4), corners, corners, t)
        psi = four_qubit_closed_form(0.1, 1.0, t, label)
        assert abs(fid - (psi.conj() @ rho @ psi).real) <= 1e-12


@pytest.mark.parametrize("label", ["9", "110", "11000", "11x0"])
def test_four_qubit_weak_rejects_labels_that_are_not_four_qubits(label):
    # YAML reads an unquoted 0011 as the octal integer 9
    with pytest.raises(ValueError, match=f"^initial.string: basis string '{label}' does not describe 4 qubits$"):
        ScenarioSpec(kind="four_qubit_weak", times=(0.0, 1.0), initial={"kind": "basis", "string": label})


def test_four_qubit_weak_oracle_check_flags_a_wrong_state(monkeypatch):
    spec = ScenarioSpec(
        kind="four_qubit_weak", times=(0.5, 2.0), params={"wire_sites": 3, "g": 0.3},
        initial={"kind": "basis", "string": "1010"}, verify_oracle=True,
    )
    assert run(spec).column("oracle_dev").max() <= 1e-12
    reduced = oracle.reduced_output
    monkeypatch.setattr(oracle, "reduced_output",
                        lambda *args, **kwargs: reduced(*args, **kwargs)[::-1, ::-1])
    with pytest.raises(VerificationError, match="map/oracle deviation"):
        run(spec)


def test_runs_without_verify_oracle_never_build_the_dense_space(monkeypatch):
    """Every scenario kind runs on the sector engine alone, four_qubit_weak at 50 sites too."""
    def refuse(self, network):
        raise AssertionError(f"dense propagator built for {network.n_sites} sites")

    monkeypatch.setattr(oracle.FullPropagator, "__init__", refuse)
    net = SpinNetwork.chain([0.9, 1.1, 1.0, 0.8], [0.1, -0.2, 0.0, 0.1], [0.05, 0.0, -0.1, 0.0, 0.1])
    werner = {"kind": "werner", "p": 0.8}
    fields = {
        "qst": dict(network=net, sites={"sender": 0, "receiver": 4}),
        "distribute_single": dict(network=net, sites={"sender": 0, "receiver": 4}, initial=werner),
        "distribute_dual": dict(network=net, sites={"sender_a": 0, "receiver_a": 4, "sender_b": 1,
                                                    "receiver_b": 3}, initial=werner),
        "two_qubit_transfer": dict(network=net, sites={"senders": [0, 1], "receivers": [3, 4]},
                                   initial={"kind": "bell", "label": "psi+"}),
        "storage": dict(network=net, sites={"senders": [1, 3]}, initial={"kind": "bell", "label": "phi-"}),
        "weak_pair": dict(params={"wire_sites": 5}),
        "closed_form_four_qubit": dict(),
        "four_qubit_weak": dict(params={"wire_sites": 46}),  # last: its result is checked below
    }
    assert set(fields) == set(SCENARIO_KINDS)
    times = tuple(np.linspace(0.0, 120.0, 12))
    for kind, extra in fields.items():
        verify_cptp = kind not in ("four_qubit_weak", "closed_form_four_qubit")
        result = run(ScenarioSpec(kind=kind, times=times, verify_cptp=verify_cptp, **extra))
        assert len(result.rows) == len(times)
    assert result.kind == "four_qubit_weak" and result.meta == {"n_sites": 50}
    assert result.column("closed_form_fidelity")[0] == pytest.approx(1.0, abs=1e-12)
    assert result.column("purity").max() <= 1.0 + 1e-12


def test_params_a_scenario_does_not_read_are_rejected():
    with pytest.raises(ValueError, match=r"params.Jj is not read by scenario 'weak_pair' "
                                         r"\(accepted: wire_sites, J, g\)"):
        ScenarioSpec(kind="weak_pair", times=(0.0, 1.0), params={"Jj": 5.0})
    with pytest.raises(ValueError, match=r"params.J is not read by scenario 'qst' \(accepted: none\)"):
        ScenarioSpec(kind="qst", times=(0.0, 1.0), params={"J": 1.0})
    with pytest.raises(ValueError, match=r"params.refine is not read by scenario 'four_qubit_weak'"):
        ScenarioSpec(kind="four_qubit_weak", times=(0.0, 1.0), params={"refine": False})


def test_sweep_rejects_axes_that_change_nothing():
    qst = ScenarioSpec(kind="qst", times=(0.2, 0.8), network=chain3(), sites={"sender": 0, "receiver": 2})
    with pytest.raises(ValueError, match=r"sweep.axis 'J' changes nothing in scenario 'qst'"):
        sweep_specs(qst, "J", [0.5, 1.0])
    bell = ScenarioSpec(kind="distribute_single", times=(0.2, 0.8), network=chain3(),
                        sites={"sender": 0, "receiver": 2}, initial={"kind": "bell", "label": "psi+"})
    with pytest.raises(ValueError, match=r"sweep.axis 'p' changes nothing in scenario 'distribute_single'"):
        sweep_specs(bell, "p", [0.4, 0.9])
    weak = ScenarioSpec(kind="weak_pair", times=(0.0, 5.0, 10.0))
    curves = sweep("g", sweep_specs(weak, "g", [0.1, 0.3])).column("concurrence").reshape(2, -1)
    assert not np.array_equal(*curves)


def test_spec_holds_the_values_its_kind_reads():
    dual = ScenarioSpec(kind="distribute_dual", times=(0.0, 1.0), network=chain3(),
                        sites={"sender_a": 0.0, "receiver_a": 2, "sender_b": 1, "receiver_b": 2.0},
                        initial={"kind": "werner", "p": 1})
    assert dual.sites == {"sender_a": 0, "receiver_a": 2, "sender_b": 1, "receiver_b": 2}
    assert all(type(site) is int for site in dual.sites.values())
    assert np.array_equal(dual.rho_in, build_initial_state({"kind": "werner", "p": 1.0}, 2))
    storage = ScenarioSpec(kind="storage", times=(0.0,), network=chain3(), sites={"senders": [2, 0]},
                           initial={"kind": "bell"})
    assert storage.sites == {"senders": (2, 0)}
    weak = ScenarioSpec(kind="weak_pair", times=(0.0,), params={"g": 1})
    assert weak.params == {"wire_sites": 4, "J": 1.0, "g": 1.0}
    assert weak.initial == {"kind": "basis", "string": "10"} and weak.rho_in[2, 2] == 1.0
    closed = ScenarioSpec(kind="closed_form_four_qubit", times=(0.0,))
    assert closed.params == {"g": 1e-2, "J": 1.0} and closed.initial["string"] == "1100"
    with pytest.raises(ValueError, match=r"sites.receiver_b 3 out of range for 3 sites"):
        replace(dual, network_b=None, sites={**dual.sites, "receiver_b": 3})
    longer = SpinNetwork.uniform_chain(4, 1.0)
    assert replace(dual, network_b=longer, sites={**dual.sites, "receiver_b": 3}).sites["receiver_b"] == 3


WEIGHTS = [0.4, 0.55, 0.7, 0.85, 1.0]


@pytest.mark.parametrize("kind, sites, builds", [
    ("distribute_single", {"sender": 0, "receiver": 3}, [1]),
    ("distribute_dual", {"sender_a": 0, "receiver_a": 3, "sender_b": 1, "receiver_b": 3}, [1, 1]),
    ("two_qubit_transfer", {"senders": [0, 1], "receivers": [3, 2]}, [1, 2]),
])
def test_werner_sweep_builds_one_map(sector_builds, kind, sites, builds):
    """A p sweep builds the map once and reads it out per weight: the columns of one run per weight."""
    net = SpinNetwork.chain([1.0, 0.8, 1.2], [0.1, -0.2, 0.05], [0.1, 0.0, -0.1, 0.2])
    spec = ScenarioSpec(kind=kind, times=tuple(np.linspace(0.1, 4.0, 11)), network=net, sites=sites,
                        initial={"kind": "werner", "p": 0.5})
    swept = sweep_specs(spec, "p", WEIGHTS)
    result = sweep("p", swept)
    assert sector_builds == builds
    runs = [run(s) for _, s in swept]
    assert result.columns == ("p",) + runs[0].columns
    assert np.array_equal(result.column("p"), np.repeat(WEIGHTS, 11))
    for name in runs[0].columns:
        assert np.array_equal(result.column(name), np.concatenate([r.column(name) for r in runs]), equal_nan=True)


def test_params_sweep_builds_a_map_per_value(sector_builds):
    weak = ScenarioSpec(kind="weak_pair", times=(0.0, 5.0, 10.0))
    result = sweep("g", sweep_specs(weak, "g", [0.1, 0.2, 0.3]))
    assert sector_builds == [1] * 3  # the weak-pair chain has no ZZ coupling: no k = 2 sector
    assert len(result.rows) == 9


def test_werner_sweep_checks_each_weight_and_the_map_once(check_calls):
    """verify.oracle reads each weight's outputs; the CPTP verdict is of the one map."""
    spec = ScenarioSpec(kind="distribute_single", times=(0.2, 0.9, 1.6), network=chain3(),
                        sites={"sender": 0, "receiver": 2}, initial={"kind": "werner", "p": 0.5},
                        verify_oracle=True, verify_cptp=True)
    result = sweep("p", sweep_specs(spec, "p", [0.4, 0.7, 1.0]))
    assert check_calls == {"reduced_output": 3, "is_cptp": 1}
    assert result.column("oracle_dev").max() <= 1e-10
    assert np.array_equal(result.column("cptp_min_eig"), np.tile(run(spec).column("cptp_min_eig"), 3))


def test_only_run_searches_for_the_weak_pair_peak(monkeypatch):
    """The Brent peak search is the report ``run`` adds; a sweep reports nothing, so searches nothing."""
    searches, search = [], protocols.brent
    monkeypatch.setattr(protocols, "brent", lambda *args: searches.append(args) or search(*args))
    weak = ScenarioSpec(kind="weak_pair", times=tuple(np.linspace(0.0, 24.8, 16)), params={"wire_sites": 9})
    swept = sweep_specs(weak, "g", [0.1, 0.2, 0.3])
    result = sweep("g", swept)
    assert searches == [] and result.meta == {}
    single = run(swept[1][1])
    assert len(searches) == 1 and set(single.meta) == {"peak_time", "peak_concurrence"}
    assert single.meta["peak_concurrence"] >= single.column("concurrence").max()
    assert np.array_equal(result.column("concurrence")[16:32], single.column("concurrence"))


def _objective(kind: str, p: float, c: float):
    """A smooth, flat, stepped or partly NaN function of x with its low point at or near ``p``."""
    def f(x):
        if kind == "smooth":
            return (x - p) ** 2 + 0.1 * c * np.sin(3.0 * x)
        if kind == "flat":
            return c
        if kind == "stepped":  # plateaus: ties between the two inner points
            return round(c * (x - p) ** 2, 1)
        return np.nan if 0.0 < x - p < 0.1 * abs(c) else (x - p) ** 2  # NaN beside the low point

    return f


_REALS = st.floats(-8.0, 8.0)


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["smooth", "flat", "stepped", "nan"]), p=_REALS, c=_REALS, around=st.booleans(),
       xs=st.tuples(_REALS, _REALS, _REALS), gaps=st.tuples(st.floats(1e-6, 4.0), st.floats(1e-6, 4.0)),
       middle=st.floats(-0.9, 0.9))
def test_brent_has_the_bits_of_scipys_search(kind, p, c, around, xs, gaps, middle):
    """Equal x and f(x) bits for every bracket, and None exactly where scipy rejects the triple."""
    from scipy.optimize import minimize_scalar

    f = _objective(kind, p, c)
    if around:  # a triple about the low point, most of them brackets
        xs = (p - gaps[0], p + middle * min(gaps), p + gaps[1])
    found = protocols.brent(f, *xs)
    try:
        res = minimize_scalar(f, bracket=xs, method="brent")
    except ValueError:
        assert found is None
        return
    assert found is not None
    assert np.array(found, dtype=float).tobytes() == np.array([res.x, res.fun], dtype=float).tobytes()


def test_brent_evaluates_the_middle_point_once():
    calls = []
    x, fx = protocols.brent(lambda t: calls.append(t) or (t - 1.0) ** 2, 0.0, 0.8, 3.0)
    assert calls.count(0.8) == 1 and abs(x - 1.0) < 1e-7 and fx < 1e-14
    assert calls[:3] == [0.0, 0.8, 3.0]


@pytest.mark.parametrize("left, right", [(1.0, 0.98), (0.98, 1.0)])
def test_brent_lands_on_a_local_minimum_of_a_two_minimum_bracket(left, right):
    """The search is local: it stops at one of the two low points, not always the lower, below the middle value."""
    def f(x):
        return -(left * np.exp(-((x - 1.0) / 0.4) ** 2) + right * np.exp(-((x - 2.5) / 0.4) ** 2))

    xa, xb, xc = 0.0, 1.8, 4.0  # the middle point lies between the two low points
    x, fx = protocols.brent(f, xa, xb, xc)
    assert xa < x < xc and fx <= f(xb)
    assert min(abs(x - 1.0), abs(x - 2.5)) < 0.05
    h = 1e-4
    assert fx <= f(x - h) and fx <= f(x + h)


def test_the_weak_pair_peak_search_takes_at_most_17_maps(monkeypatch):
    """A 21-site wire at g = 0.1 over [0, 2 t*], as in the benchmark: 17 maps at most, each at one time."""
    wire, g = 21, 0.1
    kappa = 2.0 * g * np.sqrt(2.0 / (wire + 1))  # the ends' coupling to the wire's zero mode
    spec = ScenarioSpec(kind="weak_pair", times=tuple(np.linspace(0.0, np.pi / (np.sqrt(2.0) * kappa), 16)),
                        params={"wire_sites": wire, "J": 1.0, "g": g}, initial={"kind": "basis", "string": "10"})
    times, search = [], protocols.brent
    monkeypatch.setattr(protocols, "brent", lambda f, *bracket: search(lambda t: times.append(t) or f(t), *bracket))
    result = run(spec)
    assert 3 < len(times) <= 17 and all(np.ndim(t) == 0 for t in times)
    peak = int(np.argmax(result.column("concurrence")))
    assert spec.times[peak - 1] < result.meta["peak_time"] < spec.times[peak + 1]
    assert result.meta["peak_concurrence"] >= result.column("concurrence").max()


def test_a_p_sweep_reads_the_spec_once(monkeypatch):
    """Each weight re-reads only its initial state; the rest of the spec is read once."""
    post_inits = []
    read_spec = ScenarioSpec.__post_init__
    monkeypatch.setattr(ScenarioSpec, "__post_init__", lambda spec: post_inits.append(spec.kind) or read_spec(spec))
    cfg = {"scenario": "distribute_single", "network": {"kind": "uniform_chain", "sites": 4},
           "sites": {"sender": 0, "receiver": 3}, "initial": {"kind": "werner", "p": 0.5},
           "times": {"start": 0.0, "stop": 2.0, "points": 4},
           "sweep": {"axis": "p", "values": [0.4, 0.7, 0.9, 1.0, 0.0]}}
    axis, swept = protocols.sweep_from_config(cfg)
    assert post_inits == ["distribute_single"]
    assert axis == "p" and [v for v, _ in swept] == [0.4, 0.7, 0.9, 1.0, 0.0]
    for v, spec in swept:
        assert spec.initial == {"kind": "werner", "p": v}
        assert np.array_equal(spec.rho_in, build_initial_state({"kind": "werner", "p": v}, 2))
    assert swept[0][1].initial is not swept[1][1].initial


def test_sweep_builds_every_spec_before_the_first_run(monkeypatch):
    """A bad value later in the grid is rejected before any value runs."""
    def refuse(spec):
        raise AssertionError("a run started before every swept spec was built")

    monkeypatch.setattr(protocols, "run", refuse)
    weak = ScenarioSpec(kind="weak_pair", times=(0.0, 1.0))
    with pytest.raises(ValueError, match="params.wire_sites must be a whole number, got 2.5"):
        sweep("wire_sites", sweep_specs(weak, "wire_sites", [3, 4, 2.5]))
    werner = ScenarioSpec(kind="distribute_single", times=(0.0, 1.0), network=chain3(),
                          sites={"sender": 0, "receiver": 2}, initial={"kind": "werner", "p": 0.5})
    with pytest.raises(ValueError, match=r"^initial.p: Werner weight must be in \[0, 1\], got 2.0$"):
        sweep("p", sweep_specs(werner, "p", [0.5, 2.0]))


def test_checks_run_once_per_grid(check_calls):
    """verify: {oracle, cptp} makes one oracle call and one CPTP verdict for the whole grid."""
    spec = ScenarioSpec(kind="qst", times=tuple(np.linspace(0.0, 3.0, 7)), network=chain3(),
                        sites={"sender": 0, "receiver": 2}, verify_oracle=True, verify_cptp=True)
    assert len(run(spec).rows) == 7
    assert check_calls == {"reduced_output": 1, "is_cptp": 1}
    run(ScenarioSpec(kind="four_qubit_weak", times=(0.0, 1.0, 2.0), verify_oracle=True))
    assert check_calls == {"reduced_output": 2, "is_cptp": 1}


def test_oracle_check_names_the_first_failing_time(monkeypatch):
    times = tuple(np.linspace(0.3, 3.0, 6))
    spec = ScenarioSpec(kind="qst", times=times, network=chain3(), sites={"sender": 0, "receiver": 2},
                        verify_oracle=True)
    reduced = oracle.reduced_output
    bad = [2, 4]

    def swapped(*args, **kwargs):
        out = reduced(*args, **kwargs).copy()
        out[bad] = out[bad][:, ::-1, ::-1]
        return out

    expected = run(spec)  # the channel's outputs, diag(1 - p, p), from the columns
    p = expected.column("out_p1")[bad[0]]
    dev = trace_distance(np.diag([1.0 - p, p]), np.diag([p, 1.0 - p]))
    monkeypatch.setattr(oracle, "reduced_output", swapped)
    with pytest.raises(VerificationError) as info:
        run(spec)
    assert str(info.value) == f"map/oracle deviation {dev:.3e} beyond tolerance at t={times[bad[0]]}"


def test_cptp_check_reports_the_failing_slice(monkeypatch):
    """A slice that is not trace preserving fails with its own minimum Choi eigenvalue."""
    times = tuple(np.linspace(0.5, 3.0, 6))
    spec = ScenarioSpec(kind="qst", times=times, network=chain3(), sites={"sender": 0, "receiver": 2},
                        initial={"kind": "basis", "string": "0"}, verify_cptp=True)
    is_cptp = maps.is_cptp

    def leaky(channel):
        """The map's superoperator with |1><1| -> 2.25 |f|^2 |1><1| at two times: no Kraus set is this map."""
        superop = maps.superop_from_kraus(channel)
        superop[[3, 5], 3, 3] *= 2.25
        return superop

    monkeypatch.setattr(maps, "is_cptp", lambda channel: is_cptp(leaky(channel)))
    f = maps.NetworkChannel(chain3()).amplitude(0, 2, np.array(times))
    single = is_cptp(leaky(maps.one_qubit_kraus(f))[3])
    assert not single.ok
    with pytest.raises(VerificationError) as info:
        run(spec)
    eig = single.min_choi_eigenvalue
    assert str(info.value) == f"map failed the CPTP check (min Choi eigenvalue {eig:.3e})"
