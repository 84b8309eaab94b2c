"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Tolerances are fixed here, not configurable.
"""

import numpy as np

from spinmaps import (
    NetworkChannel,
    SectorPropagator,
    SpinNetwork,
    apply,
    concurrence,
    dual_rail_concurrence,
    extend_with_identity,
    four_qubit_closed_form,
    four_qubit_measure_sweep,
    four_tangle,
    is_cptp,
    one_qubit_kraus,
    partial_trace,
    superop_from_kraus,
    tensor_map,
    trace_distance,
    transferred_concurrence,
    two_qubit_kraus,
    two_qubit_map_elements,
    two_qubit_sparsity_pattern,
    werner_state,
    XState,
)
from spinmaps.maps import (
    distributed_pair_matrix,
    dual_rail_matrix,
    one_qubit_transfer_matrix,
    pure_state_density,
    random_density_matrix,
)
from spinmaps.measures import three_tangle_decomposition_bound
from spinmaps.oracle import FullPropagator, reduced_output
from spinmaps.protocols import FIGURE7_G, FIGURE7_J

from conftest import magnetization_expectation, pair_amplitude_determinant, random_network

WERNER_WEIGHTS = (0.4, 0.5, 0.7, 0.9, 1.0)


def _report(number: int, text: str):
    print(f"PASS criterion {number}: {text}")


def _random_sites(rng, n, count):
    return tuple(int(x) for x in rng.choice(n, size=count, replace=False))


def test_criterion_1_map_oracle_equivalence():
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    collected_maps = []
    for _ in range(20):
        n = int(rng.integers(3, 9))
        net = random_network(rng, n, scale=1.0)
        prop = FullPropagator(net)
        chan = NetworkChannel(net)
        for _ in range(5):
            t = float(rng.uniform(0.0, 10.0))
            s, r = (int(x) for x in rng.integers(0, n, size=2))
            rho = random_density_matrix(2, rng)
            channel = chan.one_qubit(s, r, t)
            dev = trace_distance(apply(channel, rho), reduced_output(net, rho, [s], [r], t, propagator=prop))
            worst = max(worst, dev)
            collected_maps.append(channel)
            checked += 1

            senders = _random_sites(rng, n, 2)
            receivers = _random_sites(rng, n, 2)
            rho2 = random_density_matrix(4, rng)
            channel2 = chan.two_qubit(senders, receivers, t)
            dev2 = trace_distance(
                apply(channel2, rho2), reduced_output(net, rho2, senders, receivers, t, propagator=prop)
            )
            worst = max(worst, dev2)
            collected_maps.append(channel2)
            checked += 1
    assert checked >= 200
    assert worst < 1e-8
    test_criterion_1_map_oracle_equivalence.maps = collected_maps
    _report(1, f"map/oracle trace distance < 1e-8 over {checked} random tuples (worst {worst:.2e})")


def test_criterion_2_reference_matrix_reproduction():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        f = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        g = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        single = superop_from_kraus(one_qubit_kraus(f))
        worst = max(worst, np.abs(single - one_qubit_transfer_matrix(np.conj(f))).max())
        extended = superop_from_kraus(extend_with_identity(one_qubit_kraus(f)))
        worst = max(worst, np.abs(extended - distributed_pair_matrix(np.conj(f))).max())
        double = superop_from_kraus(tensor_map(one_qubit_kraus(f), one_qubit_kraus(g)))
        worst = max(worst, np.abs(double - dual_rail_matrix(np.conj(f), np.conj(g))).max())
    assert worst < 1e-12
    _report(2, f"one-qubit/extended/dual-rail matrices reproduced on 50 amplitude pairs (worst {worst:.2e})")


def test_criterion_3_two_qubit_sparsity_and_elements():
    rng = np.random.default_rng(303)
    pattern = two_qubit_sparsity_pattern()
    worst_elem = 0.0
    for _ in range(10):
        n = int(rng.integers(4, 7))
        net = random_network(rng, n)
        t = float(rng.uniform(0.2, 4.0))
        senders = _random_sites(rng, n, 2)
        receivers = _random_sites(rng, n, 2)
        k1 = SectorPropagator(net, 1).table(t)
        k2 = SectorPropagator(net, 2).table(t)
        built = superop_from_kraus(two_qubit_kraus(k1, k2, senders, receivers))
        assert np.abs(built[~pattern]).max() == 0.0
        elements = two_qubit_map_elements(k1, k2, senders, receivers)
        worst_elem = max(worst_elem, float(np.abs(elements - built).max()))
    net5 = random_network(rng, 5)
    for t in (0.7, 1.9, 3.3):
        k1 = SectorPropagator(net5, 1).table(t)
        k2 = SectorPropagator(net5, 2).table(t)
        for senders, receivers in (((0, 1), (3, 4)), ((1, 3), (1, 3)), ((4, 0), (2, 3))):
            elements = two_qubit_map_elements(k1, k2, senders, receivers)
            built = superop_from_kraus(two_qubit_kraus(k1, k2, senders, receivers))
            worst_elem = max(worst_elem, float(np.abs(elements - built).max()))
    assert worst_elem < 1e-10
    _report(3, f"exact U(1) sparsity pattern; element tables match Kraus build (worst {worst_elem:.2e})")


def test_criterion_4_cptp_suite():
    rng = np.random.default_rng(404)
    maps_to_check = list(getattr(test_criterion_1_map_oracle_equivalence, "maps", []))
    if not maps_to_check:  # criterion 1 not run first; rebuild a small pool
        for _ in range(10):
            n = int(rng.integers(3, 7))
            net = random_network(rng, n)
            t = float(rng.uniform(0, 5))
            chan = NetworkChannel(net)
            maps_to_check.append(chan.one_qubit(0, n - 1, t))
            maps_to_check.append(chan.two_qubit((0, 1), (n - 2, n - 1), t))
    for f in (1.0, 0.6, 0.3 + 0.4j):
        maps_to_check.append(one_qubit_kraus(f))
        maps_to_check.append(extend_with_identity(one_qubit_kraus(f)))
        maps_to_check.append(tensor_map(one_qubit_kraus(f), one_qubit_kraus(np.conj(f))))
    worst_eig, worst_tp = 0.0, 0.0
    for channel in maps_to_check:
        verdict = is_cptp(channel)
        assert verdict.ok
        worst_eig = min(worst_eig, verdict.min_choi_eigenvalue)
        worst_tp = max(worst_tp, verdict.trace_defect)
    assert worst_eig >= -1e-9
    assert worst_tp <= 1e-10
    _report(4, f"{len(maps_to_check)} constructed maps CPTP (min Choi eig {worst_eig:.2e}, TP defect {worst_tp:.2e})")


def test_criterion_5_single_rail_werner_curves():
    rng = np.random.default_rng(505)
    f_grid = np.linspace(0.0, 1.0, 51)
    ratios = {}
    for p in WERNER_WEIGHTS:
        x = XState.werner(p, "psi+")
        c_in = (3.0 * p - 1.0) / 2.0
        ratios[p] = np.array([transferred_concurrence(x, f)[0] / c_in for f in f_grid])
    for low, high in zip(WERNER_WEIGHTS, WERNER_WEIGHTS[1:]):
        assert np.all(ratios[high][1:-1] > ratios[low][1:-1])
    assert np.abs(ratios[1.0] - f_grid).max() < 1e-12
    worst = 0.0
    for p in WERNER_WEIGHTS:
        rho = werner_state(p, "psi+")
        c_in = (3.0 * p - 1.0) / 2.0
        for f_abs in f_grid[1:]:
            f = f_abs * np.exp(2j * np.pi * rng.uniform())
            out = apply(extend_with_identity(one_qubit_kraus(f)), rho)
            ratio_map = concurrence(out) / c_in
            ratio_formula = transferred_concurrence(XState.werner(p, "psi+"), f)[0] / c_in
            worst = max(worst, abs(ratio_map - ratio_formula))
    assert worst < 1e-10
    _report(5, f"single-rail Werner curves ordered in p, p=1 identity line, map cross-check (worst {worst:.2e})")


def test_criterion_6_dual_rail_werner_curves():
    rng = np.random.default_rng(606)
    f_grid = np.linspace(0.0, 1.0, 41)
    worst = 0.0
    ratio = {}
    for family, coherent_branch in (("psi+", 1), ("phi+", 2)):
        for p in WERNER_WEIGHTS:
            x = XState.werner(p, family)
            rho = werner_state(p, family)
            c_in = (3.0 * p - 1.0) / 2.0
            values = []
            for f_abs in f_grid:
                f = f_abs * np.exp(2j * np.pi * rng.uniform())
                c, c1, c2 = dual_rail_concurrence(x, f)
                channel = tensor_map(one_qubit_kraus(f), one_qubit_kraus(f))
                worst = max(worst, abs(c - concurrence(apply(channel, rho))))
                # the live branch is the one matching the input coherence type
                live = c1 if coherent_branch == 1 else c2
                dead = c2 if coherent_branch == 1 else c1
                assert live >= dead
                values.append(c / c_in)
            ratio[(family, p)] = np.array(values)
    assert worst < 1e-10
    for p in WERNER_WEIGHTS:
        assert np.all(ratio[("psi+", p)] >= ratio[("phi+", p)] - 1e-12)
    _report(6, f"dual-rail curves for psi+/phi+ families, formula vs map (worst {worst:.2e}), C1 >= C2")


def test_criterion_7_closed_form_suite():
    g, j = 1e-2, 1.0
    thetas = np.linspace(0.0, 2.0 * np.pi, 1000)
    worst_pair = worst_zero = worst_tau4 = worst_t3 = 0.0
    for theta in thetas:
        t = theta * j / g**2
        psi = four_qubit_closed_form(g, j, t, "1100")
        rho = pure_state_density(psi)
        target = abs(np.sin(g**2 * t / j))
        c_a1b2 = concurrence(partial_trace(rho, [0, 3], [2] * 4))
        c_a2b1 = concurrence(partial_trace(rho, [1, 2], [2] * 4))
        worst_pair = max(worst_pair, abs(c_a1b2 - target), abs(c_a2b1 - target))
        worst_zero = max(
            worst_zero,
            concurrence(partial_trace(rho, [0, 2], [2] * 4)),
            concurrence(partial_trace(rho, [1, 3], [2] * 4)),
        )
        worst_tau4 = max(worst_tau4, abs(four_tangle(psi) - np.sin(theta) ** 4))
        for dropped in range(4):
            kept = [q for q in range(4) if q != dropped]
            bound = three_tangle_decomposition_bound(partial_trace(rho, kept, [2] * 4))
            worst_t3 = max(worst_t3, bound)
    assert worst_pair < 1e-10
    assert worst_zero < 1e-10
    assert worst_tau4 < 1e-10
    assert worst_t3 < 1e-8
    t_star = np.pi * j / (2.0 * g**2)
    rho_star = pure_state_density(four_qubit_closed_form(g, j, t_star, "1100"))
    for pair in ((0, 3), (1, 2)):
        marginal = partial_trace(rho_star, list(pair), [2] * 4)
        assert abs(np.trace(marginal @ marginal).real - 1.0) < 1e-12
        assert abs(concurrence(marginal) - 1.0) < 1e-12
    _report(
        7,
        "closed-form suite over 1000 times: pair concurrences |sin| "
        f"({worst_pair:.2e}), zeros ({worst_zero:.2e}), tau4 sin^4 ({worst_tau4:.2e}), "
        f"three-tangle bound ({worst_t3:.2e}), Bell product at quarter period",
    )


def test_criterion_8_weak_coupling_window_curves():
    g, j = FIGURE7_G, FIGURE7_J  # J^2/g^2 = 1e4
    result = four_qubit_measure_sweep(points_per_window=1000)
    zero_row = result.rows[0]
    for name in result.columns[3:]:
        assert abs(zero_row[result.columns.index(name)]) < 1e-12
    t_quarter = np.pi * j / (2.0 * g**2)
    window2 = [row for row in result.rows if row[0] == 1.0]
    assert abs(window2[0][result.columns.index("t")] - t_quarter) < 1e-6 * t_quarter
    assert window2[0][result.columns.index("c_a1b2")] > 1.0 - 1e-9
    assert window2[0][result.columns.index("tau4")] > 1.0 - 1e-9
    cross = ("c_a1b1", "c_a1b2", "c_a2b1", "c_a2b2")
    idx = {name: result.columns.index(name) for name in cross + ("c4",)}
    exclusive = [
        row
        for row in result.rows
        if row[idx["c4"]] > 0.1 and all(row[idx[name]] < 1e-6 for name in cross)
    ]
    assert exclusive
    _report(
        8,
        f"window curves: all zero at t=0, pair concurrence and tau4 reach 1 at quarter period, "
        f"{len(exclusive)} exclusive four-way rows",
    )


def test_criterion_9_sector_engine_invariants():
    rng = np.random.default_rng(909)
    worst_unit = worst_complete = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        net = random_network(rng, n)
        t = float(rng.uniform(0.0, 5.0))
        for k in (0, 1, 2):
            if k > n:
                continue
            a = SectorPropagator(net, k).table(t).amplitudes
            dim = a.shape[0]
            worst_unit = max(worst_unit, float(np.abs(a @ a.conj().T - np.eye(dim)).max()))
            worst_complete = max(worst_complete, float(np.abs((np.abs(a) ** 2).sum(axis=0) - 1.0).max()))
    assert worst_unit < 1e-10
    assert worst_complete < 1e-10
    worst_det = 0.0
    from itertools import combinations

    for trial in range(10):
        n = int(rng.integers(3, 9))
        fields = rng.normal(size=n) if trial % 2 else None
        chain = SpinNetwork.chain(rng.normal(size=n - 1), fields=fields)
        t = float(rng.uniform(0.0, 4.0))
        k1 = SectorPropagator(chain, 1).table(t)
        k2 = SectorPropagator(chain, 2).table(t)
        for src in combinations(range(n), 2):
            for tgt in combinations(range(n), 2):
                det = pair_amplitude_determinant(chain, k1, *src, *tgt)
                worst_det = max(worst_det, abs(det - k2.amplitude(src, tgt)))
    assert worst_det < 1e-9
    _report(
        9,
        f"100 random networks: unitarity ({worst_unit:.2e}) and completeness ({worst_complete:.2e});"
        f" determinant fast path ({worst_det:.2e})",
    )


def test_criterion_10_magnetization_conservation():
    rng = np.random.default_rng(1010)
    net = random_network(rng, 7)
    prop = FullPropagator(net)
    worst = 0.0
    for trial in range(50):
        t = float(rng.uniform(0.0, 8.0))
        if trial % 5 == 0:
            state = random_density_matrix(1 << 7, rng)
        else:
            state = rng.normal(size=1 << 7) + 1j * rng.normal(size=1 << 7)
            state /= np.linalg.norm(state)
        if state.ndim == 2:
            u = prop.unitary(t)
            evolved = u @ state @ u.conj().T
        else:
            evolved = prop.evolve(state, t)
        drift = abs(magnetization_expectation(evolved) - magnetization_expectation(state))
        worst = max(worst, drift)
    assert worst < 1e-10
    _report(10, f"magnetization drift < 1e-10 over 50 oracle evolutions (worst {worst:.2e})")
