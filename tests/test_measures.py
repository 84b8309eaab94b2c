import numpy as np
import pytest

from spinmaps import (
    XState,
    apply,
    bell_state,
    concurrence,
    dual_rail_concurrence,
    extend_with_identity,
    four_qubit_concurrence,
    four_qubit_measures,
    four_tangle,
    one_qubit_kraus,
    partial_trace,
    tensor_map,
    three_tangle_decomposition_bound,
    three_tangle_pure,
    transferred_concurrence,
    werner_state,
)
from spinmaps.maps import pure_state_density, random_density_matrix
from spinmaps.measures import (
    _SYSY,
    one_vs_rest_concurrence,
    pair_split_concurrence,
)
from spinmaps.protocols import four_qubit_closed_form


def wootters_spectrum_route(rho):
    """Literal square-rooted-eigenvalue evaluation, used as the cross-check."""
    rt = rho @ _SYSY @ rho.conj() @ _SYSY
    lam = np.sort(np.sqrt(np.clip(np.linalg.eigvals(rt).real, 0.0, None)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def three_tangle_from_concurrences(psi):
    """Residual tangle C^2_{A(BC)} - C^2_{AB} - C^2_{AC} of a 3-qubit pure state, the direct (noisier) route."""
    rho = np.outer(psi, psi.conj())
    ra = partial_trace(rho, [0], [2, 2, 2])
    c2_one_rest = 2.0 * (1.0 - np.trace(ra @ ra).real)
    cab = concurrence(partial_trace(rho, [0, 1], [2, 2, 2]))
    cac = concurrence(partial_trace(rho, [0, 2], [2, 2, 2]))
    return max(0.0, c2_one_rest - cab**2 - cac**2)


def random_x_state(rng):
    pops = rng.dirichlet(np.ones(4))
    r03 = np.sqrt(pops[0] * pops[3]) * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
    r12 = np.sqrt(pops[1] * pops[2]) * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
    return XState(*pops, rho03=r03, rho12=r12)


def random_pure_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def haar_qubit(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# concurrence

def test_concurrence_anchors():
    for label in ("phi+", "phi-", "psi+", "psi-"):
        assert concurrence(pure_state_density(bell_state(label))) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_of_werner_states():
    for p in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
        expected = max(0.0, (3 * p - 1) / 2)
        assert concurrence(werner_state(p)) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        werner_state(1.2)
    with pytest.raises(ValueError):
        bell_state("sigma+")


def test_concurrence_matches_spectrum_route(rng):
    for _ in range(50):
        rho = random_density_matrix(4, rng)
        assert abs(concurrence(rho) - wootters_spectrum_route(rho)) < 1e-7


def test_xstate_roundtrip_and_validation(rng):
    x = random_x_state(rng)
    rho = x.to_density_matrix()
    back = XState.from_density_matrix(rho)
    assert abs(back.rho03 - x.rho03) < 1e-14
    with pytest.raises(ValueError):
        XState(0.5, 0.5, 0.0, 0.0, rho03=0.4)  # violates |rho03|^2 <= p00 p33
    with pytest.raises(ValueError):
        XState.from_density_matrix(random_density_matrix(4, rng))


def test_xstate_closed_form_equals_wootters(rng):
    worst = 0.0
    for _ in range(10_000):
        x = random_x_state(rng)
        worst = max(worst, abs(x.concurrence() - concurrence(x.to_density_matrix())))
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# transferred concurrences

def test_transferred_concurrence_identity_amplitude(rng):
    for _ in range(20):
        x = random_x_state(rng)
        c, _, _ = transferred_concurrence(x, 1.0)
        assert abs(c - x.concurrence()) < 1e-12


def test_transferred_concurrence_matches_map_pipeline(rng):
    worst = 0.0
    for _ in range(200):
        x = random_x_state(rng)
        f = rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        c, _, _ = transferred_concurrence(x, f)
        out = apply(extend_with_identity(one_qubit_kraus(f)), x.to_density_matrix())
        worst = max(worst, abs(c - concurrence(out)))
    assert worst < 1e-10


def test_dual_rail_reduces_to_input_at_unit_amplitude(rng):
    for _ in range(20):
        x = random_x_state(rng)
        c, _, _ = dual_rail_concurrence(x, 1.0)
        assert abs(c - x.concurrence()) < 1e-12


def test_dual_rail_matches_two_chain_map(rng):
    worst = 0.0
    for _ in range(200):
        x = random_x_state(rng)
        f = rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        c, _, _ = dual_rail_concurrence(x, f)
        channel = tensor_map(one_qubit_kraus(f), one_qubit_kraus(f))
        out = apply(channel, x.to_density_matrix())
        worst = max(worst, abs(c - concurrence(out)))
    assert worst < 1e-10


def test_transferred_ratio_monotone_in_amplitude():
    f_grid = np.linspace(0.0, 1.0, 201)
    for p in (0.4, 0.5, 0.7, 0.9, 1.0):
        x = XState.werner(p, "psi+")
        ratios = np.array([transferred_concurrence(x, f)[0] for f in f_grid]) / ((3 * p - 1) / 2)
        assert np.all(np.diff(ratios) >= -1e-12)


def test_amplitude_bound_enforced(rng):
    x = random_x_state(rng)
    with pytest.raises(ValueError):
        transferred_concurrence(x, 1.001)
    with pytest.raises(ValueError):
        dual_rail_concurrence(x, 1.001)


# ---------------------------------------------------------------------------
# tangles

def ghz(n):
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = 1 / np.sqrt(2)
    return psi


def test_four_tangle_anchors():
    assert four_tangle(ghz(4)) == pytest.approx(1.0, abs=1e-12)
    e0 = np.zeros(16, dtype=complex)
    e0[0] = 1.0
    assert four_tangle(e0) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        four_tangle(e0 * 2.0)


def test_four_tangle_of_closed_form_state():
    g, j = 0.05, 1.0
    for theta in np.linspace(0.0, 2 * np.pi, 41):
        t = theta * j / g**2
        psi = four_qubit_closed_form(g, j, t, "1100")
        assert abs(four_tangle(psi) - np.sin(theta) ** 4) < 1e-12


def test_three_tangle_anchors():
    assert three_tangle_pure(ghz(3)) == pytest.approx(1.0, abs=1e-12)
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 1 / np.sqrt(3)
    assert three_tangle_pure(w) == pytest.approx(0.0, abs=1e-12)
    prod = np.kron(np.array([1.0, 0.0]), bell_state("phi+"))
    assert three_tangle_pure(prod) == pytest.approx(0.0, abs=1e-12)


def test_three_tangle_routes_agree(rng):
    for _ in range(100):
        psi = random_pure_state(rng, 8)
        assert abs(three_tangle_pure(psi) - three_tangle_from_concurrences(psi)) < 1e-6


def test_w_state_concurrence_budget():
    # C^2 one-vs-rest = 8/9 exactly saturated by the two pairwise tangles
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 1 / np.sqrt(3)
    rho = pure_state_density(w)
    cab = concurrence(partial_trace(rho, [0, 1], [2, 2, 2]))
    assert cab == pytest.approx(2 / 3, abs=1e-12)


def test_decomposition_bound_on_pure_input(rng):
    for _ in range(20):
        psi = random_pure_state(rng, 8)
        bound = three_tangle_decomposition_bound(pure_state_density(psi))
        assert abs(bound - three_tangle_pure(psi)) < 1e-10


def test_decomposition_bound_vanishes_for_closed_form_marginals():
    g, j = 1e-2, 1.0
    for label in ("1100", "1010"):
        for theta in np.linspace(0.0, 2 * np.pi, 101):
            t = theta * j / g**2
            rho = pure_state_density(four_qubit_closed_form(g, j, t, label))
            for dropped in range(4):
                kept = [q for q in range(4) if q != dropped]
                marginal = partial_trace(rho, kept, [2] * 4)
                assert three_tangle_decomposition_bound(marginal) < 1e-10


# ---------------------------------------------------------------------------
# four-qubit concurrence

def test_four_qubit_concurrence_anchors():
    e0 = np.zeros(16, dtype=complex)
    e0[0] = 1.0
    assert four_qubit_concurrence(e0) == pytest.approx(0.0, abs=1e-12)
    # Bell pairs across (A1,B2) and (A2,B1): the (14)(23)-type cut is pure
    pair = bell_state("psi+")
    psi = np.kron(pair, pair).reshape(2, 2, 2, 2).transpose(0, 2, 3, 1).reshape(16)
    assert pair_split_concurrence(psi, (0, 3)) == pytest.approx(0.0, abs=1e-7)
    assert four_qubit_concurrence(psi) == 0.0
    assert four_qubit_concurrence(ghz(4)) > 0.9


def test_four_qubit_concurrence_nonzero_on_entangled_evolution():
    res = [
        four_qubit_concurrence(four_qubit_closed_form(1e-2, 1.0, t, "1010"))
        for t in np.linspace(10.0, 60.0, 7)
    ]
    assert max(res) > 0.3


def test_measure_report_fields(rng):
    psi = random_pure_state(rng, 16)
    report = four_qubit_measures(psi)
    assert set(report.pair_concurrence) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    assert len(report.one_vs_rest) == 4
    assert set(report.pair_vs_pair) == {(0, 1), (0, 2), (0, 3)}
    assert set(report.three_tangle_bound) == {(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)}
    values = list(report.pair_concurrence.values()) + list(report.one_vs_rest)
    values += list(report.pair_vs_pair.values())
    values += [report.four_tangle, report.four_qubit_concurrence]
    assert all(0.0 <= v <= 1.0 for v in values)


def test_local_unitary_invariance(rng):
    for _ in range(10):
        psi = random_pure_state(rng, 16)
        us = [haar_qubit(rng) for _ in range(4)]
        u = np.kron(np.kron(us[0], us[1]), np.kron(us[2], us[3]))
        rotated = u @ psi
        assert abs(four_tangle(psi) - four_tangle(rotated)) < 1e-10
        assert abs(four_qubit_concurrence(psi) - four_qubit_concurrence(rotated)) < 1e-10
        rho = partial_trace(pure_state_density(psi), [0, 1], [2] * 4)
        rho_rot = partial_trace(pure_state_density(rotated), [0, 1], [2] * 4)
        assert abs(concurrence(rho) - concurrence(rho_rot)) < 1e-10
    for _ in range(10):
        psi3 = random_pure_state(rng, 8)
        us = [haar_qubit(rng) for _ in range(3)]
        u = np.kron(np.kron(us[0], us[1]), us[2])
        assert abs(three_tangle_pure(psi3) - three_tangle_pure(u @ psi3)) < 1e-10


def test_one_vs_rest_range(rng):
    psi = ghz(4)
    for q in range(4):
        assert one_vs_rest_concurrence(psi, q) == pytest.approx(1.0, abs=1e-12)
