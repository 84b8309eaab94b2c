import numpy as np
import pytest

from conftest import concurrence_reference
from spinmaps import (
    XState,
    apply,
    bell_state,
    concurrence,
    dual_rail_concurrence,
    extend_with_identity,
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
from spinmaps import measures
from spinmaps.maps import partial_trace_outer, pure_state_density, random_density_matrix, unit_vector
from spinmaps.measures import (
    _SYSY,
    SEPARABLE_LINEAR_ENTROPY,
    _clip_unit,
    _purity,
)
from spinmaps.protocols import four_qubit_closed_form

CUTS_4 = ((0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3))
ONE_VS_REST_COLUMNS = ("c_a1_rest", "c_a2_rest", "c_b1_rest", "c_b2_rest")
SPLIT_COLUMNS = ("c_a1a2_b1b2", "c_a1b1_a2b2", "c_a1b2_a2b1")
FOUR_QUBIT_COLUMNS = (
    "c_a1a2", "c_a1b1", "c_a1b2", "c_a2b1", "c_a2b2", "c_b1b2", *ONE_VS_REST_COLUMNS, *SPLIT_COLUMNS,
    "tau3_a2b1b2", "tau3_a1b1b2", "tau3_a1a2b2", "tau3_a1a2b1", "tau4", "c4",
)


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


def marginal(psi, keep):
    """Reduced states on the qubits ``keep`` of a four-qubit pure state (or a stack), as the measures form them."""
    col = unit_vector(psi, 16)[..., None]
    return partial_trace_outer(col, col, keep, [2] * 4)


def one_vs_rest_reference(psi, qubit: int):
    """sqrt(2 (1 - Tr rho_a^2)) for one qubit against the other three of four."""
    r = marginal(psi, (qubit,))
    return _clip_unit(np.sqrt(np.maximum(0.0, 2.0 * (1.0 - _purity(r)))))


def pair_split_reference(psi, pair):
    """sqrt((4/3) (1 - Tr rho_AB^2)) for a two-two bipartition of four qubits."""
    r = marginal(psi, tuple(pair))
    return _clip_unit(np.sqrt(np.maximum(0.0, (4.0 / 3.0) * (1.0 - _purity(r)))))


def four_qubit_concurrence_reference(psi):
    """Geometric mean of the concurrence over all seven bipartitions, zero below the separability floor."""
    entropies = np.stack([np.maximum(0.0, 1.0 - _purity(marginal(psi, cut))) for cut in CUTS_4])
    scale = np.array([2.0] * 4 + [4.0 / 3.0] * 3).reshape((7,) + (1,) * (entropies.ndim - 1))
    mean = np.prod(np.sqrt(scale * entropies), axis=0) ** (1.0 / 7.0)
    return _clip_unit(np.where(entropies.min(axis=0) < SEPARABLE_LINEAR_ENTROPY, 0.0, mean))


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


def full_rank_x_stack(rng, size):
    """X states with every population above 1/61 and each coherence at most 0.9 of its bound.

    The eigen route takes the square root of each eigenvalue, so its rounding
    grows as 1e-16 / sqrt(r) on a state whose smallest eigenvalue is a fraction
    r of the largest; here r stays above about 5e-3, where that is below 1e-14.
    """
    pops = rng.uniform(0.05, 1.0, (size, 4))
    pops /= pops.sum(axis=1, keepdims=True)
    bounds = np.sqrt(pops[:, [0, 1]] * pops[:, [3, 2]])
    coherences = bounds * rng.uniform(0.0, 0.9, (size, 2)) * np.exp(2j * np.pi * rng.uniform(size=(size, 2)))
    rho = np.zeros((size, 4, 4), dtype=complex)
    rho[:, np.arange(4), np.arange(4)] = pops
    rho[:, [0, 1], [3, 2]] = coherences
    rho[:, [3, 2], [0, 1]] = coherences.conj()
    return rho


def test_stacked_full_rank_x_states_take_the_closed_form(rng):
    stack = full_rank_x_stack(rng, 10_000)
    assert measures._closed_form_slices(stack).all()
    c = concurrence(stack)
    assert 0.2 < np.mean(c > 0.0) < 0.5  # entangled and separable states both occur
    assert np.abs(c - concurrence_reference(stack)).max() <= 1e-14


# A stored state of a perfbench point_sweep row (seed 0, sweep_single_n12, data row 15): an X state with
# p11 = 1.6e-14 and p33 = 3.8e-15, where the eigen-cutoff drops two eigen-directions.
CUTOFF_STATE = np.zeros((4, 4), dtype=complex)
CUTOFF_STATE[np.arange(4), np.arange(4)] = (
    4.9999999999998351e-01, 1.6414706084908814e-14 + 9.860761315262648e-32j, 4.9999999999999611e-01,
    3.8031258139063791e-15)
CUTOFF_STATE[1, 2] = -1.7625147098858859e-09 + 6.269251025099460e-08j
CUTOFF_STATE[2, 1] = CUTOFF_STATE[1, 2].conjugate()
# lambda_1 - lambda_2 - lambda_3 - lambda_4 of rho (sy x sy) rho* (sy x sy) by a 60-digit mpmath eigen-solve
CUTOFF_STATE_CONCURRENCE = 3.8220734375396050e-08


def test_mixed_stack_keeps_the_eigen_route_off_full_rank_x_slices(rng):
    full_rank = full_rank_x_stack(rng, 4)
    single_excitation = np.diag([0.3, 0.25, 0.45, 0.0]).astype(complex)  # p33 = 0: rank 3
    single_excitation[1, 2] = single_excitation[2, 1] = np.sqrt(0.25 * 0.45) * 0.8
    pure = pure_state_density(bell_state("psi-"))  # X, rank 1
    near_x = full_rank[0].copy()
    near_x[0, 1] = near_x[1, 0] = 1e-17  # one off-X entry not exactly zero
    stack = np.array([full_rank[0], random_density_matrix(4, rng), single_excitation, full_rank[1],
                      CUTOFF_STATE, pure, near_x, full_rank[2], np.eye(4) / 4, full_rank[3]])
    closed = measures._closed_form_slices(stack)
    assert closed.tolist() == [True, False, False, True, False, False, False, True, True, True]
    c, ref = concurrence(stack), concurrence_reference(stack)
    assert np.array_equal(c[~closed], ref[~closed])
    assert np.abs(c[closed] - ref[closed]).max() <= 1e-14


@pytest.mark.parametrize("entry", [np.inf, np.nan, 1e308])
def test_non_finite_or_huge_slice_takes_the_eigen_route_without_a_warning(rng, entry):
    stack = full_rank_x_stack(rng, 3)
    stack[1, 0, 0] = stack[1, 3, 3] = entry
    assert measures._closed_form_slices(stack).tolist() == [True, False, True]

    def outcome(fn):  # the middle slice's value, or the error the eigen route raises on it
        try:
            return repr(fn(stack)[1])
        except (ValueError, np.linalg.LinAlgError) as exc:
            return f"{type(exc).__name__}: {exc}"

    assert outcome(concurrence) == outcome(concurrence_reference)


def test_full_rank_x_stack_makes_no_eigh_or_svd_call(rng, monkeypatch):
    calls = []
    for name in ("eigh", "svd"):
        def counting(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    stack = full_rank_x_stack(rng, 50)
    assert concurrence(stack).shape == (50,) and calls == []
    concurrence(stack[0])  # a single state takes the eigen route, as the counting shows
    assert calls == ["eigh", "svd"]


def test_single_state_takes_the_eigen_route_bit_for_bit(rng):
    states = [random_density_matrix(4, rng), random_x_state(rng).to_density_matrix(), werner_state(0.8),
              full_rank_x_stack(rng, 1)[0], CUTOFF_STATE, pure_state_density(bell_state("phi+"))]
    for rho in states:
        assert concurrence(rho) == concurrence_reference(rho)


@pytest.mark.xfail(strict=True, reason="the eigen route zeroes eigenvalues below 1e-14 of the largest, which "
                   "removes about sqrt(w) from the lambda_i and reads this state's concurrence 8.7e-8 too high")
def test_eigen_cutoff_keeps_a_near_singular_x_state_exact():
    assert abs(concurrence(CUTOFF_STATE) - CUTOFF_STATE_CONCURRENCE) <= 1e-12


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


@pytest.mark.parametrize("reads", [
    one_qubit_kraus,
    lambda f: transferred_concurrence(XState.werner(0.8), f),
    lambda f: dual_rail_concurrence(XState.werner(0.8), f),
], ids=["one_qubit_kraus", "transferred_concurrence", "dual_rail_concurrence"])
def test_one_amplitude_bound_for_maps_and_closed_forms(reads):
    """|f|^2 <= 1 + 1e-10 everywhere: 1 + 4e-11 passes, 1 + 1e-10 (|f|^2 = 1 + 2e-10) does not."""
    reads(np.array([0.5, 1.0 + 4e-11]))
    with pytest.raises(ValueError, match=r"^amplitude modulus 1.0000000001 exceeds 1"):
        reads(np.array([0.5, 1.0 + 1e-10]))


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
# four-qubit measures

def w4():
    psi = np.zeros(16, dtype=complex)
    psi[[1, 2, 4, 8]] = 0.5
    return psi


def product_state(rng):
    psi = np.ones(1, dtype=complex)
    for _ in range(4):
        psi = np.kron(psi, haar_qubit(rng)[:, 0])
    return psi


def test_four_qubit_concurrence_anchors():
    e0 = np.zeros(16, dtype=complex)
    e0[0] = 1.0
    assert four_qubit_measures(e0)["c4"] == pytest.approx(0.0, abs=1e-12)
    # Bell pairs across (A1,B2) and (A2,B1): the (14)(23)-type cut is pure
    pair = bell_state("psi+")
    psi = np.kron(pair, pair).reshape(2, 2, 2, 2).transpose(0, 2, 3, 1).reshape(16)
    columns = four_qubit_measures(psi)
    assert columns["c_a1b2_a2b1"] == pytest.approx(0.0, abs=1e-7)
    assert columns["c4"] == 0.0
    assert four_qubit_measures(ghz(4))["c4"] > 0.9


def test_four_qubit_concurrence_nonzero_on_entangled_evolution():
    psi = four_qubit_closed_form(1e-2, 1.0, np.linspace(10.0, 60.0, 7), "1010")
    assert four_qubit_measures(psi)["c4"].max() > 0.3


def test_measure_report_fields(rng):
    columns = four_qubit_measures(random_pure_state(rng, 16))
    assert tuple(columns) == FOUR_QUBIT_COLUMNS
    assert all(0.0 <= v <= 1.0 for v in columns.values())


def test_pure_state_measures_check_every_vector_of_a_stack(rng):
    good = random_pure_state(rng, 16)
    for psi in (np.full(16, np.nan), np.array([good, np.full(16, np.nan)])):
        for measure in (four_tangle, four_qubit_measures):
            with pytest.raises(ValueError, match="state vector has non-finite entries"):
                measure(psi)
    with pytest.raises(ValueError, match="state vector has non-finite entries"):
        three_tangle_pure(np.full(8, np.inf))
    with pytest.raises(ValueError, match=r"state vector norm is 2.0\d*, expected 1"):
        four_qubit_measures(np.array([good, 2.0 * good]))
    with pytest.raises(ValueError, match="expected a state vector of 8 entries, got 16"):
        three_tangle_pure(good)


def test_four_qubit_measures_form_each_marginal_once(rng, monkeypatch):
    kept = []

    def counting(a, b, keep, dims):
        kept.append(tuple(keep))
        return partial_trace_outer(a, b, keep, dims)

    monkeypatch.setattr(measures, "partial_trace_outer", counting)
    four_qubit_measures(random_pure_state(rng, 16))
    assert len(kept) == len(set(kept)) == 10  # 6 pairs and 4 single qubits
    assert all(len(keep) < 3 for keep in kept)  # the triple bounds read the Schmidt factors instead


TRIPLES_4 = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))  # the qubits left by dropping qubit 0, 1, 2 and 3
TRIPLE_COLUMNS = FOUR_QUBIT_COLUMNS[13:17]


def schmidt_weights(psi, dropped: int):
    """The two eigenvalues of the marginal left by dropping ``dropped``, from the 2 x 2 marginal of that qubit."""
    return np.linalg.eigvalsh(marginal(psi, (dropped,)))


def assert_triple_bounds_match_the_marginals(psi, tol=1e-12):
    """Each tau3 column against the bound of the 8 x 8 marginal, where the two Schmidt weights differ by 1e-6."""
    columns = four_qubit_measures(psi)
    for dropped, (kept, name) in enumerate(zip(TRIPLES_4, TRIPLE_COLUMNS)):
        want = three_tangle_decomposition_bound(marginal(psi, kept))
        assert np.shape(columns[name]) == np.shape(want) == np.shape(psi)[:-1]
        w = schmidt_weights(psi, dropped)
        distinct = w[..., 1] - w[..., 0] > 1e-6
        assert np.all(np.abs(np.asarray(columns[name]) - want)[distinct] <= tol)
        assert np.all((0.0 <= np.asarray(columns[name])) & (np.asarray(columns[name]) <= 1.0))


def test_triple_bounds_equal_the_marginal_bounds(rng):
    stacks = [np.array([random_pure_state(rng, 16) for _ in range(t)]).reshape(t, 16) for t in (0, 1, 64)]
    for psi in stacks + [random_pure_state(rng, 16)]:
        assert_triple_bounds_match_the_marginals(psi)
    assert isinstance(four_qubit_measures(random_pure_state(rng, 16))["tau3_a2b1b2"], float)
    # the figure 7 windows: the closed form's triples hold no three-way entanglement
    for start in (0.0, np.pi / 2.0, np.pi):
        psi = four_qubit_closed_form(1e-2, 1.0, np.linspace(start, start + np.pi, 200) / 1e-4, "1010")
        assert_triple_bounds_match_the_marginals(psi)
        assert all(np.all(four_qubit_measures(psi)[name] <= 1e-12) for name in TRIPLE_COLUMNS)
    # the anchors: GHZ and W leave triples of exactly zero bound, a product state one zero to rounding
    for psi in (ghz(4), w4()):
        assert_triple_bounds_match_the_marginals(psi)
        assert [four_qubit_measures(psi)[name] for name in TRIPLE_COLUMNS] == [0.0] * 4
    prod = product_state(rng)
    assert_triple_bounds_match_the_marginals(prod)
    assert all(four_qubit_measures(prod)[name] <= 1e-15 for name in TRIPLE_COLUMNS)


def test_triple_bound_with_equal_schmidt_weights_averages_the_gram_eigenbasis(rng):
    """(|0>|a> + |1>|b>)/sqrt2 with orthonormal a, b: dropping qubit 0 leaves (|a><a| + |b><b|)/2, whose
    eigenbasis is any rotation of (a, b); the bound is the average over the basis the 2 x 2 eigh returns."""
    ghz3, w3 = ghz(3), np.zeros(8, dtype=complex)
    w3[[1, 2, 4]] = 1 / np.sqrt(3)
    # a diagonal Gram matrix: eigh returns (a, b) themselves, so the bound is (tau3(GHZ) + tau3(W)) / 2
    assert four_qubit_measures(np.concatenate([ghz3, w3]) / np.sqrt(2))["tau3_a2b1b2"] == pytest.approx(0.5, abs=1e-15)
    g = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    ab = np.linalg.qr(g)[0]  # two random orthonormal columns
    psi = np.concatenate([ab[:, 0], ab[:, 1]]) / np.sqrt(2)
    m = psi.reshape(2, 8).T  # qubit 0's axis last
    w, v = np.linalg.eigh(m.conj().T @ m)
    assert w[1] - w[0] < 1e-15
    vecs = (m @ v).T
    want = sum(wi * three_tangle_pure(u / np.linalg.norm(u)) for wi, u in zip(w, vecs))
    got = four_qubit_measures(psi)["tau3_a2b1b2"]
    assert got == pytest.approx(want, abs=1e-15)
    assert 0.0 <= got <= 1.0


def test_four_qubit_columns_equal_the_reference_formulas_bit_for_bit(rng):
    named = [product_state(rng), ghz(4), w4()]
    states = named + [np.array(named + [random_pure_state(rng, 16) for _ in range(5)])]
    states += [random_pure_state(rng, 16) for _ in range(5)]
    for psi in states:
        columns = four_qubit_measures(psi)
        for q, name in enumerate(ONE_VS_REST_COLUMNS):
            assert np.array_equal(columns[name], one_vs_rest_reference(psi, q))
        for pair, name in zip(CUTS_4[4:], SPLIT_COLUMNS):
            assert np.array_equal(columns[name], pair_split_reference(psi, pair))
        assert np.array_equal(columns["c4"], four_qubit_concurrence_reference(psi))
    # the anchors: W and GHZ are entangled across every cut, the product state across none
    assert four_qubit_measures(product_state(rng))["c4"] == 0.0
    assert four_qubit_measures(w4())["c_a1_rest"] == pytest.approx(np.sqrt(3) / 2, abs=1e-12)


def test_local_unitary_invariance(rng):
    for _ in range(10):
        psi = random_pure_state(rng, 16)
        us = [haar_qubit(rng) for _ in range(4)]
        u = np.kron(np.kron(us[0], us[1]), np.kron(us[2], us[3]))
        rotated = u @ psi
        assert abs(four_tangle(psi) - four_tangle(rotated)) < 1e-10
        assert abs(four_qubit_measures(psi)["c4"] - four_qubit_measures(rotated)["c4"]) < 1e-10
        rho = partial_trace(pure_state_density(psi), [0, 1], [2] * 4)
        rho_rot = partial_trace(pure_state_density(rotated), [0, 1], [2] * 4)
        assert abs(concurrence(rho) - concurrence(rho_rot)) < 1e-10
    for _ in range(10):
        psi3 = random_pure_state(rng, 8)
        us = [haar_qubit(rng) for _ in range(3)]
        u = np.kron(np.kron(us[0], us[1]), us[2])
        assert abs(three_tangle_pure(psi3) - three_tangle_pure(u @ psi3)) < 1e-10


def test_one_vs_rest_range():
    columns = four_qubit_measures(ghz(4))
    for name in ONE_VS_REST_COLUMNS:
        assert columns[name] == pytest.approx(1.0, abs=1e-12)
