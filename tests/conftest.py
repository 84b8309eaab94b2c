from collections import Counter

import numpy as np
import pytest

from spinmaps import SectorPropagator, SpinNetwork, chebyshev, maps, oracle
from spinmaps.measures import _SYSY, _clip_unit
from spinmaps.network import ExcitationSector


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class PropagationPaths:
    """Records, while installed, the shapes np.linalg.eigh diagonalises and the Chebyshev tables built.

    Stacks of small matrices (the measures' state spectra) are not recorded.
    """

    def __init__(self, monkeypatch):
        self.eigh_shapes = []
        self.chebyshev = 0
        eigh, columns = np.linalg.eigh, SectorPropagator._chebyshev_columns

        def recording_eigh(matrix):
            if np.ndim(matrix) == 2:
                self.eigh_shapes.append(np.shape(matrix))
            return eigh(matrix)

        def counting_columns(prop, *args):
            self.chebyshev += 1
            return columns(prop, *args)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(SectorPropagator, "_chebyshev_columns", counting_columns)

    @property
    def counts(self) -> tuple:
        """(eigh calls, Chebyshev tables)."""
        return len(self.eigh_shapes), self.chebyshev


@pytest.fixture
def paths(monkeypatch):
    return PropagationPaths(monkeypatch)


@pytest.fixture
def sector_builds(monkeypatch):
    """Excitation counts of the SectorPropagators built while the test runs, in order."""
    built = []
    init = SectorPropagator.__init__

    def counting_init(self, network, k):
        built.append(k)
        init(self, network, k)

    monkeypatch.setattr(SectorPropagator, "__init__", counting_init)
    return built


@pytest.fixture
def check_calls(monkeypatch):
    """Calls of the two run checks, ``oracle.reduced_output`` and ``maps.is_cptp``, by name."""
    calls = Counter()
    for module, name in ((oracle, "reduced_output"), (maps, "is_cptp")):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def random_network(rng, n_sites, with_zz=True, with_fields=True, scale=1.0):
    j = scale * rng.normal(size=(n_sites, n_sites))
    j = (j + j.T) / 2.0
    np.fill_diagonal(j, 0.0)
    zz = None
    if with_zz:
        zz = 0.4 * scale * rng.normal(size=(n_sites, n_sites))
        zz = (zz + zz.T) / 2.0
        np.fill_diagonal(zz, 0.0)
    h = 0.6 * scale * rng.normal(size=n_sites) if with_fields else None
    return SpinNetwork(j, zz, h)


def configuration_energy(network: SpinNetwork, occupied) -> float:
    """Field and ZZ energy s @ h + 0.5 * s @ zz @ s of one configuration, s = +1 on the ``occupied`` sites, -1 elsewhere.

    ``occupied = ()`` is the vacuum.  The sector diagonal holds this energy minus the vacuum's.
    """
    s = -np.ones(network.n_sites)
    s[list(occupied)] = 1.0
    return s @ network.fields + 0.5 * s @ network.zz @ s


def mask_search_hops(network: SpinNetwork, k: int) -> tuple:
    """(rows, cols, values) of the k-sector hops by a search over a (d, N) occupation mask.

    The reference for the neighbour-table search of ``build_sector_hamiltonian``:
    every (configuration, ordered bond (i, j)) pair with i occupied and j empty
    gives one element 2 J_ij, in (configuration, bond) order, at the rank of
    the sorted hopped configuration.
    """
    sector = ExcitationSector(network.n_sites, k)
    occupied = np.zeros((sector.dimension, network.n_sites), dtype=bool)
    occupied[np.arange(sector.dimension)[:, None], sector.sites] = True
    bond_i, bond_j = np.nonzero(network.xy)
    src, bond = np.nonzero(occupied[:, bond_i] & ~occupied[:, bond_j])
    i, j = bond_i[bond], bond_j[bond]
    rows = sector.sites[src]
    hopped = np.where(rows == i[:, None], j[:, None], rows)
    hopped.sort(axis=1)
    return sector.positions(hopped), src, 2.0 * network.xy[i, j]


def magnetization_expectation(state: np.ndarray) -> float:
    """Expectation of the total sigma^z for a 2^N state vector or density matrix."""
    state = np.asarray(state)
    dim = state.shape[0]
    n = dim.bit_length() - 1
    assert 1 << n == dim, f"state dimension {dim} is not a power of 2"
    weights = np.array([2 * bin(b).count("1") - n for b in range(dim)], dtype=float)
    if state.ndim == 1:
        return float(weights @ (np.abs(state) ** 2))
    return float(weights @ np.diag(state).real)


def pair_amplitude_determinant(network: SpinNetwork, table_k1, *sites) -> complex:
    """k-excitation amplitude from one-excitation data (free-fermion reference), k <= 4.

    ``sites`` lists k ascending source sites, then k ascending target sites:
    ``(i, j, n, m)`` is the pair amplitude f_ij^nm.  Valid only for open
    chains with zero ZZ couplings, where the dynamics is that of free
    fermions (Lieb, Schultz & Mattis, Ann. Phys. 16, 407 (1961)): the
    amplitude is the k x k minor det[f_{s_a}^{r_b}] of the k = 1 table, read
    one scalar at a time and independent of the minors ``maps.two_qubit_kraus``
    forms.  The table needs the k source columns; with a time axis, one value
    per time is returned.
    """
    if not network.is_open_chain() or np.any(network.zz):
        raise ValueError("determinant shortcut requires an open chain with zero ZZ couplings")
    k = len(sites) // 2
    if len(sites) != 2 * k or not 1 <= k <= 4:
        raise ValueError(f"need k source then k target sites with 1 <= k <= 4, got {sites}")
    sources, targets = sites[:k], sites[k:]
    if list(sources) != sorted(set(sources)) or list(targets) != sorted(set(targets)):
        raise ValueError(f"sites must be ascending within sources and targets, got {sources} -> {targets}")
    f = table_k1.site_amplitude
    minor = np.stack([np.stack([f(s, r) for r in targets], axis=-1) for s in sources], axis=-2)
    return np.linalg.det(minor)


def per_term_unit_columns(h, bounds, rows, times: np.ndarray, terms: int) -> np.ndarray:
    """``chebyshev.unit_columns`` with one sparse ``@`` and one rank-1 ``dger`` per term.

    The reference for the blocked sums: the same recurrence and weights, each
    term added into the even or odd sums as it is made, on 2H' formed by
    scipy's sparse arithmetic from the CSR array ``h``.
    """
    from scipy.linalg.blas import dger
    from scipy.sparse import eye_array

    low, high = bounds
    centre = 0.5 * (high + low)
    half = max(0.5 * (high - low), np.finfo(float).tiny)
    d, c = h.shape[0], len(rows)
    two_h = (2.0 / half) * (h - centre * eye_array(d, format="csr"))
    if times.size == 0 or c == 0:
        return np.zeros(times.shape + (d, c), dtype=complex)
    flat = times.reshape(-1)
    order = np.arange(terms)
    weights = chebyshev._bessel_j(half * flat, terms) * np.where(order % 4 < 2, 2.0, -2.0)[:, None]
    weights[0] *= 0.5
    sums = [np.zeros((d * c, flat.size), order="F") for _ in range(2)]
    prev, cur = None, np.zeros((d, c))
    cur[rows, np.arange(c)] = 1.0
    for k in range(terms):
        sums[k % 2] = dger(1.0, cur.reshape(-1), weights[k], a=sums[k % 2], overwrite_a=True)
        if k + 1 < terms:
            prev, cur = cur, 0.5 * (two_h @ cur) if k == 0 else two_h @ cur - prev
    f = np.exp(-1j * centre * flat)[:, None] * (sums[0] - 1j * sums[1]).T
    return f.reshape(times.shape + (d, c))


def jv_seeded_terms(x: float) -> int:
    """``chebyshev.chebyshev_terms`` with its tail seeded by ``scipy.special.jv`` at order ceil|x|.

    The reference for the seed from ``chebyshev._bessel_j``: the same backward
    continued fraction and tail, so the term counts must be equal.
    """
    from scipy.special import jv

    x = abs(x)
    first = int(np.ceil(x))
    ratios = [0.0]
    for k in range(chebyshev.negligible_order(x), first, -1):
        ratios.append(x / (2 * k - x * ratios[-1]))
    values = abs(jv(first, x)) * np.cumprod([1.0] + ratios[:0:-1])
    tail = 2.0 * values[::-1].cumsum()[::-1]
    return first + int(np.argmax(tail < chebyshev.CHEBYSHEV_TAIL))


def rebuilt_two_qubit_kraus(k1, k2, senders, receivers) -> maps.KrausSet:
    """The per-site two-qubit Kraus set, its site bookkeeping rebuilt on every call from the enumerated k = 2 basis.

    The reference for ``maps.two_qubit_kraus``: E_0, one E_1^k per environment
    site k and the merged E_2, N operators on N sites.  E_0 and E_2 come from
    the same amplitudes by the same arithmetic, so they must be equal; the
    canonical set's superoperator must lie within rounding of this one's.
    """
    i, j = senders
    n, m = receivers
    n_sites = k1.sector.n_sites
    env = np.array([k for k in range(n_sites) if k not in (n, m)], dtype=np.intp)
    ne = env.size
    one = k1.sector.positions(np.concatenate([[m, n], env])[:, None])
    pairs = np.sort(np.concatenate([[[n, m]], np.column_stack([env, np.full(ne, m)]),
                                    np.column_stack([np.full(ne, n), env])]), axis=1)
    col_i, col_j = k1.column((i,)), k1.column((j,))
    f_i = np.moveaxis(col_i[..., one], -1, 0)
    f_j = np.moveaxis(col_j[..., one], -1, 0)
    if k2 is None:
        lo, hi = (col_i, col_j) if i < j else (col_j, col_i)
        a, b = pairs.T
        f_ij = np.moveaxis(lo[..., a] * hi[..., b] - lo[..., b] * hi[..., a], -1, 0)
        lo_env, hi_env = lo[..., env], hi[..., env]
        gram_det = (np.sum(np.abs(lo_env) ** 2, axis=-1) * np.sum(np.abs(hi_env) ** 2, axis=-1)
                    - np.abs(np.sum(lo_env.conj() * hi_env, axis=-1)) ** 2)
        lost = np.sqrt(np.maximum(gram_det, 0.0))
    else:
        col_ij = k2.column((i, j))
        f_ij = np.moveaxis(col_ij[..., k2.sector.positions(pairs)], -1, 0)
        sites = k2.sector.sites
        outside = ((sites != n) & (sites != m)).all(axis=1)
        lost = np.sqrt(np.sum(np.abs(col_ij[..., outside]) ** 2, axis=-1))
    ops = np.zeros((n_sites,) + np.shape(k1.time) + (4, 4), dtype=complex)
    e0, e1, e2 = ops[0], ops[1:-1], ops[-1]
    e0[..., 0, 0] = 1.0
    e0[..., 1, 1], e0[..., 1, 2], e0[..., 2, 1], e0[..., 2, 2] = f_j[0], f_i[0], f_j[1], f_i[1]
    e0[..., 3, 3] = f_ij[0]
    e1[..., 0, 1], e1[..., 0, 2] = f_j[2:], f_i[2:]
    e1[..., 1, 3], e1[..., 2, 3] = f_ij[1:ne + 1], f_ij[ne + 1:]
    e2[..., 0, 3] = lost
    return maps.KrausSet(ops)


def concurrence_reference(rho: np.ndarray):
    """``measures.concurrence`` before X-state slices of a stack took the closed form: every slice by eigh + svd.

    The reference for the closed-form route: on the slices that stay on the
    eigen route the results must be bitwise equal, on the others equal to 1e-14.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 state, got {rho.shape}")
    w, v = np.linalg.eigh(rho)
    keep = w > np.maximum(w.max(axis=-1, keepdims=True), 0.0) * 1e-14
    x = v * np.sqrt(np.where(keep, w, 0.0))[..., None, :]
    lam = np.linalg.svd(x.swapaxes(-1, -2) @ _SYSY @ x, compute_uv=False)
    return _clip_unit(np.maximum(0.0, lam[..., 0] - lam[..., 1:].sum(axis=-1)))
