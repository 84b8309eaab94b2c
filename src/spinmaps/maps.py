"""Quantum dynamical maps as Kraus sets, with their superoperator and Choi checks.

Every map a run builds is a :class:`KrausSet`, which :func:`apply` maps a
state through and :func:`is_cptp` checks.  :func:`is_cptp` also takes a
superoperator matrix, the one form a map that is not CPTP can take.
Superoperators act on row-major vectorized density matrices, i.e. the
column vector (rho_00, rho_01, ..., rho_dd); the matrix element
A[(i,j),(n,m)] is sum_k (E_k)_{in} (E_k)*_{jm}, so
A = sum_k kron(E_k, conj(E_k)).

The one- and two-qubit maps induced by a U(1) network on sender/receiver
subsets are built from sector amplitude tables, in one place:
:class:`NetworkChannel` holds a network's sector propagators and turns their
sender columns into :func:`one_qubit_kraus` and :func:`two_qubit_kraus`
sets.  The sector tables measure energies from the vacuum
(:mod:`spinmaps.network`), so their amplitudes are the ones the maps take:
the vacuum-vacuum Kraus element is exactly 1 and the channel is the exact
reduced dynamics for arbitrary fields and ZZ couplings.  Where a table is
``free_fermion`` (an open chain with no ZZ coupling) the two-qubit map reads
the k = 1 table alone (see :func:`two_qubit_kraus`).

Time grids are a leading axis.  Given an array of T times (or amplitudes),
:class:`NetworkChannel`, :func:`one_qubit_kraus`, :func:`two_qubit_kraus`,
:func:`extend_with_identity` and :func:`tensor_map` build one
:class:`KrausSet` whose operators are (T, d, d) stacks; :func:`apply` maps one
state through every slice at once (or T states through the T slices) and
:func:`assert_density_matrix` checks each output slice.  The per-map routines
take the stack as well: :func:`superop_from_kraus`, :func:`choi_from_superop`
and :func:`is_cptp` (one verdict value per slice), as do
:func:`trace_distance`, :func:`partial_trace` and :func:`partial_trace_outer`.
Every check runs on every slice at its usual tolerance; a scalar time is the
case without the axis, and an empty grid gives an axis of length 0.
:func:`unit_vector` (finite, unit norm) and :func:`partial_trace_outer`
also serve :mod:`spinmaps.measures` and the oracle; :func:`partial_trace` is their reference,
and :func:`amplitude_modulus` is the one bound |f|^2 <= 1 + 1e-10 of the maps and the closed forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .network import AmplitudeTable, ExcitationSector, NumericalError, SectorPropagator, SpinNetwork, check_sites

DENSITY_ATOL = 1e-10
PSD_FLOOR = -1e-9
COMPLETENESS_ATOL = 1e-10
AMPLITUDE_ATOL = 1e-10


# ---------------------------------------------------------------------------
# density matrices

def assert_density_matrix(rho: np.ndarray, atol: float = DENSITY_ATOL, eig_floor: float = PSD_FLOOR):
    """Raise ValueError unless rho is finite, Hermitian, unit-trace and PSD within tolerance.

    ``rho`` is a (d, d) matrix or a (T, d, d) stack, checked slice by slice;
    a message names the worst slice's value.  A stack of no slices passes.
    """
    rho = np.asarray(rho)
    if rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if rho.shape[-1] == 0:  # no trace to be 1, and nothing for the reductions below
        raise ValueError(f"density matrix must have at least one row, got shape {rho.shape}")
    if rho.ndim == 3 and len(rho) == 0:  # an empty time grid
        return
    if not np.isfinite(rho).all():  # NaN fails every comparison below
        raise ValueError("density matrix has non-finite entries")
    if np.abs(rho - rho.conj().swapaxes(-1, -2)).max() > atol:
        raise ValueError("density matrix is not Hermitian")
    trace = rho.trace(axis1=-2, axis2=-1)
    worst = np.abs(trace - 1.0).argmax()
    if abs(trace.flat[worst] - 1.0) > atol:
        raise ValueError(f"density matrix trace is {trace.flat[worst]}, expected 1")
    w = np.linalg.eigvalsh(rho)
    if w.min() < eig_floor:
        raise ValueError(f"density matrix has negative eigenvalue {w.min():.3e}")


def unit_vector(psi, dim: int) -> np.ndarray:
    """``psi`` as a unit vector of ``dim`` entries, or a (T, dim) stack of them.

    Any other shape holding ``dim`` entries is read as one flattened vector.
    Every entry must be finite and every vector's norm 1 to 1e-10.
    """
    psi = np.asarray(psi, dtype=complex)
    if not (psi.ndim == 2 and psi.shape[1] == dim):
        psi = psi.reshape(-1)
        if psi.size != dim:
            raise ValueError(f"expected a state vector of {dim} entries, got {psi.size}")
    if not np.isfinite(psi).all():  # a NaN norm passes the comparison below
        raise ValueError("state vector has non-finite entries")
    norm = np.linalg.norm(psi, axis=-1)
    dev = np.abs(norm - 1.0)
    if (dev > 1e-10).any():
        raise ValueError(f"state vector norm is {np.ravel(norm)[np.argmax(dev)]}, expected 1")
    return psi


def pure_state_density(psi: np.ndarray) -> np.ndarray:
    psi = unit_vector(psi, np.size(psi))
    return np.outer(psi, psi.conj())


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def trace_distance(a: np.ndarray, b: np.ndarray):
    """(1/2) trace norm of the difference of two Hermitian matrices (one per slice of stacks)."""
    return 0.5 * np.abs(np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))).sum(axis=-1)


def partial_trace(rho: np.ndarray, keep, dims) -> np.ndarray:
    """Trace out all factors not listed in ``keep`` (kept in the given order).

    ``rho`` is a (D, D) state or a (T, D, D) stack, reduced slice by slice.
    """
    dims = list(dims)
    rho = np.asarray(rho)
    total = int(np.prod(dims))
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (total, total):
        raise ValueError(f"state of shape {rho.shape} inconsistent with factor dims {dims}")
    keep = check_sites(keep, len(dims), "kept")
    rest = [q for q in range(len(dims)) if q not in keep]
    lead, order = rho.shape[:-2], keep + rest
    resh = rho.reshape(lead + tuple(dims + dims))
    perm = [*range(len(lead)), *(len(lead) + q for q in order), *(len(lead) + len(dims) + q for q in order)]
    dk = int(np.prod([dims[q] for q in keep])) if keep else 1
    dr = total // dk
    red = resh.transpose(perm).reshape(lead + (dk, dr, dk, dr))
    return np.einsum("...ipjp->...ij", red)


def partial_trace_outer(a: np.ndarray, b: np.ndarray, keep, dims) -> np.ndarray:
    """``partial_trace(a @ b^dag, keep, dims)`` without forming the full product.

    ``a`` and ``b`` are (prod(dims), m) blocks, vectors (m = 1) or (T, prod(dims), m)
    stacks of blocks.  The cost is O(prod(dims) * m * d_keep) instead of
    O(prod(dims)^2 * m), and the extra memory one copy of each block, with its
    factors permuted kept-first (``b``'s conjugated in the same pass; ``a``'s is
    a view where the kept factors already lead, in order).
    """
    dims = list(dims)
    a, b = np.asarray(a), np.asarray(b)
    total = int(np.prod(dims))
    lead = a.shape[:-2] if a.ndim == 3 else ()
    if a.shape != b.shape or a.ndim > 3 or a.shape[len(lead)] != total:
        raise ValueError(f"blocks of shapes {a.shape}, {b.shape} inconsistent with factor dims {dims}")
    keep = check_sites(keep, len(dims), "kept")
    rest = [q for q in range(len(dims)) if q not in keep]
    perm = [*range(len(lead)), *(len(lead) + q for q in keep + rest), len(lead) + len(dims)]
    dk, m = int(np.prod([dims[q] for q in keep])), int(np.prod(a.shape[len(lead) + 1:]))  # m = 1 for a vector
    a_rows, b_rows = (x.reshape(lead + tuple(dims) + (m,)).transpose(perm) for x in (a, b))
    b_conj = np.conjugate(b_rows, out=np.empty_like(b_rows, order="C"))  # permuted and conjugated in one copy
    shape = lead + (dk, total // dk * m)
    return a_rows.reshape(shape) @ b_conj.reshape(shape).swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# map representations

@dataclass(frozen=True)
class KrausSet:
    """A quantum map as a stack of Kraus operators.

    ``operators`` is one non-empty complex (K, [T,] d_out, d_in) array, taken
    with ``np.asarray``: K operators, each a (d_out, d_in) matrix or, with a
    time axis, a (T, d_out, d_in) stack holding one map per time of a grid.
    Any other form raises ValueError.  Every sum over the operators is one
    stacked product reduced over the first axis, in the order of Python's
    ``sum``.  The completeness relation sum_k E_k^dag E_k = 1 is checked to
    1e-10 at construction, on every slice; a map that is not complete reaches
    :func:`is_cptp` only as a superoperator.
    """

    operators: np.ndarray

    def __post_init__(self):
        try:
            ops = np.asarray(self.operators, dtype=complex)
        except ValueError:  # numpy refuses a ragged set
            raise ValueError("all Kraus operators must share the same shape") from None
        if ops.shape[:1] == (0,):
            raise ValueError("KrausSet needs at least one operator")
        if ops.ndim not in (3, 4) or 0 in ops.shape[-2:]:
            raise ValueError(f"Kraus operators must be matrices (or stacks of matrices), got shape {ops.shape}")
        object.__setattr__(self, "operators", ops)
        dev = np.abs(self.completeness_defect()).max(initial=0.0)  # no slices on an empty time grid
        if dev > COMPLETENESS_ATOL:
            raise ValueError(f"Kraus completeness violated by {dev:.3e}")

    @property
    def input_dim(self) -> int:
        return self.operators.shape[-1]

    @property
    def output_dim(self) -> int:
        return self.operators.shape[-2]

    def completeness_defect(self) -> np.ndarray:
        ops = self.operators
        return (ops.conj().swapaxes(-1, -2) @ ops).sum(axis=0) - np.eye(self.input_dim)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the last two axes, broadcast over a leading time axis."""
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def superop_from_kraus(ks: KrausSet) -> np.ndarray:
    """Superoperator matrix A = sum_k kron(E_k, conj(E_k)) (one per slice of a stack)."""
    return _kron(ks.operators, ks.operators.conj()).sum(axis=0)


def apply_kraus(ks: KrausSet, rho: np.ndarray) -> np.ndarray:
    """sum_k E_k rho E_k^dag of one (d, d) state, or of a (T, d, d) stack through a map's T slices."""
    rho = np.asarray(rho, dtype=complex)
    ops = ks.operators
    if rho.shape[-2:] != (ks.input_dim, ks.input_dim) or rho.shape[:-2] not in ((), ops.shape[1:-2]):
        raise ValueError(f"state of shape {rho.shape} does not match a map of shape {ops.shape[1:]}")
    return (ops @ rho @ ops.conj().swapaxes(-1, -2)).sum(axis=0)


def apply(ks: KrausSet, rho: np.ndarray) -> np.ndarray:
    """Apply a Kraus set to a density matrix and validate the output.

    A map with a leading time axis gives a (T, d, d) stack of outputs, each
    validated (see :func:`apply_kraus`).  The map and the state were checked
    before, so an invalid output is a failure of the computation: it raises
    :class:`NumericalError` with the check's message.
    """
    out = apply_kraus(ks, rho)
    try:
        assert_density_matrix(out)
    except ValueError as exc:
        raise NumericalError(str(exc)) from exc
    return out


def choi_from_superop(a: np.ndarray, input_dim: int, output_dim: int) -> np.ndarray:
    """Unnormalized Choi matrix C[(n,i),(m,j)] = A[(i,j),(n,m)] (one per slice of a stack)."""
    a = np.asarray(a)
    lead = a.shape[:-2]
    a4 = a.reshape(lead + (output_dim, output_dim, input_dim, input_dim))
    d = input_dim * output_dim
    return a4.transpose(*range(len(lead)), *(len(lead) + q for q in (2, 0, 3, 1))).reshape(lead + (d, d))


@dataclass(frozen=True)
class CptpVerdict:
    """Verdict and witnesses of one map, or arrays of them over a stack of maps."""

    ok: bool
    min_choi_eigenvalue: float
    trace_defect: float

    def __bool__(self) -> bool:
        return bool(np.all(self.ok))


def is_cptp(map_) -> CptpVerdict:
    """Choi-PSD (to -1e-9) plus trace-preservation (to 1e-10) verdict with witness values.

    ``map_`` is a :class:`KrausSet` or a superoperator matrix; a Kraus set is
    completely positive by construction, so a map that is not (such as a
    closed-form reference matrix) reaches the check only as a superoperator.
    A stack of T maps gives T values in every field, slice by slice.
    """
    if isinstance(map_, KrausSet):
        a = superop_from_kraus(map_)
        din, dout = map_.input_dim, map_.output_dim
    else:
        a = np.asarray(map_)
        din = int(round(np.sqrt(a.shape[-1])))
        dout = int(round(np.sqrt(a.shape[-2])))
    choi = choi_from_superop(a, din, dout)
    min_eig = np.linalg.eigvalsh(choi).min(axis=-1)
    # partial trace of the Choi matrix over the output factor
    tr_out = np.einsum("...nimi->...nm", choi.reshape(choi.shape[:-2] + (din, dout, din, dout)))
    trace_defect = np.abs(tr_out - np.eye(din)).max(axis=(-2, -1))
    return CptpVerdict((min_eig >= PSD_FLOOR) & (trace_defect <= 1e-10), min_eig, trace_defect)


# ---------------------------------------------------------------------------
# one-qubit map

def amplitude_modulus(f) -> np.ndarray:
    """|f| of a transition amplitude (or of each of an array), clipped to 1 once |f|^2 <= 1 + 1e-10."""
    modulus = np.abs(np.asarray(f, dtype=complex))
    if (modulus**2 > 1.0 + AMPLITUDE_ATOL).any():
        raise ValueError(f"amplitude modulus {modulus.max()} exceeds 1")
    return np.minimum(modulus, 1.0)


def one_qubit_kraus(f) -> KrausSet:
    """Kraus pair of the single-excitation map with transition amplitude f.

    E_0 = [[1, 0], [0, f]] together with a single leakage operator
    [[0, sqrt(1-|f|^2)], [0, 0]] that stands in for the whole family of
    environment-resolved operators (only the total 1-|f|^2 enters the map).
    An array of T amplitudes gives (T, 2, 2) operators.  |f| is bounded by
    :func:`amplitude_modulus`.
    """
    f = np.asarray(f, dtype=complex)
    if f.ndim > 1:
        raise ValueError(f"amplitudes must be a scalar or a 1-D array, got shape {f.shape}")
    ops = np.zeros((2,) + f.shape + (2, 2), dtype=complex)
    ops[0, ..., 0, 0] = 1.0
    ops[0, ..., 1, 1] = f
    ops[1, ..., 0, 1] = np.sqrt(1.0 - amplitude_modulus(f) ** 2)
    return KrausSet(ops)


def extend_with_identity(ks: KrausSet) -> KrausSet:
    """Tensor the identity map on a first qubit with a one-qubit map on the second."""
    return KrausSet(_kron(np.eye(2, dtype=complex), ks.operators))


def tensor_map(m1: KrausSet, m2: KrausSet) -> KrausSet:
    """Kronecker composition of two maps acting on independent systems.

    Both maps are single, or both stacked on the same time axis.  The
    operators run over those of ``m1``, each with every operator of ``m2``.
    """
    a, b = m1.operators, m2.operators
    if a.shape[1:-2] != b.shape[1:-2]:
        raise ValueError(f"maps on time axes {a.shape[1:-2]} and {b.shape[1:-2]} do not compose")
    ops = _kron(a[:, None], b[None])
    return KrausSet(ops.reshape((len(a) * len(b),) + ops.shape[2:]))


# ---------------------------------------------------------------------------
# two-qubit map

@lru_cache(maxsize=64)
def _pair_targets(n_sites: int, n: int, m: int) -> tuple:
    """The target bookkeeping of :func:`two_qubit_kraus` for receivers (n, m): read-only, shared by every call."""
    env = np.array([k for k in range(n_sites) if k not in (n, m)], dtype=np.intp)
    # targets of k=1: m, n, then each environment site k; of k=2: (n, m), then every (k, m), then every (n, k)
    one = ExcitationSector(n_sites, 1).positions(np.concatenate([[m, n], env])[:, None])
    pairs = np.sort(np.concatenate([[[n, m]], np.column_stack([env, np.full_like(env, m)]),
                                    np.column_stack([np.full_like(env, n), env])]), axis=1)
    pair_rows = ExcitationSector(n_sites, 2).positions(pairs)
    for index in (env, one, pairs, pair_rows):
        index.setflags(write=False)
    return env, one, pairs, pair_rows


def two_qubit_kraus(
    k1: AmplitudeTable,
    k2: AmplitudeTable | None,
    senders,
    receivers,
) -> KrausSet:
    """Kraus operators of the two-qubit map from sender pair to receiver pair.

    ``senders=(i, j)`` and ``receivers=(n, m)`` assign network sites to the
    first/second qubit of the 4-dimensional input/output space in the order
    given; the pairs may coincide (storage) or overlap.  The set contains the
    4x4 block-diagonal E_0, one E_1^k for every site k outside the receiver
    pair (one excitation left in the environment) and a single E_2 for both
    excitations lost.  Every environment-pair operator E_2^{kl} has its only
    entry f_ij(k, l) at [0, 3], so their sum of kron(E, conj(E)) equals that of
    one operator with entry sqrt(sum_{k<l} |f_ij(k, l)|^2) there, just as
    :func:`one_qubit_kraus` merges its leakage operators.  An N-site network
    gives N operators.

    The pair amplitudes f_ij at the targets (n, m), (k, m) and (n, k) come
    from one of two sources:

    * a k = 2 table ``k2``: they are gathered from its (i, j) column, and the
      merged weight sums that column over the targets off the receivers;
    * ``k2=None``, only where ``k1.free_fermion`` holds (an open chain with
      no ZZ coupling, see :class:`~spinmaps.network.SectorPropagator`;
      ValueError naming ``k2`` otherwise): with F the k = 1 columns of the
      senders in ascending order, f_ij at a < b is the 2 x 2 minor
      det F[{a, b}, :] (Lieb, Schultz & Mattis, Ann. Phys. 16, 407 (1961)),
      and by Cauchy-Binet the merged weight is sqrt(det(F_env^dag F_env))
      over the rows F_env of the sites outside the receivers, the
      determinant clipped at 0 for rounding.

    The tables may hold only the columns read here: sources (i,) and (j,) of
    ``k1`` and (i, j) of ``k2``, each read once, with every target gathered
    by its basis position.  Tables over T times give (T, 4, 4) operators.
    """
    n_sites = k1.sector.n_sites
    if k1.sector.excitation_count != 1 or k2 is not None and k2.sector.excitation_count != 2:
        raise ValueError("two_qubit_kraus needs a k=1 and a k=2 table")
    if k2 is None and not k1.free_fermion:
        raise ValueError("k2 is required: k=1 minors are pair amplitudes only on an open chain with no ZZ coupling")
    if k2 is not None:
        if k2.sector.n_sites != n_sites:
            raise ValueError("amplitude tables belong to different networks")
        if not np.array_equal(k1.time, k2.time):
            raise ValueError(f"amplitude tables at different times: {k1.time} vs {k2.time}")
    i, j = check_sites(senders, n_sites, "sender", 2)
    n, m = check_sites(receivers, n_sites, "receiver", 2)
    env, one, pairs, pair_rows = _pair_targets(n_sites, n, m)
    ne = env.size
    # amplitudes gathered from the source columns, target axis first
    col_i, col_j = k1.column((i,)), k1.column((j,))
    f_i, f_j = col_i.take(one, axis=-1).T, col_j.take(one, axis=-1).T
    if k2 is None:
        lo, hi = (col_i, col_j) if i < j else (col_j, col_i)
        a, b = pairs.T
        f_ij = (lo.take(a, axis=-1) * hi.take(b, axis=-1) - lo.take(b, axis=-1) * hi.take(a, axis=-1)).T
        # det of the Gram matrix [[|lo|^2, lo^dag hi], [hi^dag lo, |hi|^2]] of the environment rows
        lo_env, hi_env = lo[..., env], hi[..., env]  # not take: the layout sets the order of the sums below
        gram_det = ((np.abs(lo_env) ** 2).sum(axis=-1) * (np.abs(hi_env) ** 2).sum(axis=-1)
                    - np.abs((lo_env.conj() * hi_env).sum(axis=-1)) ** 2)
        lost = np.sqrt(np.maximum(gram_det, 0.0))
    else:
        col_ij = k2.column((i, j))
        f_ij = col_ij.take(pair_rows, axis=-1).T
        # the pair rows are every target holding n or m: the rest have both excitations in the environment
        lost = np.sqrt((np.abs(np.delete(col_ij, pair_rows, axis=-1)) ** 2).sum(axis=-1))
    ops = np.zeros((n_sites,) + col_i.shape[:-1] + (4, 4), dtype=complex)
    e0, e1, e2 = ops[0], ops[1:-1], ops[-1]  # E_0, one E_1 per environment site, the merged E_2
    e0[..., 0, 0] = 1.0
    e0[..., 1, 1] = f_j[0]
    e0[..., 1, 2] = f_i[0]
    e0[..., 2, 1] = f_j[1]
    e0[..., 2, 2] = f_i[1]
    e0[..., 3, 3] = f_ij[0]
    e1[..., 0, 1] = f_j[2:]
    e1[..., 0, 2] = f_i[2:]
    e1[..., 1, 3] = f_ij[1:ne + 1]
    e1[..., 2, 3] = f_ij[ne + 1:]
    e2[..., 0, 3] = lost
    return KrausSet(ops)


class NetworkChannel:
    """The one- and two-qubit channels that one network induces between its sites.

    Holds the k=1 sector propagator, and builds the k=2 one on first use
    where two-qubit maps need it, so each sector is diagonalised once for any
    number of times and site choices.  They need it unless ``k1.free_fermion``
    holds, the verdict the k=1 propagator reaches at construction: on an open
    chain (dual rails of :meth:`SpinNetwork.disjoint_union` included) with no
    ZZ coupling, every pair amplitude is a 2 x 2 minor of the k=1 table (see
    :func:`two_qubit_kraus`) and no k=2 sector is built.  Every channel reads
    only the sender columns of its sectors: (i,) of k=1 for one qubit, (i,),
    (j,) of k=1 and, off free fermions, (i, j) of k=2 for two.  Every method
    takes a time or a 1-D array of T times; for an array, one table per
    sector covers the whole grid and the result carries a leading time axis.
    """

    def __init__(self, network: SpinNetwork):
        self.network = network
        self.k1 = SectorPropagator(network, 1)

    @cached_property
    def k2(self) -> SectorPropagator:
        return SectorPropagator(self.network, 2)

    def amplitude(self, sender: int, receiver: int, t):
        """One-excitation amplitude f from sender to receiver at time t."""
        n = self.network.n_sites
        (sender,), (receiver,) = check_sites([sender], n, "sender"), check_sites([receiver], n, "receiver")
        return self.k1.table(t, [(sender,)]).site_amplitude(sender, receiver)

    def one_qubit(self, sender: int, receiver: int, t) -> KrausSet:
        """Map from one sender site to one receiver site at time t."""
        return one_qubit_kraus(self.amplitude(sender, receiver, t))

    def two_qubit(self, senders, receivers, t) -> KrausSet:
        """Map from the sender pair to the receiver pair at time t (see :func:`two_qubit_kraus`)."""
        n = self.network.n_sites
        i, j = check_sites(senders, n, "sender", 2)
        check_sites(receivers, n, "receiver", 2)  # before either sector table is built
        k1 = self.k1.table(t, [(i,), (j,)])
        k2 = None if self.k1.free_fermion else self.k2.table(t, [(i, j)])
        return two_qubit_kraus(k1, k2, (i, j), receivers)


def two_qubit_map_elements(
    k1: AmplitudeTable,
    k2: AmplitudeTable,
    senders,
    receivers,
) -> np.ndarray:
    """Closed-form 16x16 superoperator of the two-qubit map, element by element.

    Independent of :func:`two_qubit_kraus`: every element is written out from
    the transition-amplitude tables, with environment sums running over all
    sites (or site pairs) outside the receiver pair, at the tables' one time.
    Must agree with the Kraus-built superoperator to 1e-10.
    """
    n_sites = k1.sector.n_sites
    i, j = check_sites(senders, n_sites, "sender", 2)
    n, m = check_sites(receivers, n_sites, "receiver", 2)

    f1_columns = {i: k1.column((i,)), j: k1.column((j,))}
    col_ij = k2.column((i, j))
    lower, upper = np.triu_indices(n_sites, 1)
    pair_position = np.zeros((n_sites, n_sites), dtype=np.intp)
    pair_position[lower, upper] = pair_position[upper, lower] = k2.sector.positions(np.column_stack([lower, upper]))

    def f1(src, tgt):
        return f1_columns[src][..., tgt]  # a k=1 configuration's position is its site

    def f2(tgt_a, tgt_b):
        return col_ij[..., pair_position[tgt_a, tgt_b]]

    env = [k for k in range(n_sites) if k not in (n, m)]
    env_pairs = list(itertools.combinations(env, 2))
    c = np.conj

    a = np.zeros((16, 16), dtype=complex)

    def put(out_pair, in_pair, value):
        a[4 * out_pair[0] + out_pair[1], 4 * in_pair[0] + in_pair[1]] = value

    put((0, 0), (0, 0), 1.0)
    put((0, 0), (1, 1), sum(abs(f1(j, k)) ** 2 for k in env))
    put((0, 0), (1, 2), sum(f1(j, k) * c(f1(i, k)) for k in env))
    put((0, 0), (2, 1), sum(f1(i, k) * c(f1(j, k)) for k in env))
    put((0, 0), (2, 2), sum(abs(f1(i, k)) ** 2 for k in env))
    put((0, 0), (3, 3), sum(abs(f2(k, l)) ** 2 for k, l in env_pairs))

    put((0, 1), (0, 1), c(f1(j, m)))
    put((0, 1), (0, 2), c(f1(i, m)))
    put((0, 1), (1, 3), sum(f1(j, k) * c(f2(k, m)) for k in env))
    put((0, 1), (2, 3), sum(f1(i, k) * c(f2(k, m)) for k in env))

    put((0, 2), (0, 1), c(f1(j, n)))
    put((0, 2), (0, 2), c(f1(i, n)))
    put((0, 2), (1, 3), sum(f1(j, k) * c(f2(n, k)) for k in env))
    put((0, 2), (2, 3), sum(f1(i, k) * c(f2(n, k)) for k in env))

    put((0, 3), (0, 3), c(f2(n, m)))

    put((1, 0), (1, 0), f1(j, m))
    put((1, 0), (2, 0), f1(i, m))
    put((1, 0), (3, 1), sum(f2(k, m) * c(f1(j, k)) for k in env))
    put((1, 0), (3, 2), sum(f2(k, m) * c(f1(i, k)) for k in env))

    put((1, 1), (1, 1), abs(f1(j, m)) ** 2)
    put((1, 1), (1, 2), f1(j, m) * c(f1(i, m)))
    put((1, 1), (2, 1), f1(i, m) * c(f1(j, m)))
    put((1, 1), (2, 2), abs(f1(i, m)) ** 2)
    put((1, 1), (3, 3), sum(abs(f2(k, m)) ** 2 for k in env))

    put((1, 2), (1, 1), f1(j, m) * c(f1(j, n)))
    put((1, 2), (1, 2), f1(j, m) * c(f1(i, n)))
    put((1, 2), (2, 1), f1(i, m) * c(f1(j, n)))
    put((1, 2), (2, 2), f1(i, m) * c(f1(i, n)))
    put((1, 2), (3, 3), sum(f2(k, m) * c(f2(n, k)) for k in env))

    put((1, 3), (1, 3), f1(j, m) * c(f2(n, m)))
    put((1, 3), (2, 3), f1(i, m) * c(f2(n, m)))

    put((2, 0), (1, 0), f1(j, n))
    put((2, 0), (2, 0), f1(i, n))
    put((2, 0), (3, 1), sum(f2(n, k) * c(f1(j, k)) for k in env))
    put((2, 0), (3, 2), sum(f2(n, k) * c(f1(i, k)) for k in env))

    put((2, 1), (1, 1), f1(j, n) * c(f1(j, m)))
    put((2, 1), (1, 2), f1(j, n) * c(f1(i, m)))
    put((2, 1), (2, 1), f1(i, n) * c(f1(j, m)))
    put((2, 1), (2, 2), f1(i, n) * c(f1(i, m)))
    put((2, 1), (3, 3), sum(f2(n, k) * c(f2(k, m)) for k in env))

    put((2, 2), (1, 1), abs(f1(j, n)) ** 2)
    put((2, 2), (1, 2), f1(j, n) * c(f1(i, n)))
    put((2, 2), (2, 1), f1(i, n) * c(f1(j, n)))
    put((2, 2), (2, 2), abs(f1(i, n)) ** 2)
    put((2, 2), (3, 3), sum(abs(f2(n, k)) ** 2 for k in env))

    put((2, 3), (1, 3), f1(j, n) * c(f2(n, m)))
    put((2, 3), (2, 3), f1(i, n) * c(f2(n, m)))

    put((3, 0), (3, 0), f2(n, m))
    put((3, 1), (3, 1), f2(n, m) * c(f1(j, m)))
    put((3, 1), (3, 2), f2(n, m) * c(f1(i, m)))
    put((3, 2), (3, 1), f2(n, m) * c(f1(j, n)))
    put((3, 2), (3, 2), f2(n, m) * c(f1(i, n)))
    put((3, 3), (3, 3), abs(f2(n, m)) ** 2)

    return a


def two_qubit_sparsity_pattern() -> np.ndarray:
    """Boolean 16x16 mask of superoperator elements a U(1) network can populate.

    An element A[(i,j),(n,m)] survives only if the excitation counts satisfy
    w(n) - w(i) = w(m) - w(j) >= 0, i.e. both bra and ket lose the same number
    of excitations to the environment.
    """
    w = np.array([0, 1, 1, 2])
    mask = np.zeros((16, 16), dtype=bool)
    for i in range(4):
        for j in range(4):
            for n in range(4):
                for m in range(4):
                    d = w[n] - w[i]
                    mask[4 * i + j, 4 * n + m] = d == w[m] - w[j] and d >= 0
    return mask


# ---------------------------------------------------------------------------
# closed-form reference matrices
#
# These reference matrices carry the conjugate-amplitude convention (each is
# the elementwise conjugate of the superoperator the Kraus construction
# yields, a consequence of pairing the input indices the transposed way), so
# for any amplitude f:
#   superop_from_kraus(one_qubit_kraus(f)) == one_qubit_transfer_matrix(conj(f)).

def one_qubit_transfer_matrix(f: complex) -> np.ndarray:
    """Reference 4x4 matrix of the single-excitation map (conjugate convention)."""
    f = complex(f)
    r = 1.0 - abs(f) ** 2
    return np.array(
        [
            [1, 0, 0, r],
            [0, f, 0, 0],
            [0, 0, np.conj(f), 0],
            [0, 0, 0, abs(f) ** 2],
        ],
        dtype=complex,
    )


def distributed_pair_matrix(f: complex) -> np.ndarray:
    """Reference 16x16 matrix of identity (x) single-excitation map (conjugate convention)."""
    f = complex(f)
    r = 1.0 - abs(f) ** 2
    fc = np.conj(f)
    f2 = abs(f) ** 2
    a = np.zeros((16, 16), dtype=complex)
    a[0, 0] = 1
    a[0, 5] = r
    a[1, 1] = f
    a[2, 2] = 1
    a[2, 7] = r
    a[3, 3] = f
    a[4, 4] = fc
    a[5, 5] = f2
    a[6, 6] = fc
    a[7, 7] = f2
    a[8, 8] = 1
    a[8, 13] = r
    a[9, 9] = f
    a[10, 10] = 1
    a[10, 15] = r
    a[11, 11] = f
    a[12, 12] = fc
    a[13, 13] = f2
    a[14, 14] = fc
    a[15, 15] = f2
    return a


def dual_rail_matrix(f: complex, g: complex) -> np.ndarray:
    """Reference 16x16 matrix of two parallel single-excitation maps (conjugate convention).

    f is the amplitude of the map on the first qubit, g on the second.
    """
    f, g = complex(f), complex(g)
    rf = 1.0 - abs(f) ** 2
    rg = 1.0 - abs(g) ** 2
    fc, gc = np.conj(f), np.conj(g)
    f2, g2 = abs(f) ** 2, abs(g) ** 2
    a = np.zeros((16, 16), dtype=complex)
    a[0, 0] = 1
    a[0, 5] = rg
    a[0, 10] = rf
    a[0, 15] = rf * rg
    a[1, 1] = g
    a[1, 11] = g * rf
    a[2, 2] = f
    a[2, 7] = f * rg
    a[3, 3] = f * g
    a[4, 4] = gc
    a[4, 14] = rf * gc
    a[5, 5] = g2
    a[5, 15] = rf * g2
    a[6, 6] = f * gc
    a[7, 7] = f * g2
    a[8, 8] = fc
    a[8, 13] = rg * fc
    a[9, 9] = g * fc
    a[10, 10] = f2
    a[10, 15] = f2 * rg
    a[11, 11] = g * f2
    a[12, 12] = fc * gc
    a[13, 13] = g2 * fc
    a[14, 14] = f2 * gc
    a[15, 15] = f2 * g2
    return a
