"""Spin-1/2 networks with XY exchange, ZZ couplings and Z fields.

Total magnetization along Z is conserved, so the Hilbert space splits into
fixed-excitation-number sectors.  This module builds the sector-restricted
Hamiltonians in the lexicographically ordered subset basis and computes the
transition amplitudes f[target, source] = <target| exp(-i H_k t) |source>
by eigendecomposition.

Every sector Hamiltonian is real symmetric (hopping elements 2*J_ij, a real
diagonal), so it is stored as float64 and diagonalised once with a
real-symmetric ``eigh``, H_k = V diag(E) V^T.  A table at time t holds only
the source columns a caller asks for, V (exp(-iEt) * V[sources, :]^T); the
full d x d table is one choice of sources.

Unitarity is guaranteed in two steps, both at 1e-10: once per propagator the
eigenbasis is checked to be orthonormal, |V^T V - 1| <= 1e-10, and every
table checks the Gram matrix of its own columns, |f^dag f - 1| <= 1e-10 (for
a full table this is the unitarity of f).  A failure raises
:class:`NumericalError`, never ``ValueError``.

Networks that evolve side by side without interacting are one network, their
:meth:`SpinNetwork.disjoint_union`; an idle external qubit is the union of a
single uncoupled site with the network.

Conventions
-----------
* Pauli-matrix normalization: the XY exchange contributes a hopping matrix
  element 2*J_ij between configurations that differ by moving a single
  excitation from site i to site j.
* |0> is the sigma^z = -1 state; an "excitation" is a flipped (up) spin.
* Sector diagonals carry the full field/ZZ energy of each configuration,
  :meth:`SpinNetwork.diagonal_energy`, with no constant subtracted.  Phases
  relative to the vacuum (the empty configuration) are obtained with
  :func:`vacuum_amplitude`.
* Construction is sign-free (hard-core boson / spin basis); no fermionic
  strings enter for any coupling graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np
from scipy.linalg import block_diag

HERMITICITY_ATOL = 1e-12
UNITARITY_ATOL = 1e-10


class NumericalError(ArithmeticError):
    """A numerical invariant (orthonormal eigenbasis, unitary propagator) failed.

    Deliberately not a ``ValueError``: it reports a failure of the computation,
    not a bad input.
    """


def _symmetric_matrix(mat, n: int, name: str) -> np.ndarray:
    m = np.array(mat, dtype=float)
    if m.shape != (n, n):
        raise ValueError(f"{name} must have shape ({n}, {n}), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    if not np.allclose(m, m.T, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    if np.any(np.abs(np.diag(m)) > 0):
        raise ValueError(f"{name} must have zero diagonal")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class SpinNetwork:
    """Coupling graph of a spin-1/2 network.

    Parameters
    ----------
    xy : (N, N) array
        Symmetric XY-exchange couplings J_ij with zero diagonal.
    zz : (N, N) array, optional
        Symmetric ZZ couplings with zero diagonal.  Defaults to zero.
    fields : (N,) array, optional
        Local Z fields h_i.  Defaults to zero.
    """

    xy: np.ndarray
    zz: np.ndarray = None
    fields: np.ndarray = None

    def __post_init__(self):
        xy = np.asarray(self.xy, dtype=float)
        if xy.ndim != 2 or xy.shape[0] != xy.shape[1] or xy.shape[0] < 1:
            raise ValueError(f"xy couplings must be a square matrix, got shape {xy.shape}")
        n = xy.shape[0]
        object.__setattr__(self, "xy", _symmetric_matrix(xy, n, "xy couplings"))
        zz = np.zeros((n, n)) if self.zz is None else self.zz
        object.__setattr__(self, "zz", _symmetric_matrix(zz, n, "zz couplings"))
        h = np.zeros(n) if self.fields is None else np.array(self.fields, dtype=float)
        if h.shape != (n,):
            raise ValueError(f"fields must have shape ({n},), got {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValueError("fields must be finite")
        h.setflags(write=False)
        object.__setattr__(self, "fields", h)

    @property
    def n_sites(self) -> int:
        return self.xy.shape[0]

    @classmethod
    def chain(cls, couplings, zz_couplings=None, fields=None) -> "SpinNetwork":
        """Open chain with nearest-neighbour couplings along the given list."""
        couplings = np.atleast_1d(np.asarray(couplings, dtype=float))
        n = couplings.size + 1
        xy = np.zeros((n, n))
        zz = np.zeros((n, n))
        for b, j in enumerate(couplings):
            xy[b, b + 1] = xy[b + 1, b] = j
        if zz_couplings is not None:
            for b, d in enumerate(np.asarray(zz_couplings, dtype=float)):
                zz[b, b + 1] = zz[b + 1, b] = d
        return cls(xy, zz, fields)

    @classmethod
    def uniform_chain(cls, n_sites: int, coupling: float = 1.0) -> "SpinNetwork":
        if n_sites < 2:
            raise ValueError("uniform chain needs at least 2 sites")
        return cls.chain(np.full(n_sites - 1, coupling))

    def disjoint_union(self, other: "SpinNetwork") -> "SpinNetwork":
        """Block-diagonal network of ``self`` and ``other``, which do not interact.

        The sites of ``self`` come first; site j of ``other`` becomes site
        ``self.n_sites + j``.
        """
        return SpinNetwork(
            block_diag(self.xy, other.xy),
            block_diag(self.zz, other.zz),
            np.concatenate([self.fields, other.fields]),
        )

    def diagonal_energy(self, occupied=()) -> float:
        """Field and ZZ energy of a configuration (the vacuum by default).

        sum_i h_i s_i + sum_{i<j} zz_ij s_i s_j with s = +1 on the occupied
        sites and -1 elsewhere.
        """
        s = -np.ones(self.n_sites)
        s[list(occupied)] = 1.0
        return s @ self.fields + 0.5 * s @ self.zz @ s

    def is_open_chain(self) -> bool:
        """True if XY couplings live only on nearest-neighbour bonds."""
        off = self.xy.copy()
        for b in range(self.n_sites - 1):
            off[b, b + 1] = off[b + 1, b] = 0.0
        return not np.any(off)


@dataclass(frozen=True)
class ExcitationSector:
    """Fixed-excitation-number subspace with a lexicographic subset basis.

    ``sites`` holds the same basis as a (dimension, k) integer array whose rows
    are the ascending occupied sites.
    """

    n_sites: int
    excitation_count: int
    basis: tuple = field(init=False)
    sites: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, k = self.n_sites, self.excitation_count
        if not 0 <= k <= n:
            raise ValueError(f"excitation count {k} out of range for {n} sites")
        basis = tuple(itertools.combinations(range(n), k))
        d = len(basis)
        sites = np.array(basis, dtype=np.intp).reshape(d, k)
        sites.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "_index", {occ: a for a, occ in enumerate(basis)})
        # rank weights C(n - 1 - c, k - q) of site c at position q; a valid row only
        # reads weights up to d, and clipping keeps the others in int64
        weights = [[min(comb(n - 1 - c, k - q), d) for c in range(n)] for q in range(k)]
        object.__setattr__(self, "_rank_weights", np.array(weights, dtype=np.int64).reshape(k, n))

    @property
    def dimension(self) -> int:
        return comb(self.n_sites, self.excitation_count)

    def index_of(self, occupied) -> int:
        """Basis position of a configuration given as a site subset."""
        key = tuple(sorted(occupied))
        try:
            return self._index[key]
        except KeyError:
            raise ValueError(f"{occupied} is not a valid configuration of this sector") from None

    def positions(self, sites: np.ndarray) -> np.ndarray:
        """Basis positions of configurations given as rows of ascending sites.

        Vectorised :meth:`index_of` without validation: the lexicographic rank
        of c_0 < ... < c_{k-1} is d - 1 - sum_q C(n - 1 - c_q, k - q).
        """
        k = self.excitation_count
        return self.dimension - 1 - self._rank_weights[np.arange(k), sites].sum(axis=1)


@dataclass(frozen=True)
class SectorHamiltonian:
    sector: ExcitationSector
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        scale = max(1.0, np.abs(m).max())
        if np.abs(m - m.conj().T).max() > HERMITICITY_ATOL * scale:
            raise ValueError("sector Hamiltonian is not Hermitian")


def _orthonormality_defect(cols: np.ndarray) -> float:
    """max |C^dag C - 1| over the Gram matrix of the columns of C."""
    gram = cols.conj().T @ cols
    gram.flat[:: gram.shape[0] + 1] -= 1.0  # subtract the identity in place
    return float(np.abs(gram).max(initial=0.0))


@dataclass(frozen=True)
class AmplitudeTable:
    """Transition amplitudes of one sector at a fixed time, for some sources.

    ``sources`` lists the source configurations (ascending site tuples) whose
    columns are stored; ``None`` stores all of them in basis order, i.e. the
    full d x d table.  ``amplitudes[target, c]`` is
    <target| exp(-i H_k t) |sources[c]> with targets in the sector's subset
    basis.  The stored columns must be orthonormal, |f^dag f - 1| <= 1e-10
    (for a full table: f is unitary); otherwise :class:`NumericalError` is
    raised at construction.
    """

    sector: ExcitationSector
    time: float
    amplitudes: np.ndarray
    sources: tuple = None

    def __post_init__(self):
        f = np.asarray(self.amplitudes)
        d = self.sector.dimension
        width = d if self.sources is None else len(self.sources)
        if f.shape != (d, width):
            raise ValueError(f"amplitude matrix must be {d}x{width}, got {f.shape}")
        dev = _orthonormality_defect(f)
        if dev > UNITARITY_ATOL:
            raise NumericalError(f"amplitude columns are not orthonormal (deviation {dev:.2e})")

    def _column(self, source) -> int:
        if self.sources is None:
            return self.sector.index_of(source)
        key = tuple(sorted(source))
        try:
            return self.sources.index(key)
        except ValueError:
            raise ValueError(f"source {source} is not among the stored columns {self.sources}") from None

    def column(self, source) -> np.ndarray:
        """All target amplitudes of one stored source configuration."""
        return self.amplitudes[:, self._column(source)]

    def amplitude(self, source, target) -> complex:
        """Amplitude between two configurations given as site subsets."""
        return self.amplitudes[self.sector.index_of(target), self._column(source)]

    def site_amplitude(self, i: int, j: int) -> complex:
        """One-excitation amplitude f_i^j (requires a k=1 table)."""
        if self.sector.excitation_count != 1:
            raise ValueError("site_amplitude needs a one-excitation table")
        return self.amplitude((i,), (j,))


def build_sector_hamiltonian(network: SpinNetwork, k: int) -> SectorHamiltonian:
    """Real symmetric (float64) Hamiltonian restricted to the k-excitation sector.

    Off-diagonal elements are 2*J_ij between configurations differing by one
    excitation hop from i to j; the diagonal holds the
    :meth:`SpinNetwork.diagonal_energy` of each configuration.  All hops are
    filled at once: every (configuration, ordered bond (i, j)) pair with i
    occupied and j empty gives one element.
    """
    sector = ExcitationSector(network.n_sites, k)
    n = network.n_sites
    dim = sector.dimension
    h = np.zeros((dim, dim))
    for a, occ in enumerate(sector.basis):
        h[a, a] = network.diagonal_energy(occ)
    occupied = np.zeros((dim, n), dtype=bool)
    occupied[np.arange(dim)[:, None], sector.sites] = True
    bond_i, bond_j = np.nonzero(network.xy)
    src, bond = np.nonzero(occupied[:, bond_i] & ~occupied[:, bond_j])
    i, j = bond_i[bond], bond_j[bond]
    rows = sector.sites[src]
    hopped = np.sort(np.where(rows == i[:, None], j[:, None], rows), axis=1)
    h[sector.positions(hopped), src] = 2.0 * network.xy[i, j]
    return SectorHamiltonian(sector, h)


class SectorPropagator:
    """Eigendecomposed sector Hamiltonian, reusable across many times.

    The real-symmetric ``eigh`` runs once; its eigenbasis is checked to be
    orthonormal to 1e-10 (:class:`NumericalError` otherwise).
    """

    def __init__(self, network: SpinNetwork, k: int):
        sh = build_sector_hamiltonian(network, k)
        self.sector = sh.sector
        self._eigvals, self._eigvecs = np.linalg.eigh(sh.matrix)
        dev = _orthonormality_defect(self._eigvecs)
        if dev > UNITARITY_ATOL:
            raise NumericalError(f"sector eigenbasis is not orthonormal (deviation {dev:.2e})")

    def table(self, t: float, sources=None) -> AmplitudeTable:
        """Amplitudes at time t from the listed source configurations (all if None).

        Costs O(d^2) per source column: V (exp(-iEt) * V[sources, :]^T).
        """
        if not np.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        if sources is None:
            rows = slice(None)
        else:
            sources = tuple(tuple(sorted(s)) for s in sources)
            if len(set(sources)) != len(sources):
                raise ValueError(f"source configurations {sources} contain duplicates")
            rows = [self.sector.index_of(s) for s in sources]
        phases = np.exp(self._eigvals * (-1j * t))
        block = np.multiply(phases[:, None], self._eigvecs[rows].T, order="C")
        # real V times the complex block as one real product over interleaved (re, im) columns
        f = (self._eigvecs @ block.view(float)).view(complex)
        return AmplitudeTable(self.sector, float(t), f, sources)


def amplitudes(network: SpinNetwork, k: int, t: float) -> AmplitudeTable:
    """Full sector propagator exp(-i H_k t) via real-symmetric eigendecomposition."""
    return SectorPropagator(network, k).table(t)


def vacuum_amplitude(network: SpinNetwork, t: float) -> complex:
    """Phase exp(-i E_vac t) of the fully polarised configuration."""
    return complex(np.exp(-1j * network.diagonal_energy() * t))


def pair_amplitude(table_k2: AmplitudeTable, i: int, j: int, n: int, m: int) -> complex:
    """Two-excitation amplitude f_ij^nm from a k=2 table.

    Pairs are indexed in canonical ascending order: i < j and n < m are
    required, and the lookup follows the lexicographic subset basis.
    """
    if table_k2.sector.excitation_count != 2:
        raise ValueError("pair_amplitude needs a two-excitation table")
    if not (i < j and n < m):
        raise ValueError(f"pair indices must be ascending, got ({i},{j}) -> ({n},{m})")
    return table_k2.amplitude((i, j), (n, m))


def pair_amplitude_determinant(
    network: SpinNetwork, table_k1: AmplitudeTable, i: int, j: int, n: int, m: int
) -> complex:
    """Two-excitation amplitude from one-excitation data (free-fermion shortcut).

    Valid only for open chains with zero ZZ couplings, where the dynamics is
    that of free fermions and the pair amplitude is the 2x2 determinant
    f_i^n f_j^m - f_i^m f_j^n, times exp(-i sum(h) t) to compensate for the
    vacuum-referenced diagonal convention.
    """
    if not network.is_open_chain() or np.any(network.zz):
        raise ValueError("determinant shortcut requires an open chain with zero ZZ couplings")
    if not (i < j and n < m):
        raise ValueError(f"pair indices must be ascending, got ({i},{j}) -> ({n},{m})")
    f = table_k1.site_amplitude
    det = f(i, n) * f(j, m) - f(i, m) * f(j, n)
    return det * np.exp(-1j * network.fields.sum() * table_k1.time)


def basis_index(occupied, n_sites: int) -> int:
    """Full-space computational index of a configuration (site 0 = leftmost bit)."""
    return sum(1 << (n_sites - 1 - s) for s in occupied)


def full_unitary_from_sectors(network: SpinNetwork, t: float) -> np.ndarray:
    """Assemble the 2^N propagator from all sector amplitude tables."""
    n = network.n_sites
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=complex)
    for k in range(n + 1):
        table = amplitudes(network, k, t)
        glob = [basis_index(occ, n) for occ in table.sector.basis]
        u[np.ix_(glob, glob)] = table.amplitudes
    return u
