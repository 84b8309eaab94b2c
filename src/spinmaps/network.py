"""Spin-1/2 networks with XY exchange, ZZ couplings and Z fields.

Total magnetization along Z is conserved, so the Hilbert space splits into
fixed-excitation-number sectors.  This module builds the sector-restricted
Hamiltonians in the lexicographically ordered subset basis and computes the
transition amplitudes f[target, source] = <target| exp(-i H_k t) |source>
by Hermitian eigendecomposition.

Conventions
-----------
* Pauli-matrix normalization: the XY exchange contributes a hopping matrix
  element 2*J_ij between configurations that differ by moving a single
  excitation from site i to site j.
* |0> is the sigma^z = -1 state; an "excitation" is a flipped (up) spin.
* Sector diagonals carry the full field/ZZ energy of each configuration,
  with no constant subtracted.  Phases relative to the vacuum are obtained
  with :func:`vacuum_amplitude`.
* Construction is sign-free (hard-core boson / spin basis); no fermionic
  strings enter for any coupling graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

HERMITICITY_ATOL = 1e-12
UNITARITY_ATOL = 1e-10


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

    def is_open_chain(self) -> bool:
        """True if XY couplings live only on nearest-neighbour bonds."""
        off = self.xy.copy()
        for b in range(self.n_sites - 1):
            off[b, b + 1] = off[b + 1, b] = 0.0
        return not np.any(off)


@dataclass(frozen=True)
class ExcitationSector:
    """Fixed-excitation-number subspace with a lexicographic subset basis."""

    n_sites: int
    excitation_count: int
    basis: tuple = field(init=False)

    def __post_init__(self):
        n, k = self.n_sites, self.excitation_count
        if not 0 <= k <= n:
            raise ValueError(f"excitation count {k} out of range for {n} sites")
        basis = tuple(itertools.combinations(range(n), k))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_index", {occ: a for a, occ in enumerate(basis)})

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


@dataclass(frozen=True)
class SectorHamiltonian:
    sector: ExcitationSector
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        scale = max(1.0, np.abs(m).max())
        if np.abs(m - m.conj().T).max() > HERMITICITY_ATOL * scale:
            raise ValueError("sector Hamiltonian is not Hermitian")


@dataclass(frozen=True)
class AmplitudeTable:
    """Transition amplitudes of one sector at a fixed time.

    ``amplitudes[target, source]`` is <target| exp(-i H_k t) |source> in the
    sector's subset basis.  Columns are normalized and the matrix is unitary
    (each is checked to 1e-10 at construction).
    """

    sector: ExcitationSector
    time: float
    amplitudes: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.amplitudes)
        d = self.sector.dimension
        if f.shape != (d, d):
            raise ValueError(f"amplitude matrix must be {d}x{d}, got {f.shape}")
        dev = np.abs(f.conj().T @ f - np.eye(d)).max()
        if dev > UNITARITY_ATOL:
            raise ValueError(f"amplitude matrix is not unitary (deviation {dev:.2e})")

    def amplitude(self, source, target) -> complex:
        """Amplitude between two configurations given as site subsets."""
        return self.amplitudes[self.sector.index_of(target), self.sector.index_of(source)]

    def site_amplitude(self, i: int, j: int) -> complex:
        """One-excitation amplitude f_i^j (requires a k=1 table)."""
        if self.sector.excitation_count != 1:
            raise ValueError("site_amplitude needs a one-excitation table")
        return self.amplitudes[self.sector.index_of((j,)), self.sector.index_of((i,))]


def build_sector_hamiltonian(network: SpinNetwork, k: int) -> SectorHamiltonian:
    """Hamiltonian restricted to the k-excitation sector.

    Off-diagonal elements are 2*J_ij between configurations differing by one
    excitation hop; the diagonal is sum_i h_i s_i + sum_{i<j} zz_ij s_i s_j
    with s = +1 on excited sites and -1 elsewhere.
    """
    sector = ExcitationSector(network.n_sites, k)
    n = network.n_sites
    dim = sector.dimension
    h = np.zeros((dim, dim), dtype=complex)
    for a, occ in enumerate(sector.basis):
        s = -np.ones(n)
        s[list(occ)] = 1.0
        h[a, a] = s @ network.fields + 0.5 * s @ network.zz @ s
        occ_set = set(occ)
        for i in occ:
            for j in range(n):
                if j in occ_set or network.xy[i, j] == 0.0:
                    continue
                target = sector.index_of(occ_set - {i} | {j})
                h[target, a] += 2.0 * network.xy[i, j]
    return SectorHamiltonian(sector, h)


class SectorPropagator:
    """Eigendecomposed sector Hamiltonian, reusable across many times."""

    def __init__(self, network: SpinNetwork, k: int):
        sh = build_sector_hamiltonian(network, k)
        self.sector = sh.sector
        self._eigvals, self._eigvecs = np.linalg.eigh(sh.matrix)

    def table(self, t: float) -> AmplitudeTable:
        if not np.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        phases = np.exp(-1j * self._eigvals * t)
        f = (self._eigvecs * phases) @ self._eigvecs.conj().T
        return AmplitudeTable(self.sector, float(t), f)


def amplitudes(network: SpinNetwork, k: int, t: float) -> AmplitudeTable:
    """Sector propagator exp(-i H_k t) via Hermitian eigendecomposition."""
    return SectorPropagator(network, k).table(t)


def vacuum_amplitude(network: SpinNetwork, t: float) -> complex:
    """Phase exp(-i E_vac t) of the fully polarised configuration."""
    e0 = build_sector_hamiltonian(network, 0).matrix[0, 0].real
    return complex(np.exp(-1j * e0 * t))


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
    f = table_k1.amplitudes
    det = f[n, i] * f[m, j] - f[m, i] * f[n, j]
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
