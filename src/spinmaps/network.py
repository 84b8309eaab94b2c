"""Spin-1/2 networks with XY exchange, ZZ couplings and Z fields.

Total magnetization along Z is conserved, so the Hilbert space splits into
fixed-excitation-number sectors.  This module builds the sector-restricted
Hamiltonians in the lexicographically ordered subset basis and computes the
transition amplitudes f[target, source] = <target| exp(-i H_k t) |source>.

Every sector Hamiltonian is real symmetric (hopping elements 2*J_ij, a real
diagonal).  It is held as its diagonal and its hop triplets; a dense float64
matrix or a CSR matrix is formed from them only where a propagation path
needs one.  A table at time t holds only the source columns a caller asks
for; the full d x d table is one choice of sources.  Given an array of T
times, a table carries a leading time axis, (T, d, c).

A table's columns come from one of two paths:

* ``eigh``: a real-symmetric eigendecomposition H_k = V diag(E) V^T, run once
  per propagator, after which a table is V (exp(-iEt) * V[sources, :]^T), one
  product for all T times.
* Chebyshev (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)), the series
  of :mod:`spinmaps.chebyshev` on the CSR matrix, built once per propagator,
  spectrum enclosed by Gershgorin discs: a real three-term recurrence on the
  source columns serves every time of the grid.  No eigendecomposition.

Selection rule (in :meth:`SectorPropagator.table`): a full table, or any
table of a propagator that is already diagonalised, uses ``eigh``.  A column
table uses the Chebyshev series while the estimated Chebyshev cost spent on
this propagator so far, plus this table's, stays below the estimated cost of
one ``eigh``; once it would not, the propagator diagonalises and stays on
``eigh``.  Small sectors therefore never form a sparse matrix, and repeated
tables of one sector (a refinement loop) cost at most about two ``eigh``.

Unitarity is guaranteed in two steps, both at 1e-10: whenever ``eigh`` runs
the eigenbasis is checked to be orthonormal, |V^T V - 1| <= 1e-10, and every
table, whichever path built it, checks the Gram matrix of its own columns,
|f^dag f - 1| <= 1e-10, at every time it holds (for a full table this is the
unitarity of f).  A failure raises :class:`NumericalError`, never
``ValueError``.  Whichever matrix is formed is checked to be Hermitian.

The state on a few sites of one evolved configuration is
:func:`reduced_state`, read from its stored column: U(1) symmetry makes it
block diagonal in the number of kept excitations, so no 2^N vector forms.
Nothing here indexes the 2^N space: its basis, bit order and dense
propagator live in :mod:`spinmaps.oracle`, the independent check of this
module.

Networks that evolve side by side without interacting are one network, their
:meth:`SpinNetwork.disjoint_union`; an idle external qubit is the union of a
single uncoupled site with the network.

Conventions
-----------
* Pauli-matrix normalization: the XY exchange contributes a hopping matrix
  element 2*J_ij between configurations that differ by moving a single
  excitation from site i to site j.
* |0> is the sigma^z = -1 state; an "excitation" is a flipped (up) spin.
* Energies are measured from the vacuum (the empty configuration): each
  sector diagonal holds :meth:`SpinNetwork.diagonal_energy` of a
  configuration minus that of the vacuum.  Every amplitude is therefore the
  transition amplitude relative to the vacuum, and the vacuum amplitude is 1.
* Construction is sign-free (hard-core boson / spin basis); no fermionic
  strings enter the sector engine for any coupling graph.
* The one exception is the two-qubit map on a free-fermion network, an open
  chain with no ZZ coupling: there no hop passes another excitation, so the
  Jordan-Wigner map adds no sign, H_k is k free fermions, and the
  k-excitation amplitude from sources s to configuration c is the minor
  det F[c, s] of the k = 1 table F (Lieb, Schultz & Mattis, Ann. Phys. 16,
  407 (1961)).  :class:`SectorPropagator` decides this once, as
  ``free_fermion``, which each of its tables carries: only there does
  :func:`spinmaps.maps.two_qubit_kraus` take the k = 1 table alone, and no
  k = 2 sector is built.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .chebyshev import chebyshev_terms, require_hermitian, symmetric_csr, unit_columns

UNITARITY_ATOL = 1e-10

# Cost model of the two propagation paths, in seconds, calibrated on a 2-core
# x86-64 with 1 OpenBLAS thread (numpy 2.4, scipy 1.17), min of 3-7 runs.
# * eigh of a real symmetric d x d matrix: 4.2e-10 d^3 s at d = 300, falling to
#   2.5e-10 at d = 780 and 2.2e-10 at d = 1225, and rising to 3e-9 at d = 45
#   where fixed costs dominate.  The constant fits d = 250-300, where the two
#   paths cross for typical grids; below that it underestimates eigh, which
#   keeps small sectors on eigh.
# * one Chebyshev step on a (d, c) block for T times, least-squares fit of the
#   relative error over d = 66-7140, c = 1-4, T = 1-400 (within a factor 1.7):
#   3 us (kernel call and loop), plus 1.3 ns per stored nonzero and column
#   (sparse product), plus per time 0.12 us (Bessel weights) and 0.21 ns per
#   row and column (blocked sums).
EIGH_SECONDS_PER_D3 = 4e-10
CHEBYSHEV_STEP_SECONDS = 3e-6
CHEBYSHEV_SECONDS_PER_NONZERO = 1.3e-9
CHEBYSHEV_SECONDS_PER_TIME = 0.12e-6
CHEBYSHEV_SECONDS_PER_ENTRY = 0.21e-9
# rows of one stacked diagonal product: the (rows, N) spin block stays under 2 MB at N = 50
DIAGONAL_BLOCK_ROWS = 4096


class NumericalError(ArithmeticError):
    """A numerical invariant (orthonormal eigenbasis, unitary propagator, valid output state) failed.

    Deliberately not a ``ValueError``: it reports a failure of the computation,
    not a bad input.
    """


def check_sites(sites, n: int, role: str, count: int | None = None) -> list:
    """``sites`` as a list of ints below ``n``, none repeated, ``count`` of them if given.

    A bool, float or text site, or a list of another length, raises ValueError naming ``role``.
    """
    try:
        sites = list(sites)
        if bool in map(type, sites):  # operator.index reads a bool as an int
            raise TypeError
        ints = list(map(operator.index, sites))  # ints and numpy integers
    except TypeError:
        raise ValueError(f"{role} sites must be integers, got {sites!r}") from None
    if count is not None and len(ints) != count:
        raise ValueError(f"{role} sites {ints} must name {count} sites")
    if len(set(ints)) != len(ints):
        raise ValueError(f"{role} sites {ints} contain duplicates")
    for site in ints:
        if not 0 <= site < n:
            raise ValueError(f"{role} sites {ints} out of range for {n} sites")
    return ints


def check_times(t):
    """``t`` as a float or a 1-D float array (a copy); text, bools, None, NaN or inf raise ValueError naming ``t``."""
    times = np.asarray(t)
    if times.dtype.kind not in "iuf":
        raise ValueError(f"t must be a real number or a 1-D array of them, got {t!r}")
    if times.ndim > 1:
        raise ValueError(f"t must be a time or a 1-D array of times, got shape {times.shape}")
    times = times.astype(float)
    if not np.isfinite(times).all():
        raise ValueError(f"t must be finite, got {t}")
    return float(times) if times.ndim == 0 else times


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
        n, size = self.n_sites, self.n_sites + other.n_sites
        xy, zz = np.zeros((size, size)), np.zeros((size, size))
        xy[:n, :n], xy[n:, n:] = self.xy, other.xy
        zz[:n, :n], zz[n:, n:] = self.zz, other.zz
        return SpinNetwork(xy, zz, np.concatenate([self.fields, other.fields]))

    def diagonal_energy(self, occupied=None):
        """Field and ZZ energy of configurations given as a (..., N) boolean occupation stack.

        sum_i h_i s_i + sum_{i<j} zz_ij s_i s_j with s = +1 on the occupied
        sites and -1 elsewhere, one value per row (a scalar for one row; the
        vacuum by default).  Each row is the same BLAS dot and gemv as the
        scalar s @ h + 0.5 * s @ zz @ s, as a stacked product over blocks of
        rows, so every value is bitwise the scalar one.
        """
        occupied = np.zeros(self.n_sites, dtype=bool) if occupied is None else np.asarray(occupied)
        if occupied.dtype != bool or occupied.shape[-1:] != (self.n_sites,):
            raise ValueError(f"occupation must be boolean with {self.n_sites} sites on its last axis, "
                             f"got {occupied.dtype} of shape {occupied.shape}")
        flat = occupied.reshape(-1, self.n_sites)
        energy = np.empty(len(flat))
        for start in range(0, len(flat), DIAGONAL_BLOCK_ROWS):
            spins = np.where(flat[start:start + DIAGONAL_BLOCK_ROWS], 1.0, -1.0)[:, None, :]
            block = spins @ self.fields[:, None] + (0.5 * spins) @ self.zz @ spins.swapaxes(-1, -2)
            energy[start:start + len(block)] = block.reshape(-1)
        return energy.reshape(occupied.shape[:-1])[()]

    def is_open_chain(self) -> bool:
        """True if XY couplings live only on nearest-neighbour bonds."""
        off = self.xy.copy()
        for b in range(self.n_sites - 1):
            off[b, b + 1] = off[b + 1, b] = 0.0
        return not np.any(off)


@dataclass(frozen=True)
class ExcitationSector:
    """Fixed-excitation-number subspace with a lexicographic subset basis.

    ``sites`` is the basis: a (dimension, k) integer array whose rows are the
    ascending occupied sites of each configuration, in lexicographic order,
    enumerated on first access.  A configuration's position is its
    lexicographic rank, :meth:`index_of` for one and :meth:`positions` for
    many; neither enumerates the basis.
    """

    n_sites: int
    excitation_count: int

    def __post_init__(self):
        n, k = self.n_sites, self.excitation_count
        if not 0 <= k <= n:
            raise ValueError(f"excitation count {k} out of range for {n} sites")
        d = self.dimension
        # signed rank weights: a row's position sums, over its slots q, d - 1 (slot 0 only) minus
        # C(n - 1 - c_q, k - q); clipping at d keeps the binomials no valid row reads in int64
        weights = np.array([[(d - 1 if q == 0 else 0) - min(comb(n - 1 - c, k - q), d) for c in range(n)]
                            for q in range(k)], dtype=np.int64).reshape(k, n)
        object.__setattr__(self, "_rank_weights", weights)
        object.__setattr__(self, "_rank_rows", weights.tolist())  # the same weights, for scalar lookups

    @property
    def dimension(self) -> int:
        return comb(self.n_sites, self.excitation_count)

    @cached_property
    def sites(self) -> np.ndarray:
        n, k, d = self.n_sites, self.excitation_count, self.dimension
        flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
        sites = np.fromiter(flat, dtype=np.intp, count=d * k).reshape(d, k)
        sites.setflags(write=False)
        return sites

    def index_of(self, occupied) -> int:
        """Basis position of a configuration given as a site subset, in any order.

        The validated scalar form of :meth:`positions`: ``occupied`` must name
        k sites of the network by the rule of :func:`check_sites`.
        """
        try:
            key = sorted(check_sites(occupied, self.n_sites, "occupied", self.excitation_count))
        except ValueError:
            raise ValueError(f"{occupied} is not a valid configuration of this sector") from None
        return sum(map(operator.getitem, self._rank_rows, key))

    def positions(self, sites: np.ndarray) -> np.ndarray:
        """Basis positions of configurations given as rows of ascending sites.

        Vectorised :meth:`index_of` without validation: the lexicographic rank
        of c_0 < ... < c_{k-1} is d - 1 - sum_q C(n - 1 - c_q, k - q).
        """
        k = self.excitation_count
        return self._rank_weights[np.arange(k), sites].sum(axis=1)

    def occupation(self) -> np.ndarray:
        """(dimension, n) boolean matrix whose row a marks the occupied sites of configuration a."""
        d = self.dimension
        occupied = np.zeros((d, self.n_sites), dtype=bool)
        occupied[np.arange(d)[:, None], self.sites] = True
        return occupied


@dataclass(frozen=True)
class SectorHamiltonian:
    """Real symmetric H_k of one sector, held as its diagonal and its hops.

    ``diagonal[a]`` is the energy of configuration a; hop h is the element
    ``values[h]`` at (``rows[h]``, ``cols[h]``), and no position repeats.  The
    dense matrix is formed on every access, the CSR matrix on the first, and
    each is checked to be Hermitian when formed (``ValueError`` otherwise).
    """

    sector: ExcitationSector
    diagonal: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        """Stored elements of the sparse matrix: the diagonal plus every hop."""
        return self.sector.dimension + self.values.size

    @property
    def matrix(self) -> np.ndarray:
        """Dense (d, d) float64 matrix, formed anew on every access."""
        d = self.sector.dimension
        m = np.zeros((d, d))
        m[np.arange(d), np.arange(d)] = self.diagonal
        m[self.rows, self.cols] = self.values
        require_hermitian(np.abs(m - m.conj().T).max(), np.abs(m).max())
        return m

    @cached_property
    def sparse(self):
        """CSR matrix of H from :func:`~spinmaps.chebyshev.symmetric_csr`, with the diagonal always stored."""
        return symmetric_csr(self.diagonal, self.rows, self.cols, self.values)

    @cached_property
    def spectral_bounds(self) -> tuple:
        """(lowest, highest) Gershgorin bound: every eigenvalue lies between them."""
        radius = np.bincount(self.rows, np.abs(self.values), minlength=self.sector.dimension)
        return float((self.diagonal - radius).min()), float((self.diagonal + radius).max())


def orthonormality_defect(cols: np.ndarray) -> float:
    """max |C^dag C - 1| over the Gram matrix of the columns of C (of every C in a stack)."""
    gram = cols.conj().swapaxes(-1, -2) @ cols
    diag = np.arange(gram.shape[-1])
    gram[..., diag, diag] -= 1.0  # subtract the identity in place
    return float(np.abs(gram).max(initial=0.0))


@dataclass(frozen=True)
class AmplitudeTable:
    """Transition amplitudes of one sector at a fixed time (or times), for some sources.

    ``sources`` lists the source configurations (ascending site tuples) whose
    columns are stored; ``None`` stores all of them in basis order, i.e. the
    full d x d table.  ``amplitudes[target, c]`` is
    <target| exp(-i H_k t) |sources[c]> with targets in the sector's subset
    basis.  With an array of T times, ``amplitudes`` is (T, d, c) and every
    lookup returns one value per time.  The stored columns must be
    orthonormal at every time, |f^dag f - 1| <= 1e-10 (for a full table: f is
    unitary); otherwise :class:`NumericalError` is raised at construction.
    ``free_fermion`` is the building propagator's verdict (see Conventions).
    """

    sector: ExcitationSector
    time: float | np.ndarray
    amplitudes: np.ndarray
    sources: tuple = None
    free_fermion: bool = False

    def __post_init__(self):
        f = np.asarray(self.amplitudes)
        d = self.sector.dimension
        width = d if self.sources is None else len(self.sources)
        if f.shape != np.shape(self.time) + (d, width):
            raise ValueError(f"amplitude matrix must be {d}x{width} per time, got {f.shape}")
        dev = orthonormality_defect(f)
        if dev > UNITARITY_ATOL:
            raise NumericalError(f"amplitude columns are not orthonormal (deviation {dev:.2e})")

    def _column(self, source) -> int:
        if self.sources is None:
            return self.sector.index_of(source)
        key = tuple(sorted(check_sites(source, self.sector.n_sites, "source")))
        try:
            return self.sources.index(key)
        except ValueError:
            raise ValueError(f"source {source} is not among the stored columns {self.sources}") from None

    def column(self, source) -> np.ndarray:
        """All target amplitudes of one stored source configuration."""
        return self.amplitudes[..., self._column(source)]

    def amplitude(self, source, target) -> complex:
        """Amplitude between two configurations given as site subsets."""
        return self.amplitudes[..., self.sector.index_of(target), self._column(source)]

    def site_amplitude(self, i: int, j: int) -> complex:
        """One-excitation amplitude f_i^j (requires a k=1 table)."""
        if self.sector.excitation_count != 1:
            raise ValueError("site_amplitude needs a one-excitation table")
        return self.amplitude((i,), (j,))


def build_sector_hamiltonian(network: SpinNetwork, k: int) -> SectorHamiltonian:
    """Real symmetric Hamiltonian restricted to the k-excitation sector.

    Off-diagonal elements are 2*J_ij between configurations differing by one
    excitation hop from i to j; the diagonal holds the
    :meth:`SpinNetwork.diagonal_energy` of each configuration measured from
    the vacuum's, so the k = 0 sector is the scalar 0.  All hops are
    found at once: every (configuration, ordered bond (i, j)) pair with i
    occupied and j empty gives one element, in (configuration, bond) order.
    """
    sector = ExcitationSector(network.n_sites, k)
    occupied = sector.occupation()
    diagonal = network.diagonal_energy(occupied) - network.diagonal_energy()
    bond_i, bond_j = np.nonzero(network.xy)
    src, bond = np.nonzero(occupied[:, bond_i] & ~occupied[:, bond_j])
    i, j = bond_i[bond], bond_j[bond]
    rows = sector.sites[src]
    hopped = np.where(rows == i[:, None], j[:, None], rows)
    if not network.is_open_chain():  # on a chain a hop to an empty neighbour keeps the row ascending
        hopped.sort(axis=1)
    return SectorHamiltonian(sector, diagonal, sector.positions(hopped), src, 2.0 * network.xy[i, j])


class SectorPropagator:
    """Sector propagator exp(-i H_k t), reusable across many times.

    Builds the sector Hamiltonian once.  Each table's columns come from the
    Chebyshev series or from a real-symmetric ``eigh``, by the selection rule
    of the module docstring; ``eigh`` runs at most once, inside the first
    table that needs it, and its eigenbasis is checked to be orthonormal to
    1e-10 (:class:`NumericalError` otherwise).  ``free_fermion``: see Conventions.
    """

    def __init__(self, network: SpinNetwork, k: int):
        self.hamiltonian = build_sector_hamiltonian(network, k)
        self.sector = self.hamiltonian.sector
        self.free_fermion = network.is_open_chain() and not network.zz.any()
        self._eigen = None  # (E, V) once diagonalised
        self._chebyshev_seconds = 0.0  # estimated cost of the Chebyshev tables built so far

    def table(self, t, sources=None) -> AmplitudeTable:
        """Amplitudes at time t from the listed source configurations (all if None).

        ``t`` is a time or a 1-D array of T times (:func:`check_times`); the
        table then holds a leading time axis.  Any finite times work, negative
        and zero included, in any order.
        """
        time = check_times(t)
        times = np.asarray(time)
        if sources is None:
            rows = slice(None)
        else:
            sources = tuple(tuple(sorted(s)) for s in sources)
            if len(set(sources)) != len(sources):
                raise ValueError(f"source configurations {sources} contain duplicates")
            rows = [self.sector.index_of(s) for s in sources]
        terms = None if sources is None or self._eigen is not None else self._affordable_terms(times, len(rows))
        if terms is None:
            f = self._eigh_columns(times, rows)
        else:
            f = self._chebyshev_columns(times, rows, terms)
        return AmplitudeTable(self.sector, time, f, sources, self.free_fermion)

    def _affordable_terms(self, times: np.ndarray, width: int):
        """Term count of a Chebyshev table, or None where ``eigh`` is cheaper.

        Charges the table's estimated cost to this propagator when it is
        taken: the Chebyshev tables of one propagator together stay below the
        estimated cost of one ``eigh``.
        """
        d = self.sector.dimension
        step = (CHEBYSHEV_STEP_SECONDS + CHEBYSHEV_SECONDS_PER_NONZERO * self.hamiltonian.nnz * width
                + times.size * (CHEBYSHEV_SECONDS_PER_TIME + CHEBYSHEV_SECONDS_PER_ENTRY * d * width))
        budget = EIGH_SECONDS_PER_D3 * d**3 - self._chebyshev_seconds
        if step >= budget:  # not even one step pays; skip the term count
            return None
        low, high = self.hamiltonian.spectral_bounds
        x = 0.5 * (high - low) * np.abs(times).max(initial=0.0)
        if np.ceil(x) * step >= budget:  # the series takes more than x terms; skip their count
            return None
        terms = chebyshev_terms(x)
        if terms * step >= budget:
            return None
        self._chebyshev_seconds += terms * step
        return terms

    def _eigh_columns(self, times: np.ndarray, rows) -> np.ndarray:
        """V (exp(-iEt) * V[rows, :]^T) for every time, as one real product; (T..., d, c)."""
        if self._eigen is None:
            eigvals, eigvecs = np.linalg.eigh(self.hamiltonian.matrix)
            dev = orthonormality_defect(eigvecs)
            if dev > UNITARITY_ATOL:
                raise NumericalError(f"sector eigenbasis is not orthonormal (deviation {dev:.2e})")
            self._eigen = eigvals, eigvecs
        eigvals, eigvecs = self._eigen
        d = self.sector.dimension
        phases = np.exp(np.multiply.outer(-1j * times, eigvals)).T  # (d,) or (d, T)
        # block[e, (time,) c] = exp(-i E_e t) V[sources[c], e]
        cols = eigvecs[rows].T.reshape((d,) + (1,) * times.ndim + (-1,))
        block = np.multiply(phases[..., None], cols, order="C")
        # real V times the complex block as one real product over interleaved (re, im) columns
        f = (eigvecs @ block.reshape(d, -1).view(float)).view(complex).reshape(block.shape)
        return f.swapaxes(0, -2)  # (d, T..., c) -> (T..., d, c): a view, a no-op without the time axis

    def _chebyshev_columns(self, times: np.ndarray, rows: list, terms: int) -> np.ndarray:
        """Chebyshev series of exp(-iHt) on the unit columns ``rows``, every time at once; (T..., d, c)."""
        return unit_columns(self.hamiltonian.sparse, self.hamiltonian.spectral_bounds, rows, times, terms)


def reduced_state(table: AmplitudeTable, source, keep) -> np.ndarray:
    """Reduced state on the sites ``keep`` of the evolved configuration ``source``.

    The stored column psi = exp(-i H_k t)|source> is a pure state of the
    whole network, and the state on the q kept sites is its partial trace,
    (2^q, 2^q) per time (keep[0] is the most significant qubit), with a
    leading time axis if the table has one.  Every configuration splits into
    m kept excitations and k - m elsewhere, so the state is block diagonal in
    m and each block is G_m G_m^dag, where G_m gathers psi into (kept pattern,
    rest configuration) of ExcitationSector(n - q, k - m); the work and memory
    stay O(T d).  The table's Gram check guarantees a unit trace to 1e-10.
    """
    sector = table.sector
    n, k = sector.n_sites, sector.excitation_count
    keep = check_sites(keep, n, "kept")
    q, d = len(keep), sector.dimension
    psi = table.column(source)
    flat = psi.reshape(-1, d)
    occupied = sector.occupation()
    kept = occupied[:, keep]
    rest = occupied[:, np.setdiff1d(np.arange(n), keep)]
    pattern, count = kept @ (1 << np.arange(q)[::-1]), kept.sum(axis=1)
    pattern_count = np.array([bin(p).count("1") for p in range(1 << q)])
    rho = np.zeros((flat.shape[0], 1 << q, 1 << q), dtype=complex)
    for m in range(max(0, k - (n - q)), min(q, k) + 1):
        members = np.flatnonzero(count == m)
        patterns = np.flatnonzero(pattern_count == m)  # kept patterns with m excitations, ascending
        env = ExcitationSector(n - q, k - m)
        env_sites = np.nonzero(rest[members])[1].reshape(members.size, k - m)
        g = np.zeros((flat.shape[0], patterns.size, env.dimension), dtype=complex)
        g[:, np.searchsorted(patterns, pattern[members]), env.positions(env_sites)] = flat[:, members]
        rho[:, patterns[:, None], patterns] = g @ g.conj().swapaxes(-1, -2)
    return rho.reshape(psi.shape[:-1] + rho.shape[1:])
