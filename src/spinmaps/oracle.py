"""Brute-force evolution of the full 2^N network as ground truth.

Site 0 occupies the leftmost (most significant) position of the basis
bitstring; bit value 1 marks an excited spin (sigma^z = +1).  This module
is the only one that indexes the 2^N space (:func:`basis_index`).

The Hamiltonian is real symmetric (hopping elements 2 J_ij, a real
diagonal).  :func:`hamiltonian_elements` builds it in one vectorised pass as
its diagonal and its hops, and the two ways to evolve take their matrix from
them:

* :func:`reduced_output`, by default, evolves only the embedded sender
  columns ``U(t)[:, embed]`` with the Chebyshev series of
  :mod:`spinmaps.chebyshev` on the range- and Hermiticity-checked CSR matrix
  of :func:`~spinmaps.chebyshev.symmetric_csr` (spectrum bounded by Gershgorin
  discs), for every time of a grid in one recurrence.  It never
  forms or diagonalises a dense 2^N matrix.
* :class:`FullPropagator` forms the dense float64 matrix
  (:func:`full_hamiltonian`, 8 * 4^N bytes) and diagonalises it once with a
  real-symmetric ``eigh``; ``U(t) = V e^{-iEt} V^T``.  ``spinmaps verify``
  compares every sector table with its block of the full U(t), and the tests
  use it as the cross-check of the series.  No time point forms a 2^N x 2^N
  matrix unless a caller asks for one through :meth:`FullPropagator.unitary`.

Either way :func:`reduced_output` contracts the columns with the sender state
straight into the receiver state; given a 1-D grid of T times it returns a
(T, 2^r, 2^r) stack of receiver states.  The columns must be orthonormal to
1e-10 on every slice (:class:`NumericalError` otherwise).

This module builds the full space itself and shares with the sector engine
only the network description and the series, its CSR conversion included, so
that it stays an independent check of it: each side builds its own Hamiltonian
elements and bounds, and keeps an ``eigh`` path the tests compare it against.

Memory caps, both never above ``SITE_CEILING`` sites:

* the series path needs :func:`series_peak_bytes`, a few MB at N = 14 for a
  short grid, its Chebyshev terms included; :func:`require_series_memory` checks
  it against physical memory for ``verify.oracle`` and :func:`reduced_output`.
* the dense build needs about five times the 8 * 4^N bytes of H (measured
  peak RSS: +167 MB at N = 11, +653 MB at N = 12).  :func:`max_sites` turns
  that estimate into the largest network :func:`full_hamiltonian` (so
  :class:`FullPropagator`) and ``spinmaps verify --sites`` accept, through
  :func:`require_dense_sites`.

No scenario computes its results here.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .chebyshev import block_width, chebyshev_terms, negligible_order, symmetric_csr, unit_columns
from .maps import assert_density_matrix, partial_trace_outer
from .network import UNITARITY_ATOL, NumericalError, SpinNetwork, check_sites, check_times, orthonormality_defect

SITE_CEILING = 14


def dense_peak_bytes(n_sites: int) -> int:
    """Estimated peak memory of a :class:`FullPropagator` on ``n_sites`` sites.

    Five float64 arrays the size of H, 5 * 8 * 4^N bytes (measured at N = 11, 12).
    """
    return 5 * 8 * 4**n_sites


def series_peak_bytes(n_sites: int, bonds: int, columns: int, times: int, terms: int) -> int:
    """Estimated peak memory of :func:`reduced_output` on the Chebyshev series path of ``terms`` terms.

    80 bytes per stored element of the sparse Hamiltonian (2^N diagonal
    elements and 2^(N-1) hops per XY bond) for its build, plus 96 bytes per
    entry of the (times, 2^N, columns) complex column stack, which is held
    about five times over (the series' sums and their combination, then the
    copies the partial trace makes), plus the series' (B + 2, 2^N x columns)
    float64 block, B its :func:`~spinmaps.chebyshev.block_width`, plus 40
    bytes per entry of the Bessel weights' (times, M) FFT, M the power of two
    at or above 2 * terms, and 16 per (terms + B, times) weight, zero-padded
    to whole blocks.  Measured with ``tracemalloc``: 49-61 bytes per build
    element (N = 12, 14, chain and all-to-all), 80 per stack entry (N = 11-13,
    T = 2-1000, 2-16 columns), 32-38 per FFT entry (T = 2-400, K = 150-50 000).
    The block is freed before the sums are combined, and its width keeps it
    within the sums or 1 MB, so it leaves the measured peak unchanged.
    """
    dim, fft = 1 << n_sites, 1 << (2 * terms - 1).bit_length()
    width = block_width(terms, dim * columns, times)
    return (80 * (dim + bonds * dim // 2) + 96 * dim * columns * times + 8 * (width + 2) * dim * columns
            + 40 * times * fft + 16 * (terms + width) * times)


def physical_memory_bytes() -> int:
    """Physical memory of this machine, from ``os.sysconf``."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def max_sites() -> int:
    """Largest network whose dense build fits in physical memory, at most ``SITE_CEILING``."""
    memory = physical_memory_bytes()
    n = 0
    while n < SITE_CEILING and dense_peak_bytes(n + 1) <= memory:
        n += 1
    return n


def require_dense_sites(n_sites: int, what: str) -> None:
    """Raise ValueError, naming ``what`` and the memory estimate, above :func:`max_sites`."""
    cap = max_sites()
    if n_sites > cap:
        gib = 2.0**30
        raise ValueError(
            f"{what}: {n_sites} sites exceed the dense-oracle cap of {cap} sites "
            f"(estimated peak {dense_peak_bytes(n_sites) / gib:.3g} GiB = 5 x 8*4^{n_sites} bytes, "
            f"physical memory {physical_memory_bytes() / gib:.3g} GiB, ceiling {SITE_CEILING} sites)"
        )


def require_series_memory(network: SpinNetwork, columns: int, times: np.ndarray, what: str) -> None:
    """Raise ValueError, naming ``what`` and the memory estimate, where the series path does not fit.

    The path accepts at most ``SITE_CEILING`` sites and a :func:`series_peak_bytes`
    estimate within physical memory on the grid ``times``, its terms bounded by :func:`negligible_order`
    of max|t| (sum|h| + sum_{i<j} |zz_ij| + 2 sum_{i<j} |J_ij|), which bounds the series' Gershgorin interval.
    """
    n, bonds = network.n_sites, int(np.count_nonzero(np.triu(network.xy, 1)))
    with np.errstate(over="ignore"):  # an overflow is an infinite estimate
        x = np.abs(times).max(initial=0.0) * (np.abs(network.fields).sum() + 0.5 * np.abs(network.zz).sum()
                                              + np.abs(network.xy).sum())
    terms = negligible_order(x) if np.isfinite(x) else math.inf
    need = series_peak_bytes(n, bonds, columns, times.size, terms) if np.isfinite(x) else math.inf
    memory = physical_memory_bytes()
    if n > SITE_CEILING or need > memory:
        gib = 2.0**30
        raise ValueError(
            f"{what}: {n} sites, {columns} columns and {times.size} times exceed the series-oracle cap "
            f"(estimated peak {need / gib:.3g} GiB for at most {terms} Chebyshev terms, "
            f"physical memory {memory / gib:.3g} GiB, ceiling {SITE_CEILING} sites)"
        )


MAX_SITES = max_sites()  # the cap on this machine, fixed at import


def hamiltonian_elements(network: SpinNetwork) -> tuple:
    """(diagonal, rows, cols, values) of the real symmetric 2^N Hamiltonian.

    ``diagonal[b]`` is the field and ZZ energy of basis state b minus that of
    basis state 0, the vacuum, as the sector engine measures it; hop h is the
    element ``values[h]`` = 2 J_ij at (``rows[h]``, ``cols[h]``), between two
    states that differ by one excitation on bond (i, j), in both directions,
    and no position repeats.  Every bond is read as ``xy[i, j]`` with i < j.
    """
    n = network.n_sites
    dim = 1 << n
    shifts = n - 1 - np.arange(n)
    bits = (np.arange(dim)[:, None] >> shifts) & 1
    s = 2.0 * bits - 1.0
    energy = s @ network.fields + 0.5 * np.einsum("bi,ij,bj->b", s, network.zz, s)
    diagonal = energy - energy[0]
    i, j = np.nonzero(np.triu(network.xy, 1))
    cols, bond = np.nonzero(bits[:, i] != bits[:, j])  # one of the two sites excited: it can hop
    rows = cols ^ ((1 << shifts[i]) | (1 << shifts[j]))[bond]
    return diagonal, rows, cols, 2.0 * network.xy[i, j][bond]


def full_hamiltonian(network: SpinNetwork) -> np.ndarray:
    """Dense real-symmetric 2^N Hamiltonian, formed from :func:`hamiltonian_elements`."""
    require_dense_sites(network.n_sites, "dense Hamiltonian")
    diagonal, rows, cols, values = hamiltonian_elements(network)
    h = np.diag(diagonal)
    h[rows, cols] = values
    return h


def basis_index(occupied, n_sites: int):
    """Full-space index of a configuration (site 0 = leftmost bit), or of each row of an array of them."""
    return (1 << (n_sites - 1 - np.asarray(occupied, dtype=np.intp))).sum(axis=-1)


def _real_matmul(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``a @ z`` for square real ``a`` and a complex vector, matrix or stack ``z``, in real arithmetic."""
    z = np.ascontiguousarray(z, dtype=complex)
    pairs = (z[:, None] if z.ndim == 1 else z).view(float)  # real and imaginary parts side by side
    return (a @ pairs).view(complex).reshape(z.shape)


class FullPropagator:
    """Eigendecomposed full-space propagator, reusable across times."""

    def __init__(self, network: SpinNetwork):
        self.network = network
        self.eigvals, self.eigvecs = np.linalg.eigh(full_hamiltonian(network))

    def unitary(self, t: float) -> np.ndarray:
        return self.columns(slice(None), t)

    def columns(self, indices, t) -> np.ndarray:
        """``unitary(t)[:, indices]`` at O(4^N) cost per column and time.

        A 1-D array of T times gives a (T, 2^N, len(indices)) stack.
        """
        phases = np.exp(-1j * self.eigvals * np.asarray(t, dtype=float)[..., None])
        return _real_matmul(self.eigvecs, phases[..., None] * self.eigvecs[indices].T)

    def evolve(self, psi: np.ndarray, t: float) -> np.ndarray:
        """Evolve a state vector by time t, at O(4^N)."""
        psi = np.asarray(psi, dtype=complex)
        if psi.ndim != 1:
            raise ValueError(f"evolve takes a state vector, got shape {psi.shape}")
        phases = np.exp(-1j * self.eigvals * t)
        return _real_matmul(self.eigvecs, phases * _real_matmul(self.eigvecs.T, psi))


def _embedding(network: SpinNetwork, rho_s: np.ndarray, sender_sites):
    """Validated sender state (a density matrix) and the full-space index of each of its basis states."""
    n = network.n_sites
    sender_sites = check_sites(sender_sites, n, "sender")
    k = len(sender_sites)
    rho_s = np.asarray(rho_s, dtype=complex)
    if rho_s.shape != (2**k, 2**k):
        raise ValueError(f"sender state shape {rho_s.shape} does not match {k} sites")
    try:
        assert_density_matrix(rho_s)
    except ValueError as exc:
        raise ValueError(f"sender state: {exc}") from exc
    embed = []
    for a in range(2**k):
        occupied = [site for q, site in enumerate(sender_sites) if (a >> (k - 1 - q)) & 1]
        embed.append(basis_index(occupied, n))
    return rho_s, embed


def _series_columns(network: SpinNetwork, embed: list, times: np.ndarray) -> np.ndarray:
    """``U(t)[:, embed]`` for every time, from the Chebyshev series on the sparse 2^N Hamiltonian."""
    diagonal, rows, cols, values = hamiltonian_elements(network)
    radius = np.bincount(rows, np.abs(values), minlength=diagonal.size)
    low, high = float((diagonal - radius).min()), float((diagonal + radius).max())  # Gershgorin
    terms = chebyshev_terms(0.5 * (high - low) * np.abs(times).max(initial=0.0))
    return unit_columns(symmetric_csr(diagonal, rows, cols, values), (low, high), embed, times, terms)


def reduced_output(
    network: SpinNetwork,
    rho_s: np.ndarray,
    sender_sites,
    receiver_sites,
    t,
    propagator: FullPropagator | None = None,
) -> np.ndarray:
    """Exact reduced state on the receiver sites after full evolution.

    The sender state, a density matrix checked before any evolution
    (ValueError naming it), is placed on ``sender_sites`` (in the given qubit
    order), every other spin starts in |0>, the whole network evolves for
    time t, and all sites except ``receiver_sites`` are traced out (receiver
    qubit order follows the given site order).  A 1-D array of T times, in any order and
    possibly empty, gives a stack of T receiver states.  Sites and times are
    read by :func:`spinmaps.network.check_sites` and :func:`~spinmaps.network.check_times`.

    With C = U(t)[:, embed] the evolved state is C rho_s C^dag, so only the
    embedded columns are evolved, and of those only the ones rho_s weighs (a
    basis state needs one); the trace over the other sites is taken on C
    directly.  Without a ``propagator`` the columns come from the
    Chebyshev series on the sparse Hamiltonian, within the memory cap of
    :func:`require_series_memory`; with one, from its eigendecomposition.
    Either way the columns must stay orthonormal, |C^dag C - 1| <= 1e-10 at
    every time, or :class:`NumericalError` is raised.
    """
    n = network.n_sites
    receiver_sites = check_sites(receiver_sites, n, "receiver")
    rho_s, embed = _embedding(network, rho_s, sender_sites)
    times = np.asarray(check_times(t))
    if times.size == 0:
        dim = 1 << len(receiver_sites)
        return np.zeros((0, dim, dim), dtype=complex)
    weighed = rho_s != 0  # a column enters C rho_s C^dag only where rho_s weighs it
    support = np.flatnonzero(weighed.any(axis=0) | weighed.any(axis=1))
    embed, rho_s = [embed[a] for a in support], rho_s[np.ix_(support, support)]
    if propagator is None:
        require_series_memory(network, len(embed), times, "oracle series")
        cols = _series_columns(network, embed, times)
    else:
        cols = propagator.columns(embed, times)
    dev = orthonormality_defect(cols)
    if dev > UNITARITY_ATOL:
        raise NumericalError(f"oracle columns are not orthonormal (deviation {dev:.2e})")
    out = partial_trace_outer(cols @ rho_s, cols, receiver_sites, [2] * n)
    assert_density_matrix(out, atol=1e-8, eig_floor=-1e-8)
    return out
