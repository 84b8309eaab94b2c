"""Brute-force evolution of the full 2^N network as ground truth.

Site 0 occupies the leftmost (most significant) position of the basis
bitstring; bit value 1 marks an excited spin (sigma^z = +1).

The Hamiltonian is real symmetric (hopping elements 2 J_ij, a real
diagonal), so it is stored as a dense float64 matrix (8 * 4^N bytes) and
diagonalised once with a real-symmetric ``eigh``; ``U(t) = V e^{-iEt} V^T``.
No time point forms a 2^N x 2^N matrix unless a caller asks for one through
:meth:`FullPropagator.unitary` or the density-matrix branch of
:meth:`FullPropagator.evolve`.  :func:`reduced_output` evolves only the 2^k
embedded sender columns ``U(t)[:, embed]`` and contracts them with the sender
state straight into the receiver state.

This module builds the full space itself and shares no code with the sector
engine, so that it stays an independent check of it.

Peak memory of the build is about five times the 8 * 4^N bytes of H
(measured peak RSS: +167 MB at N = 11, +653 MB at N = 12).  :func:`max_sites`
turns that estimate and the machine's physical memory into the largest
network the oracle accepts, never more than ``SITE_CEILING``; every caller
that builds the dense space checks it through :func:`require_dense_sites`.
Outside the tests those callers are the ``verify.oracle`` check of a
scenario run and ``spinmaps verify``; no scenario computes its results here.
"""

from __future__ import annotations

import os

import numpy as np

from .maps import assert_density_matrix, partial_trace_outer
from .network import SpinNetwork, basis_index

SITE_CEILING = 14


def dense_peak_bytes(n_sites: int) -> int:
    """Estimated peak memory of a :class:`FullPropagator` on ``n_sites`` sites.

    Five float64 arrays the size of H, 5 * 8 * 4^N bytes (measured at N = 11, 12).
    """
    return 5 * 8 * 4**n_sites


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


MAX_SITES = max_sites()  # the cap on this machine, fixed at import


def full_hamiltonian(network: SpinNetwork) -> np.ndarray:
    """Dense real-symmetric 2^N Hamiltonian assembled from the network couplings."""
    n = network.n_sites
    require_dense_sites(n, "dense Hamiltonian")
    dim = 1 << n
    shifts = n - 1 - np.arange(n)
    bits = (np.arange(dim)[:, None] >> shifts) & 1
    s = 2.0 * bits - 1.0
    diag = s @ network.fields + 0.5 * np.einsum("bi,ij,bj->b", s, network.zz, s)
    h = np.diag(diag)
    states = np.arange(dim)
    for i in range(n):
        for j in range(i + 1, n):
            if network.xy[i, j] == 0.0:
                continue
            movable = (bits[:, i] == 1) & (bits[:, j] == 0)
            src = states[movable]
            dst = src - (1 << (n - 1 - i)) + (1 << (n - 1 - j))
            h[dst, src] += 2.0 * network.xy[i, j]
            h[src, dst] += 2.0 * network.xy[i, j]
    return h


def _real_matmul(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``a @ z`` for real ``a`` and complex ``z`` without casting ``a`` to complex."""
    z = np.ascontiguousarray(z, dtype=complex)
    pairs = z.reshape(z.shape[0], -1).view(float)  # real and imaginary parts side by side
    return (a @ pairs).view(complex).reshape(a.shape[:1] + z.shape[1:])


class FullPropagator:
    """Eigendecomposed full-space propagator, reusable across times."""

    def __init__(self, network: SpinNetwork):
        self.network = network
        self.eigvals, self.eigvecs = np.linalg.eigh(full_hamiltonian(network))

    def unitary(self, t: float) -> np.ndarray:
        phases = np.exp(-1j * self.eigvals * t)
        return (self.eigvecs * phases) @ self.eigvecs.T

    def columns(self, indices, t: float) -> np.ndarray:
        """``unitary(t)[:, indices]`` at O(4^N) cost per column."""
        phases = np.exp(-1j * self.eigvals * t)
        return _real_matmul(self.eigvecs, phases[:, None] * self.eigvecs[indices].T)

    def evolve(self, state: np.ndarray, t: float) -> np.ndarray:
        """Evolve a state vector (O(4^N)) or density matrix (O(8^N)) by time t."""
        state = np.asarray(state, dtype=complex)
        if state.ndim == 1:
            phases = np.exp(-1j * self.eigvals * t)
            return _real_matmul(self.eigvecs, phases * _real_matmul(self.eigvecs.T, state))
        u = self.unitary(t)
        return u @ state @ u.conj().T


def full_evolve(network: SpinNetwork, state: np.ndarray, t: float) -> np.ndarray:
    """One-shot evolution of a vector or density matrix of the whole network."""
    return FullPropagator(network).evolve(state, t)


def _embedding(network: SpinNetwork, rho_s: np.ndarray, sender_sites):
    """Validated sender state and the full-space index of each of its basis states."""
    sender_sites = list(sender_sites)
    n = network.n_sites
    if len(set(sender_sites)) != len(sender_sites):
        raise ValueError(f"sender sites {sender_sites} contain duplicates")
    if any(not 0 <= s < n for s in sender_sites):
        raise ValueError(f"sender sites {sender_sites} out of range for {n} sites")
    k = len(sender_sites)
    rho_s = np.asarray(rho_s, dtype=complex)
    if rho_s.shape != (2**k, 2**k):
        raise ValueError(f"sender state shape {rho_s.shape} does not match {k} sites")
    embed = []
    for a in range(2**k):
        occupied = [site for q, site in enumerate(sender_sites) if (a >> (k - 1 - q)) & 1]
        embed.append(basis_index(occupied, n))
    return rho_s, embed


def initial_density(network: SpinNetwork, rho_s: np.ndarray, sender_sites) -> np.ndarray:
    """Embed a sender state into the network with the rest fully polarised."""
    rho_s, embed = _embedding(network, rho_s, sender_sites)
    dim = 1 << network.n_sites
    sigma = np.zeros((dim, dim), dtype=complex)
    sigma[np.ix_(embed, embed)] = rho_s
    return sigma


def reduced_output(
    network: SpinNetwork,
    rho_s: np.ndarray,
    sender_sites,
    receiver_sites,
    t: float,
    propagator: FullPropagator | None = None,
) -> np.ndarray:
    """Exact reduced state on the receiver sites after full evolution.

    The sender state is placed on ``sender_sites`` (in the given qubit order),
    every other spin starts in |0>, the whole network evolves for time t, and
    all sites except ``receiver_sites`` are traced out (receiver qubit order
    follows the given site order).

    With C = U(t)[:, embed] the evolved state is C rho_s C^dag, so only the
    2^k embedded columns are evolved and the trace over the other sites is
    taken on C directly.
    """
    receiver_sites = list(receiver_sites)
    n = network.n_sites
    if len(set(receiver_sites)) != len(receiver_sites):
        raise ValueError(f"receiver sites {receiver_sites} contain duplicates")
    if any(not 0 <= r < n for r in receiver_sites):
        raise ValueError(f"receiver sites {receiver_sites} out of range for {n} sites")
    rho_s, embed = _embedding(network, rho_s, sender_sites)
    prop = propagator or FullPropagator(network)
    cols = prop.columns(embed, t)
    out = partial_trace_outer(cols @ rho_s, cols, receiver_sites, [2] * n)
    assert_density_matrix(out, atol=1e-8, eig_floor=-1e-8)
    return out


def magnetization_expectation(state: np.ndarray) -> float:
    """Expectation of the total sigma^z for a vector or density-matrix state."""
    state = np.asarray(state)
    dim = state.shape[0]
    n = dim.bit_length() - 1
    if 1 << n != dim:
        raise ValueError(f"state dimension {dim} is not a power of 2")
    weights = np.array([2 * bin(b).count("1") - n for b in range(dim)], dtype=float)
    if state.ndim == 1:
        return float(weights @ (np.abs(state) ** 2))
    return float(weights @ np.diag(state).real)
