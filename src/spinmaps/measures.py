"""Entanglement measures: concurrence, X-state closed forms, tangles.

All measures are clipped to [0, 1] after a -1e-9 tolerance window to absorb
eigenvalue noise from partial traces.

Time grids are a leading axis: :func:`concurrence` takes a (T, 4, 4) stack of
states, :func:`four_qubit_measures` and the pure-state measures a (T, 2^n)
stack of state vectors, and :func:`transferred_concurrence` and
:func:`dual_rail_concurrence` an array of amplitudes; each then returns one
value per slice.  Every clip, norm and amplitude-bound check runs on every
slice at its usual tolerance and raises the same error as for a single state.
Pure states are checked by :func:`spinmaps.maps.unit_vector` and reduced by
:func:`spinmaps.maps.partial_trace_outer` of the state with itself.

:func:`concurrence` has two routes.  The X-state closed form serves the
slices of a (T, 4, 4) stack that are X states (exact zeros off the diagonal
and anti-diagonal) with every eigenvalue above 2e-14 of the largest; every
state a U(1) map makes from a Werner, Bell or basis input is X, and so is
every pair marginal of a fixed-excitation four-qubit state.  All other slices,
and a single state, where selecting would cost more than it saves, take the
eigenvector route.  That route zeroes eigenvalues below 1e-14 of the largest,
which moves a near-singular state's concurrence by up to about 2e-7; the
closed form is kept off such slices so that both routes give the same values
to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import amplitude_modulus, partial_trace_outer, unit_vector

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYSY = np.kron(_SY, _SY).real
_SY4 = np.kron(_SYSY, _SYSY)

CLIP_TOL = 1e-9

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")


def _clip_unit(x):
    """Clip a value (or every entry of an array) to [0, 1] after a ``CLIP_TOL`` window."""
    x = np.asarray(x, dtype=float)
    outside = (x < -CLIP_TOL) | (x > 1.0 + CLIP_TOL)
    if outside.any():
        raise ValueError(f"measure value {x[outside][0]} outside [0, 1] beyond tolerance")
    clipped = np.minimum(np.maximum(x, 0.0), 1.0)
    return float(clipped) if clipped.ndim == 0 else clipped


def bell_state(label: str) -> np.ndarray:
    """Bell vector; phi+- = (|00> +- |11>)/sqrt2, psi+- = (|01> +- |10>)/sqrt2."""
    s = 1.0 / np.sqrt(2.0)
    table = {
        "phi+": [s, 0, 0, s],
        "phi-": [s, 0, 0, -s],
        "psi+": [0, s, s, 0],
        "psi-": [0, s, -s, 0],
    }
    if label not in BELL_LABELS:  # not the dict: an unhashable label is unknown, not a TypeError
        raise ValueError(f"unknown Bell label {label!r}, expected one of {BELL_LABELS}")
    return np.array(table[label], dtype=complex)


def werner_state(p: float, bell: str = "psi+") -> np.ndarray:
    """p-weighted mixture of a Bell projector with the maximally mixed state."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Werner weight must be in [0, 1], got {p}")
    psi = bell_state(bell)
    return p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0


def _x_concurrence(p00, p11, p22, p33, rho03, rho12):
    """2 max(0, |rho12| - sqrt(p00 p33), |rho03| - sqrt(p11 p22)), unclipped, of X states (or arrays of them).

    The closed-form Wootters concurrence of a state with support on the
    diagonal and anti-diagonal only (Wootters, PRL 80, 2245 (1998); Yu and
    Eberly, Quantum Inf. Comput. 7, 459 (2007)).
    """
    c1 = abs(rho12) - np.sqrt(np.maximum(p00 * p33, 0.0))  # abs: Python's correctly rounded modulus on a scalar
    c2 = abs(rho03) - np.sqrt(np.maximum(p11 * p22, 0.0))
    return 2.0 * np.maximum(0.0, np.maximum(c1, c2))


# the eight entries of a 4 x 4 matrix off the diagonal and the anti-diagonal
_OFF_X = (np.eye(4) + np.eye(4)[::-1]) == 0
# twice the eigen-cutoff of _eigen_concurrence: a block eigenvalue above it stays above the cutoff in eigh,
# whose eigenvalues are off by about 1e-16 of the largest
_CLOSED_FORM_FLOOR = 2e-14


def _closed_form_slices(rho: np.ndarray) -> np.ndarray:
    """Which slices of a (T, 4, 4) stack take the X-state closed form.

    A slice qualifies when its eight off-X entries are exactly zero and the
    two eigenvalues of each of its 2 x 2 blocks, (0, 3) and (1, 2), lie above
    ``_CLOSED_FORM_FLOOR`` times the largest: there the eigen-cutoff of
    :func:`_eigen_concurrence` drops nothing, so both routes compute the same
    quantity.  Like ``eigh``, the blocks read the real diagonal and the lower
    triangle.  A non-finite slice fails the comparison and does not qualify.
    """
    p = rho.diagonal(axis1=-2, axis2=-1).real
    with np.errstate(invalid="ignore", over="ignore"):  # an infinite or NaN bound fails the comparison
        mean = 0.5 * (p[:, [0, 1]] + p[:, [3, 2]])
        radius = np.hypot(0.5 * (p[:, [0, 1]] - p[:, [3, 2]]), np.abs(rho[:, [3, 2], [0, 1]]))
        full_rank = (mean - radius).min(axis=-1) > _CLOSED_FORM_FLOOR * (mean + radius).max(axis=-1)
    return full_rank & ~rho[:, _OFF_X].any(axis=-1)


def _eigen_concurrence(rho: np.ndarray) -> np.ndarray:
    """Unclipped Wootters concurrence of any two-qubit state (or stack), through its eigenvectors.

    The lambda_i are the decreasing square-rooted eigenvalues of
    rho (sy x sy) rho* (sy x sy); they are evaluated here as the singular
    values of the symmetric overlap matrix of the subnormalized eigenvectors
    of rho, which is exact on rank-deficient states where the direct
    eigenvalue route loses half the working precision to the square root.
    Eigen-directions below 1e-14 of the largest eigenvalue are zeroed.  That
    is not exact: dropping an eigenvalue w removes about sqrt(w) from the
    lambda_i, so a state with such an eigenvalue can read a concurrence off
    by up to about sqrt(1e-14) = 1e-7 (of a unit-trace state) per eigenvalue
    dropped.
    """
    w, v = np.linalg.eigh(rho)
    keep = w > np.maximum(w.max(axis=-1, keepdims=True), 0.0) * 1e-14
    x = v * np.sqrt(np.where(keep, w, 0.0))[..., None, :]
    lam = np.linalg.svd(x.swapaxes(-1, -2) @ _SYSY @ x, compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1:].sum(axis=-1))


def concurrence(rho: np.ndarray):
    """Wootters concurrence of a two-qubit density matrix (or a (T, 4, 4) stack).

    A single state goes through :func:`_eigen_concurrence`.  In a stack, the
    slices :func:`_closed_form_slices` selects (X states whose blocks keep
    every eigenvalue above the eigen-cutoff) take the X-state closed form, and
    the rest go through :func:`_eigen_concurrence` in one batched call.  On a
    single state the selection would cost more than it saves.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 state, got {rho.shape}")
    if rho.ndim == 2:
        return _clip_unit(_eigen_concurrence(rho))
    closed = _closed_form_slices(rho)
    c = np.empty(len(rho))
    x = rho[closed]
    c[closed] = _x_concurrence(*x.diagonal(axis1=-2, axis2=-1).real.T, x[:, 3, 0], x[:, 2, 1])
    if not closed.all():
        c[~closed] = _eigen_concurrence(rho[~closed])
    return _clip_unit(c)


@dataclass(frozen=True)
class XState:
    """Two-qubit state with support on the diagonal and anti-diagonal only."""

    p00: float
    p11: float
    p22: float
    p33: float
    rho03: complex = 0.0
    rho12: complex = 0.0

    def __post_init__(self):
        pops = (self.p00, self.p11, self.p22, self.p33)
        if any(p < -1e-12 for p in pops):
            raise ValueError(f"negative population in {pops}")
        if abs(sum(pops) - 1.0) > 1e-10:
            raise ValueError(f"populations sum to {sum(pops)}, expected 1")
        if abs(self.rho03) ** 2 > self.p00 * self.p33 + 1e-12:
            raise ValueError("|rho03|^2 exceeds p00*p33 (not positive semidefinite)")
        if abs(self.rho12) ** 2 > self.p11 * self.p22 + 1e-12:
            raise ValueError("|rho12|^2 exceeds p11*p22 (not positive semidefinite)")

    def to_density_matrix(self) -> np.ndarray:
        rho = np.diag(np.array([self.p00, self.p11, self.p22, self.p33], dtype=complex))
        rho[0, 3] = self.rho03
        rho[3, 0] = np.conj(self.rho03)
        rho[1, 2] = self.rho12
        rho[2, 1] = np.conj(self.rho12)
        return rho

    @classmethod
    def from_density_matrix(cls, rho: np.ndarray) -> "XState":
        """The X state of ``rho``, whose entries off the two diagonals must vanish to 1e-10."""
        rho = np.asarray(rho, dtype=complex)
        mask = np.ones((4, 4), dtype=bool)
        mask[np.arange(4), np.arange(4)] = False
        mask[0, 3] = mask[3, 0] = mask[1, 2] = mask[2, 1] = False
        if np.abs(rho[mask]).max() > 1e-10:
            raise ValueError("density matrix is not of X form")
        return cls(
            rho[0, 0].real, rho[1, 1].real, rho[2, 2].real, rho[3, 3].real,
            complex(rho[0, 3]), complex(rho[1, 2]),
        )

    @classmethod
    def werner(cls, p: float, bell: str = "psi+") -> "XState":
        return cls.from_density_matrix(werner_state(p, bell))

    def concurrence(self) -> float:
        """Closed-form Wootters concurrence of an X state."""
        return _clip_unit(_x_concurrence(self.p00, self.p11, self.p22, self.p33, self.rho03, self.rho12))


def _branches(c1, c2):
    """(C, C1, C2) with C = 2*max(0, C1, C2); floats for a scalar amplitude."""
    c = _clip_unit(2.0 * np.maximum(0.0, np.maximum(c1, c2)))
    if np.ndim(c1) == 0:
        return c, float(c1), float(c2)
    return c, c1, c2


def transferred_concurrence(x: XState, f):
    """Concurrence after sending the second qubit through one network map.

    Returns (C, C1, C2): the anti-parallel (C1) and parallel (C2) branches and
    C = 2*max(0, C1, C2), for an X-state input and transition amplitude f
    (or an array of amplitudes, giving arrays).
    """
    af = amplitude_modulus(f)
    rem = 1.0 - af**2
    c1 = af * (abs(x.rho12) - np.sqrt(x.p33 * (x.p00 + x.p11 * rem)))
    c2 = af * (abs(x.rho03) - np.sqrt(x.p11 * (x.p22 + x.p33 * rem)))
    return _branches(c1, c2)


def dual_rail_concurrence(x: XState, f):
    """Concurrence after sending both qubits through identical network maps.

    Returns (C, C1, C2) for an X-state carried by two equal-amplitude rails
    (arrays for an array of amplitudes).
    """
    af = amplitude_modulus(f)
    a2 = af**2
    rem = 1.0 - a2
    c1 = a2 * (abs(x.rho12) - np.sqrt(x.p33 * (x.p00 + rem * (x.p11 + x.p22 + rem * x.p33))))
    c2 = a2 * (abs(x.rho03) - np.sqrt((x.p11 + rem * x.p33) * (x.p22 + rem * x.p33)))
    return _branches(c1, c2)


def _purity(r: np.ndarray) -> np.ndarray:
    """Tr r^2 of a state or of every state in a stack."""
    return np.trace(r @ r, axis1=-2, axis2=-1).real


def four_tangle(psi):
    """|<psi| sy x sy x sy x sy |psi*>|^2 for a four-qubit pure state (or a stack)."""
    psi = unit_vector(psi, 16)
    val = np.sum((psi.conj() @ _SY4) * psi.conj(), axis=-1)
    return _clip_unit(np.abs(val) ** 2)


def three_tangle_pure(psi):
    """Residual tangle C^2_{A(BC)} - C^2_{AB} - C^2_{AC} of a 3-qubit pure state (or a stack).

    Evaluated through the degree-4 polynomial invariant (Cayley
    hyperdeterminant), which is algebraically identical to the concurrence
    expression but avoids the sqrt-of-eigenvalue noise floor near zero.
    """
    psi = unit_vector(psi, 8)
    a = psi.reshape(psi.shape[:-1] + (2, 2, 2))
    a000, a001, a010, a011 = a[..., 0, 0, 0], a[..., 0, 0, 1], a[..., 0, 1, 0], a[..., 0, 1, 1]
    a100, a101, a110, a111 = a[..., 1, 0, 0], a[..., 1, 0, 1], a[..., 1, 1, 0], a[..., 1, 1, 1]
    d1 = a000**2 * a111**2 + a001**2 * a110**2 + a010**2 * a101**2 + a100**2 * a011**2
    d2 = (
        a000 * a111 * a011 * a100
        + a000 * a111 * a101 * a010
        + a000 * a111 * a110 * a001
        + a011 * a100 * a101 * a010
        + a011 * a100 * a110 * a001
        + a101 * a010 * a110 * a001
    )
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return _clip_unit(4.0 * np.abs(d1 - 2.0 * d2 + 4.0 * d3))


def three_tangle_decomposition_bound(rho: np.ndarray):
    """Average residual tangle over the eigendecomposition of a 3-qubit state (or a stack).

    Upper bound on the convex-roof extension; when it vanishes the convex
    roof is exactly zero, since a zero-average decomposition is minimal.
    Eigenvectors with eigenvalue at most 1e-12 do not enter.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (8, 8):
        raise ValueError(f"expected an 8x8 three-qubit state, got {rho.shape}")
    w, v = np.linalg.eigh(rho)
    keep = w > 1e-12
    vecs = v.swapaxes(-1, -2)[keep]  # the kept eigenvectors as rows
    weighted = np.zeros(w.shape)
    weighted[keep] = w[keep] * three_tangle_pure(vecs / np.linalg.norm(vecs, axis=-1, keepdims=True))
    total = weighted.sum(axis=-1)
    return float(total) if total.ndim == 0 else total


SEPARABLE_LINEAR_ENTROPY = 1e-13

# qubits (0, 1, 2, 3) are (A1, A2, B1, B2); the pairs and their concurrence columns
PAIRS_4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
PAIR_COLUMNS = ("c_a1a2", "c_a1b1", "c_a1b2", "c_a2b1", "c_a2b2", "c_b1b2")
# the seven bipartitions, each qubit against the other three and then the pairs (0, 1),
# (0, 2) and (0, 3) against the rest: the kept qubits, the scale of each linear entropy, and the columns
_CUTS = ((0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3))
_CUT_SCALES = (2.0,) * 4 + (4.0 / 3.0,) * 3
_CUT_COLUMNS = ("c_a1_rest", "c_a2_rest", "c_b1_rest", "c_b2_rest", "c_a1a2_b1b2", "c_a1b1_a2b2", "c_a1b2_a2b1")
# the triples left by dropping qubit 0, 1, 2 and 3
_TRIPLES_4 = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
_TRIPLE_COLUMNS = ("tau3_a2b1b2", "tau3_a1b1b2", "tau3_a1a2b2", "tau3_a1a2b1")


def four_qubit_measures(psi) -> dict:
    """The entanglement measures of a four-qubit pure state, as named columns.

    In CSV order: the six pair concurrences (``PAIR_COLUMNS``); the
    concurrence sqrt(2 (1 - Tr rho_q^2)) of each qubit against the other three
    (``c_a1_rest`` ...); sqrt((4/3) (1 - Tr rho_AB^2)) of the three two-two
    splits (``c_a1a2_b1b2`` ...); the three-tangle decomposition bound of each
    triple (``tau3_a2b1b2`` ...); the four-tangle ``tau4``; and ``c4``, the
    geometric mean of the seven bipartition concurrences.  ``c4`` is zero if
    and only if the state is separable across some bipartition; since the 1/7
    power would blow partial-trace noise on a separable cut up to ~1e-1, a
    linear entropy below the 1e-13 separability floor on any cut forces an
    exact zero.  Each of the 14 distinct marginals is formed once.  For a
    (T, 16) stack every column holds T values.
    """
    psi = unit_vector(psi, 16)
    col = psi[..., None]  # each state as a one-column block
    rho = {keep: partial_trace_outer(col, col, keep, [2] * 4) for keep in _CUTS[:4] + PAIRS_4}
    pair_states = np.stack([rho[p] for p in PAIRS_4], axis=-3)  # (..., 6, 4, 4)
    pair_c = concurrence(pair_states.reshape(-1, 4, 4)).reshape(pair_states.shape[:-2])
    entropies = np.stack([np.maximum(0.0, 1.0 - _purity(rho[cut])) for cut in _CUTS])
    # each cut's concurrence; c4 is the geometric mean of the unclipped values
    roots = np.sqrt(np.reshape(_CUT_SCALES, (7,) + (1,) * (entropies.ndim - 1)) * entropies)
    c4 = np.where(entropies.min(axis=0) < SEPARABLE_LINEAR_ENTROPY, 0.0, np.prod(roots, axis=0) ** (1.0 / 7.0))
    # each triple's marginal is formed as its bound needs it, so only one (T, 8, 8) stack is held at a time
    tau3 = [three_tangle_decomposition_bound(partial_trace_outer(col, col, kept, [2] * 4)) for kept in _TRIPLES_4]
    return {
        **dict(zip(PAIR_COLUMNS, np.moveaxis(pair_c, -1, 0))),
        **dict(zip(_CUT_COLUMNS, map(_clip_unit, roots))),
        **dict(zip(_TRIPLE_COLUMNS, tau3)),
        "tau4": four_tangle(psi),
        "c4": _clip_unit(c4),
    }
