"""Chebyshev series of exp(-iHt) on a few unit columns of a real symmetric H.

Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984): with the spectrum of H
enclosed in [b - a, b + a],

    exp(-iHt) v = exp(-ibt) sum_k (2 - delta_k0) (-i)^k J_k(a t) T_k(H') v,

H' = (H - b) / a.  The real three-term recurrence T_{k+1} = 2H' T_k - T_{k-1}
runs on the columns with sparse products, one recurrence serves every time of
a grid, and the series stops where the Bessel tail at a max|t| is negligible.

This module holds the series: the CSR matrix of H from its elements
(:func:`symmetric_csr`), the term count, the Bessel weights and the
recurrence.  Each caller builds its own elements and spectral bounds, so the
sector engine and the dense-space oracle share no Hamiltonian code.  The Bessel
functions are numpy's own FFT quadrature (:func:`_bessel_j`), so scipy serves
only the sparse kernels, imported inside the functions that call them: a run
with no series never loads it.
"""

from __future__ import annotations

import functools

import numpy as np

HERMITICITY_ATOL = 1e-12
# Largest 2 sum_{k >= K} |J_k(x)| the series may leave out; it bounds the
# truncation error of every evolved unit column.
CHEBYSHEV_TAIL = 1e-16
# Series terms per block of unit_columns; the block holds fewer where it would pass both
# SERIES_BLOCK_BYTES and the size of the series' sums
SERIES_BLOCK = 64
SERIES_BLOCK_BYTES = 1 << 20


def require_hermitian(defect: float, scale: float):
    """ValueError where ``defect`` = max|H - H^dag| passes ``HERMITICITY_ATOL`` times max(1, ``scale``)."""
    if defect > HERMITICITY_ATOL * max(1.0, scale):
        raise ValueError("Hamiltonian is not Hermitian")


def symmetric_csr(diagonal: np.ndarray, rows: np.ndarray, cols: np.ndarray, values: np.ndarray):
    """CSR array of a real symmetric H, with its ``diagonal`` always stored.

    H holds ``values[h]`` at (``rows[h]``, ``cols[h]``) off the diagonal, and
    no position repeats.  scipy's COO to CSR kernels, ``coo_tocsr`` and
    ``csr_sort_indices``, build it, so its arrays are that conversion's, in
    canonical order.  ValueError where a position lies outside H or H is not
    symmetric, checked against the transpose from ``csr_tocsc``.
    """
    from scipy.sparse import _sparsetools, csr_array

    d = diagonal.size
    if rows.size and not 0 <= min(rows.min(), cols.min()) <= max(rows.max(), cols.max()) < d:
        raise ValueError(f"hop positions must lie in [0, {d})")
    diag = np.arange(d)
    indptr, indices = np.empty(d + 1, dtype=np.int64), np.empty(d + values.size, dtype=np.int64)
    data = np.empty(d + values.size)
    _sparsetools.coo_tocsr(d, d, data.size, np.concatenate([diag, rows]), np.concatenate([diag, cols]),
                           np.concatenate([diagonal, values]), indptr, indices, data)
    _sparsetools.csr_sort_indices(d, indptr, indices, data)
    m = csr_array((data, indices, indptr), shape=(d, d))
    t_indptr, t_indices, t_data = np.empty_like(indptr), np.empty_like(indices), np.empty_like(data)
    _sparsetools.csr_tocsc(d, d, indptr, indices, data, t_indptr, t_indices, t_data)
    if np.array_equal(t_indptr, indptr) and np.array_equal(t_indices, indices):
        defect = np.abs(np.subtract(data, t_data, out=t_data), out=t_data).max()  # in place: no temporaries
    else:  # an element without its mirror, which reads as zero
        defect = abs(m - m.T).max()
    require_hermitian(defect, np.abs(data).max())
    return m


def negligible_order(x: float) -> int:
    """An order past which |J_k(x)| is far below double precision (under 1e-35 for |x| <= 1e6).

    J_k(x) falls off faster than exponentially once k passes |x| + |x|^(1/3); it bounds :func:`chebyshev_terms`.
    """
    return int(abs(x) + 20.0 * np.cbrt(abs(x)) + 40.0)


def chebyshev_terms(x: float) -> int:
    """Number K of Chebyshev terms for exp(-i x H') with the spectrum of H' in [-1, 1].

    The smallest K whose left-out tail 2 sum_{k >= K} |J_k(x)| is below
    ``CHEBYSHEV_TAIL``; |T_k(H')| <= 1 makes the tail a bound on the error of
    a unit column.  K exceeds |x|, and above |x| the ratios J_k / J_{k-1} come
    from the backward continued fraction x / (2k - x J_{k+1} / J_k), which is
    stable there, so even the smallest terms keep their relative accuracy; they
    scale J_K(x) at K = ceil|x| from :func:`_bessel_j`, the weights' routine.
    """
    x = abs(x)
    first = int(np.ceil(x))
    ratios = [0.0]
    for k in range(negligible_order(x), first, -1):
        ratios.append(x / (2 * k - x * ratios[-1]))
    seed = abs(_bessel_j(np.array([x]), first + 1)[first, 0])
    values = seed * np.cumprod([1.0] + ratios[:0:-1])  # |J_k(x)|, k = first, first + 1, ...
    tail = 2.0 * values[::-1].cumsum()[::-1]
    return first + int(np.argmax(tail < CHEBYSHEV_TAIL))


def _circle_sines(size: int) -> np.ndarray:
    """sin(2 pi m / size) for m < size, a multiple of 8, from sines and cosines of angles in [0, pi/4].

    The angles (pi/4) (j / (size/8)) round once, and symmetry maps them onto
    the circle, so no 2 pi rounding is scaled by m and multiples of 90 degrees
    are exactly 0 or +-1.
    """
    q = size // 8
    angles = (np.pi / 4) * (np.arange(q + 1) / q)
    s, c = np.sin(angles), np.cos(angles)
    half = np.concatenate([s[:q], c[:0:-1], c[:q], s[:0:-1]])  # the four octants of [0, pi)
    return np.concatenate([half, -half])


def _bessel_j(x: np.ndarray, terms: int) -> np.ndarray:
    """J_k(x) for k < terms and every x, shape (terms, x.size).

    Trapezoidal rule of J_k(x) = (1/2pi) int exp(i x sin(th) - i k th) dth on
    M points, one FFT per x: it returns sum_p J_{k + pM}(x), which is J_k(x)
    once M - terms passes the negligible orders.  The M samples have modulus
    one, so J_0^2 + 2 sum_k J_k^2 = 1 holds to rounding.
    """
    size = 1 << int(np.ceil(np.log2(terms + negligible_order(np.abs(x).max(initial=0.0)))))
    return (np.fft.fft(np.exp(1j * np.multiply.outer(x, _circle_sines(size))))[:, :terms].real / size).T


def block_width(terms: int, entries: int, times: int) -> int:
    """Terms per block of :func:`unit_columns` for ``entries`` = d c and ``times`` times; even, at least 2.

    ``SERIES_BLOCK``, or fewer: ``terms`` rounded up to even, or as many rows
    of ``entries`` float64 as fit in ``SERIES_BLOCK_BYTES`` or in the sums'
    2 ``times`` rows, whichever holds more.
    """
    fit = max(2 * times, SERIES_BLOCK_BYTES // (8 * entries))
    return max(2, min(SERIES_BLOCK, terms + terms % 2, fit - fit % 2))


def unit_columns(h, bounds, rows, times: np.ndarray, terms: int) -> np.ndarray:
    """exp(-iHt) on the unit columns ``rows`` for every time at once; (T..., d, c).

    ``h`` is H as a ``scipy.sparse`` CSR array that stores each diagonal
    element once, as :func:`symmetric_csr` builds it; ``bounds`` = (low,
    high) encloses its spectrum, and ``terms`` is :func:`chebyshev_terms` of
    (high - low) / 2 * max|t|.  The data of 2H' = 2 (H - b) / a are formed
    once per call on the arrays of ``h``.  Even and odd terms are summed
    apart, each with real weights (2 - delta_k0) (-1)^(k // 2) J_k(a t),
    because (-i)^k is real for even k and imaginary for odd k.

    Each term T_k(H') v is one call of the CSR kernel that scipy's ``@``
    calls (``csr_matvec`` for one column, ``csr_matvecs`` for more), so the
    row sums keep their order.  It is written into a zeroed row of a
    (B + 2, d c) block, B = :func:`block_width`, whose first two rows carry
    the last two terms of the block before.  Each block is added into the
    even and odd sums with one batched product against its (B, T) Bessel
    weights, zero past the last term.  Memory is O((4 T + B) d c + K T) for
    K terms (the sums, one block's share of them, the block and the
    weights), and the (T, d, c) complex result.
    """
    from scipy.sparse import _sparsetools

    low, high = bounds
    centre = 0.5 * (high + low)
    half = max(0.5 * (high - low), np.finfo(float).tiny)  # zero width: H = b exactly, any a > 0 works
    d, c = h.shape[0], len(rows)
    if h.shape != (d, d):
        raise ValueError(f"the matrix must be square, got shape {h.shape}")
    h.check_format(full_check=True)  # the kernels below index with its arrays unchecked
    on_diagonal = h.indices == np.repeat(np.arange(d), np.diff(h.indptr))
    if np.count_nonzero(on_diagonal) != d:
        raise ValueError(f"the matrix must store its {d} diagonal elements once each")
    two_h = np.where(on_diagonal, h.data - centre, h.data) * (2.0 / half)  # 2 H' = 2 (H - b) / a
    if times.size == 0 or c == 0:
        return np.zeros(times.shape + (d, c), dtype=complex)
    flat = times.reshape(-1)
    width = block_width(terms, d * c, flat.size)
    # weights[k, t], zero past the last term so that every block is full
    weights = np.zeros((-(-terms // width) * width, flat.size))
    np.multiply(_bessel_j(half * flat, terms), np.where(np.arange(terms) % 4 < 2, 2.0, -2.0)[:, None],
                out=weights[:terms])
    weights[0] *= 0.5
    sums, part = np.zeros((2, flat.size, d * c)), np.empty((2, flat.size, d * c))  # even and odd terms
    if c == 1:
        product = functools.partial(_sparsetools.csr_matvec, d, d, h.indptr, h.indices, two_h)
    else:
        product = functools.partial(_sparsetools.csr_matvecs, d, d, c, h.indptr, h.indices, two_h)
    block = np.empty((width + 2, d * c))
    row = list(block)  # row r + 2 holds the block's term r; rows 0 and 1 the two terms before it
    for start in range(0, terms, width):
        block[2:] = 0.0  # the kernels add into their output row
        for r in range(2, min(width, terms - start) + 2):
            if start + r == 2:
                block[2, np.asarray(rows) * c + np.arange(c)] = 1.0  # T_0 v = v
                continue
            product(row[r - 1], row[r])  # 2 H' T_{k-1} v
            if start + r == 3:
                row[r] *= 0.5  # T_1 = H' T_0
            else:
                row[r] -= row[r - 2]  # T_k = 2 H' T_{k-1} - T_{k-2}
        # part[p, t] = sum over the block's terms k of parity p of weights[k, t] T_k(H') v
        np.matmul(weights[start:start + width].reshape(width // 2, 2, -1).transpose(1, 2, 0),
                  block[2:].reshape(width // 2, 2, -1).transpose(1, 0, 2), out=part)
        sums += part
        block[:2] = block[width:]
    del block, row, part  # freed before the complex temporaries below
    f = np.exp(-1j * centre * flat)[:, None] * (sums[0] - 1j * sums[1])
    return f.reshape(times.shape + (d, c))
