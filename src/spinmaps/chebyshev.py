"""Chebyshev series of exp(-iHt) on a few unit columns of a real symmetric H.

Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984): with the spectrum of H
enclosed in [b - a, b + a],

    exp(-iHt) v = exp(-ibt) sum_k (2 - delta_k0) (-i)^k J_k(a t) T_k(H') v,

H' = (H - b) / a.  The real three-term recurrence T_{k+1} = 2H' T_k - T_{k-1}
runs on the columns with sparse products, one recurrence serves every time of
a grid, and the series stops where the Bessel tail at a max|t| is negligible.

This module holds the series only: the term count, the Bessel weights and the
recurrence.  Each caller builds its own Hamiltonian and its spectral bounds,
so the sector engine and the dense-space oracle share no Hamiltonian code.
scipy is imported inside the functions that call it, so a run that builds no
series never loads it.
"""

from __future__ import annotations

import numpy as np

# Largest 2 sum_{k >= K} |J_k(x)| the series may leave out; it bounds the
# truncation error of every evolved unit column.
CHEBYSHEV_TAIL = 1e-16


def _negligible_order(x: float) -> int:
    """An order past which |J_k(x)| is far below double precision (under 1e-35 for |x| <= 1e6).

    J_k(x) falls off faster than exponentially once k passes |x| + |x|^(1/3).
    """
    return int(abs(x) + 20.0 * np.cbrt(abs(x)) + 40.0)


def chebyshev_terms(x: float) -> int:
    """Number K of Chebyshev terms for exp(-i x H') with the spectrum of H' in [-1, 1].

    The smallest K whose left-out tail 2 sum_{k >= K} |J_k(x)| is below
    ``CHEBYSHEV_TAIL``; |T_k(H')| <= 1 makes the tail a bound on the error of
    a unit column.  K exceeds |x|, and above |x| the ratios J_k / J_{k-1} come
    from the backward continued fraction x / (2k - x J_{k+1} / J_k), which is
    stable there, so even the smallest terms keep their relative accuracy.
    """
    from scipy.special import jv

    x = abs(x)
    first = int(np.ceil(x))
    ratios = [0.0]
    for k in range(_negligible_order(x), first, -1):
        ratios.append(x / (2 * k - x * ratios[-1]))
    values = abs(jv(first, x)) * np.cumprod([1.0] + ratios[:0:-1])  # |J_k(x)|, k = first, first + 1, ...
    tail = 2.0 * values[::-1].cumsum()[::-1]
    return first + int(np.argmax(tail < CHEBYSHEV_TAIL))


def _bessel_j(x: np.ndarray, terms: int) -> np.ndarray:
    """J_k(x) for k < terms and every x, shape (terms, x.size).

    Trapezoidal rule of J_k(x) = (1/2pi) int exp(i x sin(th) - i k th) dth on
    M points, one FFT per x: it returns sum_p J_{k + pM}(x), which is J_k(x)
    once M - terms passes the negligible orders.  The M samples have modulus
    one, so J_0^2 + 2 sum_k J_k^2 = 1 holds to rounding.
    """
    from scipy.special import sindg

    size = 1 << int(np.ceil(np.log2(terms + _negligible_order(np.abs(x).max(initial=0.0)))))
    sines = sindg(360.0 * np.arange(size) / size)  # exact angles: no 2pi rounding scaled by x
    return (np.fft.fft(np.exp(1j * np.multiply.outer(x, sines)))[:, :terms].real / size).T


def unit_columns(scaled, bounds, rows, times: np.ndarray, terms: int) -> np.ndarray:
    """exp(-iHt) on the unit columns ``rows`` for every time at once; (T..., d, c).

    ``bounds`` = (low, high) encloses the spectrum of H, and
    ``scaled(shift, scale)`` returns the real (d, d) matrix scale * (H - shift)
    with a sparse product; ``terms`` is :func:`chebyshev_terms` of
    (high - low) / 2 * max|t|.  Even and odd terms are summed apart, each with
    real weights (2 - delta_k0) (-1)^(k // 2) J_k(a t), because (-i)^k is real
    for even k and imaginary for odd k.  Memory is O((T + 3) d c).
    """
    from scipy.linalg.blas import dger

    low, high = bounds
    centre = 0.5 * (high + low)
    half = max(0.5 * (high - low), np.finfo(float).tiny)  # zero width: H = b exactly, any a > 0 works
    two_h = scaled(centre, 2.0 / half)  # 2 H' = 2 (H - b) / a
    d, c = two_h.shape[0], len(rows)
    if times.size == 0 or c == 0:  # BLAS takes no empty operands
        return np.zeros(times.shape + (d, c), dtype=complex)
    flat = times.reshape(-1)
    order = np.arange(terms)
    weights = _bessel_j(half * flat, terms) * np.where(order % 4 < 2, 2.0, -2.0)[:, None]  # (K, T)
    weights[0] *= 0.5
    sums = [np.zeros((d * c, flat.size), order="F") for _ in range(2)]  # even and odd terms
    prev, cur = None, np.zeros((d, c))
    cur[rows, np.arange(c)] = 1.0  # T_0 v = v
    for k in range(terms):
        # rank-1 update sums += T_k(H') v (x) weights_k, in place in BLAS
        sums[k % 2] = dger(1.0, cur.reshape(-1), weights[k], a=sums[k % 2], overwrite_a=True)
        if k + 1 < terms:
            prev, cur = cur, 0.5 * (two_h @ cur) if k == 0 else two_h @ cur - prev
    f = np.exp(-1j * centre * flat)[:, None] * (sums[0] - 1j * sums[1]).T
    return f.reshape(times.shape + (d, c))
