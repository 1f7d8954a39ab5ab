"""Independent slow-but-simple oracles for golden data.

Everything here deliberately avoids the adaptive machinery of the main
modules: dense composite midpoint rules on a clipped interval and raw
double sums, with the Bessel kernel in its closed half-odd-integer form
(so the extension order nu must be a non-negative integer).  The CLI's
golden-file generator writes these values, and the golden round-trip
test compares the fast paths against them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_CUTOFF = 760.0
TERMS = 160  # double-sum terms per index
PANELS = 200_000  # midpoint-rule panels on the clipped interval


def _closed_k_scaled(k: int, z: np.ndarray) -> np.ndarray:
    """e^z K_{k+1/2}(z), closed form, real arguments."""
    inv2z = 1.0 / (2.0 * z)
    poly = np.zeros_like(z)
    for j in range(k, -1, -1):
        a = math.factorial(k + j) / (math.factorial(j) * math.factorial(k - j))
        poly = poly * inv2z + a
    return np.sqrt(np.pi * inv2z) * poly


def _int_nu(nu: float) -> int:
    if nu < 0 or abs(nu - round(nu)) > 1e-12:
        raise DomainError(f"oracle kernel needs integer nu >= 0, got {nu}")
    return int(round(nu))


def _clip(p: float) -> float:
    # innermost t with the kernel exponent already below the cutoff
    lo, hi = 1e-300, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if p / (mid * (1.0 - mid)) > _CUTOFF:
            lo = mid
        else:
            hi = mid
    return lo


def _ladder(b: float, v: float, n: int) -> np.ndarray:
    """(b)_m v^m / m! for m = 0..n."""
    out = np.empty(n + 1)
    out[0] = 1.0
    for m in range(1, n + 1):
        out[m] = out[m - 1] * (b + m - 1.0) * v / m
    return out


def bruteforce_f1pv(b1, b2, b3, c1, x, y, p, nu) -> float:
    """F_{1,p,nu} by a raw double sum over midpoint-rule extended Betas.

    The diagonal values share one dense kernel grid: only the t power
    changes between consecutive diagonals.
    """
    k = _int_nu(nu)
    eps = _clip(p)
    t = np.linspace(eps, 1.0 - eps, PANELS + 1)
    t = 0.5 * (t[1:] + t[:-1])
    h = (1.0 - 2.0 * eps) / PANELS
    w = p / (t * (1.0 - t))
    kern = np.exp(-w) * _closed_k_scaled(k, w) * math.sqrt(2.0 * p / math.pi)
    bnorm = math.gamma(b1) * math.gamma(c1 - b1) / math.gamma(c1)
    base = t ** (b1 - 1.5) * (1.0 - t) ** (c1 - b1 - 1.5) * kern
    diag = np.empty(2 * TERMS + 1)
    for kk in range(2 * TERMS + 1):
        diag[kk] = float(base.sum()) * h / bnorm
        base = base * t
    r2 = _ladder(b2, x, TERMS)
    r3 = _ladder(b3, y, TERMS)
    total = 0.0
    for m in range(TERMS + 1):
        total += float(np.sum(r2[m] * r3 * diag[m : m + TERMS + 1]))
    return total
