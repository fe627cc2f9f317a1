"""Small numerical kernels shared across modules.

The one nontrivial piece is the windowed oscillatory Gaussian integral

    J(a, b; α, k) = ∫_a^b exp(-α u² + i k u) du,   α > 0,

needed by pixel averaging of interference terms, where k can reach a few
hundred inverse window widths.  osc_gauss_window takes one formula for
every κ = k/√α, the diagonal blocks' k = 0 included: the textbook form
(√π/2√α)·e^(-κ²/4)·[erf(√α u - iκ/2)] rewritten through the Faddeeva
function w(z) = e^(-z²) erfc(-iz), which is stable on the upper half plane,

    e^(-κ²/4) erf(x - iκ/2) = e^(-κ²/4) - e^(-x² + iκx) w(κ/2 + ix),  x ≥ 0,

with the x < 0 half recovered from erf's oddness.  No factor can overflow,
whatever κ.  gauss_window takes erfc(x) = e^(-x²) w(ix) from the same w.

Everything here is numpy.  w is Weideman's rational expansion (SIAM J.
Numer. Anal. 31, 1497, 1994), a polynomial in (L + iz)/(L - iz), and
real_quad is a composite Gauss-Legendre rule, so no subcommand loads scipy;
scipy serves only the tests, as an independent reference.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# terms of Weideman's expansion: at 40 the error of w against 30-digit
# mpmath stops falling (6e-16 on |Re z| <= 15, 0 <= Im z <= 6; 36 gives 5e-15)
_W_TERMS = 40


@functools.cache
def _w_coefficients() -> tuple[float, np.ndarray]:
    """(L, a) of Weideman's expansion, N = _W_TERMS terms: L = √(N/√2) and,
    highest power first, a_n = (1/2M) Σ_{|k|<M} f(t_k) cos(πnk/M) for
    n = 1..N, the cosine transform of f(t) = e^(-t²)(L² + t²) sampled at
    t_k = L tan(πk/2M), M = 2N.  Built on first use, not at import."""
    m = 2 * _W_TERMS
    ell = math.sqrt(_W_TERMS / math.sqrt(2.0))
    k = np.arange(1 - m, m)
    t = ell * np.tan(k * (np.pi / (2 * m)))
    f = np.exp(-t * t) * (ell * ell + t * t)
    n = np.arange(_W_TERMS, 0, -1)
    return ell, np.cos(np.outer(n, k) * (np.pi / m)) @ f / (2 * m)


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """w(z) = e^(-z²) erfc(-iz) for Im z ≥ 0, elementwise."""
    ell, coeffs = _w_coefficients()
    iz = 1j * np.asarray(z, dtype=complex)
    d = ell - iz
    big_z = (ell + iz) / d
    p = np.full(big_z.shape, coeffs[0], dtype=complex)
    for c in coeffs[1:]:
        p *= big_z
        p += c
    return (2.0 * p / d + 1.0 / math.sqrt(math.pi)) / d


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc(x) for real x: e^(-x²) w(ix) for x ≥ 0, 2 - erfc(-x) below."""
    x = np.asarray(x, dtype=float)
    xa = np.abs(x)
    upper = np.exp(-xa * xa) * _faddeeva(1j * xa).real
    return np.where(x < 0.0, 2.0 - upper, upper)


def _erf_damped(x: np.ndarray, kappa: float) -> np.ndarray:
    """exp(-kappa^2/4) * erf(x - i*kappa/2), elementwise in x, stable for any kappa."""
    x = np.asarray(x, dtype=float)
    # reflect to x >= 0 where w's argument has nonnegative imaginary part
    sign = np.where(x >= 0.0, 1.0, -1.0)
    xa = np.abs(x)
    ka = sign * kappa
    damped = np.exp(-(ka**2) / 4.0)  # underflows to 0 harmlessly
    return sign * (damped - np.exp(-(xa**2) + 1j * ka * xa) * _faddeeva(0.5 * ka + 1j * xa))


def osc_gauss_window(a, b, alpha: float, k: float) -> np.ndarray:
    """∫_a^b exp(-α u² + i k u) du for real α > 0 and scalar k; a, b broadcast."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    ra = np.sqrt(alpha)
    kappa = k / ra
    return (np.sqrt(np.pi) / (2.0 * ra)) * (
        _erf_damped(np.asarray(b, dtype=float) * ra, kappa)
        - _erf_damped(np.asarray(a, dtype=float) * ra, kappa))


def gauss_window(a, b, mu, alpha: float) -> np.ndarray:
    """∫_a^b exp(-α (u-μ)²) du for real α > 0 and real μ.

    A window wholly in one tail takes the erfc difference of that tail, so
    its mass keeps its relative digits where erf(hi) - erf(lo) cancels.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    ra = np.sqrt(alpha)
    lo, hi = (a - mu) * ra, (b - mu) * ra
    # erf(hi) - erf(lo) = erfc(lo) - erfc(hi); below mu reflect to the upper tail
    diff = np.where(hi < 0.0, _erfc(-hi) - _erfc(-lo), _erfc(lo) - _erfc(hi))
    return (np.sqrt(np.pi) / (2.0 * ra)) * diff


@functools.cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre nodes and weights on [-1, 1], read-only and
    built once per n.  numpy.polynomial loads on first use, not at import."""
    from numpy.polynomial.legendre import leggauss

    rule = leggauss(n)
    for part in rule:
        part.flags.writeable = False
    return rule


def real_quad(f, a: float, b: float, panel: float, points=()) -> float:
    """∫_a^b f for a real integrand f that takes and returns arrays.

    [a, b] is split at the `points` inside it, each piece into equal panels
    no wider than `panel`, and each panel takes a 20-node Gauss-Legendre
    rule.  The caller picks `panel` from its integrand's length scale.
    """
    cuts = [a, *sorted({p for p in points if a < p < b}), b]
    edges = [a]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        edges.extend(np.linspace(lo, hi, math.ceil((hi - lo) / panel) + 1)[1:])
    edges = np.array(edges)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    x, w = _leggauss(20)
    return float(np.sum(half * w * f(mid + half * x)))


def gauss_legendre_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w
