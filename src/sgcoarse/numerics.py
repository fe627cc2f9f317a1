"""Small numerical kernels shared across modules.

The one nontrivial piece is the windowed oscillatory Gaussian integral

    J(a, b; α, k) = ∫_a^b exp(-α u² + i k u) du,   α > 0,

needed by pixel averaging of interference terms, where k can reach a few
hundred inverse window widths.  osc_gauss_window takes one formula per
regime of κ = k/√α, the diagonal blocks' k = 0 included:

- |κ| ≤ _KAPPA_DIRECT: the textbook closed form
  (√π/2√α)·e^(-κ²/4)·[erf(√α u - iκ/2)], a direct complex erf;
- larger |κ|, where that form overflows: the erf rewritten through the
  Faddeeva function w(z), which is stable on the upper half plane,

    e^(-κ²/4) erf(x - iκ/2) = e^(-κ²/4) - e^(-x² + iκx) w(κ/2 + ix),  x ≥ 0,

  with the x < 0 half recovered from erf's oddness.

real_quad is a composite Gauss-Legendre rule in numpy: no quadrature goes
through scipy.  scipy.special is imported inside the functions that call
it, on first use, here and in information.py: the package imports only
numpy, so density, verify and the fine Wigner grid never load scipy.  The
coarse Wigner grid, entropy and info load scipy.special, and nothing else.
"""

from __future__ import annotations

import math

import numpy as np

# direct complex erf is safe while exp(kappa^2/4) fits comfortably in range
_KAPPA_DIRECT = 30.0


def _erf_damped(x: np.ndarray, kappa: float) -> np.ndarray:
    """exp(-kappa^2/4) * erf(x - i*kappa/2), elementwise in x, stable for any kappa."""
    from scipy.special import erf, wofz

    x = np.asarray(x, dtype=float)
    if abs(kappa) <= _KAPPA_DIRECT:
        return np.exp(-kappa ** 2 / 4.0) * erf(x - 0.5j * kappa)
    # reflect to x >= 0 where w's argument has nonnegative imaginary part
    sign = np.where(x >= 0.0, 1.0, -1.0)
    xa = np.abs(x)
    ka = sign * kappa
    damped = np.exp(-(ka**2) / 4.0)  # underflows to 0 harmlessly
    return sign * (damped - np.exp(-(xa**2) + 1j * ka * xa) * wofz(0.5 * ka + 1j * xa))


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
    from scipy.special import erf, erfc

    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    ra = np.sqrt(alpha)
    lo, hi = (a - mu) * ra, (b - mu) * ra
    diff = np.where(lo > 0.0, erfc(lo) - erfc(hi),
                    np.where(hi < 0.0, erfc(-hi) - erfc(-lo), erf(hi) - erf(lo)))
    return (np.sqrt(np.pi) / (2.0 * ra)) * diff


def real_quad(f, a: float, b: float, panel: float, points=()) -> float:
    """∫_a^b f for a real integrand f that takes and returns arrays.

    [a, b] is split at the `points` inside it, each piece into equal panels
    no wider than `panel`, and each panel takes a 20-node Gauss-Legendre
    rule.  The caller picks `panel` from its integrand's length scale.
    """
    from numpy.polynomial.legendre import leggauss

    cuts = [a, *sorted({p for p in points if a < p < b}), b]
    edges = [a]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        edges.extend(np.linspace(lo, hi, math.ceil((hi - lo) / panel) + 1)[1:])
    edges = np.array(edges)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    x, w = leggauss(20)
    return float(np.sum(half * w * f(mid + half * x)))


def gauss_legendre_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w
