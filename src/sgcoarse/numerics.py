"""Small numerical kernels shared across modules.

The one nontrivial piece is the windowed oscillatory Gaussian integral

    J(a, b; α, k) = ∫_a^b exp(-α u² + i k u) du,   α > 0,

needed by pixel averaging of interference terms, where k can reach a few
hundred inverse window widths.  The textbook closed form
(√π/2√α)·e^(-k²/4α)·[erf(√α u - ik/2√α)] overflows long before that, so for
large |k| the erf is rewritten through the Faddeeva function w(z), which is
stable on the upper half plane:

    e^(-κ²/4) erf(x - iκ/2) = e^(-κ²/4) - e^(-x² + iκx) w(κ/2 + ix),  x ≥ 0,

with the x < 0 half recovered from erf's oddness.

osc_gauss_window computes its upper erf window on a worker thread while
the caller computes the lower one: scipy.special's ufuncs release the GIL,
and every value is computed as it would be serially.  The worker stays
inside the function, so osc_gauss_window and everything above it, such as
the tracer hook that bench/tracer.py puts around it, run on the caller's
thread.  The worker is a one-thread ThreadPoolExecutor made on first use;
a forked child drops its parent's, whose thread did not survive the fork,
and makes its own.

scipy is imported inside the functions that call it, on first use, here
and in information.py: the package imports only numpy, so density, verify
and the fine Wigner grid never load scipy.  The coarse Wigner grid, entropy
and info load scipy.special, and info also scipy.integrate.
"""

from __future__ import annotations

import os
import threading

import numpy as np

# direct complex erf is safe while exp(kappa^2/4) fits comfortably in range
_KAPPA_DIRECT = 30.0

_pool = None  # osc_gauss_window's worker thread, made on first use
_pool_lock = threading.Lock()


def _worker():
    """The one-thread executor of osc_gauss_window's upper erf window;
    concurrent.futures is imported here, on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="sgcoarse-erf")
        return _pool


def _forget_worker() -> None:
    # the parent's worker thread does not exist in a forked child, and
    # submitting to its executor there would wait forever; the lock may
    # have been held by a thread that the fork left behind
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # no fork, and no such hook, on Windows
    os.register_at_fork(after_in_child=_forget_worker)


def _erf_damped(x: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """exp(-kappa^2/4) * erf(x - i*kappa/2), elementwise, stable for any kappa."""
    from scipy.special import erf, wofz

    x = np.asarray(x, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    if kappa.ndim == 0 and abs(kappa) <= _KAPPA_DIRECT:
        # one direct-path kappa: the operations below, without the mask
        return np.exp(-kappa ** 2 / 4.0) * erf(x - 0.5j * kappa)
    x, kappa = np.broadcast_arrays(x, kappa)
    out = np.empty(x.shape, dtype=complex)

    small = np.abs(kappa) <= _KAPPA_DIRECT
    if small.any():
        out[small] = np.exp(-kappa[small] ** 2 / 4.0) * erf(x[small] - 0.5j * kappa[small])

    big = ~small
    if big.any():
        # reflect to x >= 0 where w's argument has nonnegative imaginary part
        sign = np.where(x[big] >= 0.0, 1.0, -1.0)
        xa = np.abs(x[big])
        ka = np.where(x[big] >= 0.0, kappa[big], -kappa[big])
        damped = np.exp(-(ka**2) / 4.0)  # underflows to 0 harmlessly
        val = damped - np.exp(-(xa**2) + 1j * ka * xa) * wofz(0.5 * ka + 1j * xa)
        out[big] = sign * val
    return out


def osc_gauss_window(a, b, alpha: float, k) -> np.ndarray:
    """∫_a^b exp(-α u² + i k u) du for real α > 0; a, b, k broadcast.

    The upper window runs on the worker thread while the caller computes
    the lower one.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    ra = np.sqrt(alpha)
    kappa = np.asarray(k, dtype=float) / ra
    hi = _worker().submit(_erf_damped, np.asarray(b, dtype=float) * ra, kappa)
    lo = _erf_damped(np.asarray(a, dtype=float) * ra, kappa)
    return (np.sqrt(np.pi) / (2.0 * ra)) * (hi.result() - lo)


def gauss_window(a, b, mu, alpha: float) -> np.ndarray:
    """∫_a^b exp(-α (u-μ)²) du for real α > 0 and real μ."""
    from scipy.special import erf

    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    ra = np.sqrt(alpha)
    return (np.sqrt(np.pi) / (2.0 * ra)) * (erf((b - mu) * ra) - erf((a - mu) * ra))


def real_quad(f, a: float, b: float, *, epsabs: float = 1e-12, limit: int = 400,
              points=None) -> float:
    """Adaptive Gauss-Kronrod quadrature of a real integrand.

    scipy.integrate is imported here, on first use, as scipy.special is
    in the other functions that call it: scipy takes longer to import than
    the rest of the package, and most entry points never integrate.
    """
    from scipy import integrate

    kw = dict(epsabs=epsabs, epsrel=1e-11, limit=limit)
    if points is not None:
        kw["points"] = [p for p in points if a < p < b]
    return integrate.quad(f, a, b, **kw)[0]


def gauss_legendre_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w
