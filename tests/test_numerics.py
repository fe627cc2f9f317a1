"""Window integrals against high-precision quadrature."""

import math

import mpmath
import numpy as np
import pytest

from sgcoarse.numerics import _KAPPA_DIRECT, _erf_damped, gauss_window, osc_gauss_window

DIGITS = 20  # working precision of the references
N_CASES = 60  # per branch of osc_gauss_window, and for gauss_window


def _reference_osc(a, b, alpha, k):
    """mpmath quadrature of exp(-alpha u^2 + i k u) on [a, b], split into
    panels of at most one oscillation period or Gaussian width."""
    n = max(1, math.ceil((b - a) * (abs(k) + math.sqrt(alpha)) / (2.0 * math.pi)))
    with mpmath.workdps(DIGITS):
        edges = [mpmath.mpf(a) + (mpmath.mpf(b) - a) * i / n for i in range(n + 1)]
        return complex(mpmath.quad(lambda u: mpmath.exp(-alpha * u * u + 1j * k * u),
                                   edges, method="gauss-legendre"))


@pytest.mark.parametrize("kappa_range", [(0.0, 0.0), (0.0, _KAPPA_DIRECT), (_KAPPA_DIRECT, 90.0)],
                         ids=["zero-kappa", "direct-erf", "faddeeva"])
def test_osc_gauss_window_matches_mpmath(kappa_range):
    rng = np.random.default_rng(20151030)
    worst = 0.0
    for _ in range(N_CASES):
        alpha = 10.0 ** rng.uniform(-2.0, 2.0)
        ra = math.sqrt(alpha)
        a = rng.uniform(-4.0, 4.0) / ra
        b = a + rng.uniform(0.01, 4.0) / ra
        kappa = rng.uniform(*kappa_range) * rng.choice([-1.0, 1.0])
        got = complex(osc_gauss_window(a, b, alpha, kappa * ra))
        want = _reference_osc(a, b, alpha, kappa * ra)
        worst = max(worst, abs(got - want) / (b - a))
    assert worst < 1e-12


def test_gauss_window_matches_mpmath():
    rng = np.random.default_rng(20151031)
    worst = 0.0
    for _ in range(N_CASES):
        alpha = 10.0 ** rng.uniform(-2.0, 2.0)
        ra = math.sqrt(alpha)
        mu = rng.uniform(-3.0, 3.0) / ra
        a = mu + rng.uniform(-5.0, 5.0) / ra
        b = a + rng.uniform(0.01, 5.0) / ra
        got = float(gauss_window(a, b, mu, alpha))
        with mpmath.workdps(DIGITS):
            want = float(mpmath.quad(lambda u: mpmath.exp(-alpha * (u - mu) ** 2), [a, b]))
        worst = max(worst, abs(got - want) / (b - a))
    assert worst < 1e-12


_KAPPAS = [0.0, 1e-3, 17.58, _KAPPA_DIRECT, float(np.nextafter(_KAPPA_DIRECT, np.inf)), 527.0]
_KAPPAS += [-k for k in _KAPPAS]


def _bits(z):
    """The bit patterns of a complex array: equal bits, signed zeros included."""
    return np.ascontiguousarray(z, dtype=complex).view(np.uint64)


def _window_points():
    x = np.linspace(-40.0, 40.0, 4001)
    return np.concatenate([x, [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]])


def _reference_erf_damped(x, kappa):
    """exp(-kappa^2/4) * erf(x - i*kappa/2) with x and kappa broadcast
    elementwise, each element on the path its own kappa picks."""
    from scipy.special import erf, wofz

    x, kappa = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(kappa, dtype=float))
    out = np.empty(x.shape, dtype=complex)

    small = np.abs(kappa) <= _KAPPA_DIRECT
    if small.any():
        out[small] = np.exp(-kappa[small] ** 2 / 4.0) * erf(x[small] - 0.5j * kappa[small])

    big = ~small
    if big.any():
        sign = np.where(x[big] >= 0.0, 1.0, -1.0)
        xa = np.abs(x[big])
        ka = np.where(x[big] >= 0.0, kappa[big], -kappa[big])
        damped = np.exp(-(ka**2) / 4.0)
        val = damped - np.exp(-(xa**2) + 1j * ka * xa) * wofz(0.5 * ka + 1j * xa)
        out[big] = sign * val
    return out


@pytest.mark.parametrize("kappa", _KAPPAS)
def test_scalar_kappa_erf_matches_the_array_path(kappa):
    # one float kappa picks one path for every x; the masked array path
    # picks per element, and both give the same bits, so the W+- blocks
    # of coarse_grain keep theirs; osc_gauss_window passes an np.float64
    x = _window_points()
    want = _bits(_reference_erf_damped(x, np.full(x.shape, kappa)))
    for kap in (kappa, np.float64(kappa)):
        assert np.array_equal(_bits(_erf_damped(x, kap)), want)
