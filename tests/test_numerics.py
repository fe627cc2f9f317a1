"""Window integrals against high-precision quadrature."""

import math

import mpmath
import numpy as np
import pytest

from sgcoarse.numerics import _KAPPA_DIRECT, gauss_window, osc_gauss_window

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


@pytest.mark.parametrize("kappa_range", [(0.0, _KAPPA_DIRECT), (_KAPPA_DIRECT, 90.0)],
                         ids=["direct-erf", "faddeeva"])
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
