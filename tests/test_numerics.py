"""Window integrals against high-precision quadrature."""

import concurrent.futures
import math
import sys
import threading

import mpmath
import numpy as np
import pytest

from sgcoarse import numerics
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


_KAPPAS = [0.0, 1e-3, 17.58, _KAPPA_DIRECT, float(np.nextafter(_KAPPA_DIRECT, np.inf)), 527.0]
_KAPPAS += [-k for k in _KAPPAS]


def _bits(z):
    """The bit patterns of a complex array: equal bits, signed zeros included."""
    return np.ascontiguousarray(z, dtype=complex).view(np.uint64)


def _window_points():
    x = np.linspace(-40.0, 40.0, 4001)
    return np.concatenate([x, [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]])


@pytest.mark.parametrize("kappa", _KAPPAS)
def test_scalar_kappa_erf_matches_the_array_path(kappa):
    # a 0-d kappa on the direct path skips the broadcast and the mask;
    # past _KAPPA_DIRECT it takes the array path as before
    x = _window_points()
    got = _erf_damped(x, np.float64(kappa))
    want = _erf_damped(x, np.full(x.shape, kappa))
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("kappa", _KAPPAS)
def test_threaded_window_matches_the_serial_formula(kappa):
    # the upper erf window runs on the worker thread, the lower on the caller's
    u = _window_points() / 4.0
    for alpha, a, b in [(1.0, u - 0.5, u + 0.5), (0.37, u, 2.0 * u), (4.0, -0.3, u)]:
        ra = np.sqrt(alpha)
        k = kappa * ra
        kap = np.asarray(k, dtype=float) / ra
        want = (np.sqrt(np.pi) / (2.0 * ra)) * (
            _erf_damped(np.asarray(b, dtype=float) * ra, kap)
            - _erf_damped(np.asarray(a, dtype=float) * ra, kap))
        assert np.array_equal(_bits(osc_gauss_window(a, b, alpha, k)), _bits(want))


def test_concurrent_first_calls_share_one_worker(monkeypatch):
    # more caller threads than cores, a short switch interval, and no pool
    # yet: the callers must make exactly one executor between them, and
    # each gets the serial values
    made = []

    class Counting(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counting)
    monkeypatch.setattr(numerics, "_pool", None)
    u = np.linspace(-3.0, 3.0, 257)
    want = _bits(np.sqrt(np.pi) / 2.0 * (_erf_damped(u + 0.5, 17.58) - _erf_damped(u - 0.5, 17.58)))
    results = []

    def call():
        for _ in range(20):
            results.append(np.array_equal(_bits(osc_gauss_window(u - 0.5, u + 0.5, 1.0, 17.58)), want))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
        for pool in made:
            pool.shutdown()
    assert not any(t.is_alive() for t in threads)
    assert len(made) == 1
    assert results == [True] * 160
