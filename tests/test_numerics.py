"""Window integrals against high-precision quadrature."""

import math

import mpmath
import numpy as np
import pytest

from sgcoarse.numerics import (_erf_damped, _erfc, _faddeeva, _leggauss, gauss_window,
                                osc_gauss_window, real_quad)

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


# the ranges where the kernel once took a direct complex erf (|κ| <= 30)
# and the Faddeeva form (above); one formula now serves both
@pytest.mark.parametrize("kappa_range", [(0.0, 0.0), (0.0, 30.0), (30.0, 90.0)],
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


def _mpmath_w(z):
    """w(z) = exp(-z²) erfc(-iz) at 30 digits."""
    with mpmath.workdps(30):
        return np.array([complex(mpmath.exp(-mpmath.mpc(v) ** 2) * mpmath.erfc(-1j * mpmath.mpc(v)))
                         for v in z])


def _w_points(region, n=200):
    rng = np.random.default_rng(20151101)
    if region == "wide":
        return rng.uniform(-1e4, 1e4, n) + 1j * rng.uniform(0.0, 1e3, n)
    if region == "core":
        return rng.uniform(-15.0, 15.0, n) + 1j * rng.uniform(0.0, 6.0, n)
    if region == "origin":
        z = 1e-3 * rng.uniform(0.0, 1.0, n) * np.exp(1j * rng.uniform(0.0, np.pi, n))
        return np.concatenate([z, [0.0, 1e-3, -1e-3, 1e-3j]])
    # osc_gauss_window's arguments κ/2 + i|x| for |κ| up to 1200
    return rng.uniform(-600.0, 600.0, n) + 1j * np.concatenate(
        [np.zeros(n // 4), 10.0 ** rng.uniform(-300.0, 1.5, n - n // 4)])


@pytest.mark.parametrize("region", ["wide", "core", "origin", "kappa"])
def test_faddeeva_matches_mpmath(region):
    z = _w_points(region)
    want = _mpmath_w(z)
    assert float(np.max(np.abs(_faddeeva(z) - want) / np.abs(want))) <= 1e-13


def test_erfc_matches_mpmath():
    # 26.5 is about where erfc leaves the normal range
    x = np.linspace(-5.0, 26.5, 1261)
    with mpmath.workdps(30):
        want = np.array([float(mpmath.erfc(mpmath.mpf(v))) for v in x])
    assert float(np.max(np.abs(_erfc(x) / want - 1.0))) <= 1e-13


def test_erf_matches_mpmath():
    # gauss_window takes a window across mu as erfc(lo) - erfc(hi), that is
    # erf(hi) - erf(lo) with erf = 1 - erfc
    x = np.linspace(-6.0, 6.0, 1201)
    with mpmath.workdps(30):
        want = np.array([float(mpmath.erf(mpmath.mpf(v))) for v in x])
    assert float(np.max(np.abs((1.0 - _erfc(x)) - want))) <= 1e-15


_KAPPAS = [0.0, 1e-3, 17.58, 30.0, float(np.nextafter(30.0, np.inf)), 527.0]
_KAPPAS += [-k for k in _KAPPAS]


def _bits(z):
    """The bit patterns of a complex array: equal bits, signed zeros included."""
    return np.ascontiguousarray(z, dtype=complex).view(np.uint64)


def _window_points():
    x = np.linspace(-40.0, 40.0, 4001)
    return np.concatenate([x, [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]])


def _reference_erf_damped(x, kappa):
    """exp(-kappa^2/4) * erf(x - i*kappa/2) with x and kappa broadcast
    elementwise, by scipy: a direct complex erf where |kappa| <= 30 and
    the reflected Faddeeva form above, each element on its own kappa's path."""
    from scipy.special import erf, wofz

    x, kappa = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(kappa, dtype=float))
    out = np.empty(x.shape, dtype=complex)

    small = np.abs(kappa) <= 30.0
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
    # one formula for every kappa, finite at +-0 and at subnormal x, within
    # ten ulps of 1 of scipy's per-element paths on both sides of the old
    # switch at 30; osc_gauss_window passes an np.float64, which gives the
    # same bits as a float
    x = _window_points()
    got = _erf_damped(x, kappa)
    assert np.all(np.isfinite(got))
    assert float(np.max(np.abs(got - _reference_erf_damped(x, np.full(x.shape, kappa))))) \
        <= 10.0 * np.finfo(float).eps
    assert np.array_equal(_bits(_erf_damped(x, np.float64(kappa))), _bits(got))


def test_gauss_legendre_rule_is_built_once_and_read_only():
    from numpy.polynomial.legendre import leggauss

    x, w = _leggauss(12)
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    again = _leggauss(12)
    assert again[0] is x and again[1] is w
    want_x, want_w = leggauss(12)
    assert np.array_equal(x, want_x) and np.array_equal(w, want_w)


def _uncached_real_quad(f, a, b, panel, points=()):
    """real_quad with the 20-node rule rebuilt on every call."""
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


@pytest.mark.parametrize("points", [(), (-1.5, 0.0, 2.0, 9.0)])
def test_real_quad_matches_an_uncached_rule_bit_for_bit(points):
    def f(u):
        return np.exp(-u * u) * np.cos(3.0 * u) ** 2

    for a, b, panel in [(-4.0, 5.0, 0.7), (-1e-3, 2e-3, 1e-4), (0.0, 30.0, 2.5)]:
        got = real_quad(f, a, b, panel, points)
        assert got.hex() == _uncached_real_quad(f, a, b, panel, points).hex()
