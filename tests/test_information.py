"""Entanglement entropy, screen statistics, and the mean information bound."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import xlogy

import sgcoarse as sg
from sgcoarse import information


def test_entropy_endpoints():
    assert sg.entropy_from_overlap(1.0) == 0.0
    assert sg.entropy_from_overlap(0.0) == sg.LN2
    with pytest.raises(ValueError):
        sg.entropy_from_overlap(1.0 + 1e-9)
    with pytest.raises(ValueError):
        sg.entropy_from_overlap(-1e-9)


def test_entropy_matches_scipy_xlogy():
    # the numpy x ln x takes 0 ln 0 = 0 without a divide warning and stays
    # within 2 ulps of scipy's xlogy, zeros included
    rng = np.random.default_rng(20151102)
    w = rng.uniform(0.0, 1.0, (2, 4000))
    w[0, 1::5] = 10.0 ** rng.uniform(-300.0, 0.0, w[0, 1::5].shape)
    w[:, ::7] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = information._entropy(w)
    want = -(xlogy(w[0], w[0]) + xlogy(w[1], w[1]))
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want)))
    assert np.all(got[::7] == 0.0)


@given(pair=st.tuples(st.floats(min_value=0.0, max_value=1.0),
                      st.floats(min_value=0.0, max_value=1.0)))
def test_entropy_is_bounded_and_monotone(pair):
    lo, hi = sorted(pair)
    s_lo, s_hi = sg.entropy_from_overlap(lo), sg.entropy_from_overlap(hi)
    assert 0.0 <= s_hi <= s_lo <= sg.LN2


def test_overlap_decay_values(scales):
    assert sg.overlap_decay(0.0, scales) == 1.0
    assert sg.overlap_decay(scales.tau3, scales) == pytest.approx(
        0.3678794345613942, rel=1e-12)
    with pytest.raises(ValueError):
        sg.overlap_decay(-1e-9, scales)


@pytest.mark.parametrize("t", [np.nan, np.inf, [0.0, np.nan], [0.0, np.inf]],
                         ids=["nan", "inf", "array-nan", "array-inf"])
def test_overlap_decay_needs_finite_times(scales, t):
    with pytest.raises(ValueError):
        sg.overlap_decay(t, scales)
    with pytest.raises(ValueError):
        sg.entanglement_entropy(t, scales)


def test_entanglement_entropy_anchor(scales):
    overlap, entropy = sg.entanglement_entropy(scales.tau3, scales)
    assert overlap == pytest.approx(0.3678794345613942, rel=1e-12)
    assert entropy == pytest.approx(0.6238640666912163, rel=1e-12)


def test_entanglement_saturates(scales):
    _, entropy = sg.entanglement_entropy(5.0 * scales.tau3, scales)
    assert sg.LN2 - entropy <= 1e-12


def test_entanglement_series_consistency(scales):
    times = np.linspace(0.0, 1e-6, 7)
    series = sg.entanglement_series(scales, times)
    assert series.S_ent[0] == 0.0
    np.testing.assert_array_equal(series.times, times)
    for t, overlap, entropy in zip(times, series.A_values, series.S_ent):
        a_pt, s_pt = sg.entanglement_entropy(t, scales)
        assert overlap == pytest.approx(a_pt, rel=1e-14, abs=1e-300)
        assert entropy == pytest.approx(s_pt, rel=1e-14, abs=1e-300)
    with pytest.raises(ValueError):
        sg.EntanglementSeries(np.zeros(3), np.zeros(3), np.zeros(4))


def test_reduced_spin_density_structure(state_early, silver):
    rho = sg.reduced_spin_density(state_early)
    assert rho.shape == (2, 2)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    assert rho[0, 0] == pytest.approx(abs(silver.c_plus) ** 2, abs=1e-12)
    np.testing.assert_allclose(rho, rho.conj().T, rtol=0, atol=1e-12)


def test_spin_entropy_consistent_with_overlap(silver, scales):
    # the 2x2 eigenvalues are (1 +- |<phi_-|phi_+>|)/2, so the von Neumann
    # entropy must agree with the scalar overlap formula
    for t in (scales.tau3, 1e-5):
        state = sg.evolve_in_field(silver, t)
        vn = sg.von_neumann_entropy(sg.reduced_spin_density(state))
        ref = sg.entropy_from_overlap(abs(state.branch_overlap()))
        assert vn == pytest.approx(ref, abs=1e-9)


def test_von_neumann_entropy_basics():
    assert sg.von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
    assert sg.von_neumann_entropy(np.eye(2) / 2.0) == pytest.approx(sg.LN2, rel=1e-15)
    with pytest.raises(ValueError):
        sg.von_neumann_entropy(np.diag([2.0, -1.0]))


def test_screen_before_separation(state_t0, silver):
    screen = sg.screen_distribution(state_t0, 0.5 * silver.sigma)
    mid = int(np.argmin(np.abs(screen.X)))
    assert screen.X[mid] == 0.0  # center alignment puts a pixel center at x=0
    assert screen.q_plus[mid] == pytest.approx(0.5, abs=1e-12)
    assert abs(screen.I[mid]) <= 1e-12
    assert screen.captured == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("c_plus, c_minus", [(1.0, 0.0), (0.0, 1.0)], ids=["up", "down"])
def test_pure_spin_screen_carries_no_information(silver, c_plus, c_minus):
    params = sg.PhysicalParams.silver(c_plus=complex(c_plus), c_minus=complex(c_minus))
    screen = sg.screen_distribution(sg.evolve_in_field(params, 3.0e-5), silver.sigma)
    assert np.all(screen.I == 0.0)
    assert screen.captured == pytest.approx(1.0, abs=1e-8)


def test_screen_edge_alignment(state_t0, silver):
    width = 0.5 * silver.sigma
    screen = sg.screen_distribution(state_t0, width, alignment="edge")
    # every pixel center sits half a width off the pixel-edge lattice
    frac = np.abs(screen.X / width - 0.5) % 1.0
    assert float(np.max(np.minimum(frac, 1.0 - frac))) <= 1e-9
    with pytest.raises(ValueError):
        sg.screen_distribution(state_t0, width, alignment="corner")


def test_screen_row_identities(state_late, silver):
    screen = sg.screen_distribution(state_late, silver.sigma)
    binary = -(xlogy(screen.q_plus, screen.q_plus)
               + xlogy(1.0 - screen.q_plus, 1.0 - screen.q_plus))
    assert float(np.max(np.abs(screen.I - (sg.LN2 - binary)))) <= 1e-12
    assert np.all(screen.P_plus >= 0.0) and np.all(screen.P_minus >= 0.0)


def test_screen_tails_identify_the_branch(state_late):
    screen = sg.screen_distribution(state_late, state_late.params.sigma)
    assert abs(screen.I[0] - sg.LN2) <= 1e-9
    assert abs(screen.I[-1] - sg.LN2) <= 1e-9


def _mpmath_screen(state, screen, width):
    """30-digit (P+, P-, q+, I) per pixel of a screen of pixel width `width`
    (m), each pixel mass the erfc difference of the tail it lies in, so no
    mass cancels."""
    u = state.units
    forms = [state.density_form(b) for b in "+-"]
    half = 0.5 * (width / u.length)
    rows = []
    with mpmath.workdps(30):
        for x in screen.X / u.length:
            mass = []
            for f in forms:
                ra = mpmath.sqrt(f.a)
                lo, hi = (mpmath.mpf(x - half) - f.mu) * ra, (mpmath.mpf(x + half) - f.mu) * ra
                if lo > 0:
                    d = mpmath.erfc(lo) - mpmath.erfc(hi)
                elif hi < 0:
                    d = mpmath.erfc(-hi) - mpmath.erfc(-lo)
                else:
                    d = mpmath.erf(hi) - mpmath.erf(lo)
                mass.append(f.C * mpmath.sqrt(mpmath.pi) / (2 * ra) * d)
            q = [m / (mass[0] + mass[1]) for m in mass]
            rows.append((*mass, q[0], mpmath.log(2) + sum(v * mpmath.log(v) for v in q)))
    return [np.array([float(r[k]) for r in rows]) for k in range(4)]


@pytest.mark.parametrize("t, width", [(1e-6, 0.25), (1e-5, 0.25), (1e-5, 1.0), (2e-5, 0.5),
                                      (3e-5, 0.25)])
def test_screen_tail_pixels_keep_their_digits(silver, t, width):
    # about half of each screen lies a few widths out in one branch's tail,
    # where erf(hi) - erf(lo) cancels to 0 although the masses are 1e-18 to
    # 1e-120; the erfc difference of that tail keeps them
    state = sg.evolve_in_field(silver, t)
    screen = sg.screen_distribution(state, width * silver.sigma)
    p_plus, p_minus, q_plus, info = _mpmath_screen(state, screen, width * silver.sigma)
    assert np.all(p_plus > 0.0) and np.all(p_minus > 0.0)
    assert float(np.max(np.abs(screen.P_plus / p_plus - 1.0))) <= 1e-12
    assert float(np.max(np.abs(screen.P_minus / p_minus - 1.0))) <= 1e-12
    assert float(np.max(np.abs(screen.q_plus - q_plus))) <= 1e-13
    assert float(np.max(np.abs(screen.I - info))) <= 1e-13


def test_screen_far_gap_takes_the_posterior_from_the_log_ratio(silver):
    # at 2e-4 s the branches are about 200 widths apart, so both pixel
    # masses underflow across the gap and only the log-density ratio is left
    state = sg.evolve_in_field(silver, 2e-4)
    screen = sg.screen_distribution(state, silver.sigma)
    assert np.sum((screen.P_plus == 0.0) & (screen.P_minus == 0.0)) > screen.X.size // 2
    assert np.all(np.diff(screen.q_plus) >= 0.0)
    assert np.all((screen.I >= 0.0) & (screen.I <= sg.LN2))
    assert abs(screen.mean_information() - sg.LN2) <= 1e-12


def test_mean_information_starts_at_zero(state_t0):
    assert sg.mean_information(state_t0) == 0.0


def test_mean_information_saturates(silver, scales):
    state = sg.evolve_in_field(silver, 5.0 * scales.tau1)
    assert sg.LN2 - sg.mean_information(state) <= 1e-12


def test_mean_information_below_entanglement(silver, scales):
    times = np.linspace(0.0, 10.0 * scales.tau1, 12)
    returned, gained, available = sg.information_series(silver, times)
    np.testing.assert_array_equal(returned, times)
    assert np.all(gained <= available + 1e-9)
    assert np.all(np.diff(gained) >= -1e-12)


def test_information_series_matches_pointwise(silver, scales):
    t = 2.0 * scales.tau1
    _, gained, available = sg.information_series(silver, np.array([t]))
    assert gained[0] == pytest.approx(sg.mean_information(sg.evolve_in_field(silver, t)),
                                      rel=1e-12)
    _, s_pt = sg.entanglement_entropy(t, scales)
    assert available[0] == pytest.approx(s_pt, rel=1e-12)


def test_coarser_pixels_lose_information(silver, scales):
    state = sg.evolve_in_field(silver, scales.tau1)
    for alignment in ("center", "edge"):
        gained = [
            sg.screen_distribution(state, width, alignment=alignment).mean_information()
            for width in (silver.sigma / 4, silver.sigma, 4 * silver.sigma)
        ]
        assert gained[0] >= gained[1] >= gained[2] >= 0.0


@given(s=st.floats(min_value=0.0, max_value=1.0),
       w_plus=st.floats(min_value=0.05, max_value=0.95),
       log_width=st.floats(min_value=-1.5, max_value=0.7),
       k=st.sampled_from([2, 3, 4]))
def test_nested_screens_obey_data_processing(s, w_plus, log_width, k, scales):
    # edge-aligned pixels of width kΔ are unions of pixels of width Δ, so
    # each coarsening is a function of the finer reading and cannot add
    # information: H(kΔ) <= H(Δ) <= the fine limit.  t runs log-uniformly
    # over [τ₃, 5τ₁]
    t = scales.tau3 * (5.0 * scales.tau1 / scales.tau3) ** s
    params = sg.PhysicalParams.silver(c_plus=complex(math.sqrt(w_plus)),
                                      c_minus=complex(math.sqrt(1.0 - w_plus)))
    state = sg.evolve_in_field(params, t)
    width = params.sigma * 10.0**log_width
    fine, coarse = (sg.screen_distribution(state, d, alignment="edge").mean_information()
                    for d in (width, k * width))
    assert coarse <= fine + 1e-12
    assert fine <= sg.mean_information(state) + 1e-12


def test_small_pixels_approach_the_fine_limit(silver, scales):
    state = sg.evolve_in_field(silver, scales.tau1)
    fine = sg.mean_information(state)
    pixelated = sg.screen_distribution(state, silver.sigma / 64).mean_information()
    assert pixelated == pytest.approx(fine, rel=1e-3)


@given(w_plus=st.floats(min_value=0.01, max_value=0.99))
def test_mean_information_with_unequal_weights(w_plus, scales):
    # the prior entropy, not ln2, is the zero point and the ceiling of H
    params = sg.PhysicalParams.silver(c_plus=complex(np.sqrt(w_plus)),
                                      c_minus=complex(np.sqrt(1.0 - w_plus)))
    prior = -(xlogy(w_plus, w_plus) + xlogy(1.0 - w_plus, 1.0 - w_plus))
    assert sg.mean_information(sg.evolve_in_field(params, 0.0)) <= 1e-12
    saturated = sg.mean_information(sg.evolve_in_field(params, 5.0 * scales.tau1))
    assert abs(saturated - prior) <= 1e-9
    for t in np.linspace(0.0, 5.0 * scales.tau1, 8):
        state = sg.evolve_in_field(params, float(t))
        bound = sg.von_neumann_entropy(sg.reduced_spin_density(state))
        assert sg.mean_information(state) <= bound + 1e-12


def _quad_information(state):
    """Fine-limit H by adaptive quadrature of a scalar integrand that forms
    the spin posteriors as a softmax of the branch log-densities."""
    from scipy import integrate

    forms = [state.density_form(b) for b in "+-"]
    weights = [abs(state.params.c_plus) ** 2, abs(state.params.c_minus) ** 2]
    prior = -sum(xlogy(w, w) for w in weights)
    log_cs = [math.log(f.C) if f.C > 0.0 else -math.inf for f in forms]

    def integrand(x):
        logs = [log_c - f.a * (x - f.mu) ** 2 for log_c, f in zip(log_cs, forms)]
        top = max(logs)
        if top == -math.inf:
            return 0.0
        rel = [math.exp(v - top) for v in logs]
        post = [r / sum(rel) for r in rel]
        return math.exp(top) * sum(rel) * (prior + sum(xlogy(q, q) for q in post))

    mus = sorted(f.mu for f in forms)
    reach = 15.0 / math.sqrt(min(f.a for f in forms))
    return integrate.quad(integrand, mus[0] - reach, mus[1] + reach, points=mus,
                          epsabs=1e-14, epsrel=1e-13, limit=1000)[0]


@given(log_t=st.floats(min_value=-9.0, max_value=-4.0),
       w_plus=st.floats(min_value=0.0, max_value=1.0),
       sign=st.sampled_from([1.0, -1.0]))
def test_mean_information_matches_adaptive_quadrature(log_t, w_plus, sign):
    # the composite Gauss-Legendre rule against a tight adaptive reference,
    # across times up to 1e-4 s, any spin weights and either sign of F
    silver = sg.PhysicalParams.silver()
    params = sg.PhysicalParams.silver(force=sign * silver.force,
                                      c_plus=complex(math.sqrt(w_plus)),
                                      c_minus=complex(math.sqrt(1.0 - w_plus)))
    state = sg.evolve_in_field(params, 10.0 ** log_t)
    want = _quad_information(state)
    assert abs(sg.mean_information(state) - want) <= 1e-13 + 1e-10 * abs(want)


@given(w_plus=st.floats(min_value=0.01, max_value=0.99),
       phase=st.floats(min_value=0.0, max_value=2.0 * np.pi),
       frac=st.floats(min_value=0.0, max_value=4.0))
def test_entanglement_entropy_with_unequal_weights(w_plus, phase, frac, scales):
    # S_ent is the entropy of the spin matrix whose coherence is the
    # paper's contrast A: zero at t = 0, the prior entropy once A -> 0
    c_plus = np.sqrt(w_plus) * np.exp(1j * phase)
    c_minus = complex(np.sqrt(1.0 - w_plus))
    params = sg.PhysicalParams.silver(c_plus=c_plus, c_minus=c_minus)
    prior = -(xlogy(w_plus, w_plus) + xlogy(1.0 - w_plus, 1.0 - w_plus))
    t = frac * scales.tau3
    overlap, entropy = sg.entanglement_entropy(t, scales, params)
    assert overlap == sg.overlap_decay(t, scales)
    off = c_plus * np.conj(c_minus) * overlap
    rho = np.array([[abs(c_plus) ** 2, off], [np.conj(off), abs(c_minus) ** 2]])
    assert abs(entropy - sg.von_neumann_entropy(rho)) <= 1e-12
    assert abs(sg.entanglement_entropy(0.0, scales, params)[1]) <= 1e-12
    assert abs(sg.entanglement_entropy(10.0 * scales.tau3, scales, params)[1] - prior) <= 1e-12
    series = sg.entanglement_series(scales, [t], params)
    assert series.S_ent[0] == entropy
    _, _, s_info = sg.information_series(params, np.array([t]))
    assert s_info[0] == entropy
