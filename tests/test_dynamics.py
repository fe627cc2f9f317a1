"""Closed-form wavepacket evolution: kinematics, propagation, exit handoff."""

import math

import mpmath
import numpy as np
import pytest

import sgcoarse as sg
from sgcoarse.dynamics import GaussianBranch


def test_initial_packet_is_canonical(state_t0, silver):
    assert state_t0.center("+") == 0.0
    assert state_t0.branch("+").mean_momentum * state_t0.units.momentum == 0.0
    assert state_t0.variance("+") == pytest.approx(silver.sigma**2 / 2.0, rel=1e-12)
    x = np.linspace(-8e-6, 8e-6, 20001)
    norm = np.trapezoid(abs(state_t0.amplitude("+", x, weighted=False)) ** 2, x)
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_branch_kinematics_in_field(state_early, silver):
    t = state_early.t
    a = silver.accel
    assert state_early.in_field
    assert state_early.center("+") == pytest.approx(0.5 * a * t * t, rel=1e-12)
    assert state_early.center("-") == pytest.approx(-0.5 * a * t * t, rel=1e-12)
    kick = silver.force * t / state_early.units.momentum
    assert state_early.branch("+").mean_momentum == pytest.approx(kick, rel=1e-12)
    assert state_early.branch("-").mean_momentum == pytest.approx(-kick, rel=1e-12)


def test_width_spreads_like_a_free_packet(silver, units):
    # the uniform force displaces but never squeezes: var = (sigma^2/2)(1 + th^2)
    t = 2.0e-5
    state = sg.evolve_in_field(silver, t)
    th = t / units.time
    want = 0.5 * silver.sigma**2 * (1.0 + th * th)
    for branch in "+-":
        assert state.variance(branch) == pytest.approx(want, rel=1e-12)


def test_density_stays_normalized(state_late):
    x = np.linspace(-3e-5, 3e-5, 40001)
    total = np.trapezoid(state_late.density("+", x) + state_late.density("-", x), x)
    assert total == pytest.approx(1.0, abs=1e-9)


def _uniform_force_kernel(params, accel, x, x_i, t):
    """⟨x|U(t)|xᵢ⟩ under the uniform acceleration `accel`, in SI."""
    m, hbar = params.mass, params.hbar
    action = (m * (x - x_i) ** 2 / (2.0 * t) + m * accel * t * (x + x_i) / 2.0
              - m * accel**2 * t**3 / 24.0)
    return np.sqrt(m / (2j * np.pi * hbar * t)) * np.exp(1j * action / hbar)


def test_kernel_propagates_the_closed_form(silver, scales):
    # integrating K++ against the t = 0 packet must land on the evolved branch
    t = 0.05 * scales.tau2
    target = sg.evolve_in_field(silver, t)
    xi = np.linspace(-12 * silver.sigma, 12 * silver.sigma, 40001)
    psi0 = sg.evolve_in_field(silver, 0.0).amplitude("+", xi, weighted=False)
    xs = target.center("+") + np.array([-1.0, -0.3, 0.2, 0.9]) * silver.sigma
    kern = _uniform_force_kernel(silver, silver.accel, xs[:, None], xi[None, :], t)
    got = np.trapezoid(kern * psi0[None, :], xi, axis=1)
    want = target.amplitude("+", xs, weighted=False)
    assert float(np.max(np.abs(got - want)) / np.max(np.abs(want))) < 1e-9


@pytest.mark.parametrize("drift", [0.05, 0.2])
def test_free_kernel_propagates_the_post_field_branches(silver, scales, drift):
    # after exit at 2e-5 s, the free kernel applied to the exit amplitudes
    # must land on the branches evolve_free_after_field carries on with a = 0
    t1, dt = 2.0e-5, drift * scales.tau2
    exit_state = sg.evolve_in_field(silver, t1)
    target = sg.evolve_free_after_field(silver, t1, t1 + dt)
    for branch in "+-":
        w0 = math.sqrt(exit_state.variance(branch))
        xi = exit_state.center(branch) + np.linspace(-12 * w0, 12 * w0, 10001)
        psi0 = exit_state.amplitude(branch, xi, weighted=False)
        xs = target.center(branch) + np.array([-1.0, -0.3, 0.2, 0.9]) * math.sqrt(
            target.variance(branch))
        kern = _uniform_force_kernel(silver, 0.0, xs[:, None], xi[None, :], dt)
        got = np.trapezoid(kern * psi0[None, :], xi, axis=1)
        want = target.amplitude(branch, xs, weighted=False)
        peak = abs(target.amplitude(branch, target.center(branch), weighted=False))
        assert float(np.max(np.abs(got - want))) < 1e-11 * peak


@pytest.mark.parametrize("a", [0.0, -3.0, 1.5e4])
def test_evolution_composes(a):
    # two steps of the one propagation rule equal one step of their sum
    starts = (GaussianBranch(0.0, 0.0, 0.5 + 0j, 0.0), GaussianBranch(0.4, -1.3, 0.3 - 0.2j, 2.0))
    for start in starts:
        for t1, t2 in ((0.3, 0.7), (1.25, 2.5), (0.01, 5.9), (2.0, 0.125)):
            two = start.evolved(a, t1).evolved(a, t2)
            one = start.evolved(a, t1 + t2)
            for name in ("center", "mean_momentum", "alpha"):
                assert getattr(two, name) == pytest.approx(getattr(one, name), rel=1e-15, abs=0)
            assert abs(two.phase - one.phase) <= 4 * np.spacing(abs(one.phase))


def _mpmath_in_field(a_s, t, x):
    """40-digit in-field branch at scaled (a_s, t, x):
    π^(-1/4) (1+it)^(-1/2) exp{-[12x² + a_s²t³(4i - t) + 12 a_s x t (t - 2i)] / [24(1+it)]}."""
    t, a_s, x = mpmath.mpf(t), mpmath.mpf(a_s), mpmath.mpf(x)
    d = 1 + 1j * t
    return (mpmath.pi ** mpmath.mpf(-0.25) / mpmath.sqrt(d) * mpmath.exp(
        -(12 * x**2 + a_s**2 * t**3 * (4j - t) + 12 * a_s * x * t * (t - 2j)) / (24 * d)))


@pytest.mark.parametrize("t", [1e-6, 3e-5, 1e-4, 1e-3, 1e-2])
def test_branch_values_keep_their_digits_at_long_times(silver, t):
    # |φ|² relative and the phase relative to φ(x̄), at x̄ and x̄ ± 1.5 widths;
    # the |φ|² floor from 1e-3 s on is the rounding of x̄ itself
    state = sg.evolve_in_field(silver, t)
    ts, a = t / state.units.time, silver.accel / state.units.accel
    for branch, a_s in (("+", a), ("-", -a)):
        g = state.branch(branch)
        xs = g.center + math.sqrt(g.variance) * np.array([-1.5, 0.0, 1.5])
        got = g.value(xs)
        with mpmath.workdps(40):
            want = [_mpmath_in_field(a_s, ts, x) for x in xs]
            for gv, wv in zip(got, want):
                dens = abs(wv) ** 2
                assert float(abs(abs(gv) ** 2 - dens) / dens) < 1e-11
                rel = (mpmath.mpc(gv) / mpmath.mpc(got[1])) / (wv / want[1])
                assert abs(float(mpmath.arg(rel))) < 1e-10


def test_exit_handoff_is_continuous(silver):
    t1 = 2.0e-5
    inside = sg.evolve_in_field(silver, t1)
    at_exit = sg.evolve_free_after_field(silver, t1, t1)
    x = np.linspace(-6e-6, 6e-6, 101)
    for branch in "+-":
        ref = inside.amplitude(branch, x)
        np.testing.assert_allclose(at_exit.amplitude(branch, x), ref,
                                   rtol=0, atol=1e-12 * float(np.max(np.abs(ref))))
    assert inside.in_field
    assert not sg.evolve_free_after_field(silver, t1, 3.0e-5).in_field


def test_coasting_after_exit(silver):
    t1, t = 2.0e-5, 3.5e-5
    state = sg.evolve_free_after_field(silver, t1, t)
    a = silver.accel
    p_plus = state.branch("+").mean_momentum * state.units.momentum
    assert p_plus == pytest.approx(silver.force * t1, rel=1e-12)
    assert state.center("+") == pytest.approx(
        0.5 * a * t1**2 + a * t1 * (t - t1), rel=1e-12)


def test_branch_overlap_closed_form(silver, scales):
    # |<phi_-|phi_+>| = exp[-t^2 (t^2 + 4 tau2^2) / tau1^4]
    for k in (1.0, 4.0, 10.0):
        t = k * scales.tau3
        state = sg.evolve_in_field(silver, t)
        log_want = -t * t * (t * t + 4.0 * scales.tau2**2) / scales.tau1**4
        assert abs(state.branch_overlap()) == pytest.approx(
            math.exp(log_want), rel=1e-12)


def _completed_overlap(state):
    """<phi_-|phi_+> by completing the 1-D square about the midpoint of the
    two centres: the closed form that the cross block's integral replaced."""
    p, m = state.branches
    dx = p.center - m.center
    A = p.alpha + np.conj(m.alpha)
    B = (p.alpha - np.conj(m.alpha)) * dx + 1j * (p.mean_momentum - m.mean_momentum)
    C = (-0.25 * A * dx * dx - 0.5j * (p.mean_momentum + m.mean_momentum) * dx
         + 1j * (p.phase - m.phase))
    norm = (4.0 * p.alpha.real * m.alpha.real / np.pi**2) ** 0.25
    return norm * np.sqrt(np.pi / A) * np.exp(B * B / (4.0 * A) + C)


@pytest.mark.parametrize("weights", [None, (0.6, 0.8)], ids=["equal", "0.6/0.8"])
def test_overlap_is_the_completed_square(silver, scales, weights):
    # the two closed forms agree to the roundoff of an exponent of size
    # |ln|<phi_-|phi_+>||, up to 696 at 3e-6 s
    params = silver if weights is None else sg.PhysicalParams.silver(
        c_plus=complex(weights[0]), c_minus=complex(weights[1]))
    states = [sg.evolve_in_field(params, t) for t in (1e-8, 1e-7, scales.tau3, 1e-6, 3e-6)]
    states.append(sg.evolve_free_after_field(params, 2e-7, 5e-7))
    for state in states:
        got, want = state.branch_overlap(), _completed_overlap(state)
        bound = 1e-15 * (1.0 + abs(math.log(abs(want))))
        assert abs(got - want) <= bound * abs(want), (state.t, state.t_exit)


@pytest.mark.parametrize("t", ["tau3", 1e-6])
def test_pure_spin_state_keeps_the_bare_overlap(silver, scales, t):
    # the overlap is the integral of the unweighted cross block, so c- = 0
    # changes nothing in it and zeroes the spin coherence
    t = scales.tau3 if t == "tau3" else t
    up = sg.evolve_in_field(sg.PhysicalParams.silver(c_plus=1 + 0j, c_minus=0j), t)
    equal = sg.evolve_in_field(silver, t)
    assert up.branch_overlap() == pytest.approx(equal.branch_overlap(), rel=1e-15)
    assert np.array_equal(sg.reduced_spin_density(up), np.diag([1.0, 0.0]))


def test_overlap_is_real_at_the_start(state_t0):
    assert state_t0.branch_overlap() == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_time_validation(silver):
    with pytest.raises(ValueError):
        sg.evolve_in_field(silver, -1e-9)
    with pytest.raises(ValueError):
        sg.evolve_free_after_field(silver, 2e-5, 1e-5)
    with pytest.raises(ValueError):
        sg.evolve_free_after_field(silver, -1e-9, 1e-5)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_times_are_rejected(silver, bad):
    with pytest.raises(ValueError):
        sg.evolve_in_field(silver, bad)
    with pytest.raises(ValueError):
        sg.evolve_free_after_field(silver, bad, 1e-5)
    with pytest.raises(ValueError):
        sg.evolve_free_after_field(silver, 1e-6, bad)


# every public call that takes a branch or spin-pair label: f(state, label)
# and the kind of label it takes
LABEL_CALLS = {
    "amplitude": (lambda s, b: s.amplitude(b, [0.0]), "branch"),
    "density": (lambda s, b: s.density(b, [0.0]), "branch"),
    "center": (lambda s, b: s.center(b), "branch"),
    "variance": (lambda s, b: s.variance(b), "branch"),
    "branch": (lambda s, b: s.branch(b), "branch"),
    "density_form": (lambda s, b: s.density_form(b), "branch"),
    "block_form": (lambda s, pair: s.block_form(pair), "pair"),
    "block": (lambda s, pair: sg.wigner_analytic(s, [0.0], [0.0]).block(pair), "pair"),
    "marginal_position": (
        lambda s, pair: sg.wigner_analytic(s, [0.0], [0.0]).marginal_position(pair), "pair"),
    "coarse_position_density": (
        lambda s, pair: sg.coarse_position_density(s, [0.0], 1e-6, pair), "pair"),
}
MALFORMED = {"branch": ["", "x", "+-x", "++-", "++"], "pair": ["", "x", "+-x", "++-", "+"]}


@pytest.mark.parametrize("call, label", [(call, label) for call, (_, kind) in LABEL_CALLS.items()
                                         for label in MALFORMED[kind]])
def test_malformed_label_raises(state_early, call, label):
    # dynamics' branch table alone reads a label and refuses a malformed
    # one; block_form('+-x') and marginal_position('++-') used to return the
    # '+-' and '++' blocks, and density_form('') and block_form('+') raised
    # IndexError
    f, kind = LABEL_CALLS[call]
    with pytest.raises(ValueError, match=f"{kind} must be"):
        f(state_early, label)
