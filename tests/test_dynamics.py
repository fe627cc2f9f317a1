"""Closed-form wavepacket evolution: kinematics, kernels, exit handoff."""

import math

import numpy as np
import pytest

import sgcoarse as sg


def test_initial_packet_is_canonical(state_t0, silver):
    assert state_t0.center("+") == 0.0
    assert state_t0.mean_momentum("+") == 0.0
    assert state_t0.variance("+") == pytest.approx(silver.sigma**2 / 2.0, rel=1e-12)
    x = np.linspace(-8e-6, 8e-6, 20001)
    norm = np.trapezoid(state_t0.density("+", x, weighted=False), x)
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_branch_kinematics_in_field(state_early, silver):
    t = state_early.t
    a = silver.accel
    assert state_early.in_field
    assert state_early.center("+") == pytest.approx(0.5 * a * t * t, rel=1e-12)
    assert state_early.center("-") == pytest.approx(-0.5 * a * t * t, rel=1e-12)
    assert state_early.mean_momentum("+") == pytest.approx(silver.force * t, rel=1e-12)
    assert state_early.mean_momentum("-") == pytest.approx(-silver.force * t, rel=1e-12)


def test_width_spreads_like_a_free_packet(silver, units):
    # the uniform force displaces but never squeezes: var = (sigma^2/2)(1 + th^2)
    t = 2.0e-5
    state = sg.evolve_in_field(silver, t)
    th = units.scale_time(t)
    want = 0.5 * silver.sigma**2 * (1.0 + th * th)
    for branch in "+-":
        assert state.variance(branch) == pytest.approx(want, rel=1e-12)


def test_density_stays_normalized(state_late):
    x = np.linspace(-3e-5, 3e-5, 40001)
    total = np.trapezoid(state_late.density("+", x) + state_late.density("-", x), x)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_spin_off_diagonal_kernel_blocks_vanish(silver):
    x = np.linspace(-2e-6, 2e-6, 5)
    for block in ("+-", "-+"):
        kern = sg.kernel(block, x[:, None], x[None, :], 1e-5, silver)
        assert kern.shape == (5, 5)
        assert np.all(kern == 0)


def test_kernel_propagates_the_closed_form(silver, scales):
    # integrating K++ against the t = 0 packet must land on the evolved branch
    t = 0.05 * scales.tau2
    target = sg.evolve_in_field(silver, t)
    xi = np.linspace(-12 * silver.sigma, 12 * silver.sigma, 40001)
    psi0 = sg.evolve_in_field(silver, 0.0).amplitude("+", xi, weighted=False)
    xs = target.center("+") + np.array([-1.0, -0.3, 0.2, 0.9]) * silver.sigma
    kern = sg.kernel("++", xs[:, None], xi[None, :], t, silver)
    got = np.trapezoid(kern * psi0[None, :], xi, axis=1)
    want = target.amplitude("+", xs, weighted=False)
    assert float(np.max(np.abs(got - want)) / np.max(np.abs(want))) < 1e-9


def test_free_kernel_is_the_zero_force_limit():
    params = sg.PhysicalParams.silver(force=0.0)
    x = np.linspace(-2e-6, 2e-6, 9)
    k_branch = sg.kernel("++", x[:, None], x[None, :], 1.3e-5, params)
    k_free = sg.free_kernel(x[:, None], x[None, :], 1.3e-5, params)
    scale = float(np.max(np.abs(k_free)))
    np.testing.assert_allclose(k_branch, k_free, rtol=0, atol=1e-14 * scale)


def test_falling_frame_regenerates_the_kernel(silver):
    frame = sg.FallingFrameTransform(silver, "+")
    assert frame.accel == pytest.approx(silver.accel)
    x = np.linspace(-2e-6, 2e-6, 7)
    kern = sg.kernel("++", x[:, None], x[None, :], 1.3e-5, silver)
    lifted = frame.lift_free_kernel(x[:, None], x[None, :], 1.3e-5)
    assert float(np.max(np.abs(kern - lifted)) / np.max(np.abs(kern))) < 1e-9


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
    assert state.mean_momentum("+") == pytest.approx(silver.force * t1, rel=1e-12)
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


def test_overlap_is_real_at_the_start(state_t0):
    assert state_t0.branch_overlap() == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_time_validation(silver):
    with pytest.raises(ValueError):
        sg.evolve_in_field(silver, -1e-9)
    with pytest.raises(ValueError):
        sg.evolve_free_after_field(silver, 2e-5, 1e-5)
    with pytest.raises(ValueError):
        sg.evolve_free_after_field(silver, -1e-9, 1e-5)
    with pytest.raises(ValueError):
        sg.kernel("++", 0.0, 0.0, 0.0, silver)
    with pytest.raises(ValueError):
        sg.free_kernel(0.0, 0.0, -1e-9, silver)
    with pytest.raises(ValueError):
        sg.kernel("xx", 0.0, 0.0, 1e-6, silver)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_times_are_rejected(silver, bad):
    with pytest.raises(ValueError):
        sg.evolve_in_field(silver, bad)
    with pytest.raises(ValueError):
        sg.evolve_free_after_field(silver, bad, 1e-5)
    with pytest.raises(ValueError):
        sg.evolve_free_after_field(silver, 1e-6, bad)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1e-9, math.inf],
                         ids=["nan", "zero", "negative", "inf"])
def test_kernels_need_a_positive_time(silver, bad):
    with pytest.raises(ValueError, match="t > 0"):
        sg.kernel("++", 0.0, 0.0, bad, silver)
    with pytest.raises(ValueError, match="t > 0"):
        sg.free_kernel(0.0, 0.0, bad, silver)
