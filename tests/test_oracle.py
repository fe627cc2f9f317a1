"""Split-operator grid integrator against the closed forms."""

import dataclasses
import math

import numpy as np
import pytest

import sgcoarse as sg
from sgcoarse.dynamics import BRANCHES, SIGNS


def test_closed_forms_within_tolerance(oracle_report):
    report, _ = oracle_report
    assert len(report.rows) == 3
    for row in report.rows:
        assert max(row.l2_err_plus, row.l2_err_minus) < 1e-6
    # with the splitting's global phase divided out every row is at roundoff
    # (1.5e-14 at most); kept in, it would read |1 - e^(i phase)|, the phase
    assert report.max_l2 < 1e-13
    for row in report.rows:
        assert row.strang_phase > 0.0


def test_grid_overlap_matches_exact(oracle_report):
    report, _ = oracle_report
    assert report.max_overlap_dev < 1e-9


def test_per_step_norm_drift_is_unitary(oracle_report):
    report, _ = oracle_report
    assert report.max_norm_drift < 1e-12
    for row in report.rows:
        assert row.cum_norm_drift < 1e-10


def test_second_order_convergence(convergence):
    errs, orders = convergence
    assert len(errs) == 3 and len(orders) == 2
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.01)
    for e_coarse, e_fine in zip(errs, errs[1:]):
        assert 3.6 < e_coarse / e_fine < 4.4  # halving dt quarters the error


def test_convergence_study_starts_at_the_oracle_step(convergence, oracle_report, silver, scales):
    # level 0 steps at default_dt(tau3) = tau3/64: the grid of the tau3 row,
    # whose raw error (the Strang phase kept in) the study reads
    errs, _ = convergence
    report, _ = oracle_report
    row = report.rows[1]
    assert row.t == scales.tau3
    grid = sg.evolve_grid(silver, scales.tau3)
    assert grid.strang_phase == row.strang_phase
    exact = sg.evolve_in_field(silver, scales.tau3)
    raw = [sg.oracle._branch_error(grid, exact, i) for i in range(len(BRANCHES))]
    assert errs[0] == max(raw)
    assert errs[0] > 1e4 * max(row.l2_err_plus, row.l2_err_minus)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_strang_phase_is_the_grids_global_phase(silver, scales, units, level):
    # at each convergence level the grid leads the closed form by the global
    # phase a^2 t dt^2/24 (scaled), which the state carries; an absolute
    # bound, since roundoff alone moves the ratio by 1.6e-5 at t/256
    t = scales.tau3
    grid = sg.evolve_grid(silver, t, dt=t / 64.0 / 2**level)
    a, ts = silver.accel / units.accel, t / units.time
    dts = ts / 64.0 / 2**level
    want = a**2 * ts * dts**2 / 24.0
    assert grid.strang_phase == pytest.approx(want, rel=1e-12)
    exact = sg.evolve_in_field(silver, t)
    for i, label in enumerate(BRANCHES):
        ref = exact.amplitude(label, grid.x * units.length, weighted=False) / units.amplitude
        assert abs(np.angle(np.vdot(ref, grid.psi[i])) - want) <= 1e-13
        # dividing it out leaves roundoff; keeping it in leaves |1 - e^(i phase)|
        assert sg.oracle._branch_error(grid, exact, i, grid.strang_phase) < 1e-13
        assert sg.oracle._branch_error(grid, exact, i) == pytest.approx(want, rel=1e-4)


def test_verify_is_invariant_under_dimensional_scaling(silver, scales, monkeypatch):
    # sigma -> 2 sigma, F -> F/8 and t -> 4t leave every scaled quantity the
    # same bits, so the grids are the same; the L2 errors differ only through
    # the sigma^(-1/2) amplitude unit
    calls = []
    step = sg.oracle.step_split_operator

    def counted(state, dt):
        calls.append(None)
        return step(state, dt)

    monkeypatch.setattr(sg.oracle, "step_split_operator", counted)
    times = [0.1 * scales.tau3, scales.tau3, 0.01 * scales.tau2]
    scaled = sg.PhysicalParams.silver(sigma=2.0 * silver.sigma, force=silver.force / 8.0)
    report = sg.verify_closed_forms(silver, times)
    steps = len(calls)
    twin = sg.verify_closed_forms(scaled, [4.0 * t for t in times])
    assert steps == len(calls) - steps == 64 * 3
    for row, other in zip(report.rows, twin.rows):
        assert other.t == 4.0 * row.t
        assert abs(other.l2_err_plus - row.l2_err_plus) <= 1e-16
        assert abs(other.l2_err_minus - row.l2_err_minus) <= 1e-16
        assert abs(other.overlap_dev - row.overlap_dev) <= 1e-16
        assert other.norm_drift == row.norm_drift
        assert other.cum_norm_drift == row.cum_norm_drift
        assert other.strang_phase == row.strang_phase


def test_convergence_study_takes_448_steps(silver, scales, monkeypatch):
    calls = []
    step = sg.oracle.step_split_operator

    def counted(*args, **kwargs):
        calls.append(None)
        return step(*args, **kwargs)

    monkeypatch.setattr(sg.oracle, "step_split_operator", counted)
    sg.convergence_order(silver, scales.tau3, n=256)
    assert len(calls) == 64 + 128 + 256


def test_convergence_study_reads_the_minus_branch(silver, scales, monkeypatch):
    error = sg.oracle._branch_error

    def nan_minus(grid, exact, i):
        return math.nan if BRANCHES[i] == "-" else error(grid, exact, i)

    monkeypatch.setattr(sg.oracle, "_branch_error", nan_minus)
    errs, orders = sg.convergence_order(silver, scales.tau3, n=256)
    assert np.all(np.isnan(errs)) and np.all(np.isnan(orders))


def test_zero_force_is_exact_free_motion():
    params = sg.PhysicalParams.silver(force=0.0)
    report = sg.verify_closed_forms(params, [2e-4], n=2048)
    row = report.rows[0]
    assert max(row.l2_err_plus, row.l2_err_minus) < 1e-10
    assert row.overlap_dev < 1e-10
    # no force, no Strang phase: the rows are the raw errors
    assert row.strang_phase == 0.0
    grid = sg.evolve_grid(params, 2e-4, n=2048)
    exact = sg.evolve_in_field(params, 2e-4)
    assert row.l2_err_plus == sg.oracle._branch_error(grid, exact, 0)
    assert row.l2_err_minus == sg.oracle._branch_error(grid, exact, 1)


def test_grid_state_diagnostics(silver, scales, units):
    grid = sg.evolve_grid(silver, scales.tau3)
    assert grid.norms * grid.dx == pytest.approx([1.0, 1.0], abs=1e-12)
    assert grid.boundary_mass() < 1e-15
    assert grid.step_norm_drift < 1e-12
    want = sg.evolve_in_field(silver, scales.tau3).center("+") / units.length
    density = np.abs(grid.psi[0]) ** 2
    assert np.sum(grid.x * density) / np.sum(density) == pytest.approx(want, abs=1e-8)


def test_undersampled_grid_is_rejected(silver):
    with pytest.raises(sg.ResolutionError):
        sg.evolve_grid(silver, 1e-4, n=256)


def test_escaping_packet_is_rejected():
    weak = sg.PhysicalParams.silver(force=9.27e-24)
    with pytest.raises(ValueError):
        sg.evolve_grid(weak, 8.5e-4, n=4096, half_width=10.0)


def test_default_dt_subdivides_the_interval(silver, scales):
    for t in (scales.tau3, 0.01 * scales.tau2):
        assert sg.default_dt(silver, t) == t / 64.0
    # t = 0 takes no step, but evolve_grid checks the dt it is given first
    assert sg.default_dt(silver, 0.0) > 0.0


def test_grid_argument_validation(silver, scales):
    with pytest.raises(ValueError):
        sg.evolve_grid(silver, scales.tau3, dt=-1e-9)
    with pytest.raises(ValueError):
        sg.evolve_grid(silver, -1.0)
    with pytest.raises(ValueError):
        sg.make_grid_state(silver, n=8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0], ids=["nan", "inf", "-inf", "zero"])
def test_grid_needs_a_finite_positive_half_width(silver, bad):
    with pytest.raises(ValueError):
        sg.make_grid_state(silver, n=64, half_width=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_grid_evolution_needs_a_finite_time(silver, bad):
    with pytest.raises(ValueError, match="finite"):
        sg.evolve_grid(silver, bad, n=64)


@pytest.mark.parametrize("bad", [np.nan, 0.0, -1e-9, np.inf],
                         ids=["nan", "zero", "negative", "inf"])
def test_grid_steps_need_a_positive_dt(silver, scales, bad):
    with pytest.raises(ValueError, match="dt must be positive"):
        sg.step_split_operator(sg.make_grid_state(silver, n=64), bad)
    with pytest.raises(ValueError, match="dt must be positive"):
        sg.evolve_grid(silver, scales.tau3, dt=bad, n=64)


def _reference_step_split_operator(state, dt):
    """One Strang step per branch, every factor rebuilt: the plain form of
    the batched step."""
    dts = dt / state.units.time
    a = state.params.accel / state.units.accel
    k = 2.0 * np.pi * np.fft.fftfreq(state.x.size, d=state.dx)
    drift = np.exp(-1j * k**2 * dts / 2.0)
    new = []
    drift_max = state.step_norm_drift
    for psi, sign in zip(state.psi, SIGNS):
        kick = np.exp(1j * sign * a * state.x * dts / 2.0)
        out = kick * psi
        out = np.fft.ifft(np.fft.fft(out) * drift)
        out = kick * out
        n_in = np.sum(np.abs(psi) ** 2)
        n_out = np.sum(np.abs(out) ** 2)
        drift_max = max(drift_max, float(abs(n_out / n_in - 1.0)))
        new.append(out)
    psi = np.stack(new)
    return sg.GridState(
        params=state.params, units=state.units, x=state.x, dx=state.dx, t=state.t + dts,
        psi=psi, norms=np.sum(np.abs(psi) ** 2, axis=-1), step_norm_drift=drift_max,
    )


def _broadcast_step_split_operator(state, dt):
    """The batched step in its broadcast form, every factor rebuilt: an (n,)
    drift broadcast over both rows and the norms from np.abs, the same
    arithmetic on psi as step_split_operator."""
    dts = dt / state.units.time
    a = state.params.accel / state.units.accel
    k = 2.0 * np.pi * np.fft.fftfreq(state.x.size, d=state.dx)
    kick = np.stack([np.exp(1j * s * a * state.x * dts / 2.0) for s in SIGNS])
    out = kick * state.psi
    np.fft.fft(out, axis=-1, out=out)
    out *= np.exp(-1j * k**2 * dts / 2.0)
    np.fft.ifft(out, axis=-1, out=out)
    out *= kick
    norms = np.sum(np.abs(out) ** 2, axis=-1)
    drift_max = float(np.max(np.abs(norms / state.norms - 1.0), initial=state.step_norm_drift))
    return sg.GridState(
        params=state.params, units=state.units, x=state.x, dx=state.dx, t=state.t + dts,
        psi=out, norms=norms, step_norm_drift=drift_max,
    )


_F = sg.PhysicalParams.silver().force
_STEP_CASES = pytest.mark.parametrize(
    "force, dt_later",
    [
        (_F, None),  # silver
        (-_F, None),
        (0.0, None),
        (_F, 1.7e-9),  # dt changes after 100 steps
    ],
    ids=["silver", "negative-F", "zero-F", "dt-change"],
)


def _step_pair(force, dt_later, reference):
    """200 steps of step_split_operator and of `reference` from one state."""
    params = sg.PhysicalParams.silver(force=force)
    dt = 2.5e-9
    new = ref = sg.make_grid_state(params, n=1024)
    for step in range(200):
        if step == 100 and dt_later is not None:
            dt = dt_later
        new = sg.step_split_operator(new, dt)
        ref = reference(ref, dt)
    assert new.t == ref.t
    return new, ref


@_STEP_CASES
def test_step_matches_per_branch_reference(force, dt_later):
    new, ref = _step_pair(force, dt_later, _reference_step_split_operator)
    for i in range(2):
        peak = np.max(np.abs(ref.psi[i]))
        assert np.max(np.abs(new.psi[i] - ref.psi[i])) <= 1e-12 * peak


@_STEP_CASES
def test_step_keeps_the_bits_of_the_broadcast_step(force, dt_later):
    # the (2, n) drift multiplies the same values as the broadcast (n,) one,
    # and the norms only read psi, so psi is the same to the last bit
    new, ref = _step_pair(force, dt_later, _broadcast_step_split_operator)
    assert np.array_equal(new.psi.view(float), ref.psi.view(float))


def test_norms_are_a_pairwise_sum_of_squares(silver, scales):
    # Σ(Re² + Im²) over 8192 floats: pairwise roundoff against the exact sum
    grid = sg.evolve_grid(silver, scales.tau3)
    assert grid.psi.shape == (2, 4096)
    for i in range(2):
        want = math.fsum(v * v for v in grid.psi[i].view(float).tolist())
        assert abs(grid.norms[i] - want) <= 1e-15 * want


def test_verify_refuses_an_empty_time_list(silver):
    with pytest.raises(ValueError, match="t_list is empty"):
        sg.verify_closed_forms(silver, [], n=64)


@pytest.mark.parametrize("bad", [0.0, -1e-9, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
def test_convergence_study_refuses_a_nonpositive_time(silver, bad):
    with pytest.raises(ValueError, match="positive finite time t, got t="):
        sg.convergence_order(silver, bad, n=64)


def test_step_norm_drift_is_measured_each_step(silver, scales):
    dt = sg.default_dt(silver, scales.tau3)
    states = [sg.make_grid_state(silver)]
    for _ in range(5):
        states.append(sg.step_split_operator(states[-1], dt))
    want = max(
        abs(float(np.sum(np.abs(b.psi[i]) ** 2) / np.sum(np.abs(a.psi[i]) ** 2)) - 1.0)
        for a, b in zip(states, states[1:])
        for i in range(2)
    )
    assert abs(states[-1].step_norm_drift - want) <= 1e-16


def _with_nan(state):
    psi = state.psi.copy()
    psi[0, psi.shape[1] // 2] = np.nan
    return dataclasses.replace(state, psi=psi)


def test_a_nan_step_norm_drift_is_kept(silver, scales, monkeypatch):
    # a NaN norm makes a NaN drift, which the running maximum and the
    # report both keep, so no bound on them can pass over it
    dt = sg.default_dt(silver, scales.tau3)
    state = sg.step_split_operator(_with_nan(sg.make_grid_state(silver, n=256)), dt)
    assert np.isnan(state.norms[0]) and np.isfinite(state.norms[1])
    assert np.isnan(state.step_norm_drift)
    assert np.isnan(sg.step_split_operator(state, dt).step_norm_drift)
    make = sg.oracle.make_grid_state
    monkeypatch.setattr(sg.oracle, "make_grid_state", lambda *a, **kw: _with_nan(make(*a, **kw)))
    report = sg.verify_closed_forms(silver, [scales.tau3], n=256)
    assert np.isnan(report.rows[0].norm_drift)
    assert np.isnan(report.max_norm_drift)
