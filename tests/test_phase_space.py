"""Wigner matrix fields, pixel averaging, and the interference bookkeeping."""

import dataclasses
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate

import sgcoarse as sg
from sgcoarse import cli, numerics
from sgcoarse.numerics import gauss_legendre_nodes, osc_gauss_window
from sgcoarse.phase_space import (
    _SUPPORT_SIGMAS,
    _Y_CHUNK,
    SPIN_PAIRS,
    _box_average_form,
    _pair_form,
)

# single-pixel averages at (q, p) = (+1e-6 m, 0) for t = 3e-5 s with the
# default 1e-6 m x 100h/1e-6 pixel, in scaled (dimensionless) units;
# cross-checked against adaptive 2-D quadrature of the closed form
ANCHOR_PIXEL_PP = 9.177261080549619e-05
ANCHOR_PIXEL_MM = 2.494237384480632e-08


def _brute_wigner(state, pair, q0, p0):
    """Direct transform (1/2 pi hbar) int dy rho(q+y/2, q-y/2) e^{-i p y / hbar}."""
    hbar = state.params.hbar
    left, right = pair[0], pair[1]

    def value(y):
        return (state.amplitude(left, q0 + y / 2.0)
                * np.conj(state.amplitude(right, q0 - y / 2.0))
                * np.exp(-1j * p0 * y / hbar))

    lim = 14.0 * state.params.sigma
    re, _ = integrate.quad(lambda y: value(y).real, -lim, lim,
                           epsabs=1e-13, epsrel=1e-12, limit=800)
    im, _ = integrate.quad(lambda y: value(y).imag, -lim, lim,
                           epsabs=1e-13, epsrel=1e-12, limit=800)
    return (re + 1j * im) / (2.0 * np.pi * hbar)


def test_closed_form_matches_direct_transform(state_early, silver):
    t = state_early.t
    kick = silver.force * t
    probes = {
        "++": (state_early.center("+") + 0.4 * silver.sigma,
               kick + 0.3 * silver.hbar / silver.sigma),
        "--": (state_early.center("-") - 0.2 * silver.sigma,
               -kick - 0.2 * silver.hbar / silver.sigma),
        "+-": (0.1 * silver.sigma, 0.25 * silver.hbar / silver.sigma),
    }
    for pair, (q0, p0) in probes.items():
        field = sg.wigner_analytic(state_early, np.array([q0]), np.array([p0]))
        got = complex(field.block(pair)[0, 0])
        want = _brute_wigner(state_early, pair, q0, p0)
        assert abs(got - want) * silver.hbar < 1e-7


def test_numeric_transform_matches_closed_form(state_early, silver):
    ctr = state_early.center("+")
    q = np.linspace(ctr - 3 * silver.sigma, ctr + 3 * silver.sigma, 9)
    p = np.linspace(-1.2e-26, 1.2e-26, 9)
    analytic = sg.wigner_field(state_early, q, p, method="analytic")
    numeric = sg.wigner_field(state_early, q, p, method="numeric")
    for pair in ("++", "--", "+-"):
        dev = float(np.max(np.abs(analytic.block(pair) - numeric.block(pair))))
        assert dev * silver.hbar < 1e-9


def test_interference_peak_at_the_midpoint(state_early, silver):
    # the cross block envelope is centered at the origin with weight c+ c-*
    value = sg.wigner_analytic(state_early, np.array([0.0]), np.array([0.0]))
    assert abs(value.w_pm[0, 0]) * 2.0 * np.pi * silver.hbar == pytest.approx(
        1.0, abs=1e-9)


def test_marginal_and_total(state_early, silver):
    q, p = sg.default_phase_space_grid(silver, state_early.t, n_q=64, n_p=64)
    field = sg.wigner_field(state_early, q, p)
    for branch, pair in (("+", "++"), ("-", "--")):
        marg = field.marginal_position(pair)
        dens = state_early.density(branch, q)
        assert float(np.max(np.abs(marg - dens)) / np.max(dens)) < 1e-9
    assert field.total() == pytest.approx(1.0, abs=1e-9)


def test_density_matrix_grid_validation(state_early):
    with pytest.raises(ValueError):
        sg.density_matrix(state_early, np.array([]))
    with pytest.raises(ValueError):
        sg.density_matrix(state_early, np.array([0.0, 1e-7, 0.5e-7]))


def test_numeric_transform_guards(state_early):
    uneven = sg.density_matrix(state_early, np.array([0.0, 1e-7, 3e-7, 6e-7]))
    with pytest.raises(ValueError):
        sg.wigner_numeric(uneven, np.array([1e-7]), np.array([0.0]))
    sparse = sg.density_matrix(state_early, np.linspace(-5e-6, 5e-6, 64))
    with pytest.raises(sg.ResolutionError):
        sg.wigner_numeric(sparse, np.array([0.0]), np.array([1e-25]))


def test_numeric_transform_rejects_one_wide_gap(silver):
    # steps of 3.5e-9 m sit below numpy's default atol of 1e-8, so only an
    # absolute-tolerance-free check sees the one step that is 40 % too wide
    state = sg.evolve_in_field(silver, 1.0e-5)
    dx = 3.5e-9
    x = dx * (np.arange(401) - 200.0)
    x[201:] += 0.4 * dx
    rho = sg.density_matrix(state, x)
    with pytest.raises(ValueError, match="uniformly spaced"):
        sg.wigner_numeric(rho, np.array([0.0]), np.array([0.0]))


def test_numeric_field_rejects_a_nonuniform_q_axis(state_early, silver):
    # the rho grid is aligned with q[0] and q[1] - q[0], so an unequal later
    # step would put q off rho's nodes
    q = np.array([0.0, 1e-7, 1.234567e-7])
    p = np.array([-1e-27, 0.0, 1e-27])
    with pytest.raises(ValueError, match="uniformly spaced"):
        sg.wigner_field(state_early, q, p, method="numeric")
    uniform = np.array([0.0, 1e-7, 2e-7])
    analytic = sg.wigner_field(state_early, uniform, p, method="analytic")
    numeric = sg.wigner_field(state_early, uniform, p, method="numeric")
    dev = float(np.max(np.abs(analytic.w_pm - numeric.w_pm)))
    assert dev * silver.hbar < 1e-9


def _reference_wigner_numeric(rho, q, p):
    """Per-row loop of the unfolded transform: a full exp(-i p y / hbar)
    table for each q row and one vector-matrix product per spin pair.
    Returns the four complex blocks."""
    x, hbar = rho.x, rho.params.hbar
    dx = float(x[1] - x[0])
    idx = np.rint((q - x[0]) / dx).astype(int)
    out = {pair: np.empty((q.size, p.size), dtype=complex) for pair in SPIN_PAIRS}
    amps = {"+": rho.amp_plus, "-": rho.amp_minus}
    for row, i in enumerate(idx):
        m = min(i, x.size - 1 - i)
        j = np.arange(-m, m + 1)
        y = 2.0 * dx * j
        phase = np.exp(-1j * np.outer(y, p) / hbar)
        for pair in SPIN_PAIRS:
            r = amps[pair[0]][i + j] * np.conj(amps[pair[1]][i - j])
            out[pair][row, :] = (r @ phase) * (2.0 * dx / (2.0 * np.pi * hbar))
    return out


@pytest.mark.parametrize("weights", [None, (0.6, 0.8j)])
def test_folded_numeric_transform_matches_the_per_row_loop(silver, weights):
    params = silver
    if weights is not None:
        params = dataclasses.replace(silver, c_plus=weights[0], c_minus=weights[1])
    state = sg.evolve_in_field(params, 1.0e-5)
    dx = 3.5e-9  # resolves |p| <= 3 momentum widths at this time
    width_p = params.hbar / (np.sqrt(2.0) * params.sigma)
    p = np.concatenate([np.linspace(-3.0 * width_p, 3.0 * width_p, 7), [1e-30]])
    # Rows by node index on a short grid, then on one whose longest window,
    # m = 4k lags for k = _Y_CHUNK, spans five lag chunks; a row's window
    # ends at m = min(i, n-1-i): 0 at the edges, 3 inside the first chunk,
    # k-1 and k on either side of the first boundary, 2k on a later one,
    # 3k+5, 4k-37 and 4k past several.
    k = _Y_CHUNK
    for n, rows in [
        (401, [0, 3, 150, 200, 261, 400]),
        (8 * k + 1, [0, 3, k - 1, 7 * k, 2 * k, 3 * k + 5, 4 * k, 4 * k + 37, 8 * k]),
    ]:
        x = dx * (np.arange(n) - 0.5 * (n - 1))
        rho = sg.density_matrix(state, x)
        q = x[rows]
        field = sg.wigner_numeric(rho, q, p)
        want = _reference_wigner_numeric(rho, q, p)
        peak = max(float(np.max(np.abs(block))) for block in want.values())
        assert peak * params.hbar > 1e-3
        for pair in SPIN_PAIRS:
            dev = float(np.max(np.abs(field.block(pair) - want[pair])))
            assert dev <= 1e-12 * peak, (n, pair)


def test_numeric_transform_streams_its_phase_table(state_early, silver):
    # acceptance test 4's grid: a 115 549-point rho and 64 momenta.  A full
    # phase table for every lag up to the longest window (57 320 x 64 as
    # angle, cos and sin, 88 MB) puts the call's peak at 93 MB.
    q, p = sg.default_phase_space_grid(silver, state_early.t, n_q=64, n_p=64)
    tracemalloc.start()
    try:
        sg.wigner_field(state_early, q, p, method="numeric")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6


@pytest.mark.parametrize("offset", [-7.0, -0.2, 3.0], ids=["low", "just-low", "high"])
def test_numeric_transform_rejects_q_outside_the_density_grid(silver, offset):
    # q beyond rho's grid used to snap to the edge node with a one-sample window
    state = sg.evolve_in_field(silver, 1.0e-5)
    dx = 3.5e-9
    x = dx * (np.arange(401) - 200.0)
    rho = sg.density_matrix(state, x)
    edge = x[0] if offset < 0 else x[-1]
    q = np.array([x[200], edge + offset * dx])
    with pytest.raises(ValueError, match="outside the density matrix grid"):
        sg.wigner_numeric(rho, q, np.array([0.0]))


@pytest.mark.parametrize("offset", [0.3, 0.5, -0.45])
def test_numeric_transform_rejects_q_between_nodes(silver, offset):
    # the transform samples rho at q +- y/2 on its nodes; a q between nodes
    # would get the nearest node's value under the requested label
    state = sg.evolve_in_field(silver, 1.0e-5)
    dx = 3.5e-9
    x = dx * (np.arange(401) - 200.0)
    rho = sg.density_matrix(state, x)
    q = np.array([x[200], x[150] + offset * dx])
    with pytest.raises(ValueError, match="nearest density matrix node"):
        sg.wigner_numeric(rho, q, np.array([0.0]))


def test_numeric_transform_resolves_the_cross_window(state_early, silver):
    # the bench's window_cross shape: dq a quarter of the fringe spacing
    # hbar/(2 F t), p over +-6 momentum widths, on an adapted rho grid
    fringe = silver.hbar / (2.0 * silver.force * state_early.t)
    width_p = silver.hbar / (np.sqrt(2.0) * silver.sigma)
    q = 0.25 * fringe * (np.arange(16) - 7.5)
    p = np.linspace(-6.0 * width_p, 6.0 * width_p, 16)
    analytic = sg.wigner_field(state_early, q, p, method="analytic")
    numeric = sg.wigner_field(state_early, q, p, method="numeric")
    pairs = ("++", "--", "+-")
    peak = max(float(np.max(np.abs(analytic.block(k)))) for k in pairs)
    assert peak * silver.hbar >= 0.1
    for pair in pairs:
        dev = float(np.max(np.abs(analytic.block(pair) - numeric.block(pair))))
        assert dev <= 1e-9 * peak, pair


def test_pixel_spec_validation():
    with pytest.raises(ValueError):
        sg.CoarsePixelSpec(Delta=0.0, delta=1e-26)
    with pytest.raises(ValueError):
        sg.CoarsePixelSpec(Delta=1e-6, delta=-1e-26)
    spec = sg.CoarsePixelSpec.default()
    assert spec.Delta == 1e-6
    assert spec.cell_ratio == pytest.approx(100.0, rel=1e-12)


def test_coarse_pixels_suppress_interference(coarse_late, silver):
    field, _ = coarse_late
    diag_max = max(float(np.max(np.abs(field.w_pp))),
                   float(np.max(np.abs(field.w_mm))))
    ratio = float(np.max(np.abs(field.w_pm))) / diag_max
    assert ratio == pytest.approx(1.83084349004062e-05, rel=1e-2)
    assert field.pixels is not None and field.source is None


def test_coarse_diagonals_stay_nonnegative(coarse_late, silver):
    field, _ = coarse_late
    floor = -1e-12 / silver.hbar  # -1e-12 in scaled units
    assert float(np.min(field.w_pp)) >= floor
    assert float(np.min(field.w_mm)) >= floor


def test_coarse_pixel_anchor_values(state_late, silver, units):
    pix = sg.CoarsePixelSpec.default()
    fine = sg.wigner_field(state_late, np.array([1e-6]), np.array([0.0]))
    bar = sg.coarse_grain(fine, pix)
    pp = float(bar.w_pp[0, 0])
    mm = float(bar.w_mm[0, 0])
    assert pp * silver.hbar == pytest.approx(ANCHOR_PIXEL_PP, rel=1e-6)
    assert mm * silver.hbar == pytest.approx(ANCHOR_PIXEL_MM, rel=1e-6)
    # the same numbers as pixel masses W * Delta * delta
    assert pp * pix.Delta * pix.delta == pytest.approx(5.766243198146042e-02, rel=1e-6)
    assert mm * pix.Delta * pix.delta == pytest.approx(1.567175568678675e-05, rel=1e-6)


def test_tiny_pixels_recover_the_fine_field(state_early, silver):
    q = np.array([state_early.center("+") + 0.3 * silver.sigma])
    p = np.array([silver.force * state_early.t + 0.2 * silver.hbar / silver.sigma])
    fine = sg.wigner_field(state_early, q, p)
    devs = {}
    for fac in (1e-4, 1e-5):
        pix = sg.CoarsePixelSpec(Delta=fac * silver.sigma,
                                 delta=fac * silver.hbar / silver.sigma)
        bar = sg.coarse_grain(fine, pix)
        devs[fac] = float(np.abs(bar.w_pp[0, 0] - fine.w_pp[0, 0])
                          / np.abs(fine.w_pp[0, 0]))
    assert devs[1e-4] < 1e-8
    assert devs[1e-5] < 1e-10
    # window average error shrinks quadratically with the pixel size
    assert devs[1e-4] / devs[1e-5] > 30.0


@pytest.mark.parametrize("kind", ["numeric", "coarse"])
def test_fields_without_a_source_refuse_closed_form_operations(state_early, kind):
    q, p = sg.default_phase_space_grid(state_early.params, state_early.t, n_q=8, n_p=8)
    if kind == "numeric":
        field = sg.wigner_field(state_early, q, p, method="numeric")
    else:
        field = sg.coarse_grain(sg.wigner_field(state_early, q, p),
                                sg.CoarsePixelSpec.default())
    assert field.source is None
    with pytest.raises(ValueError, match="closed-form"):
        sg.coarse_grain(field, sg.CoarsePixelSpec.default())
    with pytest.raises(ValueError, match="closed-form"):
        field.marginal_position("++")
    with pytest.raises(ValueError, match="closed-form"):
        field.total()


def _fresh_python(code):
    """Last stdout line of code run by a fresh interpreter that imports the
    same package as this test run."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sg.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout.splitlines()[-1]


def _loaded_after_fresh_import(module):
    return _fresh_python(f"import sys, sgcoarse; print({module!r} in sys.modules)")


_SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


def test_import_does_not_load_scipy_interpolate():
    assert _loaded_after_fresh_import("scipy.interpolate") == "False"


def test_import_does_not_load_scipy_integrate():
    # only real_quad integrates, and it imports scipy.integrate on first use
    assert _loaded_after_fresh_import("scipy.integrate") == "False"


@pytest.mark.parametrize("module", ["sgcoarse", "sgcoarse.cli"])
def test_import_does_not_load_scipy(module):
    assert _fresh_python(f"import sys, {module}; print({_SCIPY_LOADED})") == "False"


def test_import_does_not_load_concurrent_futures():
    # osc_gauss_window's worker pool is made on first use
    code = "import sys, sgcoarse.cli; print('concurrent.futures' in sys.modules)"
    assert _fresh_python(code) == "False"


@pytest.mark.parametrize("argv, loads", [
    ("density --points 11", False),
    ("verify --t-list 1e-08 --n 512", False),
    ("info --points 3", True),
    ("wigner --grid 8x8 --coarse --coarse-grid 4x4", True),
], ids=["density", "verify", "info", "wigner-coarse"])
def test_subcommands_load_scipy_only_where_they_call_it(tmp_path, argv, loads):
    # scipy is absent after the import and present after main only if the
    # subcommand evaluates an erf, an xlogy or a quadrature
    code = (f"import sys; from sgcoarse import cli; before = {_SCIPY_LOADED}; "
            f"status = cli.main({argv.split() + ['--out', str(tmp_path)]!r}); "
            f"print(before, {_SCIPY_LOADED}, status)")
    assert _fresh_python(code) == f"False {loads} 0"


def _coarse_16(state):
    q, p = sg.default_phase_space_grid(state.params, state.t, n_q=16, n_p=16)
    return sg.coarse_grain(sg.wigner_field(state, q, p), sg.CoarsePixelSpec.default())


def _block_bits(field):
    return np.stack([field.w_pp, field.w_mm, field.w_pm.real, field.w_pm.imag]).view(np.uint64)


def test_coarse_grain_calls_every_window_on_the_callers_thread(state_early, monkeypatch):
    # a tracer hooks phase_space.osc_gauss_window and keeps one span stack,
    # so every hooked call has to come from the thread that called coarse_grain
    threads = []
    window = sg.phase_space.osc_gauss_window

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return window(*args, **kwargs)

    monkeypatch.setattr(sg.phase_space, "osc_gauss_window", recording)
    _coarse_16(state_early)
    assert threads and set(threads) == {threading.get_ident()}


def test_forked_child_coarse_grains_like_its_parent(state_early, tmp_path):
    want = _coarse_16(state_early)
    assert numerics._pool is not None  # the parent's worker thread is running
    out = tmp_path / "child.npy"
    with warnings.catch_warnings():
        # Python 3.12 warns that forking a process with threads may deadlock:
        # that is the case under test
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            np.save(out, _block_bits(_coarse_16(state_early)))
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("a forked child's coarse_grain did not finish within 30 s")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status) == 0
    assert np.array_equal(np.load(out), _block_bits(want))


def test_fringe_scale_measurement(silver):
    for t in (1e-5, 3e-5):
        state = sg.evolve_in_field(silver, t)
        want = silver.hbar / (2.0 * silver.force * t)
        assert sg.oscillation_scale(silver, t) == pytest.approx(want, rel=1e-15)
        assert sg.measure_oscillation_scale(state) == pytest.approx(want, rel=1e-6)
    with pytest.raises(ValueError):
        sg.oscillation_scale(silver, 0.0)
    with pytest.raises(ValueError):
        sg.oscillation_scale(sg.PhysicalParams.silver(force=0.0), 1e-5)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1e-9, math.inf],
                         ids=["nan", "zero", "negative", "inf"])
def test_fringe_scale_needs_a_positive_time(silver, bad):
    with pytest.raises(ValueError, match="time must be positive"):
        sg.oscillation_scale(silver, bad)


def test_spin_projection_identities(state_early, silver):
    q, p = sg.default_phase_space_grid(silver, state_early.t, n_q=16, n_p=16)
    field = sg.wigner_field(state_early, q, p)
    w_x = sg.project_spin_direction(field, (1.0, 0.0, 0.0))
    np.testing.assert_array_equal(
        w_x, 0.5 * (field.w_pp + field.w_mm) + np.real(field.w_pm))
    w_y = sg.project_spin_direction(field, (0.0, 1.0, 0.0))
    np.testing.assert_array_equal(w_y, field.w_pp)
    w_z = sg.project_spin_direction(field, (0.0, 0.0, 1.0))
    np.testing.assert_array_equal(
        w_z, 0.5 * (field.w_pp + field.w_mm) + np.imag(field.w_pm))
    with pytest.raises(ValueError):
        sg.project_spin_direction(field, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        sg.project_spin_direction(field, (1.0, 1.0))


def test_csv_row_iteration_is_q_major(state_early):
    q = np.array([0.0, 1e-7])
    p = np.array([-1e-27, 0.0, 1e-27])
    field = sg.wigner_field(state_early, q, p)
    proj = sg.project_spin_direction(field, (1.0, 0.0, 0.0))
    lines = list(cli._wigner_lines(field.p, [(field, proj)]))
    rows = [tuple(map(float, line.split(","))) for line in lines]
    assert sg.WIGNER_CSV_HEADER == "q,p,W_pp,W_mm,Re_W_pm,Im_W_pm"
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
    assert len(rows) == 6 and len(rows[0]) == 7
    assert [row[0] for row in rows[:3]] == [0.0] * 3
    assert [row[1] for row in rows[:3]] == [-1e-27, 0.0, 1e-27]
    assert rows[3][0] == 1e-7
    assert [row[6] for row in rows] == list(proj.ravel())


def test_coarse_position_density_matches_quadrature(state_late, silver):
    q = np.array([0.4e-6, 1.2e-6])
    width = 0.5e-6
    got = sg.coarse_position_density(state_late, q, width, "++")
    for i, q0 in enumerate(q):
        val, _ = integrate.quad(lambda x: state_late.density("+", x),
                                q0 - width / 2, q0 + width / 2,
                                epsabs=1e-16, epsrel=1e-13)
        assert got[i] == pytest.approx(val / width, rel=1e-12)


def test_wigner_field_method_validation(state_early):
    with pytest.raises(ValueError):
        sg.wigner_field(state_early, np.array([0.0]), np.array([0.0]), method="magic")


# ---------------------------------------------------------------------------
# post-field states: free flight keeps the branches an equal-width Gaussian
# pair, so the closed form, its marginals and its coarse graining still hold


@pytest.fixture(scope="module")
def state_post(silver):
    return sg.evolve_free_after_field(silver, 5e-6, 1e-5)


def test_post_field_closed_form_matches_numeric(state_post, silver):
    width_q = 6.0 * np.sqrt(state_post.variance("+"))
    width_p = 6.0 * silver.hbar / (np.sqrt(2.0) * silver.sigma)
    fringe = sg.oscillation_scale(silver, state_post.t_exit)
    windows = [
        (np.linspace(state_post.center(b) - width_q, state_post.center(b) + width_q, 16),
         np.linspace(state_post.mean_momentum(b) - width_p,
                     state_post.mean_momentum(b) + width_p, 16))
        for b in "+-"
    ]
    windows.append((0.25 * fringe * (np.arange(16) - 7.5), np.linspace(-width_p, width_p, 16)))
    for q, p in windows:
        analytic = sg.wigner_field(state_post, q, p, method="analytic")
        numeric = sg.wigner_field(state_post, q, p, method="numeric")
        assert analytic.source is state_post
        for pair in ("++", "--", "+-"):
            dev = float(np.max(np.abs(analytic.block(pair) - numeric.block(pair))))
            assert dev * silver.hbar < 1e-9


def test_post_field_marginal_and_total(state_post, silver):
    q, p = sg.default_phase_space_grid(silver, state_post.t, n_q=64, n_p=64)
    field = sg.wigner_field(state_post, q, p)
    for branch, pair in (("+", "++"), ("-", "--")):
        marg = field.marginal_position(pair)
        dens = state_post.density(branch, q)
        assert float(np.max(np.abs(marg - dens)) / np.max(dens)) < 1e-9
    assert field.total() == pytest.approx(1.0, abs=1e-9)


def test_post_field_coarse_pixels_suppress_interference(silver):
    state = sg.evolve_free_after_field(silver, 1e-5, 3e-5)
    q, p = sg.default_phase_space_grid(silver, state.t, n_q=128, n_p=128)
    field = sg.coarse_grain(sg.wigner_field(state, q, p), sg.CoarsePixelSpec.default())
    diag_max = max(float(np.max(np.abs(field.w_pp))), float(np.max(np.abs(field.w_mm))))
    assert float(np.max(np.abs(field.w_pm))) < 1e-3 * diag_max
    assert float(np.min(field.w_pp)) >= 0.0
    assert float(np.min(field.w_mm)) >= 0.0


def test_post_field_fringe_scale_follows_the_exit_time(state_post, silver):
    want = silver.hbar / (2.0 * silver.force * state_post.t_exit)
    assert sg.measure_oscillation_scale(state_post) == pytest.approx(want, rel=1e-6)


def _reference_box_average_form(form, qh, ph, hu, hv):
    """Full-grid box average: the node loop runs on every cell and the dead
    ones are masked to zero at the end."""
    cqq, cpp, cqp = form.cqq, form.cpp, form.cqp
    ki = float(form.cq.imag)
    a_v = -cpp + cqp * cqp / (4.0 * cqq)
    l0 = 2.0 * cqq * qh + form.cq + cqp * ph
    b_v = -2.0 * cpp * ph - cqp * qh - form.cp.real + cqp * l0.real / (2.0 * cqq)
    v_star = np.real(b_v) / (-2.0 * a_v)
    reach = _SUPPORT_SIGMAS / math.sqrt(-a_v)
    lo = np.maximum(-hv, v_star - reach)
    hi = np.minimum(hv, v_star + reach)
    live = hi > lo
    lo = np.where(live, lo, 0.0)
    hi = np.where(live, hi, 0.0)
    rate = abs(-form.cp.imag + ki * cqp / (2.0 * cqq))
    span = min(2.0 * hv, 2.0 * reach)
    panel = 2.0 / math.sqrt(-a_v)
    if rate > 0.0:
        panel = min(panel, 8.0 / rate)
    n_panels = min(max(1, math.ceil(span / panel)), 64)
    xg, wg = gauss_legendre_nodes(0.0, 1.0, 12)
    offsets = [(k + xk) / n_panels for k in range(n_panels) for xk in xg]
    weights = [wk / n_panels for _ in range(n_panels) for wk in wg]
    acc = np.zeros(np.broadcast(qh, ph).shape, dtype=complex)
    width = hi - lo
    for xk, wk in zip(offsets, weights):
        v = lo + width * xk
        pv = ph + v
        lu = 2.0 * cqq * qh + form.cq + cqp * pv
        lr = lu.real
        s = lr / (2.0 * cqq)
        j = osc_gauss_window(-hu + s, hu + s, cqq, -ki)
        e0 = (
            form.log_pref
            - cqq * qh**2
            - cpp * pv**2
            - cqp * qh * pv
            - form.cq * qh
            - form.cp * pv
            - form.c0
            + lr * lr / (4.0 * cqq)
            + 1j * ki * s
        )
        acc = acc + (wk * width) * np.exp(e0) * j
    return np.where(live, acc, 0.0) / (4.0 * hu * hv)


def _scaled_coarse_inputs(state, q, p):
    u = state.units
    pix = sg.CoarsePixelSpec.default()
    return (np.asarray(u.scale_length(q), dtype=float).reshape(-1, 1),
            np.asarray(u.scale_momentum(p), dtype=float).reshape(1, -1),
            0.5 * u.scale_length(pix.Delta), 0.5 * u.scale_momentum(pix.delta))


@pytest.mark.parametrize("t", [1e-6, 3e-5])
def test_live_cell_box_average_is_bit_identical(silver, t):
    state = sg.evolve_in_field(silver, t)
    q, p = sg.default_phase_space_grid(silver, t, n_q=128, n_p=128)
    qh, ph, hu, hv = _scaled_coarse_inputs(state, q, p)
    for pair in ("++", "--", "+-"):
        form = _pair_form(state, pair)
        got = _box_average_form(form, qh, ph, hu, hv)
        want = _reference_box_average_form(form, qh, ph, hu, hv)
        assert got.shape == want.shape == (128, 128)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_box_average_with_no_live_or_all_live_cells(silver):
    state = sg.evolve_in_field(silver, 1e-6)
    hbar_over_sigma = silver.hbar / silver.sigma
    q = np.linspace(-3.0 * silver.sigma, 3.0 * silver.sigma, 8)
    far = np.linspace(1000.0, 1010.0, 6) * hbar_over_sigma  # the pixel reaches ±314 hbar/sigma
    near = np.linspace(-1.0, 1.0, 6) * hbar_over_sigma
    for p, all_live in ((far, False), (near, True)):
        qh, ph, hu, hv = _scaled_coarse_inputs(state, q, p)
        for pair in ("++", "--", "+-"):
            form = _pair_form(state, pair)
            got = _box_average_form(form, qh, ph, hu, hv)
            want = _reference_box_average_form(form, qh, ph, hu, hv)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.all(got != 0) if all_live else not np.any(got)
