"""Wigner matrix fields, pixel averaging, and the interference bookkeeping."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

import sgcoarse as sg
from sgcoarse import cli
from sgcoarse.dynamics import BRANCHES, SIGNS, SPIN_PAIRS, pair_indices
from sgcoarse.phase_space import (
    _LAG_BLOCK,
    _RHO_CHUNK,
    _Y_CHUNK,
    _box_average_form,
    _numeric_spacing_bound,
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


def _mpmath_block(state, pair, qh, ph):
    """40-digit W_so at scaled points (qh, ph), scaled units: the y-integral
    of c_s φ_s(q+y/2) (c_o φ_o(q-y/2))* e^{-ipy} / 2π closed as
    sqrt(π/A) exp(B²/4A - C), with the in-field (α, β, γ, N) recomputed in
    mpmath from the scaled time and acceleration."""
    u = state.units
    with mpmath.workdps(40):
        t = mpmath.mpf(state.t / u.time)
        accel = mpmath.mpf(state.params.accel / u.accel)
        d = 1 + 1j * t
        coef = []
        for c, sign in zip(state.params.weights, SIGNS):
            a_s = sign * accel
            coef.append((mpmath.mpc(c) * mpmath.pi ** mpmath.mpf(-0.25)
                         / mpmath.sqrt(d), 1 / (2 * d), a_s * t * (t - 2j) / (2 * d),
                         a_s**2 * t**3 * (4j - t) / (24 * d)))
        (ns, als, bes, gas), (no, alo, beo, gao) = (coef[i] for i in pair_indices(pair))
        alo, beo, gao, no = (mpmath.conj(v) for v in (alo, beo, gao, no))
        out = []
        for q, p in zip(qh, ph):
            q, p = mpmath.mpf(q), mpmath.mpf(p)
            a2 = (als + alo) / 4
            b1 = (als - alo) * q + (bes - beo) / 2 + 1j * p
            c0 = (als + alo) * q**2 + (bes + beo) * q + gas + gao
            w = ns * no * mpmath.sqrt(mpmath.pi / a2) * mpmath.exp(b1**2 / (4 * a2) - c0)
            out.append(complex(w / (2 * mpmath.pi)))
    return np.array(out)


# worst |W - mpmath| / block peak allowed on the stencil below; at t <= 1e-4 s
# the W+- floor is half an ulp of its phase k0.z, up to 1.2e3 rad at 1e-4 s
LONG_TIME_BOUNDS = {1e-6: 2e-13, 3e-5: 2e-13, 1e-4: 2e-13, 3e-4: 1e-12, 1e-2: 1e-9, 1e-1: 1e-7}


@pytest.mark.parametrize("t", sorted(LONG_TIME_BOUNDS))
def test_closed_form_keeps_its_digits_at_long_times(silver, t):
    # a 3x3 stencil at 0 and +-1 marginal width in q and in p about each
    # block's centre; at late times its corners lie on the sheared ridge
    state = sg.evolve_in_field(silver, t)
    u = state.units
    alpha = state.branch("+").alpha
    sq = 0.5 / math.sqrt(alpha.real) * silver.sigma
    sp = math.sqrt(alpha.real + alpha.imag**2 / alpha.real) * silver.hbar / silver.sigma
    for pair in ("++", "+-"):
        q0 = 0.5 * (state.center(pair[0]) + state.center(pair[1]))
        p0 = 0.5 * (state.branch(pair[0]).mean_momentum
                    + state.branch(pair[1]).mean_momentum) * u.momentum
        q = np.repeat(q0 + sq * np.arange(-1, 2), 3)
        p = np.tile(p0 + sp * np.arange(-1, 2), 3)
        field = sg.wigner_analytic(state, q, p)
        got = np.diagonal(field.block(pair)) * silver.hbar
        want = _mpmath_block(state, pair, q / u.length, p / u.momentum)
        s, o = pair_indices(pair)
        peak = abs(silver.weights[s] * silver.weights[o]) / np.pi
        assert float(np.max(np.abs(got - want))) < LONG_TIME_BOUNDS[t] * peak


@pytest.mark.parametrize("t", [3e-5, 1e-4, 3e-4])
def test_closed_form_mass_is_exact(silver, t):
    q, p = sg.default_phase_space_grid(silver, t, n_q=4001, n_p=2)
    field = sg.wigner_field(sg.evolve_in_field(silver, t), q, p)
    assert abs(field.total() - 1.0) < 1e-14


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
    amps = dict(zip(BRANCHES, rho.amps))
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
    # p_fast: the momentum at which dx is 0.9 of the spacing bound, the
    # margin density_grid_for_wigner keeps, so 2 dx p_fast / hbar is the
    # largest phase per lag such a grid is used at
    k_state = np.pi / (8.0 * _numeric_spacing_bound(params, state.t, 0.0))
    p_fast = params.hbar * (0.9 * np.pi / (8.0 * dx) - k_state)
    assert _numeric_spacing_bound(params, state.t, p_fast) == pytest.approx(dx / 0.9)
    # Rows by node index on a short grid, then on one whose longest window,
    # m = 4k lags for k = _Y_CHUNK, spans five lag chunks; a row's window
    # ends at m = min(i, n-1-i): 0 at the edges, 3 inside the first chunk,
    # k-1 and k on either side of the first boundary, 2k on a later one,
    # 3k+5, 4k-37 and 4k past several.  Rows in descending order with
    # duplicates, a single row and a single p check that every row lands in
    # its own place.  A row takes its chunks B = _LAG_BLOCK at a time, so
    # windows of Bk-1, Bk and Bk+1 lags end just before, at and just after
    # a block boundary, and windows of 2Bk-1, 2Bk and 2Bk+10 lags span two
    # and three blocks.  Those rows lie near the centre of a grid of step
    # dx_fine, on which the packet reaches across several blocks of lags.
    # Last, a grid that reaches over two lag chunks past the support [lo, hi],
    # the nodes where an amplitude reaches eps of its peak: rows lo and hi
    # sum the one lag y = 0, row lo+1 two lags, and rows lo-1 and hi+1 lie
    # outside the support, so they are exactly 0.
    def compare(rho, rows, p_row):
        q = rho.x[rows]
        field = sg.wigner_numeric(rho, q, p_row)
        want = _reference_wigner_numeric(rho, q, p_row)
        peak = max(float(np.max(np.abs(block))) for block in want.values())
        assert peak * params.hbar > 1e-3
        for pair in SPIN_PAIRS:
            dev = float(np.max(np.abs(field.block(pair) - want[pair])))
            assert dev <= 1e-12 * peak, (rho.x.size, rows, p_row.size, pair)
        return field

    k = _Y_CHUNK
    blk = _LAG_BLOCK * k
    dx_fine = 1e-10
    long_rows = [0, 3, k - 1, 7 * k, 2 * k, 3 * k + 5, 4 * k, 4 * k + 37, 8 * k]
    for step, n, rows, p_row in [
        (dx, 401, [0, 3, 150, 200, 261, 400], p),
        (dx, 8 * k + 1, long_rows, p),
        (dx, 8 * k + 1,
         [8 * k - 3, 4 * k + 37, 4 * k + 37, 3 * k + 5, 2 * k, 2 * k, k - 1, 3, 3], p),
        (dx, 8 * k + 1, [3 * k + 5], p),
        (dx, 8 * k + 1, long_rows, np.array([width_p])),
        (dx, 8 * k + 1, long_rows, np.concatenate([[-p_fast], p, [p_fast]])),
        (dx_fine, 2 * blk + 3, [blk - 1, blk, blk + 1], p),
        (dx_fine, 4 * blk + 21, [2 * blk - 1, 2 * blk, 2 * blk + 10, 0], p),
    ]:
        x = step * (np.arange(n) - 0.5 * (n - 1))
        compare(sg.density_matrix(state, x), rows, p_row)
    n = 28 * k + 1
    rho = sg.density_matrix(state, dx * (np.arange(n) - 0.5 * (n - 1)))
    mag = np.max(np.abs(rho.amps), axis=0)
    lo, hi = np.flatnonzero(mag >= np.finfo(float).eps * mag.max())[[0, -1]]
    assert lo >= 2 * k and n - 1 - hi >= 2 * k
    field = compare(rho, [lo - 1, lo, lo + 1, n // 2, hi, hi + 1], p)
    for pair in SPIN_PAIRS:
        assert np.all(field.block(pair)[[0, -1]] == 0.0), pair


def test_numeric_transform_of_a_grid_inside_the_packet(silver):
    # rho's grid lies well inside the packet, so its support [lo, hi] is the
    # whole grid and a central row's window m = min(i, n-1-i) ends at both
    # ends of the amplitude rows: its last lag reads nodes 0 and n-1, and a
    # slice reaching one node further would start at -1.  On the second grid
    # the central rows take two lag blocks, the last one partly past m.
    state = sg.evolve_in_field(silver, 1.0e-5)
    width_p = silver.hbar / (np.sqrt(2.0) * silver.sigma)
    p = np.concatenate([np.linspace(-3.0 * width_p, 3.0 * width_p, 7), [1e-30]])
    k = _Y_CHUNK
    blk = _LAG_BLOCK * k
    for step, half in [(3.5e-9, 3 * k + 5), (1e-10, blk + 3)]:
        n = 2 * half + 1
        rho = sg.density_matrix(state, step * (np.arange(n) - half))
        mag = np.max(np.abs(rho.amps), axis=0)
        assert mag.min() > 1e-3 * mag.max()  # lo = 0 and hi = n - 1
        q = rho.x[[half, half - 1, half + 1, 0, 1, n - 2, n - 1]]
        field = sg.wigner_numeric(rho, q, p)
        want = _reference_wigner_numeric(rho, q, p)
        peak = max(float(np.max(np.abs(block))) for block in want.values())
        assert peak * silver.hbar > 1e-3
        for pair in SPIN_PAIRS:
            dev = float(np.max(np.abs(field.block(pair) - want[pair])))
            assert dev <= 1e-12 * peak, (n, pair)


def test_density_matrix_samples_the_amplitudes_in_chunks(state_early):
    # 2.5 chunks: two whole ones and a half one, each node as state.amplitude
    # gives it on the whole grid
    n = 5 * _RHO_CHUNK // 2
    x = 1e-9 * (np.arange(n) - 0.5 * n)
    rho = sg.density_matrix(state_early, x)
    assert np.array_equal(rho.amps, [state_early.amplitude(b, x) for b in BRANCHES])


@pytest.mark.parametrize("j", [0, _RHO_CHUNK - 1, _RHO_CHUNK, 2 * _RHO_CHUNK, -1],
                         ids=["first", "chunk-end", "chunk-start", "later-chunk", "last"])
def test_numeric_transform_checks_every_grid_step(state_early, j):
    # the steps are checked a chunk at a time; one step of 1.5 dx on either
    # side of a chunk boundary, or at either end, must still be seen
    n = 5 * _RHO_CHUNK // 2
    x = 1e-9 * (np.arange(n) - 0.5 * n)
    x[j % (n - 1) + 1:] += 0.5e-9
    rho = sg.density_matrix(state_early, x)
    with pytest.raises(ValueError, match="uniformly spaced"):
        sg.wigner_numeric(rho, x[[n // 2]], np.array([0.0]))


def test_numeric_transform_rows_follow_a_permuted_q_axis(silver):
    # each row sums its own window and is stored at its place in the
    # caller's order, so permuting q permutes the rows and nothing else
    state = sg.evolve_in_field(silver, 1.0e-5)
    dx = 3.5e-9
    k = _Y_CHUNK
    x = dx * (np.arange(8 * k + 1) - 4.0 * k)
    rho = sg.density_matrix(state, x)
    q = x[np.arange(0, 8 * k + 1, 37)]
    width_p = silver.hbar / (np.sqrt(2.0) * silver.sigma)
    p = np.linspace(-3.0 * width_p, 3.0 * width_p, 9)
    perm = np.random.default_rng(7).permutation(q.size)
    field = sg.wigner_numeric(rho, q, p)
    permuted = sg.wigner_numeric(rho, q[perm], p)
    np.testing.assert_array_equal(permuted.q, q[perm])
    peak = max(float(np.max(np.abs(field.block(pair)))) for pair in SPIN_PAIRS)
    assert peak * silver.hbar > 1e-3
    for pair in SPIN_PAIRS:
        dev = float(np.max(np.abs(permuted.block(pair) - field.block(pair)[perm])))
        assert dev <= 1e-12 * peak, pair


@pytest.mark.parametrize("c_plus, c_minus", [(1.0, 0.0), (0.0, 1.0)], ids=["up", "down"])
def test_numeric_transform_of_a_pure_spin_state(c_plus, c_minus):
    # the missing branch's amplitude row is exactly 0, so the support comes
    # from the other row alone, and every product with the missing row is 0
    params = sg.PhysicalParams.silver(c_plus=complex(c_plus), c_minus=complex(c_minus))
    state = sg.evolve_in_field(params, 1.0e-5)
    branch, missing = ("+", "-") if c_plus else ("-", "+")
    width_q = math.sqrt(state.variance(branch))
    width_p = params.hbar / (math.sqrt(2.0) * params.sigma)
    q = state.center(branch) + np.linspace(-6.0 * width_q, 6.0 * width_q, 33)
    p_mean = state.branch(branch).mean_momentum * state.units.momentum
    p = p_mean + np.linspace(-6.0 * width_p, 6.0 * width_p, 33)
    numeric = sg.wigner_field(state, q, p, method="numeric")
    analytic = sg.wigner_analytic(state, q, p)
    assert np.all(numeric.block(missing + missing) == 0.0)
    assert np.all(numeric.w_pm == 0.0)
    want = analytic.block(branch + branch)
    peak = float(np.max(np.abs(want)))
    assert peak * params.hbar > 0.3
    dev = float(np.max(np.abs(numeric.block(branch + branch) - want)))
    assert dev <= 1e-9 * peak


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("axis", ["q", "p"])
def test_numeric_transform_rejects_a_non_finite_axis(silver, axis, bad):
    # a NaN q passed the node check (NaN compares False) and read edge node
    # 0; a NaN p gave NaN values; both must name the axis instead
    state = sg.evolve_in_field(silver, 1.0e-5)
    dx = 3.5e-9
    x = dx * (np.arange(401) - 200.0)
    rho = sg.density_matrix(state, x)
    q = np.array([x[150], x[200]])
    p = np.array([-1e-28, 0.0])
    if axis == "q":
        q[1] = bad
    else:
        p[1] = bad
    match = f"the {axis} axis must be finite"
    with pytest.raises(ValueError, match=match):
        sg.wigner_numeric(rho, q, p)
    with pytest.raises(ValueError, match=match):
        sg.density_grid_for_wigner(state, q, float(np.max(np.abs(p))))
    with pytest.raises(ValueError, match=match):
        sg.wigner_field(state, q, p, method="numeric")


def test_numeric_transform_streams_its_phase_table(state_early, silver):
    # acceptance test 4's grid: a 115 549-point rho and 64 momenta.  A full
    # phase table for every lag up to the longest window (57 320 x 64 as
    # angle, cos and sin, 88 MB) puts the call's peak at 93 MB, and padding
    # the amplitude rows by the longest window at 17 MB.  Each row streams
    # its own window in blocks of _LAG_BLOCK chunks, read in place from the
    # sampled rows, so the working memory does not grow with the longest
    # window and there is no padded copy: the call peaks at 6.5 MB, the
    # sampled rho and its grid (4.6 MB) plus 1.85 MB, which the support
    # scan's two full-length magnitudes and, after them, the lag buffers,
    # the accumulator and the Hermitian sum each about fill.  A padded copy
    # of the 48 895-node support and fresh lag products for every block put
    # it at 8.5 MB.
    q, p = sg.default_phase_space_grid(silver, state_early.t, n_q=64, n_p=64)
    tracemalloc.start()
    try:
        sg.wigner_field(state_early, q, p, method="numeric")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7.5e6


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
    assert field.source is None


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


@pytest.mark.parametrize("t", [1e-7, 1e-6, 1e-5, 3e-5])
def test_coarse_pixels_tile_the_exact_masses(silver, t):
    # q nodes exactly Delta apart and p nodes exactly delta apart tile the
    # plane with pixel windows, so whatever the window average's method,
    # sum W_pp Delta delta = |c+|^2 and sum W_pm Delta delta = c+ c-* <phi-|phi+>
    state = sg.evolve_in_field(silver, t)
    pix = sg.CoarsePixelSpec.default()
    q_reach = abs(state.center("+")) + 12.0 * math.sqrt(state.variance("+")) + pix.Delta
    p_plus = state.branch("+").mean_momentum * state.units.momentum
    p_reach = abs(p_plus) + 12.0 * silver.hbar / silver.sigma + pix.delta
    cell = pix.Delta * pix.delta
    overlap = silver.c_plus * np.conj(silver.c_minus) * state.branch_overlap()
    nq, np_ = math.ceil(q_reach / pix.Delta), math.ceil(p_reach / pix.delta)
    for fq, fp in ((0.0, 0.0), (0.3, 0.7), (0.55, 0.2)):
        q = pix.Delta * (fq + np.arange(-nq, nq + 1))
        p = pix.delta * (fp + np.arange(-np_, np_ + 1))
        bar = sg.coarse_grain(sg.wigner_field(state, q, p), pix)
        assert abs(math.fsum((bar.w_pp * cell).ravel()) - abs(silver.c_plus) ** 2) < 1e-15
        assert abs(math.fsum((bar.w_mm * cell).ravel()) - abs(silver.c_minus) ** 2) < 1e-15
        assert abs(np.sum(bar.w_pm * cell) - overlap) < 1e-15


def test_pixel_average_of_a_mixed_form_tiles_its_mass(silver):
    # the 1e-7 s cross block with the default pixel's moment-matched
    # covariance diag(Delta^2/12, delta^2/12) added to Sigma and k0 kept:
    # det Sigma = 1.9e4, far from the pure 1/4, so a pure-state closure in
    # the pixel average would show.
    # Measured: 1.3e-16 off for the tiles, 5.6e-17 for the trapezoid
    state = sg.evolve_in_field(silver, 1e-7)
    _, _, hu, hv = _scaled_coarse_inputs(state, np.zeros(1), np.zeros(1))
    pure = state.block_form("+-")
    form = dataclasses.replace(pure, sqq=pure.sqq + hu * hu / 3.0, spp=pure.spp + hv * hv / 3.0)
    assert form.det > 1e3
    want = form.integral()
    # pixel windows tiling the plane add up to the integral
    nq = math.ceil(12.0 * math.sqrt(form.sqq) / (2.0 * hu)) + 1
    np_ = math.ceil(12.0 * math.sqrt(form.spp) / (2.0 * hv)) + 1
    for fq, fp in ((0.0, 0.0), (0.3, 0.7), (0.55, 0.2)):
        qh = (form.q0 + 2.0 * hu * (fq + np.arange(-nq, nq + 1))).reshape(-1, 1)
        ph = (form.p0 + 2.0 * hv * (fp + np.arange(-np_, np_ + 1))).reshape(1, -1)
        got = np.sum(_box_average_form(form, qh, ph, hu, hv)) * (4.0 * hu * hv)
        assert abs(got - want) < 1e-15
    # and so does the q-marginal, by the trapezoid on a fine grid
    c, v, rate = form.q_marginal()
    dq = np.linspace(-12.0, 12.0, 4001) * math.sqrt(v)
    marginal = c * np.exp(-0.5 * dq**2 / v + 1j * rate * dq)
    assert abs(np.trapezoid(marginal, dq) - want) < 1e-15


@pytest.mark.parametrize("t", [1e-6, 3e-5])
def test_coarse_diagonal_averages_are_exactly_real(silver, t):
    state = sg.evolve_in_field(silver, t)
    q, p = sg.default_phase_space_grid(silver, t, n_q=32, n_p=32)
    qh, ph, hu, hv = _scaled_coarse_inputs(state, q, p)
    for pair in ("++", "--"):
        form = state.block_form(pair)
        assert form.amp.imag == 0.0 and form.kq == form.kp == 0.0
        avg = _box_average_form(form, qh, ph, hu, hv)
        assert np.any(avg.real) and not np.any(avg.imag)


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
    # real_quad is a numpy Gauss-Legendre rule: nothing loads scipy.integrate
    assert _loaded_after_fresh_import("scipy.integrate") == "False"


@pytest.mark.parametrize("module", ["sgcoarse", "sgcoarse.cli"])
def test_import_does_not_load_scipy(module):
    assert _fresh_python(f"import sys, {module}; print({_SCIPY_LOADED})") == "False"


def test_import_does_not_load_numpy_polynomial():
    # numerics builds its Gauss-Legendre rules on first use, not at import
    code = "import sys, sgcoarse.cli; print('numpy.polynomial' in sys.modules)"
    assert _fresh_python(code) == "False"


def test_import_does_not_load_concurrent_futures():
    # nothing in the package runs work on a thread pool
    code = "import sys, sgcoarse.cli; print('concurrent.futures' in sys.modules)"
    assert _fresh_python(code) == "False"


_SUBCOMMANDS = {
    "density": "density --points 11",
    "verify": "verify --t-list 1e-08 --n 512",
    "entropy": "entropy --points 3",
    "info": "info --points 3",
    "wigner-coarse": "wigner --grid 8x8 --coarse --coarse-grid 4x4",
}


@pytest.mark.parametrize("argv", _SUBCOMMANDS.values(), ids=_SUBCOMMANDS.keys())
def test_subcommands_load_scipy_only_where_they_call_it(tmp_path, argv):
    # scipy is a test-only dependency: the erf, erfc, xlogy and quadratures
    # of every subcommand are numpy, so none loads scipy; no subcommand
    # leaves a thread behind
    code = (f"import sys, threading; from sgcoarse import cli; before = {_SCIPY_LOADED}; "
            f"status = cli.main({argv.split() + ['--out', str(tmp_path)]!r}); "
            f"print(before, {_SCIPY_LOADED}, status, threading.active_count())")
    assert _fresh_python(code) == "False False 0 1"


def test_info_does_not_load_scipy_integrate(tmp_path):
    # the fine-limit information integrates in numpy, and its xlogy is numpy
    code = (f"import sys; from sgcoarse import cli; "
            f"status = cli.main({['info', '--points', '3', '--out', str(tmp_path)]!r}); "
            f"print(status, 'scipy.special' in sys.modules, 'scipy.integrate' in sys.modules)")
    assert _fresh_python(code) == "0 False False"


def test_subcommands_run_where_scipy_cannot_be_imported(tmp_path):
    # an interpreter without scipy: any import of it raises ImportError
    runs = "; ".join(f"status.append(cli.main({argv.split() + ['--out', str(tmp_path / name)]!r}))"
                     for name, argv in _SUBCOMMANDS.items())
    code = (f"import sys; sys.modules['scipy'] = None; from sgcoarse import cli; status = []; "
            f"{runs}; print(status)")
    assert _fresh_python(code) == str([0] * len(_SUBCOMMANDS))


def _coarse_16(state):
    q, p = sg.default_phase_space_grid(state.params, state.t, n_q=16, n_p=16)
    return sg.coarse_grain(sg.wigner_field(state, q, p), sg.CoarsePixelSpec.default())


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


@pytest.mark.parametrize("n", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (1.0, 0.0, -math.inf)],
                         ids=["nan", "inf", "minus-inf"])
def test_spin_projection_refuses_a_non_finite_direction(state_early, silver, n):
    q, p = sg.default_phase_space_grid(silver, state_early.t, n_q=4, n_p=4)
    field = sg.wigner_field(state_early, q, p)
    with pytest.raises(ValueError, match="nonzero and finite"):
        sg.project_spin_direction(field, n)


@pytest.mark.parametrize("bad", [-1e-6, math.nan, math.inf, -math.inf],
                         ids=["negative", "nan", "inf", "minus-inf"])
def test_default_grid_refuses_a_bad_time(silver, bad):
    with pytest.raises(ValueError, match="time must be finite and nonnegative"):
        sg.default_phase_space_grid(silver, bad, 8, 8)


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
    assert np.array_equal(sg.coarse_position_density(state_late, q.tolist(), width, "++"), got)


@pytest.mark.parametrize("pair", ["+-", "-+"])
def test_coarse_position_density_refuses_a_cross_pair(state_late, pair):
    # the reference curve is a diagonal density; a cross pair used to
    # return its first branch's curve
    with pytest.raises(ValueError, match=f"got '{re.escape(pair)}'"):
        sg.coarse_position_density(state_late, [0.0], 1e-6, pair)


@pytest.mark.parametrize("width", [-0.5e-6, 0.0, math.nan, math.inf],
                         ids=["negative", "zero", "nan", "inf"])
@pytest.mark.parametrize("pixelate", [
    lambda state, width: sg.screen_distribution(state, width),
    lambda state, width: sg.coarse_position_density(state, [0.0, 1e-6], width),
], ids=["screen_distribution", "coarse_position_density"])
def test_pixel_width_must_be_positive_and_finite(state_late, pixelate, width):
    with pytest.raises(ValueError, match="pixel width"):
        pixelate(state_late, width)


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
    windows = []
    for b in "+-":
        q_b = state_post.center(b)
        p_b = state_post.branch(b).mean_momentum * state_post.units.momentum
        windows.append((np.linspace(q_b - width_q, q_b + width_q, 16),
                        np.linspace(p_b - width_p, p_b + width_p, 16)))
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


def _scaled_coarse_inputs(state, q, p):
    u = state.units
    pix = sg.CoarsePixelSpec.default()
    return ((q / u.length).reshape(-1, 1), (p / u.momentum).reshape(1, -1),
            0.5 * (pix.Delta / u.length), 0.5 * (pix.delta / u.momentum))


def test_a_window_that_misses_the_momentum_support_is_exactly_zero(silver):
    # the pixel reaches ±314 hbar/sigma; windows from 1000 hbar/sigma out
    # cover no segment of the support, next to windows that do
    state = sg.evolve_in_field(silver, 1e-6)
    hbar_over_sigma = silver.hbar / silver.sigma
    q = np.linspace(-3.0 * silver.sigma, 3.0 * silver.sigma, 8)
    far = np.linspace(1000.0, 1010.0, 6) * hbar_over_sigma
    near = np.linspace(-1.0, 1.0, 6) * hbar_over_sigma
    qh, ph, hu, hv = _scaled_coarse_inputs(state, q, np.concatenate([near, far, -far]))
    for pair in ("++", "--", "+-"):
        got = _box_average_form(state.block_form(pair), qh, ph, hu, hv)
        assert got.shape == (8, 18)
        assert np.all(got[:, :6] != 0)
        assert not np.any(got[:, 6:].view(float))
        assert not np.any(np.signbit(got[:, 6:].view(float)))


def test_windows_that_cover_the_whole_support_are_bit_identical(silver):
    # at 1e-6 s the default pixel's delta is 407 p steps of the 128x128
    # default grid, so every window of a row covers the block's whole
    # momentum support: one segment, one sum, every column the same bits
    state = sg.evolve_in_field(silver, 1e-6)
    q, p = sg.default_phase_space_grid(silver, 1e-6, n_q=128, n_p=128)
    qh, ph, hu, hv = _scaled_coarse_inputs(state, q, p)
    for pair in ("++", "--", "+-"):
        got = _box_average_form(state.block_form(pair), qh, ph, hu, hv)
        assert got.shape == (128, 128) and np.any(got)
        bits = got.view(np.uint64).reshape(128, 128, 2)
        assert np.array_equal(bits, np.broadcast_to(bits[:, :1], bits.shape))


@pytest.mark.parametrize("t", [3e-5, 1e-4, 3e-4])
def test_coarse_grain_never_warns(silver, t):
    # the cross block's momentum phase needs 14 panels a pixel at 3e-5 s,
    # 156 at 1e-4 s and 1399 at 3e-4 s; each row takes all it needs
    q, p = sg.default_phase_space_grid(silver, t, n_q=32, n_p=32)
    fine = sg.wigner_field(sg.evolve_in_field(silver, t), q, p)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sg.coarse_grain(fine, sg.CoarsePixelSpec.default())
    assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []


@pytest.mark.parametrize("n", [128, 512])
def test_coarse_grain_memory_stays_bounded_at_late_times(silver, n):
    # at 3e-4 s the cross block takes 16 788 momentum nodes a row; one
    # (rows x nodes) integrand held whole peaked at 276 MB on 128x128 and
    # 1.1 GB on 512x512.  The three output blocks take 12.6 MB of 512x512.
    state = sg.evolve_in_field(silver, 3e-4)
    q, p = sg.default_phase_space_grid(silver, 3e-4, n_q=n, n_p=n)
    fine, pix = sg.wigner_field(state, q, p), sg.CoarsePixelSpec.default()
    sg.coarse_grain(sg.wigner_field(state, q[:1], p[:1]), pix)  # builds w's coefficients
    tracemalloc.start()
    try:
        sg.coarse_grain(fine, pix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _mpmath_box_average(form, q, p, hu, hv):
    """30-digit average of one block over [q±hu]×[p±hv], scaled units.

    For each momentum offset v = p' - p0 the position integral of
    exp(-gqq x² + βx), β = i kq - 2 gqp v, closes on mpmath's complex erf;
    mpmath.quad takes the v-integral over the window's overlap with nine
    Gaussian widths of the centre, past which the integrand is below 1e-35.
    """
    with mpmath.workdps(30):
        g, gqp, gpp, kq, kp = (mpmath.mpf(v) for v in (*form.precision, form.kq, form.kp))
        lo_x = mpmath.mpf(q) - form.q0 - hu
        hi_x = lo_x + 2 * mpmath.mpf(hu)
        rg = mpmath.sqrt(g)

        def along_p(v):
            beta = 1j * kq - 2 * gqp * v
            c = beta / (2 * g)
            inner = (mpmath.sqrt(mpmath.pi / g) / 2 * mpmath.exp(beta**2 / (4 * g))
                     * (mpmath.erf(rg * (hi_x - c)) - mpmath.erf(rg * (lo_x - c))))
            return mpmath.exp(-gpp * v * v + 1j * kp * v) * inner

        pc = mpmath.mpf(p) - form.p0
        lo_v, hi_v = max(pc - hv, -9), min(pc + hv, 9)
        n = int(mpmath.ceil((hi_v - lo_v) / 2))
        pieces = [lo_v + (hi_v - lo_v) * k / n for k in range(n + 1)]
        val = mpmath.quad(along_p, pieces, method="gauss-legendre")
        norm = mpmath.mpc(form.amp) / (2 * mpmath.pi * mpmath.sqrt(mpmath.mpf(form.det)))
        return complex(norm * val / (4 * mpmath.mpf(hu) * hv))


# worst |W̄ - mpmath| over the cells below, relative to the block's
# pixel-average peak; measured worst 2.0e-12, the +- block at 3e-5 s,
# and 5.3e-13 at 1e-4 s, where a 64-panel cap was off by the whole block
_TOL_BOX_POINT = 1e-11


@pytest.mark.parametrize("t", [1e-6, 3e-5, 1e-4])
@pytest.mark.parametrize("pair", ["++", "+-"])
def test_box_average_matches_mpmath_at_points(silver, t, pair):
    state = sg.evolve_in_field(silver, t)
    _, _, hu, hv = _scaled_coarse_inputs(state, np.zeros(1), np.zeros(1))
    form = state.block_form(pair)
    # the centre, a cell off it in both axes, and one whose window stops
    # 1.5 momentum widths short of the centre, 4 position widths out
    cells = [(0.0, 0.0), (0.7, 150.0), (4.0, -hv - 1.5)]
    qs = np.array([form.q0 + dq for dq, _ in cells])
    ps = np.array([form.p0 + dp for _, dp in cells])
    got = np.diagonal(_box_average_form(form, qs, ps, hu, hv))  # the cells on a 3x3 mesh
    # the peak sits at the centre or, for a suppressed cross block, where a
    # window edge cuts through the centre
    near = np.linspace(-3.0, 3.0, 25)
    grid_q = (form.q0 + np.linspace(-2.0, 2.0, 21)).reshape(-1, 1)
    grid_p = (form.p0 + np.concatenate([near - hv, near, near + hv])).reshape(1, -1)
    peak = float(np.max(np.abs(_box_average_form(form, grid_q, grid_p, hu, hv))))
    for value, q, p in zip(got, qs, ps):
        want = _mpmath_box_average(form, q, p, hu, hv)
        assert abs(value - want) <= _TOL_BOX_POINT * peak
