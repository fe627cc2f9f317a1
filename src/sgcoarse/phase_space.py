"""Spinor density matrices, Wigner matrices, and pixel-window coarse graining.

The spin-branch state c₊φ₊ ⊕ c₋φ₋ has the position-space density matrix

    ρ_αβ(x,x') = c_α φ_α(x) c_β* φ_β*(x'),   αβ ∈ {++, +-, -+, --},

and the Wigner matrix

    W_αβ(q,p) = (1/2πħ) ∫ ρ_αβ(q+y/2, q-y/2) e^{-ipy/ħ} dy.

Every branch is a normalised Gaussian of one shared width, stored by
dynamics as (x_s, p_s, α, θ_s): in scaled units it is
c_s (2a/π)^¼ exp(-α(x-x_s)² + i p_s(x-x_s) + iθ_s), α = a + ib.  So the
y-integral closes on one centred phase-space Gaussian per block,

    W_so(z) = c_s c_o*·amp·N(z; z̄, Σ)·exp(i k₀·(z-z̄)),   z = (q, p),

the `PhaseSpaceGaussian` of `SpinorWavepacket.block_form`: z̄ is the
midpoint of the two branch centres (x, p), Σ = [[1/(4a), -b/(2a)],
[-b/(2a), a + b²/a]] with det Σ = ¼, k₀ = (Δp, -Δx) and
amp = e^{i(θ_s - θ_o - Δx p̄)}, Δ taken as s - o (Littlejohn, Phys.
Rep. 138, 193 (1986)).  A diagonal block has k₀ = 0 and amp = 1; the
cross block is the Gaussian at the midpoint times a plane wave whose
position wavenumber 2mat/ħ sets the fringe spacing scale d = ħ/(2Ft).
Every term is read off the branches about the block's own centre and |amp|
comes from the normalisation, so no term grows with Ft only to cancel.

Coarse graining averages each entry over a Δ×δ phase-space pixel.  The
q-side integral of envelope × oscillation is the damped-erf window from
numerics (stable at arbitrary wavenumber); the p-side is one Gauss-Legendre
quadrature per q row over the Gaussian support, cut at every window edge, so
each window is the direct sum of the segments it covers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import HBAR, PhysicalParams, ResolutionError, UnitSystem
from .dynamics import BRANCHES, PhaseSpaceGaussian, SpinorWavepacket, pair_indices
from .numerics import gauss_legendre_nodes, gauss_window, osc_gauss_window

DEFAULT_PIXEL_DELTA_M = 1e-6
DEFAULT_CELL_RATIO = 100.0
_SUPPORT_SIGMAS = 12.0  # Gaussian reach kept in window intersections
_RHO_PAD_WIDTHS = 14.0  # packet widths the rho grid reaches past the q axis
_FRINGE_PERIODS = 6.0  # fringe periods spanned by measure_oscillation_scale
_FRINGE_SAMPLES = 8192
_Y_CHUNK = 256  # lags per phase-table chunk of wigner_numeric
_LAG_BLOCK = 32  # chunks per row GEMM of wigner_numeric
_RHO_CHUNK = 8192  # nodes per chunk of density_matrix's sampling and of grid-step checks
_WINDOW_CHUNK = 8192  # integrand values (q rows × P nodes) per window call of coarse_grain


# ---------------------------------------------------------------------------
# density matrix


@dataclass(frozen=True)
class DensityMatrixField:
    """ρ_αβ(x,x') sampled on an x-grid; blocks are rank-one outer products."""

    params: PhysicalParams
    t: float  # s
    x: np.ndarray  # m, strictly increasing
    amps: np.ndarray  # (2, len(x)): row i is c_s φ_s(x), s = BRANCHES[i], 1/√m


def density_matrix(state: SpinorWavepacket, grid) -> DensityMatrixField:
    """Sample the spinor density matrix of `state` on a position grid (m),
    _RHO_CHUNK nodes at a time, so sampling holds no full-length temporary."""
    x = np.asarray(grid, dtype=float)
    if x.size == 0:
        raise ValueError("position grid is empty")
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError("position grid must be a finite 1D array")
    if x.size > 1 and not np.all(np.diff(x) > 0):
        raise ValueError("position grid must be strictly increasing")
    amps = np.empty((len(BRANCHES), x.size), dtype=complex)
    for s in range(0, x.size, _RHO_CHUNK):
        chunk = x[s:s + _RHO_CHUNK]
        for row, b in zip(amps, BRANCHES):
            row[s:s + chunk.size] = state.amplitude(b, chunk)
    return DensityMatrixField(params=state.params, t=state.t, x=x, amps=amps)


# ---------------------------------------------------------------------------
# closed-form Wigner blocks


def _wigner_block(state: SpinorWavepacket, pair: str) -> PhaseSpaceGaussian:
    """The Wigner matrix's block for one spin pair: the bare block times c_s c_o*."""
    form, c = state.block_form(pair), state.params.weights
    s, o = pair_indices(pair)
    return replace(form, amp=complex(c[s] * np.conj(c[o]) * form.amp))


def _lay_blocks(state: SpinorWavepacket, q: np.ndarray, p: np.ndarray, evaluate,
                source: SpinorWavepacket | None = None) -> WignerMatrixField:
    """Wigner matrix on the axes q (m) and p (kg·m/s), each block given by
    evaluate(form, q, p) in scaled units on the (len(q), 1) × (1, len(p))
    mesh; `source` becomes the field's source."""
    u = state.units
    qs = (q / u.length).reshape(-1, 1)
    ps = (p / u.momentum).reshape(1, -1)
    w = {}
    for pair in ("++", "--", "+-"):
        w[pair] = evaluate(_wigner_block(state, pair), qs, ps) * u.wigner
    return WignerMatrixField(q, p, w["++"].real, w["--"].real, w["+-"], source)


def wigner_analytic(state: SpinorWavepacket, q, p) -> WignerMatrixField:
    """Closed-form Wigner matrix on the axes q (m) and p (kg·m/s).

    Holds for any equal-width branch pair, in the field or after it; the
    blocks have shape (len(q), len(p)).
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    return _lay_blocks(state, q, p, PhaseSpaceGaussian.value, source=state)


# ---------------------------------------------------------------------------
# numeric Wigner transform


def _numeric_spacing_bound(params: PhysicalParams, t: float, p_max: float) -> float:
    """Largest x spacing (m) at which the direct transform resolves momenta
    up to |p_max| on top of the phase gradient k_state of the state itself:
    π/(8(|p_max|/ħ + k_state))."""
    u = UnitSystem.for_params(params)
    k_state = (abs(params.accel / u.accel) * (t / u.time) + 10.0) / params.sigma
    return np.pi / (8.0 * (abs(p_max) / params.hbar + k_state))


def _uniform_spacing(a: np.ndarray, what: str) -> float:
    """The step of the uniform grid `a`; any unequal step raises ValueError.

    atol is 0 because grid steps in metres are far below numpy's default
    absolute tolerance of 1e-8; the steps are checked _RHO_CHUNK at a time.
    """
    d = float(a[1] - a[0])
    for s in range(0, a.size - 1, _RHO_CHUNK):
        if not np.allclose(np.diff(a[s:s + _RHO_CHUNK + 1]), d, rtol=1e-9, atol=0.0):
            raise ValueError(f"{what} must be uniformly spaced")
    return d


def _finite_axis(a, name: str) -> np.ndarray:
    """`a` as a 1-D float axis; a NaN or infinite entry raises ValueError."""
    axis = np.atleast_1d(np.asarray(a, dtype=float))
    bad = ~np.isfinite(axis)
    if bad.any():
        raise ValueError(f"the {name} axis must be finite, got {name} = {axis[bad][0]}")
    return axis


def wigner_numeric(rho: DensityMatrixField, q, p) -> WignerMatrixField:
    """Wigner matrix by direct Fourier transform of a sampled density matrix.

    Each q must be a node of rho's own grid, to within 1e-6 of its spacing,
    so that q ± y/2 stays on the grid; a q outside the grid or between two
    nodes, or a q or p that is not finite, raises ValueError.  The
    y-trapezoid is then spectrally accurate for the smooth decaying
    integrands produced by Gaussian packets.
    The sum runs over the support [lo, hi]: the first and last node where
    max(|ψ₊|, |ψ₋|) reaches machine epsilon of its maximum M, so each
    dropped term has one factor below eps·M and is below eps·M².
    Each q row, at node i with window m = min(i-lo, hi-i), sums its own
    lags y = 2·dx·j, j = 0…m, in chunks of k = _Y_CHUNK taken
    B = _LAG_BLOCK at a time; a row with m < 0 lies outside the support
    and is 0.  The amplitudes at q ± y/2 are contiguous slices of rho's two
    amplitude rows, read in place: m ≤ min(i-lo, hi-i), so no slice leaves
    [lo, hi].  The lags past m in a row's last chunk are zeroed, not read,
    and one (4·B × k) @ (k × n_p) product serves the four spin pairs of B
    chunks.
    By the shift theorem, exp(-i p 2dx(j₀+j')/ħ) = exp(-i p 2dx j₀/ħ) ·
    exp(-i p 2dx j'/ħ), so one k×n_p table for j' = 0…k-1 serves every
    chunk, and the chunk at j₀ scales its product by one row of an
    n_chunks×n_p table.  The cost is Σ(⌊mᵢ/k⌋+1)·k·4·n_p complex
    multiply-adds over the rows inside the support, plus (k + n_chunks)·n_p
    complex exps.  The j < 0 half follows from r_αβ(-j) = conj(r_βα(+j)):
    it is the conjugate of the sum with the +- and -+ rows swapped, so the
    field is Hermitian and its diagonal real by construction, and it
    records no residue.
    Memory is O(n_rho + B·k + (k + n_chunks)·n_p) besides the output: the
    lag and product buffers, allocated once per call, hold B chunks however
    long a row's window.
    q, p are coordinate axes as in wigner_analytic.
    """
    x = rho.x
    if x.size < 3:
        raise ValueError("density matrix grid too small for a transform")
    dx = _uniform_spacing(x, "the density matrix grid of wigner_numeric")
    qa = _finite_axis(q, "q")
    pa = _finite_axis(p, "p")
    hbar = rho.params.hbar
    p_max = float(np.max(np.abs(pa))) if pa.size else 0.0
    need = _numeric_spacing_bound(rho.params, rho.t, p_max)
    if dx > need:
        raise ResolutionError(
            f"Wigner transform undersampled at |p| = {p_max:.6e} kg m/s: "
            f"grid spacing {dx:.6e} m exceeds {need:.6e} m"
        )

    if qa.size and (qa.min() < x[0] or qa.max() > x[-1]):
        raise ValueError(
            f"q range [{qa.min():.6e}, {qa.max():.6e}] m lies outside the "
            f"density matrix grid [{x[0]:.6e}, {x[-1]:.6e}] m"
        )

    idx = np.clip(np.rint((qa - x[0]) / dx).astype(int), 0, x.size - 1)
    off = np.abs(qa - x[idx])
    if off.size and off.max() > 1e-6 * dx:
        k = int(np.argmax(off))
        raise ValueError(
            f"q = {qa[k]:.6e} m lies {off[k] / dx:.3g} grid steps from the nearest "
            f"density matrix node; wigner_numeric evaluates q only at nodes"
        )

    # Row i sums its lags j = 0..m, m = min(i-lo, hi-i), in chunks of k, B
    # chunks per product.  A block's four products are written from slices
    # of rho's own rows, which stay in [lo, hi] since j <= m; the lags past m
    # in its last chunk are zeroed.
    amp_p, amp_m = rho.amps
    mag = np.abs(amp_p)
    np.maximum(mag, np.abs(amp_m), out=mag)
    lo, hi = np.flatnonzero(mag >= np.finfo(float).eps * mag.max())[[0, -1]]
    del mag  # not held through the transform
    m = np.minimum(idx - lo, hi - idx)  # < 0: the row lies outside the support
    m_max = int(m.max(initial=0))
    k = min(_Y_CHUNK, m_max + 1)
    y_step = 2.0 * dx / hbar  # phase per lag per unit p
    phase = np.exp(-1j * np.outer(y_step * np.arange(k), pa))  # lags j0 + 0..k-1
    shift = np.exp(-1j * np.outer(y_step * np.arange(0, m_max + 1, k), pa))  # each j0
    lags = np.empty(4 * _LAG_BLOCK * k, dtype=complex)
    prods = np.empty((4 * _LAG_BLOCK, pa.size), dtype=complex)
    acc = np.zeros((4, qa.size, pa.size), dtype=complex)  # ++, +-, -+, -- rows
    for row, (i, m_row) in enumerate(zip(idx.tolist(), m.tolist())):
        if m_row < 0:
            continue  # stays 0
        n_row = m_row // k + 1
        for b0 in range(0, n_row, _LAG_BLOCK):
            nb = min(_LAG_BLOCK, n_row - b0)
            j0, span = b0 * k, nb * k
            n = min(span, m_row + 1 - j0)  # lags j0..j0+n-1 lie in the window
            up, down = slice(i + j0, i + j0 + n), slice(i - j0 - n + 1, i - j0 + 1)
            r = lags[:4 * span].reshape(2, 2, span)  # ++, +-, -+, -- rows
            # r[1] takes conj of the amplitudes at q - y/2, then both rows times those at q + y/2
            np.conj(amp_p[down][::-1], out=r[1, 0, :n])
            np.conj(amp_m[down][::-1], out=r[1, 1, :n])
            np.multiply(amp_p[up], r[1, :, :n], out=r[0, :, :n])
            np.multiply(amp_m[up], r[1, :, :n], out=r[1, :, :n])
            r[:, :, n:] = 0.0
            r = r.reshape(4 * nb, k)
            if b0 == 0:
                r[::nb, 0] *= 0.5  # y = 0 is counted once over both signs of j
            prod = np.matmul(r, phase, out=prods[:4 * nb]).reshape(4, nb, pa.size)
            acc[:, row] += np.einsum("bcp,cp->bp", prod, shift[b0:b0 + nb])
    # r_ab(-j) = conj(r_ba(+j)), so the sum over j < 0 is conj(acc) with
    # the +- and -+ rows swapped.
    out = (acc + np.conj(acc[[0, 2, 1, 3]])) * (2.0 * dx / (2.0 * np.pi * hbar))
    w_pp, w_pm, _, w_mm = out
    return WignerMatrixField(q=qa, p=pa, w_pp=w_pp.real, w_mm=w_mm.real, w_pm=w_pm)


def density_grid_for_wigner(
    state: SpinorWavepacket,
    q: np.ndarray,
    p_max: float,
) -> DensityMatrixField:
    """Sample a density matrix on a uniform grid aligned with the q nodes and
    fine enough for wigner_numeric at momenta up to |p_max|.  The q nodes
    must be uniformly spaced, since wigner_numeric takes each q at a node;
    a q or p_max that is not finite raises ValueError."""
    qa = _finite_axis(q, "q")
    if not math.isfinite(p_max):
        raise ValueError(f"the p axis must be finite, got |p| max = {p_max}")
    dq = state.params.sigma
    if qa.size > 1:
        dq = _uniform_spacing(qa, "the q axis of a numeric Wigner field")
    need = _numeric_spacing_bound(state.params, state.t, p_max)
    r = max(1, math.ceil(dq / (0.9 * need)))
    dx = dq / r
    width = math.sqrt(state.variance("+"))
    reach = _RHO_PAD_WIDTHS * width + abs(state.center("+")) + abs(state.center("-"))
    lo = qa[0] - reach
    hi = qa[-1] + reach
    n_lo = math.ceil((qa[0] - lo) / dx)
    n_hi = math.ceil((hi - qa[-1]) / dx)
    x = qa[0] + dx * np.arange(-n_lo, (qa.size - 1) * r + n_hi + 1)
    return density_matrix(state, x)


# ---------------------------------------------------------------------------
# Wigner fields and pixels


@dataclass(frozen=True)
class CoarsePixelSpec:
    """Phase-space pixel: Δ in position (m), δ in momentum (kg·m/s)."""

    Delta: float
    delta: float

    def __post_init__(self) -> None:
        if not (self.Delta > 0.0 and math.isfinite(self.Delta)):
            raise ValueError(f"Delta must be positive, got {self.Delta}")
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive, got {self.delta}")

    @property
    def cell_ratio(self) -> float:
        """Pixel area in units of Planck's constant h."""
        return self.Delta * self.delta / (2.0 * np.pi * HBAR)

    @classmethod
    def default(cls) -> "CoarsePixelSpec":
        """Pixel of width DEFAULT_PIXEL_DELTA_M whose area is DEFAULT_CELL_RATIO
        Planck cells."""
        Delta = DEFAULT_PIXEL_DELTA_M
        return cls(Delta=Delta, delta=DEFAULT_CELL_RATIO * 2.0 * np.pi * HBAR / Delta)


@dataclass(frozen=True)
class WignerMatrixField:
    """2×2 Hermitian Wigner matrix on 1-D axes q and p, SI units.

    Diagonal blocks are stored real; W₋₊ is the conjugate of the stored
    W₊₋, so the field is Hermitian by construction.  `source` keeps the
    generating state when the field came from the closed form; marginals,
    totals and coarse graining need it and raise ValueError without it, so
    numeric and coarse fields can only be compared block by block.
    """

    q: np.ndarray  # m
    p: np.ndarray  # kg·m/s
    w_pp: np.ndarray  # (nq, np) real
    w_mm: np.ndarray
    w_pm: np.ndarray  # complex
    source: SpinorWavepacket | None = None

    def block(self, pair: str) -> np.ndarray:
        s, o = pair_indices(pair)
        if s == o:
            return (self.w_pp, self.w_mm)[s]
        return self.w_pm if s < o else np.conj(self.w_pm)

    def _closed_form(self) -> SpinorWavepacket:
        """The Gaussian state behind the field; raises for sampled fields."""
        if self.source is None:
            raise ValueError(
                "needs a closed-form Wigner field: numeric and coarse fields "
                "have no Gaussian source and can only be compared block by block"
            )
        return self.source

    def marginal_position(self, pair: str = "++") -> np.ndarray:
        """∫ W_αβ(q,p) dp on the q nodes (1/m).

        p is integrated in closed form, so the result is exact regardless
        of the stored p sampling.
        """
        state = self._closed_form()
        u = state.units
        f = _wigner_block(state, pair)
        c, v, rate = f.q_marginal()
        dq = self.q / u.length - f.q0
        return c * np.exp(-0.5 * dq**2 / v + 1j * rate * dq) / u.length

    def total(self) -> float:
        """∬ (W₊₊ + W₋₋) dq dp: exact in p, trapezoid over the q nodes."""
        dens = self.marginal_position("++") + self.marginal_position("--")
        return float(np.trapezoid(dens.real, x=self.q))


WIGNER_CSV_HEADER = "q,p,W_pp,W_mm,Re_W_pm,Im_W_pm"


def default_phase_space_grid(params: PhysicalParams, t: float, n_q: int,
                             n_p: int) -> tuple[np.ndarray, np.ndarray]:
    """Grids containing both displaced packets and the kicked momenta ±Ft at
    a time t (s) in the field; a negative or non-finite t raises ValueError."""
    if not (0.0 <= t < math.inf):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    a = abs(params.accel)
    f = abs(params.force)
    q_half = 10.0 * params.sigma + 0.5 * a * t * t
    p_half = 10.0 * (params.hbar / params.sigma + f * t)
    return (
        np.linspace(-q_half, q_half, n_q),
        np.linspace(-p_half, p_half, n_p),
    )


def wigner_field(state: SpinorWavepacket, q, p, method: str = "analytic") -> WignerMatrixField:
    """Evaluate the Wigner matrix of `state` on the axes q (m) and p (kg·m/s)."""
    if method == "analytic":
        return wigner_analytic(state, q, p)
    if method == "numeric":
        rho = density_grid_for_wigner(state, q, float(np.max(np.abs(p))))
        return wigner_numeric(rho, q, p)
    raise ValueError(f"method must be 'analytic' or 'numeric', got {method!r}")


# ---------------------------------------------------------------------------
# coarse graining


def _box_average_form(
    form: PhaseSpaceGaussian,
    qh: np.ndarray,
    ph: np.ndarray,
    hu: float,
    hv: float,
) -> np.ndarray:
    """Window average of the block over [q±hu]×[p±hv] on the mesh of the q
    axis qh and the p axis ph, scaled units, shape (qh.size, ph.size).

    With z = (Q, P) about the block's centre and G = ½Σ⁻¹, the u-integral
    closes at s = Q + shear·P, shear = G_qp/G_qq = -Σqp/Σpp: it is
    exp(-P²/(2Σpp) + iκP)·J(s-hu, s+hu), where J is the damped oscillatory
    erf window of ∫exp(-G_qq w² + i kq w) dw and κ = kp - kq·shear.  The
    P-integral is one quadrature per q row: the support, _SUPPORT_SIGMAS
    widths √(2Σpp) each side, is cut at every window edge inside it, each
    segment takes composite Gauss-Legendre panels, and a window is the direct
    sum of the segments it covers, so one that misses the support is exactly
    zero.  Neither factor exceeds its peak, so a suppressed pixel underflows
    to zero.
    """
    gqq = form.precision[0]
    env = 2.0 * form.spp  # the P-envelope is exp(-P²/env)
    shear = -form.sqp / form.spp
    kappa = form.kp - form.kq * shear  # P-phase rate
    qc, pc = np.ravel(qh) - form.q0, np.ravel(ph) - form.p0
    reach = _SUPPORT_SIGMAS * math.sqrt(env)
    cuts = np.unique(np.clip(np.concatenate([pc - hv, pc + hv, [-reach, reach]]), -reach, reach))
    cover = (cuts[:-1, None] >= pc - hv) & (cuts[1:, None] <= pc + hv)  # window j covers segment k
    used = cover.any(axis=1)  # a segment no window covers takes no nodes
    lo, width, cover = cuts[:-1][used], np.diff(cuts)[used], cover[used].astype(float)

    # 12-node Gauss-Legendre panels short enough to resolve both the Gaussian
    # envelope (scale sqrt(env)) and the P-phase rate, n_panels a segment
    panel = min(2.0 * math.sqrt(env), 8.0 / abs(kappa) if kappa else math.inf)
    n_panels = np.maximum(1, np.ceil(width / panel)).astype(int)
    seg = np.repeat(np.arange(width.size), n_panels)  # segment of each panel
    rank = np.arange(seg.size) - np.searchsorted(seg, seg)  # panel's place in its segment
    xg, wg = gauss_legendre_nodes(0.0, 1.0, 12)
    step = (width / n_panels)[seg, None]
    pv = lo[seg, None] + step * (rank[:, None] + xg)  # (panels, nodes)
    wv = step * wg * np.exp(-pv * pv / env + 1j * kappa * pv)

    # one window call per chunk of whole panels, about _WINDOW_CHUNK values
    sums = np.zeros((qc.size, width.size), dtype=complex)
    chunk = max(1, _WINDOW_CHUNK // max(1, qc.size * xg.size))
    for k in range(0, seg.size, chunk):
        s = qc[:, None, None] + shear * pv[k:k + chunk]
        j = osc_gauss_window(s - hu, s + hu, gqq, form.kq)
        np.add.at(sums, (slice(None), seg[k:k + chunk]), np.sum(j * wv[k:k + chunk], axis=2))
    sums *= form.amp / (2.0 * np.pi * math.sqrt(form.det)) / (4.0 * hu * hv)
    return sums @ cover


def coarse_grain(field: WignerMatrixField, pix: CoarsePixelSpec) -> WignerMatrixField:
    """Average every Wigner matrix entry over a Δ×δ pixel window.

    The average is taken in closed form over the field's Gaussian source,
    exact up to one Gauss-Legendre momentum quadrature per q row that is cut
    at every window edge, so the field must come from the closed form;
    numeric and coarse fields raise ValueError.
    """
    state = field._closed_form()
    hu = 0.5 * (pix.Delta / state.units.length)
    hv = 0.5 * (pix.delta / state.units.momentum)
    return _lay_blocks(state, field.q, field.p,
                       lambda form, qs, ps: _box_average_form(form, qs, ps, hu, hv))


# ---------------------------------------------------------------------------
# spin projections and fringe diagnostics


def project_spin_direction(w, n):
    """Tr[W(q,p)(𝟙 + n·σ)/2] for a spin direction n (unit 3-vector).

    Takes a WignerMatrixField and returns the projected real field.  Axes:
    n = (0, 1, 0) gives W₊₊, n = (0, 0, 1) gives ½(W₊₊ + W₋₋) + Im W₊₋ and
    n = (1, 0, 0), the CSVs' W_proj_x, gives ½(W₊₊ + W₋₋) + Re W₊₋.
    Non-unit n is normalized with a warning; a zero or non-finite n raises.
    """
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"n must be a 3-vector, got shape {n.shape}")
    norm = float(np.linalg.norm(n))
    if not (0.0 < norm < math.inf):
        raise ValueError(f"n must be nonzero and finite, got |n| = {norm}")
    if abs(norm - 1.0) > 1e-12:
        warnings.warn(f"normalizing non-unit spin direction (|n| = {norm})")
        n = n / norm
    nx, ny, nz = n
    w_pp = w.block("++")
    w_mm = w.block("--")
    w_pm = w.block("+-")
    return (
        0.5 * (1.0 + ny) * np.real(w_pp)
        + 0.5 * (1.0 - ny) * np.real(w_mm)
        + nx * np.real(w_pm)
        + nz * np.imag(w_pm)
    )


def oscillation_scale(params: PhysicalParams, t: float) -> float:
    """Fringe spacing scale d = ħ/(2Ft) of the off-diagonal Wigner block (m)."""
    if not (0.0 < t < math.inf):
        raise ValueError(f"time must be positive and finite, got {t}")
    f = abs(params.force)
    if f == 0.0:
        raise ValueError("no field, no interference fringes")
    return params.hbar / (2.0 * f * t)


def measure_oscillation_scale(state: SpinorWavepacket) -> float:
    """Fringe scale from the zero crossings of Re W₊₋ along q at p = 0.

    Samples the closed form on a dense line through the envelope center;
    consecutive zero crossings of a cos(q/d + const) profile sit πd apart.
    The window is sized from the kick gathered in the field, d ≈ ħ/(2F t_exit).
    """
    d_est = oscillation_scale(state.params, state.t_exit)
    half = 0.5 * _FRINGE_PERIODS * 2.0 * np.pi * d_est
    q = np.linspace(-half, half, _FRINGE_SAMPLES)
    w = wigner_analytic(state, q, np.array([0.0]))
    f = np.real(w.w_pm[:, 0])
    s = np.sign(f)
    flips = np.nonzero(s[:-1] * s[1:] < 0)[0]
    if flips.size < 3:
        raise ValueError("too few fringe zero crossings to measure a scale")
    # linear interpolation of each crossing position
    q0 = q[flips] - f[flips] * (q[flips + 1] - q[flips]) / (f[flips + 1] - f[flips])
    return float(np.mean(np.diff(q0)) / np.pi)


def coarse_position_density(
    state: SpinorWavepacket, q: np.ndarray, Delta: float, pair: str = "++"
) -> np.ndarray:
    """Δ-window average of |c_α φ_α|² at positions q (m): the reference curve
    for the position marginal of a coarse-grained field; `pair` is '++' or '--'."""
    s, o = pair_indices(pair)
    if s != o:
        raise ValueError(f"pair must be a diagonal pair '++' or '--', got {pair!r}")
    Delta = float(Delta)
    if not (0.0 < Delta < math.inf):
        raise ValueError(f"pixel width must be positive and finite, got {Delta}")
    u = state.units
    qa = np.asarray(q, dtype=float) / u.length
    hw = 0.5 * (Delta / u.length)
    f = state.density_form(BRANCHES[s])
    mass = f.C * gauss_window(qa - hw, qa + hw, f.mu, f.a)
    return mass / (2.0 * hw) / u.length
