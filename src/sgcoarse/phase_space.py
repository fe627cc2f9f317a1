"""Spinor density matrices, Wigner matrices, and pixel-window coarse graining.

The spin-branch state c₊φ₊ ⊕ c₋φ₋ has the position-space density matrix

    ρ_αβ(x,x') = c_α φ_α(x) c_β* φ_β*(x'),   αβ ∈ {++, +-, -+, --},

and the Wigner matrix

    W_αβ(q,p) = (1/2πħ) ∫ ρ_αβ(q+y/2, q-y/2) e^{-ipy/ħ} dy.

Because every branch is a Gaussian exp(-(αx²+βx+γ)) the y-integral closes:
each W_αβ is exp of a quadratic form in (q,p).  For equal-width branch pairs
the quadratic coefficients are real and only the linear ones are complex, so
the off-diagonal blocks are Gaussian envelopes times a plane-wave phase; the
position wavenumber of that phase is 2mat/ħ, giving the fringe spacing scale
d = ħ/(2Ft).

Coarse graining averages each entry over a Δ×δ phase-space pixel.  The
q-side integral of envelope × oscillation is done with the damped-erf window
from numerics (stable at arbitrary wavenumber); the p-side is Gauss-Legendre
restricted to the overlap of the window with the Gaussian support, with the
full exponent assembled before a single exponentiation so that suppressed
pixels underflow cleanly to zero instead of producing inf·0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import HBAR, PhysicalParams, ResolutionError, UnitSystem
from .dynamics import SPIN_PAIRS, SpinorWavepacket
from .numerics import gauss_legendre_nodes, gauss_window, osc_gauss_window

DEFAULT_PIXEL_DELTA_M = 1e-6
DEFAULT_CELL_RATIO = 100.0
_SUPPORT_SIGMAS = 12.0  # Gaussian reach kept in window intersections
_RHO_PAD_WIDTHS = 14.0  # packet widths the rho grid reaches past the q axis
_FRINGE_PERIODS = 6.0  # fringe periods spanned by measure_oscillation_scale
_FRINGE_SAMPLES = 8192
_Y_CHUNK = 256  # lags per phase-table chunk of wigner_numeric


# ---------------------------------------------------------------------------
# density matrix


@dataclass(frozen=True)
class DensityMatrixField:
    """ρ_αβ(x,x') sampled on an x-grid; blocks are rank-one outer products."""

    params: PhysicalParams
    t: float  # s
    x: np.ndarray  # m, strictly increasing
    amp_plus: np.ndarray  # c₊φ₊(x), 1/√m
    amp_minus: np.ndarray


def density_matrix(state: SpinorWavepacket, grid) -> DensityMatrixField:
    """Sample the spinor density matrix of `state` on a position grid (m)."""
    x = np.asarray(grid, dtype=float)
    if x.size == 0:
        raise ValueError("position grid is empty")
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError("position grid must be a finite 1D array")
    if x.size > 1 and not np.all(np.diff(x) > 0):
        raise ValueError("position grid must be strictly increasing")
    return DensityMatrixField(
        params=state.params,
        t=state.t,
        x=x,
        amp_plus=state.amplitude("+", x),
        amp_minus=state.amplitude("-", x),
    )


# ---------------------------------------------------------------------------
# closed-form Wigner blocks


@dataclass(frozen=True)
class _PairForm:
    """Scaled W_αβ(q,p) = exp(log_pref - cqq q² - cpp p² - cqp qp - cq q - cp p - c0).

    cqq, cpp, cqp are real for equal-width branch pairs (enforced at build
    time); the linear coefficients carry the interference phase.
    """

    log_pref: complex
    cqq: float
    cpp: float
    cqp: float
    cq: complex
    cp: complex
    c0: complex

    def exponent(self, q, p):
        return (
            self.log_pref
            - self.cqq * q**2
            - self.cpp * p**2
            - self.cqp * q * p
            - self.cq * q
            - self.cp * p
            - self.c0
        )

    def value(self, q, p):
        return np.exp(self.exponent(q, p))


def _pair_form(state: SpinorWavepacket, pair: str) -> _PairForm:
    """Close the Wigner y-integral for one spin pair of a Gaussian state."""
    bs = state.branch(pair[0])
    bo = state.branch(pair[1])
    cs = state.params.weight(pair[0])
    co = state.params.weight(pair[1])
    a_sum = bs.alpha + np.conj(bo.alpha)
    a_dif = bs.alpha - np.conj(bo.alpha)
    b_sum = bs.beta + np.conj(bo.beta)
    b_dif = (bs.beta - np.conj(bo.beta)) / 2.0
    g_sum = bs.gamma + np.conj(bo.gamma)
    a2 = a_sum / 4.0  # y² coefficient of the integrand
    if a2.real <= 0.0:
        raise ValueError("branch pair has non-normalizable Wigner integrand")
    cqq = a_sum - a_dif**2 / (4.0 * a2)
    cpp = 1.0 / (4.0 * a2)
    cqp = -1j * a_dif / (2.0 * a2)
    if abs(cqq.imag) > 1e-10 * abs(cqq.real) + 1e-300:
        raise ValueError("unequal branch widths: quadratic form not real")
    pref = (
        cs
        * np.conj(co)
        * bs.norm
        * np.conj(bo.norm)
        / (2.0 * np.pi)
        * np.sqrt(np.pi / a2)
    )
    return _PairForm(
        log_pref=complex(np.log(pref)),
        cqq=float(cqq.real),
        cpp=float(cpp.real),
        cqp=float(cqp.real),
        cq=complex(b_sum - a_dif * b_dif / (2.0 * a2)),
        cp=complex(-1j * b_dif / (2.0 * a2)),
        c0=complex(g_sum - b_dif**2 / (4.0 * a2)),
    )


def wigner_analytic(state: SpinorWavepacket, q, p) -> WignerMatrixField:
    """Closed-form Wigner matrix on the axes q (m) and p (kg·m/s).

    Holds for any equal-width branch pair, in the field or after it; the
    blocks have shape (len(q), len(p)).
    """
    u = state.units
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    qg = u.scale_length(q).reshape(-1, 1)
    pg = u.scale_momentum(p).reshape(1, -1)
    w = {pair: u.unscale_wigner(_pair_form(state, pair).value(qg, pg))
         for pair in ("++", "--", "+-")}
    return WignerMatrixField(
        params=state.params, t=state.t, q=q, p=p,
        w_pp=w["++"].real, w_mm=w["--"].real, w_pm=w["+-"], source=state,
    )


# ---------------------------------------------------------------------------
# numeric Wigner transform


def _numeric_spacing_bound(params: PhysicalParams, t: float, p_max: float) -> float:
    """Largest x spacing (m) at which the direct transform resolves momenta
    up to |p_max| on top of the phase gradient k_state of the state itself:
    π/(8(|p_max|/ħ + k_state))."""
    u = UnitSystem.for_params(params)
    k_state = (abs(u.scale_accel(params.accel)) * u.scale_time(t) + 10.0) / params.sigma
    return np.pi / (8.0 * (abs(p_max) / params.hbar + k_state))


def _uniform_spacing(a: np.ndarray, what: str) -> float:
    """The step of the uniform grid `a`; any unequal step raises ValueError.

    atol is 0 because grid steps in metres are far below numpy's default
    absolute tolerance of 1e-8.
    """
    d = float(a[1] - a[0])
    if not np.allclose(np.diff(a), d, rtol=1e-9, atol=0.0):
        raise ValueError(f"{what} must be uniformly spaced")
    return d


def wigner_numeric(rho: DensityMatrixField, q, p) -> WignerMatrixField:
    """Wigner matrix by direct Fourier transform of a sampled density matrix.

    Each q must be a node of rho's own grid, to within 1e-6 of its spacing,
    so that q ± y/2 stays on the grid; a q outside the grid or between two
    nodes raises ValueError.  The y-trapezoid is then spectrally accurate
    for the smooth decaying integrands produced by Gaussian packets.
    The lags y = 2·dx·j, j ≥ 0, are streamed in chunks of _Y_CHUNK: both
    amplitude rows are padded with zeros, so a lag past a row's window puts
    a sample off the grid and adds 0, and each chunk adds one complex
    product r(+j) · exp(-i p y/ħ) for every row and spin pair at once.  The
    j < 0 half follows from r_αβ(-j) = conj(r_βα(+j)): it is the conjugate
    of the sum with the +- and -+ rows swapped, so the field is Hermitian
    and its diagonal real by construction, and it records no residue.
    Memory is O(n_q·k + k·n_p + n_rho) for k = _Y_CHUNK.  q, p are
    coordinate axes as in wigner_analytic.
    """
    x = rho.x
    if x.size < 3:
        raise ValueError("density matrix grid too small for a transform")
    dx = _uniform_spacing(x, "the density matrix grid of wigner_numeric")
    qa = np.atleast_1d(np.asarray(q, dtype=float))
    pa = np.atleast_1d(np.asarray(p, dtype=float))
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

    # Lags y = 2 dx j, j >= 0, are streamed in chunks of _Y_CHUNK.  Both
    # amplitude rows carry m_max zeros on each side, so a lag past a row's
    # window, j > min(i, n-1-i), puts one sample off the grid and adds 0.
    m_max = int(np.minimum(idx, x.size - 1 - idx).max(initial=0))
    amps = np.zeros((2, x.size + 2 * m_max), dtype=complex)
    amps[0, m_max:m_max + x.size] = rho.amp_plus
    amps[1, m_max:m_max + x.size] = rho.amp_minus
    acc = np.zeros((4 * qa.size, pa.size), dtype=complex)  # ++, +-, -+, -- rows
    for j0 in range(0, m_max + 1, _Y_CHUNK):
        j = np.arange(j0, min(j0 + _Y_CHUNK, m_max + 1))
        windows = sliding_window_view(amps, j.size, axis=1)
        up = windows[:, m_max + idx + j0]  # amplitudes at q + y/2, (2, n_q, k)
        down = windows[:, m_max + idx - j[-1], ::-1]  # amplitudes at q - y/2
        r = (up[:, None] * np.conj(down)[None]).reshape(acc.shape[0], j.size)
        if j0 == 0:
            r[:, 0] *= 0.5  # y = 0 is counted once over both signs of j
        acc += r @ np.exp(-1j * (np.outer(2.0 * dx * j, pa) / hbar))
    # r_ab(-j) = conj(r_ba(+j)), so the sum over j < 0 is conj(acc) with the
    # +- and -+ rows swapped.
    acc = acc.reshape(4, qa.size, pa.size)
    out = (acc + np.conj(acc[[0, 2, 1, 3]])) * (2.0 * dx / (2.0 * np.pi * hbar))
    w_pp, w_pm, _, w_mm = out
    return WignerMatrixField(
        params=rho.params, t=rho.t, q=qa, p=pa,
        w_pp=w_pp.real, w_mm=w_mm.real, w_pm=w_pm,
    )


def density_grid_for_wigner(
    state: SpinorWavepacket,
    q: np.ndarray,
    p_max: float,
) -> DensityMatrixField:
    """Sample a density matrix on a uniform grid aligned with the q nodes and
    fine enough for wigner_numeric at momenta up to |p_max|.  The q nodes
    must be uniformly spaced, since wigner_numeric takes each q at a node."""
    qa = np.asarray(q, dtype=float)
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
    `pixels` and `diag_imag_residue` are set on coarse-grained fields: the
    residue is the largest imaginary part, a roundoff, of a diagonal block
    average, which the stored real block drops.
    """

    params: PhysicalParams
    t: float  # s
    q: np.ndarray  # m
    p: np.ndarray  # kg·m/s
    w_pp: np.ndarray  # (nq, np) real
    w_mm: np.ndarray
    w_pm: np.ndarray  # complex
    source: SpinorWavepacket | None = None
    pixels: CoarsePixelSpec | None = None
    diag_imag_residue: float = 0.0

    @property
    def w_mp(self) -> np.ndarray:
        return np.conj(self.w_pm)

    def block(self, pair: str) -> np.ndarray:
        if pair == "++":
            return self.w_pp
        if pair == "--":
            return self.w_mm
        if pair == "+-":
            return self.w_pm
        if pair == "-+":
            return self.w_mp
        raise ValueError(f"pair must be one of {SPIN_PAIRS}, got {pair!r}")

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
        form = _pair_form(state, pair)
        qh = np.asarray(u.scale_length(self.q), dtype=float)
        lp = form.cp + form.cqp * qh
        ex = (
            form.log_pref
            - form.cqq * qh**2
            - form.cq * qh
            - form.c0
            + lp**2 / (4.0 * form.cpp)
        )
        val = np.exp(ex) * np.sqrt(np.pi / form.cpp)
        return u.unscale_density(val)

    def total(self) -> float:
        """∬ (W₊₊ + W₋₋) dq dp: exact in p, trapezoid over the q nodes."""
        dens = self.marginal_position("++") + self.marginal_position("--")
        return float(np.trapezoid(dens.real, x=self.q))


WIGNER_CSV_HEADER = "q,p,W_pp,W_mm,Re_W_pm,Im_W_pm"


def default_phase_space_grid(
    params: PhysicalParams, t: float, n_q: int = 512, n_p: int = 512
) -> tuple[np.ndarray, np.ndarray]:
    """Grids containing both displaced packets and the kicked momenta ±Ft."""
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
    form: _PairForm,
    qh: np.ndarray,
    ph: np.ndarray,
    hu: float,
    hv: float,
) -> np.ndarray:
    """Window average of exp(form) over [q±hu]×[p±hv], scaled units.

    Inner u-integral analytic (damped oscillatory erf window); outer
    v-integral by Gauss-Legendre on the overlap of the window with the
    integrand's Gaussian support.  qh, ph broadcast against each other.
    """
    cqq, cpp, cqp = form.cqq, form.cpp, form.cqp
    if cqq <= 0.0:
        raise ValueError("coarse graining needs a decaying position envelope")
    ki = float(form.cq.imag)  # u-phase rate, constant over the field

    # Re exponent as a quadratic in v (after closing the u integral):
    #   A_v v² + B_v(q,p) v + const,  A_v < 0 for normalizable blocks
    a_v = -cpp + cqp * cqp / (4.0 * cqq)
    if a_v >= 0.0:
        raise ValueError("coarse graining needs a decaying momentum envelope")
    l0 = 2.0 * cqq * qh + form.cq + cqp * ph  # u-linear coeff at v=0
    b_v = -2.0 * cpp * ph - cqp * qh - form.cp.real + cqp * l0.real / (2.0 * cqq)
    v_star = np.real(b_v) / (-2.0 * a_v)
    reach = _SUPPORT_SIGMAS / math.sqrt(-a_v)
    lo = np.maximum(-hv, v_star - reach)
    hi = np.minimum(hv, v_star + reach)
    # Cells whose window misses the support are exactly zero; the node loop
    # runs on the live cells only, flattened.
    live = hi > lo
    qh = np.broadcast_to(qh, live.shape)[live]
    ph = np.broadcast_to(ph, live.shape)[live]
    lo = lo[live]
    hi = hi[live]

    # Composite Gauss-Legendre in v: panel width short enough to resolve
    # both the Gaussian envelope (scale 1/sqrt|A_v|) and the v-phase rate.
    rate = abs(-form.cp.imag + ki * cqp / (2.0 * cqq))
    span = min(2.0 * hv, 2.0 * reach)
    panel = 2.0 / math.sqrt(-a_v)
    if rate > 0.0:
        panel = min(panel, 8.0 / rate)
    n_panels = min(max(1, math.ceil(span / panel)), 64)
    xg, wg = gauss_legendre_nodes(0.0, 1.0, 12)
    offsets = [(k + xk) / n_panels for k in range(n_panels) for xk in xg]
    weights = [wk / n_panels for _ in range(n_panels) for wk in wg]

    acc = np.zeros(qh.shape, dtype=complex)
    width = hi - lo
    for xk, wk in zip(offsets, weights):
        v = lo + width * xk
        pv = ph + v
        lu = 2.0 * cqq * qh + form.cq + cqp * pv
        lr = lu.real
        s = lr / (2.0 * cqq)
        j = osc_gauss_window(-hu + s, hu + s, cqq, -ki)
        e0 = form.exponent(qh, pv) + lr * lr / (4.0 * cqq) + 1j * ki * s
        acc = acc + (wk * width) * np.exp(e0) * j
    out = np.zeros(live.shape, dtype=complex)
    out[live] = acc / (4.0 * hu * hv)
    return out


def coarse_grain(field: WignerMatrixField, pix: CoarsePixelSpec) -> WignerMatrixField:
    """Average every Wigner matrix entry over a Δ×δ pixel window.

    The average is taken in closed form over the field's Gaussian source
    (exact up to the Legendre momentum quadrature), so the field must come
    from the closed form; numeric and coarse fields raise ValueError.
    """
    state = field._closed_form()
    u = state.units
    qh = np.asarray(u.scale_length(field.q), dtype=float).reshape(-1, 1)
    ph = np.asarray(u.scale_momentum(field.p), dtype=float).reshape(1, -1)
    hu = 0.5 * u.scale_length(pix.Delta)
    hv = 0.5 * u.scale_momentum(pix.delta)
    blocks = {}
    for pair in ("++", "--", "+-"):
        w = _box_average_form(_pair_form(state, pair), qh, ph, hu, hv)
        blocks[pair] = u.unscale_wigner(w)
    return WignerMatrixField(
        params=field.params, t=field.t, q=field.q, p=field.p,
        w_pp=blocks["++"].real, w_mm=blocks["--"].real, w_pm=blocks["+-"],
        source=None, pixels=pix,
        diag_imag_residue=float(
            max(np.max(np.abs(blocks["++"].imag)), np.max(np.abs(blocks["--"].imag)))
        ),
    )


# ---------------------------------------------------------------------------
# spin projections and fringe diagnostics


def project_spin_direction(w, n):
    """Tr[W(q,p)(𝟙 + n·σ)/2] for a spin direction n (unit 3-vector).

    Takes a WignerMatrixField and returns the projected real field.
    Non-unit n is normalized with a warning.
    """
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"n must be a 3-vector, got shape {n.shape}")
    norm = float(np.linalg.norm(n))
    if norm == 0.0:
        raise ValueError("n must be nonzero")
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
    for the position marginal of a coarse-grained field."""
    u = state.units
    qa = np.asarray(u.scale_length(q), dtype=float)
    hw = 0.5 * u.scale_length(Delta)
    f = state.density_form(pair[0])
    mass = f.C * gauss_window(qa - hw, qa + hw, f.mu, f.a)
    return u.unscale_density(mass / (2.0 * hw))
