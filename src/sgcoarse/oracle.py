"""Independent split-operator check of the closed-form dynamics.

Both branch Schrödinger equations

    iħ ∂φ_s/∂t = -(ħ²/2m) ∂²φ_s/∂x² - m a_s x φ_s,   a_s = ±F/m,

are integrated on a periodic grid with Strang splitting: half a potential
kick, an exact spectral free flight, half a kick.  Each factor is unitary,
so the norm is conserved to roundoff regardless of dt.

For a potential linear in x the Baker-Campbell-Hausdorff series terminates:
the only surviving error commutator [V,[V,K]] is a c-number, so one Strang
step equals the exact propagator times a global phase exp(i m a² dt³/24ħ...)
per step, accumulating to m a² T dt²/24ħ.  Densities therefore match the
closed forms to roundoff at any stable dt, while the complex amplitudes
show textbook second-order convergence, which is what the verification
report measures.  dt defaults are solved from that phase bound.

Both branches advance together as one (2, n) array: one forward and one
inverse FFT per step.  The kick and drift factors depend only on the scaled
dt, the acceleration and the grid, and a step never changes the last two, so
a state carries them to the next step and they are rebuilt only when dt
changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import PhysicalParams, ResolutionError, UnitSystem
from .dynamics import BRANCHES, SIGNS, SpinorWavepacket, evolve_in_field

DEFAULT_GRID_POINTS = 4096
DEFAULT_HALF_WIDTH = 10.0  # scaled units of sigma
DEFAULT_DT_FRACTION = 1e-5  # of tau2
_STRANG_PHASE_TARGET = 2e-7  # accumulated Strang phase that default_dt allows
_CONVERGENCE_LEVELS = 3  # t/64, t/128, t/256 in convergence_order, both branches
_SAMPLES_PER_WAVELENGTH = 8.0
_WIDTH_MARGIN = 12.0


@dataclass(frozen=True)
class _StepPlan:
    """Strang factors for one dt on a state's grid, all scaled."""

    dts: float
    kick: np.ndarray  # (2, n): half-kick of the + and - branch
    drift: np.ndarray  # (n,): spectral free flight over dts


def _branch_norms(psi: np.ndarray) -> np.ndarray:
    """Σ|ψ|² of each row, by numpy's pairwise sum (roundoff ~ eps·log n)."""
    return np.sum(np.abs(psi) ** 2, axis=-1)


@dataclass(frozen=True)
class GridState:
    """Spinor wavefunction sampled on a periodic grid (scaled units inside).

    `psi` holds the + and - branch as rows and `norms` their Σ|ψ|².  `plan`
    is the Strang factors of the step that made the state, which the next
    step reuses while its dt is the same.
    """

    params: PhysicalParams
    units: UnitSystem
    x: np.ndarray  # scaled positions
    dx: float  # scaled spacing
    t: float  # scaled elapsed time
    psi: np.ndarray  # (2, n): rows are the + and - branch
    norms: np.ndarray  # (2,): Σ|ψ|² of each row
    step_norm_drift: float = 0.0  # max per-step relative norm change so far
    plan: _StepPlan | None = field(default=None, repr=False, compare=False)

    def boundary_mass(self, margin: float = 2.0) -> float:
        """Probability within `margin` (scaled) of either grid edge."""
        p_tot = (np.abs(self.psi[0]) ** 2 + np.abs(self.psi[1]) ** 2) * self.dx
        edge = (self.x < self.x[0] + margin) | (self.x > self.x[-1] - margin)
        return float(np.sum(p_tot[edge])) / 2.0

    def overlap(self) -> complex:
        """Grid estimate of ⟨φ₋|φ₊⟩."""
        return complex(np.sum(np.conj(self.psi[1]) * self.psi[0]) * self.dx)


def make_grid_state(
    params: PhysicalParams,
    n: int = DEFAULT_GRID_POINTS,
    half_width: float = DEFAULT_HALF_WIDTH,
) -> GridState:
    """Canonical initial packet sampled on a 2·half_width (scaled) grid."""
    if n < 16:
        raise ValueError(f"grid needs at least 16 points, got {n}")
    if not (0.0 < half_width < math.inf):
        raise ValueError(f"half_width must be positive and finite, got {half_width}")
    units = UnitSystem.for_params(params)
    x = np.linspace(-half_width, half_width, n, endpoint=False)
    psi = np.tile(np.pi**-0.25 * np.exp(-(x**2) / 2.0).astype(complex), (2, 1))
    return GridState(
        params=params,
        units=units,
        x=x,
        dx=float(x[1] - x[0]),
        t=0.0,
        psi=psi,
        norms=_branch_norms(psi),
    )


def step_split_operator(state: GridState, dt: float) -> GridState:
    """Advance both branches by one Strang step of SI duration dt."""
    if not (0.0 < dt < math.inf):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    dts = dt / state.units.time
    plan = state.plan
    if plan is None or plan.dts != dts:
        accel = state.params.accel / state.units.accel
        k = 2.0 * np.pi * np.fft.fftfreq(state.x.size, d=state.dx)
        # V_s = -a_s x
        kick = np.stack([np.exp(1j * s * accel * state.x * dts / 2.0) for s in SIGNS])
        plan = _StepPlan(dts=dts, kick=kick, drift=np.exp(-1j * k**2 * dts / 2.0))
    out = plan.kick * state.psi
    np.fft.fft(out, axis=-1, out=out)
    out *= plan.drift
    np.fft.ifft(out, axis=-1, out=out)
    out *= plan.kick
    norms = _branch_norms(out)
    # np.max, unlike max(), keeps a NaN drift from any step
    drift_max = float(np.max(np.abs(norms / state.norms - 1.0), initial=state.step_norm_drift))
    return GridState(
        params=state.params,
        units=state.units,
        x=state.x,
        dx=state.dx,
        t=state.t + dts,
        psi=out,
        norms=norms,
        step_norm_drift=drift_max,
        plan=plan,
    )


def _check_resolution(params: PhysicalParams, t: float, n: int, half_width: float) -> None:
    """Refuse a grid with fewer than 8 samples per shortest wavelength present
    at time t, or too narrow to hold the packets."""
    units = UnitSystem.for_params(params)
    a = abs(params.accel / units.accel)
    ts = t / units.time
    k_max = a * ts + 6.0 * math.sqrt(1.0 + ts**2)  # kick plus packet momentum tail
    dx = 2.0 * half_width / n
    need = 2.0 * np.pi / (_SAMPLES_PER_WAVELENGTH * k_max)
    if dx > need:
        raise ResolutionError(
            f"grid spacing {dx:.3e} (scaled) undersamples momentum "
            f"{k_max * units.momentum:.3e} kg m/s at t={t:.3e} s; need dx <= {need:.3e}"
        )
    drift = a * ts**2 / 2.0
    width = math.sqrt((1.0 + ts**2) / 2.0)
    if half_width < drift + _WIDTH_MARGIN * width:
        raise ValueError(
            f"half_width {half_width} (scaled) cannot hold drift {drift:.2f} "
            f"plus {_WIDTH_MARGIN} widths ({width:.2f} each)"
        )


def default_dt(params: PhysicalParams, t: float) -> float:
    """dt (SI) putting the accumulated Strang phase below _STRANG_PHASE_TARGET
    at time t."""
    units = UnitSystem.for_params(params)
    ahat = abs(params.accel / units.accel)
    ts = t / units.time
    dt_hat = DEFAULT_DT_FRACTION
    if ahat > 0.0 and ts > 0.0:
        dt_hat = min(dt_hat, math.sqrt(24.0 * _STRANG_PHASE_TARGET / (ahat**2 * ts)))
    dt_hat = min(dt_hat, ts / 64.0) if ts > 0.0 else dt_hat
    return dt_hat * units.time


def evolve_grid(
    params: PhysicalParams,
    t: float,
    dt: float | None = None,
    n: int = DEFAULT_GRID_POINTS,
    half_width: float = DEFAULT_HALF_WIDTH,
) -> GridState:
    """Integrate the canonical packet to SI time t on the grid."""
    if not (0.0 <= t < math.inf):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    if dt is not None and not (0.0 < dt < math.inf):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    _check_resolution(params, t, n, half_width)
    state = make_grid_state(params, n=n, half_width=half_width)
    if t == 0.0:
        return state
    if dt is None:
        dt = default_dt(params, t)
    steps = max(1, math.ceil(t / dt - 1e-12))
    dt = t / steps
    for _ in range(steps):
        state = step_split_operator(state, dt)
    return state


@dataclass(frozen=True)
class OracleRow:
    t: float
    l2_err_plus: float
    l2_err_minus: float
    overlap_dev: float
    norm_drift: float  # max per-step relative drift (the unitarity bound)
    cum_norm_drift: float = 0.0  # |final norm - 1|, grows with step count


@dataclass(frozen=True)
class OracleReport:
    n: int
    rows: tuple[OracleRow, ...]

    # np.max, unlike max(), returns NaN when any value is NaN, so a check
    # on the result cannot pass over it
    @property
    def max_l2(self) -> float:
        return float(np.max([(r.l2_err_plus, r.l2_err_minus) for r in self.rows]))

    @property
    def max_overlap_dev(self) -> float:
        return float(np.max([r.overlap_dev for r in self.rows]))

    @property
    def max_norm_drift(self) -> float:
        return float(np.max([r.norm_drift for r in self.rows]))


def _branch_error(grid: GridState, exact: SpinorWavepacket, i: int) -> float:
    """Relative L2 error of grid row i against the closed-form branch BRANCHES[i]."""
    x_si = grid.x * grid.units.length
    ref = exact.amplitude(BRANCHES[i], x_si, weighted=False) / grid.units.amplitude
    diff = np.abs(grid.psi[i] - ref)
    num = np.sum(diff**2) * grid.dx
    den = np.sum(np.abs(ref) ** 2) * grid.dx
    return float(np.sqrt(num / den))


def verify_closed_forms(
    params: PhysicalParams,
    t_list,
    dt: float | None = None,
    n: int = DEFAULT_GRID_POINTS,
    half_width: float = DEFAULT_HALF_WIDTH,
) -> OracleReport:
    """Compare grid evolution against the closed-form branches at each t."""
    rows = []
    for t in t_list:
        grid = evolve_grid(params, t, dt=dt, n=n, half_width=half_width)
        exact = evolve_in_field(params, t)
        ov_exact = exact.branch_overlap()
        rows.append(
            OracleRow(
                t=float(t),
                l2_err_plus=_branch_error(grid, exact, 0),
                l2_err_minus=_branch_error(grid, exact, 1),
                overlap_dev=abs(grid.overlap() - ov_exact),
                norm_drift=grid.step_norm_drift,
                cum_norm_drift=float(np.max(np.abs(grid.norms * grid.dx - 1.0))),
            )
        )
    return OracleReport(n=n, rows=tuple(rows))


def convergence_order(
    params: PhysicalParams,
    t: float,
    n: int = DEFAULT_GRID_POINTS,
    half_width: float = DEFAULT_HALF_WIDTH,
) -> tuple[list[float], list[float]]:
    """Worse-branch L2 errors (np.max: NaN if either is) for dt0 = t/64,
    default_dt's largest step, dt0/2 and dt0/4, and the orders between them."""
    units = UnitSystem.for_params(params)
    dt0 = (t / units.time / 64.0) * units.time  # default_dt's t/64, bit for bit
    errs = []
    exact = evolve_in_field(params, t)
    for lvl in range(_CONVERGENCE_LEVELS):
        dt = dt0 / 2**lvl
        grid = evolve_grid(params, t, dt=dt, n=n, half_width=half_width)
        errs.append(float(np.max([_branch_error(grid, exact, i) for i in range(len(BRANCHES))])))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    return errs, orders
