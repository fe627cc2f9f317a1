"""Exact single-axis dynamics of the two spin branches.

The transverse Hamiltonian H = p²/2m + F x σ block-diagonalizes in the σ
eigenbasis, so each branch evolves under its own uniform force and nothing
ever mixes them.  Branch labels follow the deflection: branch '+' is the
component accelerated along +x when F > 0 (a₊ = +F/m), branch '-' the
mirror image (a₋ = -F/m).

Under a potential that is at most quadratic a Gaussian stays Gaussian
(Heller, J. Chem. Phys. 62, 1544 (1975)), so each branch is carried as
four numbers (x̄, p̄, α, θ) rather than samples.  In scaled units
(m = ħ = σ = 1) the branch is the centred Gaussian

    φ(x) = (2 Re α/π)^¼ e^{iθ} exp(-α(x - x̄)² + i p̄ (x - x̄)).

Under a uniform acceleration a for a time dt its centre moves classically,
its width evolves as for a free packet (a uniform force displaces but never
squeezes) and its phase gains the action along the centre's path:

    x̄ → x̄ + p̄ dt + a dt²/2,   p̄ → p̄ + a dt,   α → α/(1 + 2iα dt),
    θ → θ + p̄²dt/2 + a p̄ dt² + a x̄ dt + a²dt³/3 - ½ arg(1 + 2iα dt).

The in-field branch is the canonical packet (0, 0, ½, 0) evolved by
(a_s, t): centred at a_s t²/2 with mean momentum a_s t, α = 1/(2(1+it)) and
θ(t) = a_s²t³/3 - ½ arctan t.  Leaving the field at t₁ evolves each branch
on with a = 0, coherences included.  Every term is taken about the branch's
own centre, so none grows with a_s t only to cancel, and θ (1.5e10 rad at
1e-2 s for silver) enters a value as one scalar factor e^{iθ}.

Each Wigner block of two branches of one width is a `PhaseSpaceGaussian`,
built by `SpinorWavepacket.block_form`: the cross block's integral is the
branch overlap and a diagonal block's q-marginal the branch density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import PhysicalParams, UnitSystem

SPIN_PAIRS = ("++", "--", "+-", "-+")


def branch_sign(branch: str) -> int:
    if branch == "+":
        return 1
    if branch == "-":
        return -1
    raise ValueError(f"branch must be '+' or '-', got {branch!r}")


@dataclass(frozen=True)
class GaussianBranch:
    """One normalised branch in scaled units, centred on its own mean:

        φ(x) = (2 Re α/π)^¼ e^{iθ} exp(-α(x - x̄)² + i p̄ (x - x̄)),

    with x̄ = `center`, p̄ = `mean_momentum` and θ = `phase`, the phase at
    x̄.  Re α > 0 always.
    """

    center: float
    mean_momentum: float
    alpha: complex
    phase: float

    def value(self, x):
        d = np.asarray(x, dtype=float) - self.center
        norm = (2.0 * self.alpha.real / np.pi) ** 0.25 * np.exp(1j * self.phase)
        return norm * np.exp(-self.alpha * d * d + 1j * self.mean_momentum * d)

    @property
    def variance(self) -> float:
        """Variance of |φ|² (scaled length²)."""
        return 1.0 / (4.0 * self.alpha.real)

    def evolved(self, a: float, dt: float) -> "GaussianBranch":
        """Propagate for scaled time dt under the uniform acceleration a."""
        x, p, w = self.center, self.mean_momentum, 1.0 + 2j * self.alpha * dt
        return GaussianBranch(
            center=x + p * dt + 0.5 * a * dt * dt,
            mean_momentum=p + a * dt,
            alpha=self.alpha / w,
            phase=(self.phase + 0.5 * p * p * dt + a * p * dt * dt + a * x * dt
                   + a * a * dt**3 / 3.0 - 0.5 * math.atan2(w.imag, w.real)),
        )


@dataclass(frozen=True)
class PhaseSpaceGaussian:
    """W(z) = amp·N(z; z̄, Σ)·exp(i k₀·(z - z̄)) in phase space z = (q, p),
    scaled units (ħ = 1), with z̄ = (q0, p0), k₀ = (kq, kp) and
    Σ = [[sqq, sqp], [sqp, spp]] any positive-definite covariance.  A pure
    branch pair's block has det Σ = ¼; a mixed or smoothed one has more.
    """

    amp: complex
    q0: float
    p0: float
    sqq: float
    sqp: float
    spp: float
    kq: float
    kp: float

    @property
    def det(self) -> float:
        return self.sqq * self.spp - self.sqp * self.sqp

    @property
    def precision(self) -> tuple[float, float, float]:
        """(gqq, gqp, gpp) of G = ½Σ⁻¹, so that W ∝ exp(-(z - z̄)ᵀG(z - z̄))."""
        h = 0.5 / self.det
        return self.spp * h, -self.sqp * h, self.sqq * h

    def value(self, q, p):
        gqq, gqp, gpp = self.precision
        dq, dp = q - self.q0, p - self.p0
        quad = gqq * dq**2 + 2.0 * gqp * dq * dp + gpp * dp**2
        norm = self.amp / (2.0 * np.pi * math.sqrt(self.det))
        return norm * np.exp(-quad + 1j * (self.kq * dq + self.kp * dp))

    def integral(self) -> complex:
        """∬W dq dp = amp·exp(-½ k₀ᵀΣk₀)."""
        kq, kp = self.kq, self.kp
        return self.amp * math.exp(
            -0.5 * (self.sqq * kq * kq + 2.0 * self.sqp * kq * kp + self.spp * kp * kp))

    def q_marginal(self) -> tuple[complex, float, float]:
        """∫W dp = c·exp(-(q - q0)²/(2v) + i r (q - q0)), returned as (c, v, r):
        v = Σqq, r = kq + kp·Σqp/Σqq and c = amp/√(2πΣqq)·exp(-½ kp² det Σ/Σqq)."""
        v = self.sqq
        c = self.amp / math.sqrt(2.0 * np.pi * v) * math.exp(-0.5 * self.kp**2 * self.det / v)
        return c, v, self.kq + self.kp * self.sqp / v


_CANONICAL = GaussianBranch(center=0.0, mean_momentum=0.0, alpha=0.5 + 0j, phase=0.0)


class DensityForm(NamedTuple):
    """|c_s φ_s(x)|² = C exp(-a (x - mu)²) on the scaled axis."""

    C: float
    mu: float
    a: float


@dataclass(frozen=True)
class SpinorWavepacket:
    """Two-branch Gaussian state at one instant, SI at the surface.

    ``t`` is the total elapsed time; ``t_exit`` the field-exit time, equal
    to ``t`` while still inside the field.
    """

    params: PhysicalParams
    units: UnitSystem
    t: float
    t_exit: float
    plus: GaussianBranch
    minus: GaussianBranch

    @property
    def in_field(self) -> bool:
        """True while the gradient is still acting on the packet."""
        return self.t_exit == self.t

    def branch(self, branch: str) -> GaussianBranch:
        return self.plus if branch_sign(branch) > 0 else self.minus

    def amplitude(self, branch: str, x, *, weighted: bool = True):
        """Branch amplitude at SI position x (units m^(-1/2)).

        weighted=True returns the full-state component c_s φ_s; False the
        bare normalized branch φ_s.
        """
        val = self.branch(branch).value(np.asarray(x, dtype=float) / self.units.length)
        val = val * self.units.amplitude
        if weighted:
            val = val * self.params.weight(branch)
        return val

    def density(self, branch: str, x):
        """|c_s φ_s|² at SI position x (units 1/m)."""
        return np.abs(self.amplitude(branch, x)) ** 2

    def center(self, branch: str) -> float:
        return self.branch(branch).center * self.units.length

    def variance(self, branch: str) -> float:
        return self.branch(branch).variance * self.units.length**2

    def block_form(self, pair: str) -> PhaseSpaceGaussian:
        """Wigner block of the bare branches φ_s, φ_o of the spin pair so, as
        derived in the phase_space module docstring.  The weights c_s c_o*
        are left to the Wigner matrix, so the cross block integrates to
        ⟨φ_o|φ_s⟩ whatever they are, c₋ = 0 included.
        """
        bs, bo = self.branch(pair[0]), self.branch(pair[1])
        if abs(bs.alpha - bo.alpha) > 1e-10 * abs(bs.alpha):
            raise ValueError("unequal branch widths: no equal-width Wigner form")
        a, b = bs.alpha.real, bs.alpha.imag
        xs, ps, xo, po = bs.center, bs.mean_momentum, bo.center, bo.mean_momentum
        p0 = 0.5 * (ps + po)
        return PhaseSpaceGaussian(
            amp=complex(np.exp(1j * (bs.phase - bo.phase - (xs - xo) * p0))),
            q0=0.5 * (xs + xo), p0=p0,
            sqq=0.25 / a, sqp=-0.5 * b / a, spp=a + b * b / a,
            kq=ps - po, kp=xo - xs,
        )

    def density_form(self, branch: str) -> DensityForm:
        """Weighted branch density as one real Gaussian in scaled units: the
        q-marginal of the diagonal block times |c|²."""
        form = self.block_form(branch + branch)
        c, v, _ = form.q_marginal()
        return DensityForm(abs(self.params.weight(branch)) ** 2 * c.real, form.q0, 0.5 / v)

    def branch_overlap(self) -> complex:
        """⟨φ₋|φ₊⟩: the integral of the bare cross block."""
        return self.block_form("+-").integral()


def evolve_in_field(params: PhysicalParams, t: float) -> SpinorWavepacket:
    """State after time t inside the gradient, from the canonical packet."""
    if not (0.0 <= t < math.inf):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    units = UnitSystem.for_params(params)
    ts = t / units.time
    a = params.accel / units.accel
    return SpinorWavepacket(
        params=params,
        units=units,
        t=t,
        t_exit=t,
        plus=_CANONICAL.evolved(+a, ts),
        minus=_CANONICAL.evolved(-a, ts),
    )


def evolve_free_after_field(params: PhysicalParams, t1: float, t: float) -> SpinorWavepacket:
    """State at time t after leaving the gradient at t1 (0 ≤ t1 ≤ t)."""
    if not (0.0 <= t1 < math.inf):
        raise ValueError(f"exit time must be finite and nonnegative, got {t1}")
    if not (t1 <= t < math.inf):
        raise ValueError(f"time must be finite and not precede field exit {t1}, got {t}")
    state = evolve_in_field(params, t1)
    dts = (t - t1) / state.units.time
    return SpinorWavepacket(
        params=params,
        units=state.units,
        t=t,
        t_exit=t1,
        plus=state.plus.evolved(0.0, dts),
        minus=state.minus.evolved(0.0, dts),
    )
