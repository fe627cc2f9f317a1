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


_CANONICAL = GaussianBranch(center=0.0, mean_momentum=0.0, alpha=0.5 + 0j, phase=0.0)


class DensityForm(NamedTuple):
    """|c_s φ_s(x)|² = C exp(-a (x - mu)²) on the scaled axis; log_C = ln C."""

    C: float
    mu: float
    a: float
    log_C: float


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
        val = self.branch(branch).value(self.units.scale_length(np.asarray(x, dtype=float)))
        val = val * self.units.amplitude
        if weighted:
            val = val * self.params.weight(branch)
        return val

    def density(self, branch: str, x, *, weighted: bool = True):
        """|amplitude|² at SI position x (units 1/m)."""
        return np.abs(self.amplitude(branch, x, weighted=weighted)) ** 2

    def center(self, branch: str) -> float:
        return self.units.unscale_length(self.branch(branch).center)

    def variance(self, branch: str) -> float:
        return self.branch(branch).variance * self.units.sigma**2

    def mean_momentum(self, branch: str) -> float:
        return self.units.unscale_momentum(self.branch(branch).mean_momentum)

    def density_form(self, branch: str) -> DensityForm:
        """Weighted branch density as one real Gaussian in scaled units.

        C = |c|²·sqrt(a/π) is the normalisation that the evolution keeps.
        """
        g = self.branch(branch)
        a = 2.0 * g.alpha.real
        c = abs(self.params.weight(branch)) ** 2 * math.sqrt(a / math.pi)
        log_c = math.log(c) if c > 0.0 else -math.inf  # a pure spin state has c = 0
        return DensityForm(c, g.center, a, log_c)

    def branch_overlap(self) -> complex:
        """⟨φ₋|φ₊⟩ in closed form, taken about the midpoint of the two centres."""
        p, m = self.plus, self.minus
        dx = p.center - m.center
        A = p.alpha + np.conj(m.alpha)
        B = (p.alpha - np.conj(m.alpha)) * dx + 1j * (p.mean_momentum - m.mean_momentum)
        C = (-0.25 * A * dx * dx - 0.5j * (p.mean_momentum + m.mean_momentum) * dx
             + 1j * (p.phase - m.phase))
        norm = (4.0 * p.alpha.real * m.alpha.real / np.pi**2) ** 0.25
        return norm * np.sqrt(np.pi / A) * np.exp(B * B / (4.0 * A) + C)


def evolve_in_field(params: PhysicalParams, t: float) -> SpinorWavepacket:
    """State after time t inside the gradient, from the canonical packet."""
    if not (0.0 <= t < math.inf):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    units = UnitSystem.for_params(params)
    ts = units.scale_time(t)
    a = units.scale_accel(params.accel)
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
    dts = state.units.scale_time(t - t1)
    return SpinorWavepacket(
        params=params,
        units=state.units,
        t=t,
        t_exit=t1,
        plus=state.plus.evolved(0.0, dts),
        minus=state.minus.evolved(0.0, dts),
    )
