"""Exact single-axis dynamics of the two spin branches.

The transverse Hamiltonian H = p²/2m + F x σ block-diagonalizes in the σ
eigenbasis, so each branch evolves under its own uniform force and nothing
ever mixes them.  Branch labels follow the deflection: branch '+' is the
component accelerated along +x when F > 0 (a₊ = +F/m), branch '-' the
mirror image (a₋ = -F/m).

For a uniform force the propagator is known in closed form,

    K_s(x, xᵢ; t) = sqrt(m/2πiħt) · exp (i/ħ)[ m(x-xᵢ)²/2t
                    + m a_s t (x+xᵢ)/2 - m a_s² t³/24 ].

Folding the initial Gaussian (πσ²)^(-1/4) e^(-x²/2σ²) through K_s gives a
Gaussian at every later time, so states are carried around as complex
quadratic exponents rather than samples.  In scaled units (m = ħ = σ = 1),

    φ_s(x, t) = π^(-1/4) (1+it)^(-1/2) ·
                exp{ -[12x² + a_s²t³(4i - t) + 12 a_s x t (t - 2i)] / [24(1+it)] },

centered at a_s t²/2 with mean momentum a_s t and width growing like the
free packet (a uniform force displaces but never squeezes).  Leaving the
field at t₁ composes this with the free kernel, which again closes in the
same Gaussian family, coherences included.
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
    """One branch amplitude in scaled units: norm · exp(-(αx² + βx + γ)).

    Re α > 0 always; norm carries the full normalization and global phase.
    """

    norm: complex
    alpha: complex
    beta: complex
    gamma: complex

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.norm * np.exp(-(self.alpha * x**2 + self.beta * x + self.gamma))

    @property
    def center(self) -> float:
        return -self.beta.real / (2.0 * self.alpha.real)

    @property
    def variance(self) -> float:
        """Variance of |φ|² (scaled length²)."""
        return 1.0 / (4.0 * self.alpha.real)

    @property
    def mean_momentum(self) -> float:
        return -(2.0 * self.alpha.imag * self.center + self.beta.imag)

    def free_evolved(self, dt: float) -> "GaussianBranch":
        """Propagate with the free kernel for scaled time dt > 0."""
        lam = 1j / (2.0 * dt)
        d = self.alpha - lam
        return GaussianBranch(
            norm=self.norm * np.sqrt(1.0 / (2j * np.pi * dt)) * np.sqrt(np.pi / d),
            alpha=-lam * self.alpha / d,
            beta=-lam * self.beta / d,
            gamma=self.gamma - self.beta**2 / (4.0 * d),
        )


def _in_field_branch(a_s: float, t: float) -> GaussianBranch:
    """Closed-form in-field branch at scaled time t for acceleration a_s."""
    denom = 1.0 + 1j * t
    return GaussianBranch(
        norm=np.pi**-0.25 / np.sqrt(denom),
        alpha=1.0 / (2.0 * denom),
        beta=a_s * t * (t - 2j) / (2.0 * denom),
        gamma=a_s**2 * t**3 * (4j - t) / (24.0 * denom),
    )


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
        """⟨φ₋|φ₊⟩ evaluated exactly from the stored exponents."""
        p, m = self.plus, self.minus
        A = p.alpha + np.conj(m.alpha)
        B = p.beta + np.conj(m.beta)
        C = p.gamma + np.conj(m.gamma)
        return p.norm * np.conj(m.norm) * np.sqrt(np.pi / A) * np.exp(B**2 / (4.0 * A) - C)


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
        plus=_in_field_branch(+a, ts),
        minus=_in_field_branch(-a, ts),
    )


def evolve_free_after_field(params: PhysicalParams, t1: float, t: float) -> SpinorWavepacket:
    """State at time t after leaving the gradient at t1 (0 ≤ t1 ≤ t)."""
    if not (0.0 <= t1 < math.inf):
        raise ValueError(f"exit time must be finite and nonnegative, got {t1}")
    if not (t1 <= t < math.inf):
        raise ValueError(f"time must be finite and not precede field exit {t1}, got {t}")
    state = evolve_in_field(params, t1)
    if t == t1:
        return state
    dts = state.units.scale_time(t - t1)
    return SpinorWavepacket(
        params=params,
        units=state.units,
        t=t,
        t_exit=t1,
        plus=state.plus.free_evolved(dts),
        minus=state.minus.free_evolved(dts),
    )
