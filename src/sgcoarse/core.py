"""Physical parameters, derived scales, and unit handling.

The model is a spin-1/2 particle in a transverse field gradient,

    H = p²/2m + F x σ,

where σ is the spin component along the gradient axis and F the gradient
coupling (units of force).  Everything downstream is controlled by three
timescales built from (m, F, σ_x):

    τ₁ = sqrt(2σ/|a|)   packet separation time      (a = F/m)
    τ₂ = mσ²/ħ          free spreading time
    τ₃ = τ₁²/τ₂         branch-distinguishability time

with σ the initial position spread.  Internally all computation is done in
scaled units (length σ, time τ₂, momentum ħ/σ), which makes m = ħ = σ = 1
and keeps every phase argument and prefactor near unity; SI enters and
leaves only at the API boundary.  `UnitSystem` holds the SI value of each
unit: a value is scaled by dividing it by its unit value, and unscaled by
multiplying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

HBAR = 1.054571817e-34  # J s

# Reference run: silver atom, 1 T/mm-class gradient, micron beam waist.
SILVER_MASS_KG = 1.79e-25
SILVER_FORCE_N = 9.27e-22
SILVER_SIGMA_M = 1e-6

_ROOT_HALF = 1.0 / math.sqrt(2.0)

VERSION = "0.1.0"

CONFIG_KEYS = (
    "mass_kg",
    "force_N",
    "sigma_m",
    "c_plus_re",
    "c_plus_im",
    "c_minus_re",
    "c_minus_im",
)


class NoSeparationError(ValueError):
    """Raised when F = 0 leaves the separation timescale undefined."""


class ResolutionError(ValueError):
    """Raised when a grid is too coarse for the oscillations it must carry."""


@dataclass(frozen=True)
class PhysicalParams:
    """Inputs of a run: mass, gradient force, packet width, spin weights.

    ``force`` is the coupling F of H = p²/2m + F x σ; for a silver atom it
    is μB ∂B/∂z.  ħ is the CODATA constant, not an input.
    """

    mass: float
    force: float
    sigma: float = SILVER_SIGMA_M
    c_plus: complex = complex(_ROOT_HALF, 0.0)
    c_minus: complex = complex(_ROOT_HALF, 0.0)
    hbar: ClassVar[float] = HBAR

    def __post_init__(self) -> None:
        if not (0.0 < self.mass < math.inf):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not (0.0 < self.sigma < math.inf):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not math.isfinite(self.force):
            raise ValueError(f"force must be finite, got {self.force}")

        norm = abs(self.c_plus) ** 2 + abs(self.c_minus) ** 2
        if not (abs(norm - 1.0) <= 1e-12):
            raise ValueError(f"spin weights not normalized: |c+|^2+|c-|^2 = {norm!r}")

    @classmethod
    def silver(cls, **overrides) -> "PhysicalParams":
        """Reference silver-atom parameter set."""
        kw = dict(mass=SILVER_MASS_KG, force=SILVER_FORCE_N, sigma=SILVER_SIGMA_M)
        kw.update(overrides)
        return cls(**kw)

    @property
    def accel(self) -> float:
        """Branch acceleration magnitude carrier a = F/m (signed)."""
        return self.force / self.mass

    def weight(self, branch: str) -> complex:
        if branch == "+":
            return self.c_plus
        if branch == "-":
            return self.c_minus
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")


@dataclass(frozen=True)
class DerivedScales:
    """The three timescales of a run."""

    tau1: float
    tau2: float
    tau3: float

    def __post_init__(self) -> None:
        for name in ("tau1", "tau2", "tau3"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")


def derive_scales(params: PhysicalParams) -> DerivedScales:
    """Compute (τ₁, τ₂, τ₃) from the run parameters.

    τ₁ uses |a| so that the sign of F never leaks into a timescale.
    """
    if params.force == 0.0:
        raise NoSeparationError("F = 0: no separation timescale exists")
    tau1 = math.sqrt(2.0 * params.sigma / abs(params.accel))
    tau2 = params.mass * params.sigma**2 / params.hbar
    tau3 = tau1**2 / tau2
    return DerivedScales(tau1=tau1, tau2=tau2, tau3=tau3)


@dataclass(frozen=True)
class UnitSystem:
    """SI values of the scaled units, one per kind of quantity.

    In these units m = ħ = σ = 1.  A value is scaled by dividing it by its
    unit and unscaled by multiplying, so round trips are exact to floating
    point.  ``wigner`` is the unit of a Wigner density, 1/(σ · ħ/σ) = 1/ħ.
    """

    length: float  # σ
    time: float  # τ₂ = mσ²/ħ
    momentum: float  # ħ/σ
    accel: float  # σ/τ₂²
    amplitude: float  # σ^(-1/2), a 1-D wavefunction value
    wigner: float  # 1/ħ

    @classmethod
    def for_params(cls, params: PhysicalParams) -> "UnitSystem":
        time = params.mass * params.sigma**2 / params.hbar
        return cls(
            length=params.sigma,
            time=time,
            momentum=params.hbar / params.sigma,
            accel=params.sigma / time**2,
            amplitude=params.sigma**-0.5,
            wigner=1.0 / params.hbar,
        )


def parse_config_text(text: str) -> dict[str, float]:
    """Parse ``key = value`` lines; '#' starts a comment; keys are fixed."""
    entries: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        try:
            entries[key] = float(value.strip())
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key!r}") from exc
    return entries


def params_from_entries(entries: dict[str, float]) -> PhysicalParams:
    for key in ("mass_kg", "force_N", "sigma_m"):
        if key not in entries:
            raise ValueError(f"config missing required key {key!r}")
    c_plus = complex(entries.get("c_plus_re", _ROOT_HALF), entries.get("c_plus_im", 0.0))
    c_minus = complex(entries.get("c_minus_re", _ROOT_HALF), entries.get("c_minus_im", 0.0))
    return PhysicalParams(
        mass=entries["mass_kg"],
        force=entries["force_N"],
        sigma=entries["sigma_m"],
        c_plus=c_plus,
        c_minus=c_minus,
    )


def params_to_entries(params: PhysicalParams) -> dict[str, float]:
    """Serialize parameters to config entries (inverse of parsing)."""
    return {
        "mass_kg": params.mass,
        "force_N": params.force,
        "sigma_m": params.sigma,
        "c_plus_re": params.c_plus.real,
        "c_plus_im": params.c_plus.imag,
        "c_minus_re": params.c_minus.real,
        "c_minus_im": params.c_minus.imag,
    }
