"""Coarse-grained phase-space model of unitary spin measurement.

A spin-1/2 Gaussian packet crossing a uniform force gradient splits into
two accelerating branches.  The package provides the closed-form branch
dynamics, the spin-resolved Wigner matrix and its pixel averages, the
entanglement and detection-information measures, an independent grid
integrator used as a numerical oracle, and a CSV-emitting command line
runner.  SI units at every public surface; scaled units internally.
"""

from .core import (
    HBAR,
    VERSION,
    DerivedScales,
    NoSeparationError,
    PhysicalParams,
    ResolutionError,
    UnitSystem,
    derive_scales,
    params_from_entries,
    params_to_entries,
    parse_config_text,
)
from .dynamics import (
    GaussianBranch,
    SpinorWavepacket,
    evolve_free_after_field,
    evolve_in_field,
)
from .information import (
    LN2,
    EntanglementSeries,
    ScreenDistribution,
    entanglement_entropy,
    entanglement_series,
    entropy_from_overlap,
    information_series,
    mean_information,
    overlap_decay,
    reduced_spin_density,
    screen_distribution,
    von_neumann_entropy,
)
from .oracle import (
    GridState,
    OracleReport,
    OracleRow,
    convergence_order,
    default_dt,
    evolve_grid,
    make_grid_state,
    step_split_operator,
    verify_closed_forms,
)
from .phase_space import (
    WIGNER_CSV_HEADER,
    CoarsePixelSpec,
    DensityMatrixField,
    WignerMatrixField,
    coarse_grain,
    coarse_position_density,
    default_phase_space_grid,
    density_grid_for_wigner,
    density_matrix,
    measure_oscillation_scale,
    oscillation_scale,
    project_spin_direction,
    wigner_analytic,
    wigner_field,
    wigner_numeric,
)

__version__ = VERSION

__all__ = [
    "HBAR",
    "VERSION",
    "__version__",
    "DerivedScales",
    "NoSeparationError",
    "PhysicalParams",
    "ResolutionError",
    "UnitSystem",
    "derive_scales",
    "params_from_entries",
    "params_to_entries",
    "parse_config_text",
    "GaussianBranch",
    "SpinorWavepacket",
    "evolve_free_after_field",
    "evolve_in_field",
    "LN2",
    "EntanglementSeries",
    "ScreenDistribution",
    "entanglement_entropy",
    "entanglement_series",
    "entropy_from_overlap",
    "information_series",
    "mean_information",
    "overlap_decay",
    "reduced_spin_density",
    "screen_distribution",
    "von_neumann_entropy",
    "GridState",
    "OracleReport",
    "OracleRow",
    "convergence_order",
    "default_dt",
    "evolve_grid",
    "make_grid_state",
    "step_split_operator",
    "verify_closed_forms",
    "WIGNER_CSV_HEADER",
    "CoarsePixelSpec",
    "DensityMatrixField",
    "WignerMatrixField",
    "coarse_grain",
    "coarse_position_density",
    "default_phase_space_grid",
    "density_grid_for_wigner",
    "density_matrix",
    "measure_oscillation_scale",
    "oscillation_scale",
    "project_spin_direction",
    "wigner_analytic",
    "wigner_field",
    "wigner_numeric",
]
