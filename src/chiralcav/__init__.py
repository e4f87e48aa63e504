"""Single-photon reflectivity and state carving in a chirally coupled
atom-nanophotonic cavity.

The package computes weak-excitation steady-state reflection spectra for
N atoms with nonreciprocal (left/right asymmetric) decay coupled to a
single-sided cavity, and simulates the heralded carving protocol that
distills Bell and W states from the contrast of those spectra.
"""

from .analytic import ReferenceReflectivities, r_no_atoms, r_two_atoms, reference_values
from .carving import (
    MeasurementOutcome,
    ProtocolPlan,
    ProtocolResult,
    QubitRegister,
    StepRecord,
    carving_measurement,
    component_reflection,
    fidelity,
    global_rotation,
    plan_protocol,
    run_protocol,
)
from .errors import (
    ChiralCavError,
    DipNotFoundError,
    PoleError,
    ProtocolExtinguishedError,
    SolverError,
    ValidationError,
)
from .params import (
    DriveParams,
    SystemParams,
    ValidationReport,
    cooperativity,
    validate,
)
from .solver import (
    LinearSystem,
    SteadyState,
    build_linear_system,
    reflection_amplitude,
    reflectivity,
    reflectivity_batch,
    relax_time_domain,
    solve_steady_state,
)
from .spectrum import (
    Feature,
    Map2D,
    Spectrum,
    dip_detunings,
    figure_data,
    find_features,
    sweep_2d,
    sweep_delta,
    with_features,
)
from .tables import DataTable, read_table, write_table

__version__ = "0.1.0"

__all__ = [
    "ChiralCavError",
    "DataTable",
    "DipNotFoundError",
    "DriveParams",
    "Feature",
    "LinearSystem",
    "Map2D",
    "MeasurementOutcome",
    "PoleError",
    "ProtocolExtinguishedError",
    "ProtocolPlan",
    "ProtocolResult",
    "QubitRegister",
    "ReferenceReflectivities",
    "SolverError",
    "Spectrum",
    "StepRecord",
    "SteadyState",
    "SystemParams",
    "ValidationError",
    "ValidationReport",
    "build_linear_system",
    "carving_measurement",
    "component_reflection",
    "cooperativity",
    "dip_detunings",
    "fidelity",
    "figure_data",
    "find_features",
    "global_rotation",
    "plan_protocol",
    "r_no_atoms",
    "r_two_atoms",
    "read_table",
    "reference_values",
    "reflection_amplitude",
    "reflectivity",
    "reflectivity_batch",
    "relax_time_domain",
    "run_protocol",
    "solve_steady_state",
    "sweep_2d",
    "sweep_delta",
    "validate",
    "with_features",
    "write_table",
]
