"""Driven-dissipative cavity arrays: Liouvillian assembly, steady states,
entanglement control and thermalization diagnostics."""

__version__ = "0.1.0"

from .linalg import (
    DensityMatrix,
    HilbertSpace,
    NonHermitianError,
    embed,
    herm_eig,
    kron,
    lstsq_solve,
    partial_trace,
    psd_sqrt,
)
from .superop import (
    AssemblyError,
    DissipatorTerm,
    Superoperator,
    assemble,
    unvec,
    vec,
)
from .models import (
    EffectiveParams,
    MicroParams,
    ModelSpec,
    build_model,
    derive_effective,
    fig3_ring_spec,
    fig5_pair_spec,
    model_spec_from_json,
    model_spec_to_json,
    thermal_pair_spec,
    validation_micro_spec,
)
from .steady import (
    SteadyStateError,
    SteadyStateReport,
    steady_state_on,
)
from .observables import (
    concurrence,
    gibbs_two_qubit,
    population,
    purity,
    thermal_occupation,
    trace_distance,
)
from .optimize import OptimizeReport, drive, multistart_maximize, nelder_mead
from .experiments import (
    Axis,
    ObservableSpec,
    SweepPlan,
    SweepResult,
    optimize_concurrence,
    run_sweep,
    signed_x_grid,
    solve_spec,
    thermal_map,
    validate_effective,
)

__all__ = [name for name in dir() if not name.startswith("_")]
