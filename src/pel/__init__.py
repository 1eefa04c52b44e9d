"""Linear-optical processing of imperfect single-photon sources.

Truncated Fock-space simulation of interferometers, loss channels and
photon-number heralding; the generalized quantum-optical efficiency; and
search-based stress tests of the no-go bounds on heralded single-photon
enhancement.
"""

__version__ = "0.1.0"

from .channels import (
    LindbladParams,
    LossChannel,
    apply_loss,
    apply_loss_lindblad,
    bernoulli_diagonal,
    invert_loss,
    kraus_operators,
)
from .efficiency import (
    EfficiencyResult,
    generalized_efficiency,
    is_feasible,
    multimode_efficiency,
    qubit_efficiency_formula,
)
from .errors import (
    ArityError,
    CapacityError,
    ConditioningError,
    ContractViolation,
    HeraldImpossibleError,
    MonotonicityError,
    PelError,
    PositivityError,
    TruncationError,
    ValidationError,
)
from .fock import (
    Coherent,
    DensityMatrix,
    Fock,
    FockBasis,
    Isps,
    PartialQubit,
    SourceSpec,
    coherent_amplitudes,
    coherent_tail_weight,
    displaced_number_elements,
    make_basis,
    make_state,
    min_eigenvalue,
    partial_trace,
    tensor,
    tensor_all,
    trace_distance,
)
from .interferometer import (
    FockLift,
    ModeUnitary,
    apply_interferometer,
    decompose,
    from_mesh,
    haar_random,
    lift,
    mesh_layout,
    mesh_param_count,
)
from .measurement import (
    MeasurementPattern,
    condition,
    multiphoton_weight,
    outcome_probability,
    single_photon_probability,
)
from .nogo import (
    SearchReport,
    SearchSpace,
    evaluate_scheme,
    maximize_X,
    unequal_loss_counterexample,
    verify_bernoulli_consequence,
    verify_commutation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
