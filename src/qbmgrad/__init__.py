"""Exact and shot-based gradients for quantum Boltzmann machine training."""

from .densities import (
    Density,
    HIGH_PEAK_TENT,
    LOGISTIC,
    SeededSampler,
    power_density,
    tail_mass_bound,
    verify_power_kernel_identity,
)
from .errors import GuardError, ScaleError, SpecError, StructureError, SupportError
from .estimator import (
    BEMeta,
    BlockEncoding,
    EstimatorConfig,
    be_product,
    budget_split,
    dilate,
    error_budget,
    estimate_first_term,
    estimate_model_term,
    hoeffding_shots,
    inv_sqrt_encoding,
    modular_unitary,
    quadrature_first_term,
    query_cost,
)
from .gradients import (
    GradientReport,
    Objective,
    POVM,
    Target,
    UMEGAKI,
    classical_gradient,
    classical_objective,
    gradient,
    gradient_cq,
    gradient_qc,
    lift_to_joint,
    pgm_povm,
    povm_probs,
    relative_entropy,
    restricted_gradients,
    tsallis,
)
from .linalg import (
    BipartiteDims,
    Eigensystem,
    as_density,
    as_hermitian,
    eigh,
    expectation,
    partial_trace,
    spectral_norm,
    tensor,
)
from .matcalc import (
    ChannelKind,
    EXP_TENT,
    EvalMode,
    LOG_LOGISTIC,
    apply_channel,
    channel_factor,
    frechet_exp,
    frechet_log,
    frechet_power,
    power_beta,
    thermal_derivative,
)
from .models import (
    CQModel,
    ParamHamiltonian,
    QCModel,
    RestrictedSpec,
    ThermalModel,
    cq_decompose,
    qc_decompose,
    restricted_to_param,
    thermalize,
)
from .training import (
    CQProblem,
    ClassicalProblem,
    QCProblem,
    QuantumProblem,
    TrainConfig,
    Trajectory,
    finite_difference_gradient,
    train,
)

__version__ = "0.1.0"
