"""Privacy budgeting, joint parameter optimization, and a desk-scale
simulator for federated learning with quantized Binomial-mechanism updates
over capacity-limited wireless links."""

from .errors import (
    AllInfeasibleError,
    BinomflError,
    CapacityInfeasibleError,
    ConfigError,
    DivergedError,
    EmptyDomainError,
    ErrorBoundUnavailableError,
    InfeasibleError,
    MechanismMismatchError,
    NotApplicableError,
    PrivacyInfeasibleError,
)
from .privacy import (
    ALPHA,
    MechanismParams,
    PrivacyContext,
    SensitivityBounds,
    dp_variance_feasible,
    epsilon_baseline,
    epsilon_tight,
    epsilon_tight_terms,
    s1_term,
    sensitivity_bounds,
)
from .sim import (
    ConvergenceParams,
    PrivatizedUpdate,
    SimTrace,
    aggregate,
    comm_cost,
    iterations_estimate,
    measure_bias,
    privatize,
    quantize_coord,
    run_fsgd,
    theoretical_bounds,
)
from .solver import (
    SolverConfig,
    Solution,
    brute_force_solve,
    eta_and_mu,
    lambda_for_rho,
    min_n_for_privacy,
    n_from_constraints,
    objective,
    qbar,
    solve,
    solve_with_stats,
)
from .wireless import (
    ChannelSampler,
    SystemParams,
    assign_powers,
    capacity_feasible,
    domain_bound,
    required_power,
    sample_gains,
    shannon_rate,
)

__version__ = "0.1.0"
