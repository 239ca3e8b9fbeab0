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
    SimTrace,
    comm_cost,
    dequantize,
    iterations_estimate,
    measure_bias,
    privatize,
    run_fsgd,
    theoretical_bounds,
)
from .solver import (
    SolverConfig,
    Solution,
    brute_force_solve,
    lambda_for_rho,
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
