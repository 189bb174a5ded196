"""Asynchronous parallel heat-equation solving, analyzed as a
stochastically switched linear system: exact steady states, Lyapunov
convergence-rate certificates, and Markov tail bounds that never
enumerate the exponentially many switching modes."""

from .grid import (
    BoundaryConditions,
    GridSpec,
    InvalidGridError,
    build_sync_matrix,
    cos2_initial_condition,
    steady_state_profile,
)
from .modes import (
    AugmentedSpec,
    ModeCountError,
    SteadyStateProjector,
    SwitchingDistribution,
    build_mode_matrix,
    build_projector,
    deflate,
    expected_matrix,
    mode_probability,
    verify_eigenstructure,
    worst_case_mode,
)
from .sim import (
    EnsembleResult,
    RunConfig,
    Trajectory,
    async_step,
    run_ensemble,
    run_sync_reference,
)
from .analysis import (
    LyapunovCertificate,
    TailConstants,
    convergence_rate_bound,
    error_probability_bound,
    exact_mean_curve,
    solve_discrete_lyapunov,
    spectral_norm,
    tail_constants,
    verify_mean_contraction,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
