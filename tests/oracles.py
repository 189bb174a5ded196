"""Independent oracles that the tests check the package against.

None of this is on the CLI's path: three Lyapunov solves for the package's
Smith solver (a series sum, scipy's bilinear solve and a dense Kronecker
solve), the Kronecker-lifted checks of the second-moment chain, Lambda by
enumeration of every mode, and a single seeded run with its per-step delay
sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from asyncheat.analysis import (
    LyapunovError,
    TailConstants,
    _walk,
    solve_discrete_lyapunov,
    spectral_norm,
    tail_constants,
)
from asyncheat.modes import (
    AugmentedSpec,
    SteadyStateProjector,
    SwitchingDistribution,
    build_projector,
    mode_batches,
    mode_probability,
)
from asyncheat.sim import (
    RunConfig,
    Trajectory,
    _count_delays,
    _simulate_batch,
)

# the largest lifted dimension (Nnq)^2 whose Kronecker-lifted matrix the
# direct checks materialize
_LIFTED_DIM_GUARD = 2500


def lyapunov_series(w_tilde: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """P = sum_k (W~')^k (W~)^k by squared (Smith) iteration.

    The package solver's own algorithm, written apart from it: it checks
    that solver's bookkeeping, not its method. ``lyapunov_bilinear`` is
    the independent oracle.
    """
    p = np.eye(w_tilde.shape[0])
    m = np.asarray(w_tilde, dtype=float)
    for _ in range(200):
        increment = m.T @ p @ m
        p = p + increment
        if np.linalg.norm(increment) < tol * np.linalg.norm(p):
            break
        m = m @ m
    else:
        raise LyapunovError("series accumulation did not converge")
    return p


def lyapunov_bilinear(w_tilde: np.ndarray) -> np.ndarray:
    """P solving W~' P W~ - P = -I by scipy's bilinear method: a Cayley
    transform to a continuous Lyapunov equation, solved Bartels-Stewart
    style. A direct solver that shares no step with squared Smith."""
    import scipy.linalg

    w_tilde = np.asarray(w_tilde, dtype=float)
    return scipy.linalg.solve_discrete_lyapunov(
        w_tilde.T, np.eye(w_tilde.shape[0]), method="bilinear"
    )


# the largest n whose n^2 x n^2 Kronecker system the dense solve builds
_KRONECKER_DIM_GUARD = 30


def lyapunov_kronecker(w_tilde: np.ndarray) -> np.ndarray:
    """P solving (I - W~' (x) W~') vec P = vec I, by one dense LU solve."""
    w_tilde = np.asarray(w_tilde, dtype=float)
    n = w_tilde.shape[0]
    if n > _KRONECKER_DIM_GUARD:
        raise ValueError(
            f"dimension {n} exceeds guard {_KRONECKER_DIM_GUARD}"
        )
    # row-major vec: vec(W~' P W~) = (W~' (x) W~') vec P
    system = np.eye(n * n) - np.kron(w_tilde.T, w_tilde.T)
    return np.linalg.solve(system, np.eye(n).reshape(-1)).reshape(n, n)


@dataclass(frozen=True)
class SecondMomentReport:
    """Verified chain lambda_max(P~_m) < sum ||W~^k||^4 <= k0 c0/(1-c1)."""

    lifted_lambda_max: float
    truncated_sum: float
    tail_bound: float
    chain_holds: bool
    constants: TailConstants


def second_moment_bound_check(
    w_tilde: np.ndarray, horizon: int = 500
) -> SecondMomentReport:
    """Solve the Kronecker-lifted Lyapunov equation and verify the chain.

    The lifted dimension (Nnq)^2 must not exceed ``_LIFTED_DIM_GUARD``;
    beyond it, only the bound (no direct verification) is available and
    this raises instead.
    """
    w_tilde = np.asarray(w_tilde, dtype=float)
    lifted_dim = w_tilde.shape[0] ** 2
    if lifted_dim > _LIFTED_DIM_GUARD:
        raise ValueError(
            f"lifted dimension {lifted_dim} exceeds guard "
            f"{_LIFTED_DIM_GUARD}; "
            "use tail_constants for the bound-only mode"
        )
    gamma = np.kron(w_tilde, w_tilde)
    cert = solve_discrete_lyapunov(gamma)
    tc = tail_constants(w_tilde, horizon=horizon)
    truncated = 0.0
    for _, m, _ in _walk(w_tilde, horizon):
        term = spectral_norm(m) ** 4
        truncated += term
        if term < 1e-16:
            break
    chain = cert.lambda_max < truncated <= tc.lifted_lambda_max_bound
    return SecondMomentReport(
        lifted_lambda_max=cert.lambda_max,
        truncated_sum=truncated,
        tail_bound=tc.lifted_lambda_max_bound,
        chain_holds=bool(chain),
        constants=tc,
    )


@dataclass(frozen=True)
class KronNormReport:
    """Both sides of ||(W~ (x) W~)^k|| = ||W~^k||^2."""

    lifted_norm: float
    squared_norm: float

    @property
    def difference(self) -> float:
        return abs(self.lifted_norm - self.squared_norm)


def kron_norm_identity_check(w_tilde: np.ndarray, k: int) -> KronNormReport:
    """Materialize the Kronecker power and compare spectral norms."""
    w_tilde = np.asarray(w_tilde, dtype=float)
    if w_tilde.shape[0] ** 2 > _LIFTED_DIM_GUARD:
        raise ValueError("lifted dimension exceeds guard")
    gamma = np.kron(w_tilde, w_tilde)
    lifted = spectral_norm(np.linalg.matrix_power(gamma, k))
    squared = spectral_norm(np.linalg.matrix_power(w_tilde, k)) ** 2
    return KronNormReport(lifted_norm=lifted, squared_norm=squared)


def enumerated_expected_matrix(
    aspec: AugmentedSpec,
    dist: SwitchingDistribution,
    proj: SteadyStateProjector | None = None,
    cap: int = 100_000,
) -> np.ndarray:
    """Lambda by brute-force enumeration; oracle for expected_matrix."""
    if proj is None:
        proj = build_projector(aspec)
    lam = np.zeros((aspec.dim, aspec.dim))
    for delays, w in mode_batches(aspec, cap):
        pi = mode_probability(delays, dist)
        lam += np.tensordot(pi, w, 1) - pi.sum() * proj.psi
    return lam


def init_state(initial: np.ndarray, q: int) -> np.ndarray:
    """The (q, Nn) history with all q buffers primed with the initial
    grid state."""
    initial = np.asarray(initial, dtype=float)
    return np.tile(initial, (q, 1))


def sample_delays(rng: np.random.Generator, dist: SwitchingDistribution) -> np.ndarray:
    """Draw one delay per edge from the per-edge categoricals."""
    cdf = dist.cdf
    u = rng.random(cdf.shape[0])
    return _count_delays(u, cdf, np.empty(u.shape, dtype=np.intp))


def run_trajectory(cfg: RunConfig, snapshot_steps=()) -> Trajectory:
    """One deterministic run; error measured against X_ss = psi X(0)."""
    seeds = [np.random.SeedSequence(entropy=cfg.seed)]
    err, inf_err, _, _, snaps = _simulate_batch(cfg, seeds, snapshot_steps)
    return Trajectory(
        error_norms=err[0], inf_norms=inf_err[0], snapshots=snaps
    )
