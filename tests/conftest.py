"""Shared fixtures; the flagship N=100, q=3 ensemble is built once per session."""

import os

import numpy as np
import pytest

import asyncheat as ah


def exact_spec(num_pes: int, points_per_pe: int = 1, r: float = 0.5) -> ah.GridSpec:
    """GridSpec whose diffusion number is exactly r (dx = alpha = 1)."""
    return ah.GridSpec(
        num_pes=num_pes, points_per_pe=points_per_pe, dx=1.0, dt=r, alpha=1.0
    )


@pytest.fixture(scope="session")
def paper_problem():
    """The flagship configuration: N=100, n=1, q=3, r=0.5, cos2 IC, BC (1,0)."""
    spec = exact_spec(100)
    aspec = ah.AugmentedSpec(grid=spec, buffer_len=3)
    dist = ah.SwitchingDistribution.uniform(aspec)
    bc = ah.BoundaryConditions(u_left=1.0, u_right=0.0)
    cfg = ah.RunConfig(
        aspec=aspec,
        dist=dist,
        initial=ah.cos2_initial_condition(spec),
        bc=bc,
        steps=10_000,
        seed=20_240_101,
        epsilons=(0.01, 1.0),
    )
    return cfg


@pytest.fixture(scope="session")
def paper_ensemble(paper_problem):
    """300 seeded runs of the flagship configuration, with the per-run
    norms at criterion 8a's sweep step."""
    return ah.run_ensemble(
        paper_problem, 300, workers=os.cpu_count() or 1, norm_steps=(9000,)
    )


@pytest.fixture(scope="session")
def paper_certificates(paper_problem):
    """Worst-case-mode certificate, contraction report and tail constants."""
    aspec = paper_problem.aspec
    proj = ah.build_projector(aspec)
    w_tilde = ah.deflate(ah.worst_case_mode(aspec), proj)
    cert = ah.solve_discrete_lyapunov(w_tilde)
    lam = ah.expected_matrix(aspec, paper_problem.dist, proj)
    contraction = ah.verify_mean_contraction(lam, cert)
    tc = ah.tail_constants(w_tilde)
    return cert, contraction, tc


@pytest.fixture(scope="session")
def paper_initial_error(paper_problem):
    """e(0) = X(0) - psi X(0) for the flagship configuration."""
    q = paper_problem.aspec.buffer_len
    ramp = ah.steady_state_profile(paper_problem.aspec.grid, paper_problem.bc)
    return np.tile(paper_problem.initial, q) - np.tile(ramp, q)
