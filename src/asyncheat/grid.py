"""1D heat-equation discretization with Dirichlet endpoints.

Grid states are plain 1D numpy arrays of length ``num_pes * points_per_pe``.
The first and last entries carry the fixed boundary temperatures; the
synchronous update matrix keeps them via identity rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvalidGridError(ValueError):
    """Grid parameters violate the stability or size constraints."""


@dataclass(frozen=True)
class GridSpec:
    """Physical and numerical parameters of the uniform 1D grid.

    ``num_pes`` processing elements each own ``points_per_pe`` contiguous
    grid points. The diffusion number r = alpha*dt/dx**2 must satisfy
    0 < r <= 0.5 for the explicit stencil to be non-expansive.
    """

    num_pes: int
    points_per_pe: int
    dx: float
    dt: float
    alpha: float

    def __post_init__(self) -> None:
        if self.num_pes < 1 or self.points_per_pe < 1:
            raise InvalidGridError("num_pes and points_per_pe must be >= 1")
        if self.dx <= 0 or self.dt <= 0 or self.alpha <= 0:
            raise InvalidGridError("dx, dt, alpha must be positive")
        if not 0.0 < self.r <= 0.5:
            raise InvalidGridError(
                f"diffusion number r = {self.r} outside (0, 0.5]"
            )
        if self.total_points < 3:
            raise InvalidGridError(
                "need at least 3 grid points (one interior point)"
            )

    @property
    def r(self) -> float:
        return self.alpha * self.dt / self.dx**2

    @property
    def total_points(self) -> int:
        return self.num_pes * self.points_per_pe

    def pe_of(self, point):
        """PE owning a 0-based global grid point (or each of an array)."""
        return point // self.points_per_pe


@dataclass(frozen=True)
class BoundaryConditions:
    """Constant-in-time (Dirichlet) endpoint temperatures."""

    u_left: float
    u_right: float


def build_sync_matrix(spec: GridSpec) -> np.ndarray:
    """Dense synchronous update matrix.

    Rows 0 and Nn-1 are identity rows (Dirichlet); interior row i carries
    (r, 1-2r, r) at columns (i-1, i, i+1). Every row sums to 1.
    """
    nn = spec.total_points
    r = spec.r
    a = np.zeros((nn, nn))
    a[0, 0] = 1.0
    a[nn - 1, nn - 1] = 1.0
    for i in range(1, nn - 1):
        a[i, i - 1] = r
        a[i, i] = 1.0 - 2.0 * r
        a[i, i + 1] = r
    return a


def cos2_initial_condition(spec: GridSpec) -> np.ndarray:
    """Initial profile u_i = cos^2(3*pi*i / (2*(Nn-1))), i = 1..Nn.

    Evaluated over all grid points (the per-PE index only matters for
    n = 1, where points and PEs coincide).
    """
    nn = spec.total_points
    i = np.arange(1, nn + 1, dtype=float)
    return np.cos(3.0 * np.pi * i / (2.0 * (nn - 1))) ** 2


def steady_state_profile(spec: GridSpec, bc: BoundaryConditions) -> np.ndarray:
    """Linear ramp between the boundary temperatures; fixed point of A."""
    nn = spec.total_points
    j = np.arange(1, nn + 1, dtype=float)
    return bc.u_left * (nn - j) / (nn - 1) + bc.u_right * (j - 1) / (nn - 1)
