"""Switched-system view of the buffered asynchronous update.

The augmented state stacks the q most recent grid states. Every assignment
of a delay in {0, .., q-1} to each cross-PE dependency edge yields one mode
matrix; all modes share the two unit eigenvalues whose eigenvectors define
the rank-2 steady-state projector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import GridSpec, build_sync_matrix


class ModeCountError(ValueError):
    """Mode enumeration refused: too many modes."""


def _delay_values(delays, q: int) -> np.ndarray:
    """``delays``, of any shape, as an intp array of integers in [0, q-1].

    A non-integral or out-of-range delay is refused, not truncated or
    wrapped; an integer array is range-checked only.
    """
    delays = np.asarray(delays)
    integral = delays.dtype.kind in "iu" or (
        delays.dtype.kind == "f" and np.all(delays == np.round(delays)))
    if not (integral and np.all((delays >= 0) & (delays < q))):
        raise ValueError(f"delays must be integers in [0, {q - 1}]")
    return delays.astype(np.intp, copy=False)


@dataclass(frozen=True)
class AugmentedSpec:
    """Grid plus buffer length q; fixes the augmented dimension Nnq.

    Dependency edges are the (updating point, neighbor) pairs where the
    neighbor lives in a different PE and the updating point is not a
    Dirichlet endpoint. Edges are ordered by updating point, left
    neighbor before right; delay patterns and mode indices follow this
    order lexicographically.
    """

    grid: GridSpec
    buffer_len: int

    def __post_init__(self) -> None:
        if self.buffer_len < 1:
            raise ValueError("buffer_len must be >= 1")

    @property
    def dim(self) -> int:
        return self.grid.total_points * self.buffer_len

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(rows, nbs)``: updating point and neighbour per edge.

        A read of edge e with delay d sits at column ``d * Nn + nbs[e]``.
        """
        g = self.grid
        rows = np.repeat(np.arange(1, g.total_points - 1), 2)
        nbs = rows + np.tile([-1, 1], g.total_points - 2)
        layout = np.stack([rows, nbs])[:, g.pe_of(nbs) != g.pe_of(rows)]
        layout.setflags(write=False)
        return layout[0], layout[1]

    @cached_property
    def base(self) -> np.ndarray:
        """Read-only part shared by every mode matrix.

        Block (0, 0) is the within-PE stencil with zeros where the cross-PE
        edges read; the blocks below the diagonal shift the history.
        """
        nn = self.grid.total_points
        base = np.eye(self.dim, k=-nn)
        base[:nn, :nn] = build_sync_matrix(self.grid)
        base[self.edge_arrays] = 0.0
        base.setflags(write=False)
        return base

    @property
    def num_edges(self) -> int:
        return self.edge_arrays[0].size

    def check_delays(self, delays) -> np.ndarray:
        """One delay per edge, each an integer in [0, q-1], as an intp
        array."""
        delays = np.ravel(delays)
        if len(delays) != self.num_edges:
            raise ValueError(f"{len(delays)} delays for {self.num_edges} edges")
        return _delay_values(delays, self.buffer_len)

    @property
    def mode_count(self) -> int:
        return self.buffer_len**self.num_edges


@dataclass(frozen=True)
class SwitchingDistribution:
    """Per-edge categorical delay distributions, independent across edges.

    ``probs[e, d]`` is the probability that edge e reads with delay d.
    The mode probability of a delay pattern is the product of its
    per-edge probabilities.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2:
            raise ValueError("probs must be a (num_edges, q) array")
        # each check holds only for numbers, so a NaN fails it
        if not np.all((p >= 0) & (p <= 1)):
            raise ValueError("probabilities must lie in [0, 1]")
        if not np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12):
            raise ValueError("each per-edge distribution must sum to 1")
        object.__setattr__(self, "probs", p)

    @classmethod
    def uniform(cls, aspec: AugmentedSpec) -> "SwitchingDistribution":
        q = aspec.buffer_len
        return cls(np.full((aspec.num_edges, q), 1.0 / q))

    @classmethod
    def from_delay_probs(
        cls, aspec: AugmentedSpec, delay_probs
    ) -> "SwitchingDistribution":
        """Same categorical over delays applied to every edge."""
        p = np.asarray(delay_probs, dtype=float)
        if p.shape != (aspec.buffer_len,):
            raise ValueError("delay_probs must have length q")
        return cls(np.tile(p, (aspec.num_edges, 1)))

    @property
    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs, axis=1)


def build_mode_matrix(aspec: AugmentedSpec, delays) -> np.ndarray:
    """Mode matrix for one delay pattern.

    The shared ``aspec.base`` plus the r-entry of each cross-PE edge,
    placed in the block column given by that edge's delay.
    """
    delays = aspec.check_delays(delays)
    rows, nbs = aspec.edge_arrays
    w = aspec.base.copy()
    w[rows, delays * aspec.grid.total_points + nbs] = aspec.grid.r
    return w


def mode_product(w: np.ndarray, x: np.ndarray, q: int) -> np.ndarray:
    """W @ x, each row's products summed in grid-position order.

    A row of a mode matrix has at most one nonzero per grid position, so
    the sum over the q blocks is exact; the sequential sum over positions
    then gives (r*left + (1-2r)*u) + r*right at an interior row. That is
    the simulator's sum, its first addition's operands swapped, which
    floating-point addition allows, so the product is the simulator's
    step bit for bit. A BLAS matrix-vector product may add a row's terms
    in another order, and then agrees with it only at r = 1/2, where the
    (1-2r)*u term is zero.
    """
    nn = len(x) // q
    products = (w.reshape(-1, q, nn) * x.reshape(q, nn)).sum(axis=1)
    return np.add.accumulate(products, axis=1)[:, -1]


def worst_case_mode(aspec: AugmentedSpec) -> np.ndarray:
    """The all-maximal-delay mode W_m (every edge reads the oldest buffer)."""
    return build_mode_matrix(
        aspec, (aspec.buffer_len - 1,) * aspec.num_edges
    )


_CHUNK_MODES = 1024  # modes per stacked chunk of mode_batches


def mode_batches(aspec: AugmentedSpec, cap: int):
    """All q**E modes in stacked chunks, lexicographic in the delay pattern.

    Yields ``(delays, w)``: an ``(m, E)`` intp block of delay patterns and
    the ``(m, dim, dim)`` stack of their mode matrices, m <= _CHUNK_MODES.
    The all-zero pattern (synchronous) comes first and the all-(q-1)
    pattern (most delayed) last. Refuses more than ``cap`` modes.
    """
    total = aspec.mode_count
    if total > cap:
        raise ModeCountError(
            f"mode count {total} exceeds cap {cap}; "
            "use the enumeration-free analysis paths"
        )
    q = aspec.buffer_len
    place = q ** np.arange(aspec.num_edges)[::-1]
    rows, nbs = aspec.edge_arrays
    for lo in range(0, total, _CHUNK_MODES):
        index = np.arange(lo, min(lo + _CHUNK_MODES, total))
        delays = index[:, None] // place % q
        w = np.repeat(aspec.base[None], len(index), 0)
        w[np.arange(len(index))[:, None], rows,
          delays * aspec.grid.total_points + nbs] = aspec.grid.r
        yield delays, w


@dataclass(frozen=True)
class SteadyStateProjector:
    """Rank-2 idempotent shared by all modes; X_ss = psi @ X(0)."""

    psi: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    s1: np.ndarray
    s2: np.ndarray


def build_projector(aspec: AugmentedSpec) -> SteadyStateProjector:
    """Common unit-eigenvalue eigenvectors and the projector psi.

    s1/s2 select the first/last coordinate of the newest grid block;
    v1/v2 are the two boundary ramps repeated over all q blocks.
    """
    nn = aspec.grid.total_points
    q = aspec.buffer_len
    d = aspec.dim
    j = np.arange(nn, dtype=float)
    mu1 = (nn - 1 - j) / (nn - 1)
    mu2 = j / (nn - 1)
    v1 = np.tile(mu1, q)
    v2 = np.tile(mu2, q)
    s1 = np.zeros(d)
    s1[0] = 1.0
    s2 = np.zeros(d)
    s2[nn - 1] = 1.0
    psi = np.outer(v1, s1) + np.outer(v2, s2)
    return SteadyStateProjector(psi=psi, v1=v1, v2=v2, s1=s1, s2=s2)


def deflate(w, proj: SteadyStateProjector) -> np.ndarray:
    """Remove the shared unit-eigenvalue subspace: W_tilde = W - psi.

    A subtraction only: whether W_tilde is strictly stable is decided
    once, by ``analysis.solve_discrete_lyapunov``, which refuses it
    otherwise.
    """
    return np.asarray(w, dtype=float) - proj.psi


def expected_matrix(
    aspec: AugmentedSpec,
    dist: SwitchingDistribution,
    proj: SteadyStateProjector,
) -> np.ndarray:
    """Expected deflated mode Lambda = E[W] - psi, without enumeration.

    Linearity in the per-edge r-entries lets E[W] be assembled by
    spreading each edge's r across delay block-columns weighted by that
    edge's delay probabilities.
    """
    if dist.probs.shape != (aspec.num_edges, aspec.buffer_len):
        raise ValueError("distribution shape does not match aspec")
    rows, nbs = aspec.edge_arrays
    cols = np.arange(aspec.buffer_len) * aspec.grid.total_points
    ew = aspec.base.copy()
    ew[rows[:, None], cols + nbs[:, None]] = aspec.grid.r * dist.probs
    return ew - proj.psi


def mode_probability(delays, dist: SwitchingDistribution):
    """Product of per-edge delay probabilities along the last axis.

    One pattern gives a scalar; an ``(m, E)`` block gives one probability
    per row.
    """
    delays = _delay_values(delays, dist.probs.shape[1])
    if delays.shape[-1:] != dist.probs.shape[:1]:
        raise ValueError("pattern length does not match distribution")
    return np.prod(dist.probs[np.arange(delays.shape[-1]), delays], axis=-1)


@dataclass(frozen=True)
class EigenstructureReport:
    """Numerical check of the shared eigenstructure of one mode or a stack.

    Each entry is a numpy scalar for one matrix and an array over the
    stack for an ``(m, dim, dim)`` stack.
    """

    right_residuals: tuple[np.ndarray, np.ndarray]
    left_residuals: tuple[np.ndarray, np.ndarray]
    top_moduli: tuple[np.ndarray, np.ndarray, np.ndarray]
    inf_norm: np.ndarray
    passed: np.ndarray


def verify_eigenstructure(
    w, proj: SteadyStateProjector
) -> EigenstructureReport:
    """Check the two-unit-eigenvalue claim for one mode matrix or a stack.

    Verifies W v_i = v_i and s_i W = s_i, and that exactly the two
    largest eigenvalue moduli equal 1 within 1e-10 with the third
    strictly below 1.
    """
    m = np.asarray(w, dtype=float)
    rres = tuple(
        np.linalg.norm(m @ v - v, axis=-1) for v in (proj.v1, proj.v2)
    )
    lres = tuple(
        np.linalg.norm(s @ m - s, axis=-1) for s in (proj.s1, proj.s2)
    )
    moduli = np.sort(np.abs(np.linalg.eigvals(m)))[..., ::-1]
    top = tuple(np.moveaxis(moduli[..., :3], -1, 0))
    passed = (
        (np.maximum(*rres) < 1e-10)
        & (np.maximum(*lres) < 1e-10)
        & (np.abs(top[0] - 1.0) < 1e-10)
        & (np.abs(top[1] - 1.0) < 1e-10)
        & (top[2] < 1.0 - 1e-12)
    )
    return EigenstructureReport(
        right_residuals=rres,
        left_residuals=lres,
        top_moduli=top,
        inf_norm=np.max(np.abs(m).sum(axis=-1), axis=-1),
        passed=passed,
    )
