"""Seeded Monte Carlo simulation of the buffered asynchronous update.

The simulator works on buffered grid states (O(Nnq) memory per run), never
on explicit mode matrices; trajectories are vectorized across ensemble
runs. Each run owns an independent, deterministically derived random
stream, so no run's trajectory depends on how runs are batched.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    BoundaryConditions,
    build_sync_matrix,
    steady_state_profile,
    sync_step,
)
from .modes import AugmentedSpec, SwitchingDistribution

_CHUNK_STEPS = 256  # delay pre-sampling granularity


@dataclass(frozen=True)
class RunConfig:
    """Everything one reproducible run (or ensemble) needs.

    The Dirichlet values from ``bc`` overwrite the endpoints of
    ``initial`` before simulation, so the steady state is the ramp
    between ``bc.u_left`` and ``bc.u_right``.
    """

    aspec: AugmentedSpec
    dist: SwitchingDistribution
    initial: np.ndarray
    bc: BoundaryConditions
    steps: int
    seed: int
    epsilons: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        initial = np.asarray(self.initial, dtype=float)
        if initial.shape != (self.aspec.grid.total_points,):
            raise ValueError("initial state has wrong length")
        initial = initial.copy()
        initial[0] = self.bc.u_left
        initial[-1] = self.bc.u_right
        initial.setflags(write=False)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(
            self, "epsilons", tuple(float(e) for e in self.epsilons)
        )
        if any(e <= 0 for e in self.epsilons):
            raise ValueError("epsilons must be positive")


@dataclass(frozen=True)
class AsyncSimState:
    """Buffered history, newest first: history[d] = U(step - d)."""

    history: np.ndarray
    step: int = 0

    @property
    def augmented(self) -> np.ndarray:
        """X(k) = [U(k); U(k-1); ...; U(k-q+1)]."""
        return self.history.ravel()

    @property
    def newest(self) -> np.ndarray:
        return self.history[0]


def init_state(initial: np.ndarray, q: int) -> AsyncSimState:
    """Prime all q buffers with the initial grid state."""
    initial = np.asarray(initial, dtype=float)
    return AsyncSimState(history=np.tile(initial, (q, 1)), step=0)


class _StencilPlan:
    """Precomputed gather indices for the buffered update of ``runs`` runs.

    A neighbour read is within-PE, a delay-0 read of the newest block,
    unless a cross-PE edge supplies it. Per side (left, right), ``cols``
    are the supplying edges, ``pos`` the interior positions they feed and
    ``base`` the flat (runs, q, Nn) history index of their delay-0 read,
    so a read with delay d sits at ``d * Nn + base``.
    """

    def __init__(self, aspec: AugmentedSpec, runs: int):
        g = aspec.grid
        nn = g.total_points
        run_offset = np.arange(runs)[:, None] * aspec.dim
        self.nn = nn
        self.r = g.r
        self.num_edges = aspec.num_edges
        rows, nbs = aspec.edge_arrays
        self.sides = []
        for shift in (-1, 1):
            cols = np.flatnonzero(nbs - rows == shift)
            points = rows[cols]
            self.sides.append((cols, points - 1, run_offset + points + shift))
        # neighbour reads of the interior, rebuilt every step
        self.reads = np.empty((2, runs, nn - 2))


def _advance(
    hist: np.ndarray, out: np.ndarray, delays: np.ndarray, plan: _StencilPlan
) -> None:
    """One buffered update of a batch, written into ``out``.

    ``hist`` and ``out`` are distinct (runs, q, Nn) arrays; ``delays`` is
    (runs, num_edges). The sum keeps the operand order
    (1-2r)*u_i + r*left + r*right of the mode matrix product.
    """
    nn = plan.nn
    flat = hist.reshape(-1)
    for shift, (cols, pos, base), read in zip((-1, 1), plan.sides, plan.reads):
        np.copyto(read, hist[:, 0, 1 + shift:nn - 1 + shift])
        idx = delays[:, cols].astype(np.intp)
        idx *= nn
        idx += base
        read[:, pos] = flat.take(idx)
        read *= plan.r
    new = out[:, 0, 1:-1]
    np.multiply(hist[:, 0, 1:-1], 1.0 - 2.0 * plan.r, out=new)
    new += plan.reads[0]
    new += plan.reads[1]
    out[:, 0, ::nn - 1] = hist[:, 0, ::nn - 1]  # Dirichlet endpoints
    out[:, 1:] = hist[:, :-1]


def _count_delays(u: np.ndarray, cdf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-edge categorical delays from uniforms, written into ``out``.

    The last axis of ``u`` runs over edges; each draw's delay is the
    number of its edge's thresholds cdf[e, :-1] that it reaches.
    """
    out[...] = 0
    for j in range(cdf.shape[1] - 1):
        out += u >= cdf[:, j]
    return out


def sample_delays(rng: np.random.Generator, dist: SwitchingDistribution) -> np.ndarray:
    """Draw one delay per edge from the per-edge categoricals."""
    cdf = dist.cdf
    u = rng.random(cdf.shape[0])
    return _count_delays(u, cdf, np.empty(u.shape, dtype=np.intp))


def async_step(
    state: AsyncSimState, delays, aspec: AugmentedSpec
) -> AsyncSimState:
    """One buffered asynchronous update with the given delay pattern.

    Equals multiplication of the augmented state by the corresponding
    mode matrix, exactly.
    """
    delays = aspec.check_delays(delays)
    hist = state.history[None]
    out = np.empty(hist.shape)
    _advance(hist, out, delays[None, :], _StencilPlan(aspec, 1))
    return AsyncSimState(history=out[0], step=state.step + 1)


@dataclass(frozen=True)
class Trajectory:
    """Per-step error record of a single run, entry 0 at k = 0."""

    error_norms: np.ndarray
    inf_norms: np.ndarray
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class EnsembleResult:
    """Per-step statistics across seeded runs.

    ``mean_error`` averages error vectors across runs before any norm is
    taken; ``error_norms`` holds each run's Euclidean error norm.
    """

    num_runs: int
    epsilons: tuple[float, ...]
    error_norms: np.ndarray      # (runs, steps+1)
    inf_norms: np.ndarray        # (runs, steps+1)
    mean_error: np.ndarray       # (steps+1, dim)
    var_error: np.ndarray        # (steps+1, dim), ddof=1 across runs

    @property
    def mean_error_norm(self) -> np.ndarray:
        return np.linalg.norm(self.mean_error, axis=1)

    @property
    def mean_sq_error(self) -> np.ndarray:
        """Empirical E[||e(k)||^2], for the Markov curve."""
        return (self.error_norms**2).mean(axis=0)

    @property
    def stderr_error(self) -> np.ndarray:
        """Componentwise standard error of the mean error vector."""
        return np.sqrt(self.var_error / self.num_runs)

    def exceedance(self, epsilon: float) -> np.ndarray:
        """Empirical Pr(||e(k)||^2 > epsilon) per step."""
        return (self.error_norms**2 > epsilon).mean(axis=0)

    @property
    def exceedance_table(self) -> np.ndarray:
        """(steps+1, len(epsilons)) exceedance probabilities."""
        return np.stack(
            [self.exceedance(e) for e in self.epsilons], axis=1
        ) if self.epsilons else np.zeros((self.error_norms.shape[1], 0))


def run_seed_sequence(base_seed: int, run_index: int) -> np.random.SeedSequence:
    """Deterministic per-run seed derivation (counter-based)."""
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(run_index,))


def _simulate_batch(cfg: RunConfig, seeds, snapshot_steps=()):
    """Core engine: simulate len(seeds) runs in lockstep.

    Returns per-run error/inf norms, the per-step sum and sum-of-squares
    of error vectors (for cross-batch merging), and snapshots of the
    newest grid state of run 0 at the requested steps.
    """
    aspec = cfg.aspec
    runs = len(seeds)
    plan = _StencilPlan(aspec, runs)
    q, d = aspec.buffer_len, aspec.dim
    ramp = steady_state_profile(aspec.grid, cfg.bc)
    xss = np.tile(ramp, q)

    hist = np.tile(cfg.initial, (runs, q, 1))
    spare = hist.copy()
    rngs = [np.random.default_rng(s) for s in seeds]
    cdf = cfg.dist.cdf
    steps = cfg.steps
    chunk_steps = min(_CHUNK_STEPS, steps)
    u = np.empty((chunk_steps, plan.num_edges))
    delays = np.empty(
        (chunk_steps, runs, plan.num_edges), dtype=np.min_scalar_type(q - 1)
    )
    err = np.empty((runs, d))
    sq = np.empty((runs, d))

    error_norms = np.empty((runs, steps + 1))
    inf_norms = np.empty((runs, steps + 1))
    sum_error = np.empty((steps + 1, d))
    sumsq_error = np.empty((steps + 1, d))
    snapshot_steps = set(snapshot_steps)
    snapshots: dict[int, np.ndarray] = {}

    def record(k):
        # the norm is np.linalg.norm(err, axis=1) spelled out, sharing sq
        np.subtract(hist.reshape(runs, d), xss, out=err)
        np.multiply(err, err, out=sq)
        error_norms[:, k] = np.sqrt(np.add.reduce(sq, axis=1))
        np.add.reduce(sq, axis=0, out=sumsq_error[k])
        np.add.reduce(err, axis=0, out=sum_error[k])
        inf_norms[:, k] = np.abs(err, out=err).max(axis=1)
        if k in snapshot_steps:
            snapshots[k] = hist[0, 0].copy()

    record(0)
    k = 0
    while k < steps:
        chunk = min(_CHUNK_STEPS, steps - k)
        for i, rng in enumerate(rngs):
            rng.random(out=u[:chunk])
            _count_delays(u[:chunk], cdf, delays[:chunk, i])
        for t in range(chunk):
            _advance(hist, spare, delays[t], plan)
            hist, spare = spare, hist
            k += 1
            record(k)
    return error_norms, inf_norms, sum_error, sumsq_error, snapshots


def run_trajectory(cfg: RunConfig, snapshot_steps=()) -> Trajectory:
    """One deterministic run; error measured against X_ss = psi X(0)."""
    seeds = [np.random.SeedSequence(entropy=cfg.seed)]
    err, inf_err, _, _, snaps = _simulate_batch(cfg, seeds, snapshot_steps)
    return Trajectory(
        error_norms=err[0], inf_norms=inf_err[0], snapshots=snaps
    )


def run_ensemble(
    cfg: RunConfig,
    num_runs: int,
    workers: int = 1,
    batch_size: int = 512,
    snapshot_steps=(),
) -> EnsembleResult:
    """Seeded ensemble; run i uses a counter-derived seed from cfg.seed.

    Runs are partitioned into batches; batches may execute on a thread
    pool. Per-run streams are independent, so the per-run norms do not
    depend on the partition. The mean and variance do in the last bits,
    since batch sums are added in batch order; the thread count changes
    nothing.
    """
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    seeds = [run_seed_sequence(cfg.seed, i) for i in range(num_runs)]
    batches = [
        (lo, seeds[lo:lo + batch_size])
        for lo in range(0, num_runs, batch_size)
    ]

    def work(item):
        lo, batch_seeds = item
        snaps = snapshot_steps if lo == 0 else ()
        return _simulate_batch(cfg, batch_seeds, snaps)

    if workers > 1 and len(batches) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, batches))
    else:
        results = [work(b) for b in batches]

    error_norms = np.concatenate([res[0] for res in results], axis=0)
    inf_norms = np.concatenate([res[1] for res in results], axis=0)
    sum_error = sum(res[2] for res in results)
    sumsq_error = sum(res[3] for res in results)
    mean_error = sum_error / num_runs
    if num_runs > 1:
        var_error = (sumsq_error - num_runs * mean_error**2) / (num_runs - 1)
        var_error = np.maximum(var_error, 0.0)
    else:
        var_error = np.zeros_like(mean_error)
    return EnsembleResult(
        num_runs=num_runs,
        epsilons=cfg.epsilons,
        error_norms=error_norms,
        inf_norms=inf_norms,
        mean_error=mean_error,
        var_error=var_error,
    )


def run_sync_reference(cfg: RunConfig, snapshot_steps=()) -> Trajectory:
    """Synchronous reference U(k+1) = A U(k), errors against the ramp."""
    a = build_sync_matrix(cfg.aspec.grid)
    ramp = steady_state_profile(cfg.aspec.grid, cfg.bc)
    u = np.asarray(cfg.initial, dtype=float).copy()
    steps = cfg.steps
    error_norms = np.empty(steps + 1)
    inf_norms = np.empty(steps + 1)
    snapshot_steps = set(snapshot_steps)
    snapshots: dict[int, np.ndarray] = {}
    for k in range(steps + 1):
        err = u - ramp
        error_norms[k] = np.linalg.norm(err)
        inf_norms[k] = np.abs(err).max()
        if k in snapshot_steps:
            snapshots[k] = u.copy()
        if k < steps:
            u = sync_step(a, u)
    return Trajectory(
        error_norms=error_norms, inf_norms=inf_norms, snapshots=snapshots
    )
