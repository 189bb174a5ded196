"""Seeded Monte Carlo simulation of the buffered asynchronous update.

The simulator works on buffered grid states (O(Nnq) memory per run), never
on explicit mode matrices; trajectories are vectorized across ensemble
runs. Each run owns an independent, deterministically derived random
stream, so no run's trajectory depends on how runs are batched.

Blocks 1..q-1 of the augmented state X(k) are block 0 at earlier steps,
bit for bit, so the ensemble engine steps a ring of block-0 rows (see
``_simulate_batch``) and keeps the per-step ensemble sums for block 0
only: latest first, as (steps+q, Nn) rows where row steps-j holds step j
and the q-1 trailing rows repeat step 0. The q rows from row steps-k are then
step k's whole augmented vector, and the (steps+1, Nnq) statistics are
read-only overlapping views of those rows (see ``_augmented``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import (
    BoundaryConditions,
    build_sync_matrix,
    steady_state_profile,
    sync_step,
)
from .modes import AugmentedSpec, SwitchingDistribution

_CHUNK_STEPS = 256  # delay pre-sampling granularity
# A slice buffers its block-0 rows for at most this many steps before
# folding them onto the axis-0 sums, and the batch's fold buffer takes at
# most about this many bytes, so big batches fold more often.
_FOLD_STEPS = 32
_FOLD_BYTES = 1 << 22


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

    Each run's states are ``rows`` latest-first grid rows of a (runs, rows,
    Nn) ring (see ``_advance``). A neighbour read is within-PE, a delay-0
    read of the newest block, unless a cross-PE edge supplies it. Per side
    (left, right), ``cols`` are the supplying edges, ``pos`` the interior
    positions they feed, ``base`` the flat ring index of their delay-0
    read counted from the previous state's first row, so a read with delay
    d sits at ``d * Nn + base``, and ``idx`` the side's index buffer.
    """

    def __init__(self, aspec: AugmentedSpec, runs: int, rows: int):
        g = aspec.grid
        nn = g.total_points
        run_offset = np.arange(runs)[:, None] * (rows * nn)
        self.nn = nn
        self.r = g.r
        edges, nbs = aspec.edge_arrays
        self.sides = []
        for shift in (-1, 1):
            cols = np.flatnonzero(nbs - edges == shift)
            points = edges[cols]
            self.sides.append((cols, points - 1, run_offset + points + shift,
                               np.empty((runs, len(cols)), dtype=np.intp)))
        # neighbour reads of the interior, rebuilt every step
        self.reads = np.empty((2, runs, nn - 2))


def _advance(
    ring: np.ndarray, r: int, delays: np.ndarray, plan: _StencilPlan
) -> None:
    """One buffered update of a batch, written into row ``r`` of ``ring``.

    ``ring`` is (runs, rows, Nn) with each run's grid states latest first:
    rows r+1..r+q hold the previous state's blocks 0..q-1, and only row r
    is written. ``delays`` is (runs, num_edges). The sum keeps the operand
    order (1-2r)*u_i + r*left + r*right of the mode matrix product.
    """
    nn = plan.nn
    flat = ring.reshape(-1)[(r + 1) * nn:]
    prev = ring[:, r + 1]
    for shift, (cols, pos, base, idx), read in zip(
        (-1, 1), plan.sides, plan.reads
    ):
        np.copyto(read, prev[:, 1 + shift:nn - 1 + shift])
        np.multiply(delays[:, cols], nn, out=idx, dtype=np.intp)
        idx += base
        read[:, pos] = flat.take(idx)
        read *= plan.r
    new = ring[:, r, 1:-1]
    np.multiply(prev[:, 1:-1], 1.0 - 2.0 * plan.r, out=new)
    new += plan.reads[0]
    new += plan.reads[1]
    ring[:, r, ::nn - 1] = prev[:, ::nn - 1]  # Dirichlet endpoints


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
    q = aspec.buffer_len
    ring = np.empty((1, q + 1, aspec.grid.total_points))
    ring[0, 1:] = state.history
    _advance(ring, 0, delays[None, :], _StencilPlan(aspec, 1, q + 1))
    return AsyncSimState(history=ring[0, :q], step=state.step + 1)


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
    ``mean_error`` and ``var_error`` are read-only views whose rows overlap
    (row k's block b is block 0 of row max(k-b, 0)), so they hold
    O(steps*Nn) numbers, not O(steps*Nnq); copy them before writing.
    ``mean_sq_error`` and ``exceedance_table`` are computed once, on first
    read, and are read-only too.
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

    @cached_property
    def mean_sq_error(self) -> np.ndarray:
        """Empirical E[||e(k)||^2], for the Markov curve (read-only)."""
        return _read_only((self.error_norms**2).mean(axis=0))

    @property
    def stderr_error(self) -> np.ndarray:
        """Componentwise standard error of the mean error vector."""
        return np.sqrt(self.var_error / self.num_runs)

    def exceedance(self, epsilon: float) -> np.ndarray:
        """Empirical Pr(||e(k)||^2 > epsilon) per step."""
        return (self.error_norms**2 > epsilon).mean(axis=0)

    @cached_property
    def exceedance_table(self) -> np.ndarray:
        """(steps+1, len(epsilons)) exceedance probabilities (read-only)."""
        if not self.epsilons:
            return _read_only(np.zeros((self.error_norms.shape[1], 0)))
        squared = self.error_norms**2
        return _read_only(np.stack(
            [(squared > e).mean(axis=0) for e in self.epsilons], axis=1
        ))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def run_seed_sequence(base_seed: int, run_index: int) -> np.random.SeedSequence:
    """Deterministic per-run seed derivation (counter-based)."""
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(run_index,))


class _Aborted(Exception):
    """Stops a slice after another slice of its batch has failed."""


class _RunOrder:
    """Hands the per-step axis-0 sums from slice to slice in run order.

    Slice i folds a window of steps onto the sums only after slice i-1
    has folded it. The first exception of any slice is kept in ``error``
    and wakes every waiter, so each slice stops at its next window.
    """

    def __init__(self, slices: int):
        self._cond = threading.Condition()
        self._folded = [0] * slices  # steps each slice has folded
        self.error: BaseException | None = None

    def wait(self, i: int, stop: int) -> None:
        """Block until slice i-1 has folded the steps before ``stop``."""
        with self._cond:
            self._cond.wait_for(
                lambda: self.error is not None
                or i == 0
                or self._folded[i - 1] >= stop
            )
            if self.error is not None:
                raise _Aborted

    def folded(self, i: int, stop: int) -> None:
        with self._cond:
            self._folded[i] = stop
            self._cond.notify_all()

    def abort(self, exc: BaseException) -> None:
        with self._cond:
            if self.error is None:
                self.error = exc
            self._cond.notify_all()


def _augmented(block0: np.ndarray, q: int) -> np.ndarray:
    """Read-only (steps+1, q*Nn) view of latest-first block-0 rows.

    ``block0`` is a C-contiguous (steps+q, Nn) array whose row steps-j holds
    step j and whose last q-1 rows repeat step 0. Row k of the view is
    [block 0 at steps k, k-1, ..., k-q+1], each clamped at step 0.
    """
    nn = block0.shape[1]
    return sliding_window_view(block0.reshape(-1), q * nn)[::nn][::-1]


def _simulate_batch(cfg: RunConfig, seeds, snapshot_steps=(), workers=1,
                    out=None):
    """Core engine: simulate len(seeds) runs in lockstep.

    Blocks 1..q-1 of the augmented state are block 0 at earlier steps, bit
    for bit, so each run keeps block-0 rows only: a latest-first ring of
    window+q grid rows, in which X(k) is the q rows from row
    window-1-(k mod window). A step writes one row (see ``_advance``), and
    at the start of each window of steps the q newest rows are carried to
    the ring's tail. err and err*err are computed for block 0 only, into
    rings of the same layout, and a step's norm reduces its q rows of
    err*err as one augmented row.

    The runs are split into ``workers`` contiguous slices (at most one a
    run), each stepped on its own thread with its own stencil plan and
    streams; the per-run norms are row-independent, so each slice writes
    its own rows. The per-step axis-0 sums stay one sequential sum in run
    order: at the end of each window (see ``_FOLD_STEPS``) a slice adds its
    err and err*err ring rows onto the sums the previous slice left. Only
    block 0 is summed, into latest-first rows (see the module docstring),
    and the row maxima over the blocks are windowed maxima of block 0's
    after the join. No output depends on ``workers``.

    ``out``, if given, is (error_norms, inf_norms, sums) to write into,
    of shapes (runs, steps+1), (runs, steps+1) and (2, steps+q, Nn); the
    latter holds the block-0 sums of err and err*err.

    Returns per-run error/inf norms, read-only (steps+1, dim) views of the
    per-step sum and sum-of-squares of error vectors, and snapshots of the
    newest grid state of run 0 at the requested steps.
    """
    aspec = cfg.aspec
    runs, steps = len(seeds), cfg.steps
    q, nn = aspec.buffer_len, aspec.grid.total_points
    ramp = steady_state_profile(aspec.grid, cfg.bc)  # block 0 of X_ss
    cdf = cfg.dist.cdf
    num_edges = aspec.num_edges
    chunk_steps = min(_CHUNK_STEPS, steps)
    slices = min(workers, runs)
    bounds = [runs * i // slices for i in range(slices + 1)]
    fold_step_bytes = 2 * (runs + slices) * nn * 8
    window = max(
        1, min(_FOLD_STEPS, steps + 1, _FOLD_BYTES // fold_step_bytes)
    )
    rows = window + q

    # Batch-wide buffers, of which each slice takes its rows. They are
    # allocated on this thread: buffers freed in a worker thread's malloc
    # arena stay resident.
    ring = np.empty((runs, rows, nn))
    ring[:, window - 1:window - 1 + q] = cfg.initial  # X(0)
    delays = np.empty(
        (chunk_steps, runs, num_edges), dtype=np.min_scalar_type(q - 1)
    )
    # err and err*err rings, with one more run row per slice for the
    # previous slice's sums: fold_step_bytes a ring row
    es = np.empty((2, runs + slices, rows, nn))
    magnitude = np.empty((runs, nn))  # |err| of the newest row

    if out is None:
        out = (np.empty((runs, steps + 1)), np.empty((runs, steps + 1)),
               np.empty((2, steps + q, nn)))
    error_norms, inf_norms, sums = out
    snapshot_steps = set(snapshot_steps)
    snapshots: dict[int, np.ndarray] = {}
    order = _RunOrder(slices)

    def step_slice(i):
        lo, hi = bounds[i], bounds[i + 1]
        n = hi - lo
        plan = _StencilPlan(aspec, n, rows)
        rngs = [np.random.default_rng(s) for s in seeds[lo:hi]]
        u = np.empty((chunk_steps, num_edges))
        state = ring[lo:hi]
        mine = es[:, lo + i:hi + i + 1]
        err, sq = mine[:, 1:]
        norms, maxima = error_norms[lo:hi], inf_norms[lo:hi]
        mag = magnitude[lo:hi]

        for k in range(steps + 1):
            slot = k % window
            r = window - 1 - slot  # X(k) is rows r..r+q-1
            if k:
                if slot == 0:  # a new window: carry X(k-1) to the tail
                    state[:, window:] = state[:, :q]
                    sq[:, window:] = sq[:, :q]
                t = (k - 1) % _CHUNK_STEPS
                if t == 0:
                    chunk = min(_CHUNK_STEPS, steps - k + 1)
                    for j, rng in enumerate(rngs, lo):
                        rng.random(out=u[:chunk])
                        _count_delays(u[:chunk], cdf, delays[:chunk, j])
                _advance(state, r, delays[t, lo:hi], plan)
                new = slice(r, r + 1)
            else:
                new = slice(r, r + q)
            np.subtract(state[:, new], ramp, out=err[:, new])
            np.multiply(err[:, new], err[:, new], out=sq[:, new])
            # np.linalg.norm(err, axis=1) over the augmented row, spelled out
            augmented_sq = sq[:, r:r + q].reshape(n, q * nn)
            norms[:, k] = np.sqrt(np.add.reduce(augmented_sq, axis=1))
            maxima[:, k] = np.abs(err[:, r], out=mag).max(axis=1)
            if i == 0 and k in snapshot_steps:
                snapshots[k] = state[0, r].copy()
            if slot == window - 1 or k == steps:
                order.wait(i, k + 1)
                done = sums[:, steps - k:steps - k + slot + 1]
                if i:
                    mine[:, 0, r:window] = done
                # slice 0 starts from its own first run
                first = 0 if i else 1
                np.add.reduce(mine[:, first:, r:window], axis=1, out=done)
                order.folded(i, k + 1)

    def run(i):
        try:
            step_slice(i)
        except BaseException as exc:  # re-raised by the caller below
            order.abort(exc)

    started = []
    try:
        for i in range(1, slices):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            started.append(thread)
    except RuntimeError as exc:  # can't start new thread
        order.abort(exc)
    run(0)
    for thread in started:
        thread.join()
    if order.error is not None:
        raise order.error
    # block b at step k is block 0 at step max(k - b, 0)
    sums[:, steps + 1:] = sums[:, steps:steps + 1]
    # so the row maximum at step k is the max of block 0's at steps
    # max(k-q+1, 0)..k; chunks of steps go from the last down, so each
    # reads block-0 maxima that no chunk has overwritten yet
    for hi in range(steps + 1, 0, -_CHUNK_STEPS):
        lo = max(hi - _CHUNK_STEPS, 0)
        src_lo = max(lo - q + 1, 0)
        src = inf_norms[:, src_lo:hi].copy()
        for b in range(1, q):
            k0 = max(lo, b)
            np.maximum(
                inf_norms[:, k0:hi], src[:, k0 - b - src_lo:hi - b - src_lo],
                out=inf_norms[:, k0:hi],
            )
    return (error_norms, inf_norms, _augmented(sums[0], q),
            _augmented(sums[1], q), snapshots)


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
) -> EnsembleResult:
    """Seeded ensemble; run i uses a counter-derived seed from cfg.seed.

    Runs are partitioned into batches of ``batch_size``, simulated one
    after another; ``workers`` threads split each batch's runs. Per-run
    streams are independent, so the per-run norms do not depend on the
    partition. The mean and variance do in the last bits, since batch
    sums are added in batch order; the thread count changes nothing.
    Each batch writes its rows of the norm arrays, and its block-0 sums
    are added in place, so memory is the per-run norms plus O(steps*Nn).
    """
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    seeds = [run_seed_sequence(cfg.seed, i) for i in range(num_runs)]
    steps, q = cfg.steps, cfg.aspec.buffer_len
    error_norms = np.empty((num_runs, steps + 1))
    inf_norms = np.empty((num_runs, steps + 1))
    # block-0 sums of err and err*err (see _simulate_batch); the first
    # batch writes them, each later one adds its own from ``spare``
    total = np.empty((2, steps + q, cfg.aspec.grid.total_points))
    spare = np.empty_like(total) if num_runs > batch_size else None
    for lo in range(0, num_runs, batch_size):
        rows = slice(lo, lo + batch_size)
        _simulate_batch(cfg, seeds[rows], (), workers,
                        (error_norms[rows], inf_norms[rows],
                         spare if lo else total))
        if lo:
            total += spare
    del spare

    # in place, in the operand order of (sumsq - n*mean**2) / (n-1)
    mean, var = total
    mean /= num_runs
    if num_runs > 1:
        square = np.square(mean)
        square *= num_runs
        var -= square
        var /= num_runs - 1
        np.maximum(var, 0.0, out=var)
    else:
        var.fill(0.0)
    return EnsembleResult(
        num_runs=num_runs,
        epsilons=cfg.epsilons,
        error_norms=error_norms,
        inf_norms=inf_norms,
        mean_error=_augmented(mean, q),
        var_error=_augmented(var, q),
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
