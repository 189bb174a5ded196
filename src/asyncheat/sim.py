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
read-only overlapping views of those rows (see ``_augmented``). Each run's
error norms are reduced over the runs as they are computed, into per-step
tables, so an ensemble's memory does not grow with its run count.
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
    read of the newest block, unless a cross-PE edge supplies it.
    ``reads`` holds the left and right reads of the interior points, as
    (2, runs, Nn-2). ``base`` is the flat ring index of each edge's delay-0
    read counted from the previous state's first row, so a read with delay
    d sits at ``d * Nn + base``. When the edges supply every read, ``base``
    has the layout of ``reads`` and ``places`` is None; otherwise ``base``
    is (runs, num_edges) and ``places`` is each edge's (side, point) in
    ``reads``.
    """

    def __init__(self, aspec: AugmentedSpec, runs: int, rows: int):
        g = aspec.grid
        nn = g.total_points
        self.nn = nn
        self.r = g.r
        edges, nbs = aspec.edge_arrays
        base = np.arange(runs)[:, None] * (rows * nn) + nbs
        self.reads = np.empty((2, runs, nn - 2))
        if len(nbs) == 2 * (nn - 2):
            # the edges run over (point, side), two to a point
            self.base = _sides(base).copy()
            self.places = None
        else:
            self.base = base
            self.places = ((nbs > edges).astype(np.intp), slice(None),
                           edges - 1)
            self.gathered = np.empty(base.shape)
        self.idx = np.empty(self.base.shape, dtype=np.intp)


def _sides(per_edge: np.ndarray) -> np.ndarray:
    """(2, runs, Nn-2) view of (runs, num_edges) values when every
    interior read is an edge."""
    return per_edge.reshape(len(per_edge), -1, 2).transpose(2, 0, 1)


def _advance(
    ring: np.ndarray, r: int, delays: np.ndarray, plan: _StencilPlan
) -> None:
    """One buffered update of a batch, written into row ``r`` of ``ring``.

    ``ring`` is (runs, rows, Nn) with each run's grid states latest first:
    rows r+1..r+q hold the previous state's blocks 0..q-1, and only row r
    is written. ``delays`` is (runs, num_edges). The cross-PE reads are
    one gather; the within-PE reads come from the newest block. The sum
    keeps the operand order (1-2r)*u_i + r*left + r*right of the mode
    matrix product.
    """
    nn = plan.nn
    flat = ring.reshape(-1)[(r + 1) * nn:]
    prev = ring[:, r + 1]
    left, right = reads = plan.reads
    # mode="clip" writes ``out`` unbuffered; every index is in the ring
    if plan.places is None:
        np.multiply(_sides(delays), nn, out=plan.idx, dtype=np.intp)
        plan.idx += plan.base
        flat.take(plan.idx, out=reads, mode="clip")
        reads *= plan.r
    else:
        np.multiply(delays, nn, out=plan.idx, dtype=np.intp)
        plan.idx += plan.base
        flat.take(plan.idx, out=plan.gathered, mode="clip")
        plan.gathered *= plan.r
        np.multiply(prev[:, :-2], plan.r, out=left)
        np.multiply(prev[:, 2:], plan.r, out=right)
        reads[plan.places] = plan.gathered.T
    new = ring[:, r, 1:-1]
    np.multiply(prev[:, 1:-1], 1.0 - 2.0 * plan.r, out=new)
    new += left
    new += right
    ring[:, r, ::nn - 1] = prev[:, ::nn - 1]  # Dirichlet endpoints


def _count_delays(u: np.ndarray, cdf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-edge categorical delays from uniforms, written into ``out``.

    The last axis of ``u`` runs over edges; each draw's delay is the
    number of its edge's thresholds cdf[e, :-1] that it reaches.
    """
    out[...] = 0
    reached = np.empty(u.shape, dtype=bool)
    for j in range(cdf.shape[1] - 1):
        np.greater_equal(u, cdf[:, j], out=reached)
        np.add(out, reached.view(np.uint8), out=out)
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
    """Per-step statistics across seeded runs, all read-only.

    ``mean_error`` averages error vectors across runs before any norm is
    taken. ``mean_error`` and ``var_error`` are views whose rows overlap
    (row k's block b is block 0 of row max(k-b, 0)), so they hold
    O(steps*Nn) numbers, not O(steps*Nnq). The per-run error norms are
    reduced over the runs as they are computed: ``mean_sq_error`` is
    E[||e(k)||^2], ``exceedance_table`` Pr(||e(k)||^2 > eps) for each
    configured eps and ``max_inf_error`` the largest ||e(k)||_inf. Per-run
    norms are kept only at the steps that ``run_ensemble`` was asked for,
    in ``norms_at``.
    """

    num_runs: int
    epsilons: tuple[float, ...]
    mean_sq_error: np.ndarray     # (steps+1,)
    exceedance_table: np.ndarray  # (steps+1, len(epsilons))
    max_inf_error: np.ndarray     # (steps+1,)
    norms_at: dict[int, np.ndarray]  # step -> (runs,) error norms
    mean_error: np.ndarray        # (steps+1, dim)
    var_error: np.ndarray         # (steps+1, dim), ddof=1 across runs

    @cached_property
    def mean_error_norm(self) -> np.ndarray:
        """||mean_error[k]|| per step, computed once (read-only).

        Chunks of rows keep the temporary small; each row is squared and
        summed as ``np.linalg.norm(mean_error, axis=1)`` would.
        """
        norms = np.empty(len(self.mean_error))
        for lo in range(0, len(norms), _CHUNK_STEPS):
            rows = self.mean_error[lo:lo + _CHUNK_STEPS]
            np.sqrt(np.add.reduce(rows * rows, axis=1),
                    out=norms[lo:lo + _CHUNK_STEPS])
        return _read_only(norms)

    @property
    def stderr_error(self) -> np.ndarray:
        """Componentwise standard error of the mean error vector."""
        return np.sqrt(self.var_error / self.num_runs)

    def exceedance(self, epsilon: float) -> np.ndarray:
        """Empirical Pr(||e(k)||^2 > epsilon) per step, for a configured
        epsilon."""
        if epsilon not in self.epsilons:
            raise ValueError(
                f"epsilon {epsilon!r} is not one of the configured "
                f"{self.epsilons}"
            )
        return self.exceedance_table[:, self.epsilons.index(epsilon)]


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


def _window_max(a: np.ndarray, q: int) -> np.ndarray:
    """Max over the last axis' entries k-q+1..k at each k, clamped at 0."""
    front = np.repeat(a[..., :1], q - 1, axis=-1)
    padded = np.concatenate([front, a], axis=-1)
    return sliding_window_view(padded, q, axis=-1).max(axis=-1)


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
    streams. A slice buffers its runs' norms and block-0 inf norms for a
    window of steps (see ``_FOLD_STEPS``). At the end of each window,
    once the previous slice has folded it, the slice adds its err and
    err*err ring rows onto the per-step sums, so they stay one sequential
    sum in run order. Only block 0 is summed, into latest-first rows (see
    the module docstring), and the row maxima over the blocks are windowed
    maxima of block 0's after the join. No output depends on ``workers``.

    Without ``out``, the buffered norms are written to per-run arrays and
    the call returns per-run error/inf norms, read-only (steps+1, dim)
    views of the per-step sum and sum-of-squares of error vectors, and
    snapshots of the newest grid state of run 0 at the requested steps.

    ``out`` is (sums, sq_norms, counts, peaks, kept) for ``run_ensemble``
    to carry across batches: the (2, steps+q, Nn) block-0 sums of err and
    err*err to write, and per-step tables to fold onto in run order. Each
    window adds its runs' fl(||e||)**2 onto the (steps+1,) ``sq_norms``,
    continuing one chain from run to run, the number of them above each
    epsilon onto the (steps+1, len(epsilons)) ``counts``, and their
    largest block-0 inf norm into the (steps+1,) ``peaks``. ``kept`` maps
    steps to (runs,) arrays that receive the per-run norms there. Nothing
    of size runs x steps is allocated, and the call returns the snapshots.
    """
    aspec = cfg.aspec
    runs, steps = len(seeds), cfg.steps
    q, nn = aspec.buffer_len, aspec.grid.total_points
    ramp = steady_state_profile(aspec.grid, cfg.bc)  # block 0 of X_ss
    cdf = cfg.dist.cdf
    epsilons = np.array(cfg.epsilons)
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
        (runs, chunk_steps, num_edges), dtype=np.min_scalar_type(q - 1)
    )
    # err and err*err rings, with one more run row per slice for the
    # previous slice's sums: fold_step_bytes a ring row
    es = np.empty((2, runs + slices, rows, nn))
    # a window of each run's norms and block-0 inf norms; the norms have
    # one more row per slice, for the sum of squares so far
    window_norms = np.empty((runs + slices, window))
    maxima = np.empty((runs, window))
    magnitude = np.empty((runs, nn))  # |err| of the newest row

    per_run = out is None
    if per_run:
        error_norms = np.empty((runs, steps + 1))
        inf_norms = np.empty((runs, steps + 1))
        sums = np.empty((2, steps + q, nn))
        kept = {}
    else:
        sums, sq_norms, counts, peaks, kept = out
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
        my_norms = window_norms[lo + i:hi + i + 1]
        norms, mx = my_norms[1:], maxima[lo:hi]
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
                        _count_delays(u[:chunk], cdf, delays[j, :chunk])
                _advance(state, r, delays[lo:hi, t], plan)
                new = slice(r, r + 1)
            else:
                new = slice(r, r + q)
            np.subtract(state[:, new], ramp, out=err[:, new])
            np.multiply(err[:, new], err[:, new], out=sq[:, new])
            # np.linalg.norm(err, axis=1) over the augmented row, spelled out
            augmented_sq = sq[:, r:r + q].reshape(n, q * nn)
            norm = norms[:, slot]
            np.add.reduce(augmented_sq, axis=1, out=norm)
            np.sqrt(norm, out=norm)
            np.abs(err[:, r], out=mag).max(axis=1, out=mx[:, slot])
            if k in kept:
                kept[k][lo:hi] = norm
            if i == 0 and k in snapshot_steps:
                snapshots[k] = state[0, r].copy()
            if slot == window - 1 or k == steps:
                done = slice(k - slot, k + 1)
                if per_run:
                    error_norms[lo:hi, done] = norms[:, :slot + 1]
                    inf_norms[lo:hi, done] = mx[:, :slot + 1]
                else:
                    squares = my_norms[:, :slot + 1]
                    np.square(squares[1:], out=squares[1:])
                    peak = mx[:, :slot + 1].max(axis=0)
                    hits = np.count_nonzero(
                        squares[1:, :, None] > epsilons, axis=0
                    )
                order.wait(i, k + 1)
                if not per_run:
                    # an accumulate is sequential for any window length
                    squares[0] = sq_norms[done]
                    np.add.accumulate(squares, axis=0, out=squares)
                    sq_norms[done] = squares[-1]
                    counts[done] += hits
                    np.maximum(peaks[done], peak, out=peaks[done])
                block_sums = sums[:, steps - k:steps - k + slot + 1]
                if i:
                    mine[:, 0, r:window] = block_sums
                # slice 0 starts from its own first run
                first = 0 if i else 1
                np.add.reduce(mine[:, first:, r:window], axis=1,
                              out=block_sums)
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
    if not per_run:
        return snapshots
    # so the row maximum at step k is the max of block 0's at steps
    # max(k-q+1, 0)..k
    return (error_norms, _window_max(inf_norms, q), _augmented(sums[0], q),
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
    norm_steps=(),
) -> EnsembleResult:
    """Seeded ensemble; run i uses a counter-derived seed from cfg.seed.

    Runs are partitioned into batches of ``batch_size``, simulated one
    after another; ``workers`` threads split each batch's runs. Per-run
    streams are independent, so no run depends on the partition. The
    per-run norms are folded onto per-step tables in run order, across
    batches too, so ``mean_sq_error``, ``exceedance_table`` and
    ``max_inf_error`` depend on neither. The mean and variance depend on
    the partition in the last bits, since batch sums are added in batch
    order; the thread count changes nothing. Per-run norms are kept at
    ``norm_steps`` only, so memory is O(steps*(Nn + len(epsilons))) plus
    one batch, whatever the run count.
    """
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    steps, q = cfg.steps, cfg.aspec.buffer_len
    if any(not 0 <= k <= steps for k in norm_steps):
        raise ValueError(f"norm_steps must lie in [0, {steps}]")
    kept = {k: np.empty(num_runs) for k in sorted(set(norm_steps))}
    sq_norms = np.zeros(steps + 1)
    counts = np.zeros((steps + 1, len(cfg.epsilons)), dtype=np.intp)
    peaks = np.zeros(steps + 1)
    # block-0 sums of err and err*err (see _simulate_batch); the first
    # batch writes them, each later one adds its own from ``spare``
    total = np.empty((2, steps + q, cfg.aspec.grid.total_points))
    spare = np.empty_like(total) if num_runs > batch_size else None
    for lo in range(0, num_runs, batch_size):
        hi = min(lo + batch_size, num_runs)
        seeds = [run_seed_sequence(cfg.seed, i) for i in range(lo, hi)]
        batch_kept = {k: norms[lo:hi] for k, norms in kept.items()}
        _simulate_batch(cfg, seeds, (), workers,
                        (spare if lo else total, sq_norms, counts, peaks,
                         batch_kept))
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
    # the bytes of (norms**2).mean(axis=0) and (norms**2 > eps).mean(axis=0)
    # over (runs, steps+1) per-run arrays, whose axis-0 sums run in run
    # order once steps >= 1 (numpy sums a (runs, 1) array pairwise)
    sq_norms /= num_runs
    return EnsembleResult(
        num_runs=num_runs,
        epsilons=cfg.epsilons,
        mean_sq_error=_read_only(sq_norms),
        exceedance_table=_read_only(counts / num_runs),
        max_inf_error=_read_only(_window_max(peaks, q)),
        norms_at={k: _read_only(norms) for k, norms in kept.items()},
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
