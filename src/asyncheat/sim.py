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
read-only overlapping views of those rows (see ``_augmented``). The engine
computes no statistic of the runs' error norms itself: it hands each window
of them to its caller's reduce/fold pair, and ``run_ensemble``'s pair
reduces them over the runs into per-step tables, so an ensemble's memory
does not grow with its run count. Every per-step sum, of the block-0 rows
and of the tables alike, is added onto in run order, so no output depends
on how the runs are batched or split over threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import BoundaryConditions, steady_state_profile
from .modes import AugmentedSpec, SwitchingDistribution

_CHUNK_STEPS = 256  # delay pre-sampling granularity
# A slice buffers its block-0 rows for at most this many steps before
# recording them and folding them onto the axis-0 sums, and the batch's
# fold buffer takes at most about this many bytes, so big batches fold
# more often.
_FOLD_STEPS = 32
_FOLD_BYTES = 1 << 22
# runs simulated at once by run_ensemble; no output depends on it.
# perfbench/workloads.py mirrors it as ENSEMBLE_BATCH for
# batch_working_set_mb.
_BATCH_RUNS = 512


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
        if not all(e > 0 for e in self.epsilons):
            raise ValueError("epsilons must be positive")


def _index_dtype(entries: int) -> type:
    """CSR index type for a ring of ``entries`` numbers: int32 when every
    index fits in it, else intp."""
    return np.int32 if entries <= np.iinfo(np.int32).max else np.intp


class _StencilPlan:
    """The buffered update of ``runs`` runs as one CSR matrix.

    The runs' grid states are the latest-first rows of a step-major
    (rows, runs, Nn) ring (see ``_advance``). Counted from the previous
    state's first row, a read of point j of run i with delay d sits at
    flat index d * stride + i * Nn + j, where stride = runs * Nn. The
    matrix has a row per grid point of every run: each interior row holds
    its left read, then its right read, each weighted by r, and the
    endpoint rows are empty. A read is within-PE, a fixed delay-0 index,
    unless a cross-PE edge supplies it; ``base`` is each edge's delay-0
    index, as (runs, num_edges), and each step writes the edges' indices
    into ``edge_indices``. When the edges supply every read, that is
    ``indices`` itself and ``slots`` is None; otherwise ``slots`` is where
    each edge's index sits in ``indices``.
    """

    def __init__(self, aspec: AugmentedSpec, runs: int, rows: int):
        # the kernel of a CSR matrix-vector product, which adds into its
        # output; imported here only to keep ``import asyncheat`` light,
        # since every command loads it
        from ._csr import csr_matvec
        self.matvec = csr_matvec
        g = aspec.grid
        nn = g.total_points
        self.nn = nn
        self.r = g.r
        self.stride = runs * nn
        index = _index_dtype(rows * self.stride)
        edges, nbs = aspec.edge_arrays
        firsts = np.arange(runs)[:, None] * nn  # each run's point 0
        interior = np.arange(1, nn - 1)
        sides = np.stack([interior - 1, interior + 1], axis=1).ravel()
        self.indices = (firsts + sides).astype(index).ravel()
        per_row = np.full(nn, 2)
        per_row[::nn - 1] = 0  # the endpoints
        self.indptr = np.zeros(runs * nn + 1, dtype=index)
        np.cumsum(np.tile(per_row, runs), out=self.indptr[1:])
        self.data = np.full(len(self.indices), self.r)
        self.base = (firsts + nbs).astype(index)
        if len(nbs) == len(sides):
            # the edges run over (point, side), as the entries do
            self.edge_indices = self.indices.reshape(self.base.shape)
            self.slots = None
        else:
            self.edge_indices = np.empty_like(self.base)
            self.slots = (np.arange(runs)[:, None] * len(sides)
                          + 2 * (edges - 1) + (nbs > edges))


def _advance(
    ring: np.ndarray, r: int, delays: np.ndarray, plan: _StencilPlan
) -> None:
    """One buffered update of a slice of runs, written into row ``r`` of
    ``ring``.

    ``ring`` is a C-contiguous (rows, runs, Nn) array whose rows are the
    runs' grid states latest first: rows r+1..r+q hold the previous
    state's blocks 0..q-1, and only row r is written. ``delays`` is (runs,
    num_edges), each in [0, q-1], for the kernel checks no index. The
    update is (1-2r)*u over whole rows, onto which one CSR product adds
    r*left and then r*right, in the operand order of the mode matrix
    product; the Dirichlet endpoints are then copied over.
    """
    idx = plan.edge_indices
    np.multiply(delays, plan.stride, out=idx, dtype=idx.dtype)
    idx += plan.base
    if plan.slots is not None:
        plan.indices[plan.slots] = idx
    prev, new = ring[r + 1], ring[r]
    np.multiply(prev, 1.0 - 2.0 * plan.r, out=new)
    reads = ring.reshape(-1)[(r + 1) * plan.stride:]
    plan.matvec(plan.stride, len(reads), plan.indptr, plan.indices,
                plan.data, reads, new.reshape(-1))
    new[:, ::plan.nn - 1] = prev[:, ::plan.nn - 1]  # Dirichlet endpoints


def _count_delays(u: np.ndarray, cdf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-edge categorical delays from uniforms, written into ``out``.

    The last axis of ``u`` runs over edges; each draw's delay is the
    number of its edge's thresholds cdf[e, :-1] that it reaches. The first
    threshold's comparison writes ``out`` (no draw reaches an infinite
    one, so with no thresholds every delay is 0).
    """
    *thresholds, _ = cdf.T
    np.greater_equal(u, thresholds[0] if thresholds else np.inf, out=out)
    for threshold in thresholds[1:]:
        out += u >= threshold
    return out


def async_step(
    history: np.ndarray, delays, aspec: AugmentedSpec
) -> np.ndarray:
    """One buffered asynchronous update with the given delay pattern.

    ``history`` is the (q, Nn) buffer, newest first: history[d] = U(k - d),
    so ``history.ravel()`` is the augmented state X(k). Returns the next
    buffer. X(k+1) equals ``modes.mode_product`` of the delay pattern's
    mode matrix and X(k), bit for bit.
    """
    delays = aspec.check_delays(delays)
    q = aspec.buffer_len
    ring = np.empty((q + 1, 1, aspec.grid.total_points))
    ring[1:, 0] = history
    _advance(ring, 0, delays[None, :], _StencilPlan(aspec, 1, q + 1))
    return ring[:q, 0]


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
    mean_sq_error: np.ndarray     # (steps+1,)
    exceedance_table: np.ndarray  # (steps+1, len(cfg.epsilons))
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
                    out=None, first=0):
    """Core engine: simulate len(seeds) runs in lockstep.

    Blocks 1..q-1 of the augmented state are block 0 at earlier steps, bit
    for bit, so each run keeps block-0 rows only: a latest-first ring of
    window+q grid rows, in which X(k) is the q rows from row
    window-1-(k mod window). The ring is step-major, (rows, runs, Nn), so
    a step writes one contiguous row for all of a slice's runs with one
    CSR product (see ``_advance``), and at the start of each window of
    steps the q newest rows are carried to the ring's tail. A step only
    samples, advances and copies a snapshot: the record waits for the end
    of its window (see ``_FOLD_STEPS``). There err and err*err are
    computed for block 0 only, into run-major (runs, rows, Nn) rings, and
    a step's norm reduces its q rows of err*err as one augmented row; each
    of these, and the block-0 inf norms, is one call over the window's
    rows.

    The runs are split into ``workers`` contiguous slices (at most one a
    run), each stepped on its own thread with its own ring, stencil plan
    and streams. At the end of each window, once the previous slice has
    folded it, a slice adds its err and err*err ring rows onto the
    per-step sums, so they stay one sequential sum in run order. Only
    block 0 is summed, into latest-first rows (see the module docstring),
    and the row maxima over the blocks are windowed maxima of block 0's
    after the join. No output depends on ``workers``.

    ``out`` is (sums, reduce, fold): the (2, steps+q, Nn) block-0 sums of
    err and err*err, added onto in run order, and the caller's pair for
    the per-run norms. At the end of each window ``done`` (a slice of
    steps), each slice of runs calls ``reduce(done, runs, norms, maxima)``
    before it waits. ``runs`` is its run range, a slice of run indices
    counted from ``first``; ``norms`` and ``maxima`` are its runs'
    fl(||e||) and block-0 inf norms, (len(runs), len(done)) views that the
    next window overwrites. Once the previous slice has folded the window,
    it calls ``fold(done, part)`` on what ``reduce`` returned. So the
    reductions run in parallel, and a chain that ``fold`` continues is one
    sequential sum in run order. The call returns the snapshots of the
    newest grid state of run 0 at the requested steps.

    Without ``out``, the sums start from zero, the pair writes the norms
    to per-run arrays, and the call returns per-run error/inf norms,
    read-only (steps+1, dim) views of the per-step sum and sum-of-squares
    of error vectors, and the snapshots.
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

    # Each slice's step-major ring and stencil plan, and batch-wide
    # buffers of which each slice takes its rows. They are allocated on
    # this thread: buffers freed in a worker thread's malloc arena stay
    # resident.
    rings = [np.empty((rows, hi - lo, nn))
             for lo, hi in zip(bounds, bounds[1:])]
    plans = [_StencilPlan(aspec, hi - lo, rows)
             for lo, hi in zip(bounds, bounds[1:])]
    for ring in rings:
        ring[window - 1:window - 1 + q] = cfg.initial  # X(0)
    delays = np.empty(
        (runs, chunk_steps, num_edges), dtype=np.min_scalar_type(q - 1)
    )
    # err and err*err rings, with one more run row per slice for the
    # previous slice's sums: fold_step_bytes a ring row
    es = np.empty((2, runs + slices, rows, nn))
    # a window of each run's norms and block-0 inf norms
    window_norms = np.empty((runs, window))
    maxima = np.empty((runs, window))
    lows = np.empty((runs, window))  # -min(err) of a window's rows

    per_run = out is None
    if per_run:
        error_norms = np.empty((runs, steps + 1))
        inf_norms = np.empty((runs, steps + 1))

        def keep_all(done, span, norms, maxima):
            span = slice(span.start - first, span.stop - first)
            error_norms[span, done] = norms
            inf_norms[span, done] = maxima

        out = np.zeros((2, steps + q, nn)), keep_all, lambda done, part: None
    sums, reduce, fold = out
    snapshot_steps = set(snapshot_steps)
    snapshots: dict[int, np.ndarray] = {}
    order = _RunOrder(slices)

    def step_slice(i):
        lo, hi = bounds[i], bounds[i + 1]
        n = hi - lo
        rngs = [np.random.default_rng(s) for s in seeds[lo:hi]]
        u = np.empty((chunk_steps, num_edges))
        state, plan = rings[i], plans[i]
        mine = es[:, lo + i:hi + i + 1]
        err, sq = mine[:, 1:]
        norms, mx, low = window_norms[lo:hi], maxima[lo:hi], lows[lo:hi]
        # each run's err and err*err ring rows as one row of columns
        flat_err, flat_sq = (a.reshape(n, rows * nn) for a in (err, sq))

        def record(r):
            """err, err*err and the norms of a window's steps, whose rows
            are r..window-1, latest first; each is one call."""
            # the steps' rows and the oldest step's q-1 older ones, from
            # the step-major ring into the run-major err ring
            np.subtract(state[r:window + q - 1].transpose(1, 0, 2), ramp,
                        out=err[:, r:window + q - 1])
            span = slice(r * nn, (window + q - 1) * nn)
            e = flat_err[:, span]
            np.multiply(e, e, out=flat_sq[:, span])
            latest = slice(window - 1 - r, None, -1)  # slots, latest first
            # np.linalg.norm(err, axis=1) over each step's augmented row,
            # spelled out: q contiguous rows of err*err
            augmented_sq = sliding_window_view(
                flat_sq[:, span], q * nn, axis=1)[:, ::nn]
            norm = norms[:, latest]
            np.add.reduce(augmented_sq, axis=2, out=norm)
            np.sqrt(norm, out=norm)
            # the block-0 inf norm, max(max e, -min e), and abs for the
            # sign of an all-zero row
            block0 = err[:, r:window]
            peak, least = mx[:, latest], low[:, latest]
            np.max(block0, axis=2, out=peak)
            np.min(block0, axis=2, out=least)
            np.negative(least, out=least)
            np.maximum(least, peak, out=peak)
            np.abs(peak, out=peak)

        for k in range(steps + 1):
            slot = k % window
            r = window - 1 - slot  # X(k) is rows r..r+q-1
            if k:
                if slot == 0:  # a new window: carry X(k-1) to the tail
                    state[window:] = state[:q]
                t = (k - 1) % _CHUNK_STEPS
                if t == 0:
                    chunk = min(_CHUNK_STEPS, steps - k + 1)
                    for j, rng in enumerate(rngs, lo):
                        rng.random(out=u[:chunk])
                        _count_delays(u[:chunk], cdf, delays[j, :chunk])
                _advance(state, r, delays[lo:hi, t], plan)
            if i == 0 and k in snapshot_steps:
                snapshots[k] = state[r, 0].copy()
            if slot == window - 1 or k == steps:
                record(r)
                done = slice(k - slot, k + 1)
                part = reduce(done, slice(first + lo, first + hi),
                              norms[:, :slot + 1], mx[:, :slot + 1])
                order.wait(i, k + 1)
                fold(done, part)
                block_sums = sums[:, steps - k:steps - k + slot + 1]
                mine[:, 0, r:window] = block_sums
                np.add.reduce(mine[:, :, r:window], axis=1, out=block_sums)
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


def run_ensemble(cfg: RunConfig, num_runs: int, workers: int = 1,
                 norm_steps=()) -> EnsembleResult:
    """Seeded ensemble; run i uses a counter-derived seed from cfg.seed.

    Runs are simulated in batches of ``_BATCH_RUNS``, one after another;
    ``workers`` threads split each batch's runs. The per-run norms go
    through one reduce/fold pair (see ``_simulate_batch``): ``reduce``
    squares a slice's window of norms, counts those above each epsilon,
    takes the largest inf norm and keeps the norms at ``norm_steps``;
    ``fold`` adds them onto the per-step tables. Every per-step sum and
    table is folded in run order, one chain across slices and batches, so
    no output depends on the batching or on ``workers``. Per-run norms
    are kept at ``norm_steps`` only, so memory is
    O(steps*(Nn + len(epsilons))) plus one batch, whatever the run count.
    """
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    steps, q = cfg.steps, cfg.aspec.buffer_len
    if any(not 0 <= k <= steps for k in norm_steps):
        raise ValueError(f"norm_steps must lie in [0, {steps}]")
    kept = {k: np.empty(num_runs) for k in sorted(set(norm_steps))}
    epsilons = np.array(cfg.epsilons)
    sq_norms = np.zeros(steps + 1)
    counts = np.zeros((steps + 1, len(cfg.epsilons)), dtype=np.intp)
    peaks = np.zeros(steps + 1)

    def reduce(done, runs, norms, maxima):
        for k in kept.keys() & range(done.start, done.stop):
            kept[k][runs] = norms[:, k - done.start]
        squares = np.square(norms)
        hits = np.count_nonzero(squares[:, :, None] > epsilons, axis=0)
        return squares, hits, maxima.max(axis=0)

    def fold(done, part):
        squares, hits, peak = part
        # the sums so far as a carry row on top: an accumulate is
        # sequential for any window length
        chain = np.vstack((sq_norms[done], squares))
        sq_norms[done] = np.add.accumulate(chain)[-1]
        counts[done] += hits
        np.maximum(peaks[done], peak, out=peaks[done])

    # block-0 sums of err and err*err (see _simulate_batch)
    total = np.zeros((2, steps + q, cfg.aspec.grid.total_points))
    for lo in range(0, num_runs, _BATCH_RUNS):
        hi = min(lo + _BATCH_RUNS, num_runs)
        seeds = [run_seed_sequence(cfg.seed, i) for i in range(lo, hi)]
        _simulate_batch(cfg, seeds, (), workers, (total, reduce, fold), lo)

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
        mean_sq_error=_read_only(sq_norms),
        exceedance_table=_read_only(counts / num_runs),
        max_inf_error=_read_only(_window_max(peaks, q)),
        norms_at={k: _read_only(norms) for k, norms in kept.items()},
        mean_error=_augmented(mean, q),
        var_error=_augmented(var, q),
    )


def run_sync_reference(cfg: RunConfig, snapshot_steps=()) -> Trajectory:
    """Synchronous reference U(k+1) = A U(k), errors against the ramp.

    It is the engine's one-run batch at q = 1 (``_simulate_batch`` in its
    per-run mode), where every edge reads at delay 0, so the states, inf
    norms and snapshots are the simulator's at q = 1 bit for bit, at every
    r and on every CPU. With one run, the engine's error sum at step k is
    u(k) - ramp bit for bit; its error norm is ``np.linalg.norm`` of that
    row, a BLAS ``ddot``, so its last bit can change with the kernel that
    OpenBLAS picks for the CPU.
    """
    steps = cfg.steps
    snapshot_steps = set(snapshot_steps)
    if any(not 0 <= k <= steps for k in snapshot_steps):
        raise ValueError(f"snapshot_steps must lie in [0, {steps}]")
    aspec = AugmentedSpec(cfg.aspec.grid, 1)
    sync = replace(cfg, aspec=aspec, dist=SwitchingDistribution.uniform(aspec))
    _, inf_norms, err, _, snapshots = _simulate_batch(
        sync, [cfg.seed], snapshot_steps
    )
    return Trajectory(
        error_norms=np.array([np.linalg.norm(e) for e in err]),
        inf_norms=inf_norms[0],
        snapshots=snapshots,
    )
