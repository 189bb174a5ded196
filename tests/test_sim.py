import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import asyncheat as ah
from asyncheat import sim
from asyncheat.grid import steady_state_profile
from asyncheat.modes import mode_product
from asyncheat.sim import run_seed_sequence
from conftest import exact_spec
from oracles import init_state, run_trajectory, sample_delays


def make_config(num_pes=5, q=2, steps=50, seed=7, points_per_pe=1, r=0.5,
                **kw):
    spec = exact_spec(num_pes, points_per_pe, r)
    aspec = ah.AugmentedSpec(grid=spec, buffer_len=q)
    dist = kw.pop("dist", None) or ah.SwitchingDistribution.uniform(aspec)
    initial = kw.pop("initial", None)
    if initial is None:
        initial = ah.cos2_initial_condition(spec)
    return ah.RunConfig(
        aspec=aspec,
        dist=dist,
        initial=initial,
        bc=ah.BoundaryConditions(1.0, 0.0),
        steps=steps,
        seed=seed,
        **kw,
    )


class TestRunConfig:
    def test_endpoints_clamped_to_bc(self):
        cfg = make_config(initial=np.full(5, 0.3))
        assert cfg.initial[0] == 1.0
        assert cfg.initial[-1] == 0.0
        assert np.array_equal(cfg.initial[1:-1], np.full(3, 0.3))

    def test_initial_is_read_only(self):
        cfg = make_config()
        with pytest.raises(ValueError):
            cfg.initial[1] = 9.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            make_config(initial=np.zeros(6))

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            make_config(steps=-1)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            make_config(epsilons=(0.1, 0.0))
        with pytest.raises(ValueError):
            make_config(epsilons=(np.nan,))


class TestState:
    def test_init_state_replicates(self):
        u = np.arange(5.0)
        state = init_state(u, 3)
        assert state.shape == (3, 5)
        assert np.array_equal(state.ravel(), np.tile(u, 3))
        assert np.array_equal(state[0], u)

    def test_first_step_is_synchronous_for_any_delays(self):
        # all buffers start identical, so delayed reads see the same values
        spec = exact_spec(6, r=0.25)
        aspec = ah.AugmentedSpec(grid=spec, buffer_len=3)
        a = ah.build_sync_matrix(spec)
        u = np.random.default_rng(2).uniform(0, 1, 6)
        state = init_state(u, 3)
        for delays in [(0,) * 8, (2,) * 8, (1, 0, 2, 1, 0, 2, 1, 0)]:
            nxt = ah.async_step(state, delays, aspec)
            assert np.array_equal(nxt[0], mode_product(a, u, 1))
            assert np.array_equal(nxt[1], u)

    def test_rejects_wrong_pattern_length(self):
        aspec = ah.AugmentedSpec(grid=exact_spec(4), buffer_len=2)
        state = init_state(np.zeros(4), 2)
        with pytest.raises(ValueError):
            ah.async_step(state, (0,), aspec)

    def test_rejects_out_of_range_delays(self):
        aspec = ah.AugmentedSpec(grid=exact_spec(4), buffer_len=2)
        state = init_state(np.zeros(4), 2)
        for delays in [(0, 2, 0, 0), (0, -1, 0, 0)]:
            with pytest.raises(ValueError):
                ah.async_step(state, delays, aspec)


class TestSampleDelays:
    def test_frequencies_match_probabilities(self):
        probs = np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
        dist = ah.SwitchingDistribution(probs)
        rng = np.random.default_rng(99)
        n = 100_000
        draws = np.stack([sample_delays(rng, dist) for _ in range(n)])
        for e in range(2):
            for d in range(3):
                p = probs[e, d]
                freq = (draws[:, e] == d).mean()
                sigma = np.sqrt(p * (1 - p) / n)
                assert abs(freq - p) < 3.5 * sigma

    def test_degenerate_distribution(self):
        dist = ah.SwitchingDistribution(np.array([[0.0, 0.0, 1.0]]))
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert sample_delays(rng, dist)[0] == 2


class TestTrajectory:
    def test_matches_per_step_reference_loop(self):
        """Chunked pre-sampling must reproduce the naive per-step loop."""
        cfg = make_config(num_pes=6, q=3, steps=600, seed=41)
        traj = run_trajectory(cfg, snapshot_steps=(600,))

        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed))
        state = init_state(cfg.initial, 3)
        ramp = ah.steady_state_profile(cfg.aspec.grid, cfg.bc)
        xss = np.tile(ramp, 3)
        norms = [np.linalg.norm(state.ravel() - xss)]
        for _ in range(cfg.steps):
            delays = sample_delays(rng, cfg.dist)
            state = ah.async_step(state, delays, cfg.aspec)
            norms.append(np.linalg.norm(state.ravel() - xss))
        # states are bit-identical; the norm reduction differs by <= 2 ulp
        assert np.array_equal(traj.snapshots[600], state[0])
        assert np.allclose(traj.error_norms, norms, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("r", [0.5, 0.3])
    def test_matches_mode_matrix_products(self, r):
        """The simulator is bit-identical to explicit matrix switching,
        with each row summed in grid-position order."""
        cfg = make_config(num_pes=5, q=2, steps=100, seed=13, r=r)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed))
        state = init_state(cfg.initial, 2)
        x = state.ravel().copy()
        for _ in range(100):
            delays = sample_delays(rng, cfg.dist)
            state = ah.async_step(state, delays, cfg.aspec)
            x = mode_product(ah.build_mode_matrix(cfg.aspec, delays), x, 2)
            assert np.array_equal(state.ravel(), x)

    @pytest.mark.parametrize("r", [0.5, 0.4, 0.3])
    def test_q1_equals_sync_reference(self, r):
        """The synchronous reference is the simulator at q = 1, bit for
        bit at every r: off r = 1/2 a stencil row's three terms make the
        sum order matter."""
        cfg = make_config(num_pes=8, q=1, steps=200, r=r)
        steps = range(201)
        traj = run_trajectory(cfg, snapshot_steps=steps)
        sync = ah.run_sync_reference(cfg, snapshot_steps=steps)
        # with q = 1 the augmented error is the grid error; states are
        # bit-identical, the norm reduction path differs by <= 2 ulp
        for k in steps:
            assert np.array_equal(traj.snapshots[k], sync.snapshots[k])
        assert np.allclose(traj.error_norms, sync.error_norms, rtol=1e-15, atol=0)
        assert np.array_equal(traj.inf_norms, sync.inf_norms)

    def test_snapshots_recorded(self):
        cfg = make_config(steps=10)
        traj = run_trajectory(cfg, snapshot_steps=(0, 5, 10))
        assert set(traj.snapshots) == {0, 5, 10}
        assert np.array_equal(traj.snapshots[0], cfg.initial)
        for snap in traj.snapshots.values():
            assert snap.shape == (5,)
            assert snap[0] == 1.0 and snap[-1] == 0.0

    def test_zero_steps(self):
        cfg = make_config(steps=0)
        traj = run_trajectory(cfg)
        assert traj.error_norms.shape == (1,)

    def test_error_decreases_in_the_long_run(self):
        cfg = make_config(num_pes=10, q=3, steps=2000, seed=5)
        traj = run_trajectory(cfg)
        assert traj.error_norms[-1] < 1e-6 * traj.error_norms[0]


# the per-step tables an ensemble reduces its per-run norms to
TABLES = ("mean_sq_error", "exceedance_table", "max_inf_error")


def _raised_within(call, timeout=30):
    """Run ``call`` on a daemon thread; the RuntimeErrors it raised."""
    caught = []

    def target():
        try:
            call()
        except RuntimeError as exc:
            caught.append(exc)

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive()
    return caught


class TestEnsemble:
    def test_deterministic_for_fixed_seed(self):
        cfg = make_config(steps=40, epsilons=(0.01, 1.0))
        a = ah.run_ensemble(cfg, 8, norm_steps=(40,))
        b = ah.run_ensemble(cfg, 8, norm_steps=(40,))
        for name in TABLES:
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(a.norms_at[40], b.norms_at[40])
        assert np.array_equal(a.mean_error, b.mean_error)

    def test_seed_changes_results(self):
        a = ah.run_ensemble(make_config(steps=40, seed=7), 8)
        b = ah.run_ensemble(make_config(steps=40, seed=8), 8)
        assert not np.array_equal(a.mean_sq_error, b.mean_sq_error)

    def test_batch_size_and_workers_invariance(self, monkeypatch):
        cfg = make_config(steps=60, epsilons=(1e-4, 1e-2, 1.0))
        ref = ah.run_ensemble(cfg, 10, norm_steps=(0, 60))
        # every sum folds the runs in run order, across batches too
        for batch_runs in (3, 512):
            monkeypatch.setattr(sim, "_BATCH_RUNS", batch_runs)
            for workers in (1, 2, 4):
                other = ah.run_ensemble(cfg, 10, workers=workers,
                                        norm_steps=(0, 60))
                for name in (*TABLES, "mean_error", "var_error"):
                    assert np.array_equal(
                        getattr(ref, name), getattr(other, name)
                    ), (name, batch_runs, workers)
                for k in (0, 60):
                    assert np.array_equal(ref.norms_at[k], other.norms_at[k])

    def test_run_order_is_stable(self):
        """Run i's trajectory is a function of (seed, i) only."""
        cfg = make_config(steps=30)
        big = ah.run_ensemble(cfg, 6, norm_steps=(0, 15, 30))
        small = ah.run_ensemble(cfg, 3, norm_steps=(30, 15, 0, 15))
        assert big.norms_at.keys() == small.norms_at.keys() == {0, 15, 30}
        for k, norms in small.norms_at.items():
            assert np.array_equal(big.norms_at[k][:3], norms)

    def test_rejects_norm_steps_outside_the_run(self):
        for k in (-1, 31):
            with pytest.raises(ValueError, match="norm_steps"):
                ah.run_ensemble(make_config(steps=30), 3, norm_steps=(k,))

    def test_statistics_shapes_and_bounds(self):
        cfg = make_config(steps=25, epsilons=(0.01, 1.0))
        res = ah.run_ensemble(cfg, 12, norm_steps=(25,))
        d = cfg.aspec.dim
        assert res.norms_at[25].shape == (12,)
        assert res.mean_sq_error.shape == res.max_inf_error.shape == (26,)
        assert res.mean_error.shape == (26, d)
        assert res.exceedance_table.shape == (26, 2)
        assert ((res.exceedance_table >= 0) & (res.exceedance_table <= 1)).all()
        assert (res.var_error >= 0).all()
        # ||E e|| <= E||e|| <= sqrt(E||e||^2)
        assert (
            res.mean_error_norm <= np.sqrt(res.mean_sq_error) + 1e-12
        ).all()
        assert np.isclose(res.mean_sq_error[25],
                          (res.norms_at[25] ** 2).mean(), rtol=1e-14)
        # a run's inf norm is at most its Euclidean norm, whose square is
        # at most the sum over the 12 runs
        assert (
            res.max_inf_error**2 <= 12 * res.mean_sq_error * (1 + 1e-12)
        ).all()
        # Dirichlet components never deviate, so their variance is zero
        assert np.array_equal(res.var_error[:, 0], np.zeros(26))

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            ah.run_ensemble(make_config(), 0)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_nonpositive_workers(self, workers):
        with pytest.raises(ValueError, match="workers"):
            ah.run_ensemble(make_config(), 4, workers=workers)

    def test_workers_do_not_change_bytes(self):
        """One batch; more workers than cores, with frequent thread
        switches, must not reorder the run-order sums."""
        cfg = make_config(num_pes=6, q=3, steps=70, epsilons=(0.01, 1.0))
        ref = ah.run_ensemble(cfg, 11, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            others = {w: ah.run_ensemble(cfg, 11, workers=w) for w in (2, 4)}
        finally:
            sys.setswitchinterval(interval)
        for workers, other in others.items():
            for name in (*TABLES, "mean_error", "var_error"):
                assert np.array_equal(
                    getattr(ref, name), getattr(other, name)
                ), (name, workers)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_failing_slice_stops_every_slice(self, monkeypatch, failing):
        """A slice that raises wakes the others; the caller re-raises."""
        baseline = threading.active_count()
        real = sim._advance
        slice_rows = (3, 4)  # 7 runs on 2 workers

        def advance(ring, r, delays, plan):
            if delays.shape[0] == slice_rows[failing]:
                raise RuntimeError("slice failed")
            real(ring, r, delays, plan)

        monkeypatch.setattr(sim, "_advance", advance)
        cfg = make_config(num_pes=6, q=3, steps=5_000)
        caught = _raised_within(lambda: ah.run_ensemble(cfg, 7, workers=2))
        assert [str(e) for e in caught] == ["slice failed"]
        assert threading.active_count() == baseline

    def test_thread_that_cannot_start_stops_the_batch(self, monkeypatch):
        baseline = threading.active_count()
        real = threading.Thread.start
        calls = []

        def start(thread):
            calls.append(thread)
            if len(calls) == 2:
                raise RuntimeError("can't start new thread")
            real(thread)

        def call():
            # patched only once the test's own thread is running
            monkeypatch.setattr(threading.Thread, "start", start)
            try:
                ah.run_ensemble(make_config(steps=5_000), 7, workers=3)
            finally:
                monkeypatch.undo()

        caught = _raised_within(call)
        assert [str(e) for e in caught] == ["can't start new thread"]
        assert threading.active_count() == baseline

    def test_peak_memory_is_one_augmented_array(self):
        """The sums are kept for block 0 only, batches merge in place, and
        no per-run norm array is allocated."""
        runs, steps, workers = 64, 3000, 2
        cfg = make_config(num_pes=40, q=3, steps=steps)
        dim, edges = cfg.aspec.dim, cfg.aspec.num_edges
        chunk = min(sim._CHUNK_STEPS, steps)
        augmented = (steps + 1) * dim * 8
        # the state ring and the err and err*err rings (window + q rows a
        # run, 2.2 MB here, inside the first and third terms), uint8
        # delays and each slice's uniforms
        batch = (sim._FOLD_BYTES + chunk * runs * edges
                 + 4 * runs * dim * 8 + workers * chunk * edges * 8)
        tracemalloc.start()
        try:
            ah.run_ensemble(cfg, runs, workers=workers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < augmented + batch

    def test_memory_does_not_grow_with_runs(self, monkeypatch):
        """Ten times the runs add only the kept per-run norms."""
        monkeypatch.setattr(sim, "_BATCH_RUNS", 64)
        steps, kept = 1000, (0, 500, 1000)
        cfg = make_config(num_pes=40, q=3, steps=steps, epsilons=(0.01, 1.0))
        peaks = {}
        for runs in (64, 640):
            tracemalloc.start()
            try:
                ah.run_ensemble(cfg, runs, norm_steps=kept)
                _, peaks[runs] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        columns = len(kept) * (640 - 64) * 8
        assert peaks[640] - peaks[64] < columns + (64 << 10)

    def test_tables_are_computed_once_and_read_only(self):
        cfg = make_config(num_pes=6, q=3, steps=30, epsilons=(0.01, 1.0))
        res = ah.run_ensemble(cfg, 9, norm_steps=(30,))
        assert res.mean_error_norm is res.mean_error_norm
        for table in (*(getattr(res, name) for name in TABLES),
                      res.mean_error_norm, res.norms_at[30]):
            assert not table.flags.writeable
        assert res.exceedance_table.shape == (31, 2)
        no_eps = ah.run_ensemble(make_config(steps=10), 3)
        assert no_eps.exceedance_table.shape == (11, 0)

    def test_mean_error_agrees_with_direct_average(self):
        cfg = make_config(num_pes=4, q=2, steps=15)
        res = ah.run_ensemble(cfg, 5)
        ramp = ah.steady_state_profile(cfg.aspec.grid, cfg.bc)
        xss = np.tile(ramp, 2)
        # replay each run individually and average the final errors
        finals = []
        for i in range(5):
            rng = np.random.default_rng(run_seed_sequence(cfg.seed, i))
            state = init_state(cfg.initial, 2)
            for _ in range(15):
                state = ah.async_step(
                    state, sample_delays(rng, cfg.dist), cfg.aspec
                )
            finals.append(state.ravel() - xss)
        assert np.allclose(
            res.mean_error[-1], np.mean(finals, axis=0), rtol=0, atol=1e-15
        )


# Reference engine: the per-step fancy-indexed update and broadcast-compare
# delay sampling that the batch engine replaced. The batch engine must
# reproduce its outputs bit for bit.
_REF_CHUNK_STEPS = 256


class _RefStencilPlan:
    """Precomputed index arrays for the vectorized buffered update."""

    def __init__(self, aspec):
        g = aspec.grid
        nn = g.total_points
        interior = np.arange(1, nn - 1)
        edges = zip(*(a.tolist() for a in aspec.edge_arrays))
        edge_index = {edge: e for e, edge in enumerate(edges)}
        # per interior point: index of the edge supplying each neighbor
        # read, or -1 when the read is within-PE (delay 0)
        left_edge = np.array(
            [edge_index.get((i, i - 1), -1) for i in interior]
        )
        right_edge = np.array(
            [edge_index.get((i, i + 1), -1) for i in interior]
        )
        self.nn = nn
        self.q = aspec.buffer_len
        self.r = g.r
        self.interior = interior
        self.left_edge = left_edge
        self.right_edge = right_edge
        self.num_edges = aspec.num_edges


def _ref_advance(hist, delays, plan):
    """One buffered update for a batch: hist is (runs, q, Nn)."""
    runs = hist.shape[0]
    n_int = plan.interior.shape[0]
    dl = np.zeros((runs, n_int), dtype=np.intp)
    dr = np.zeros((runs, n_int), dtype=np.intp)
    lmask = plan.left_edge >= 0
    rmask = plan.right_edge >= 0
    dl[:, lmask] = delays[:, plan.left_edge[lmask]]
    dr[:, rmask] = delays[:, plan.right_edge[rmask]]
    rows = np.arange(runs)[:, None]
    left = hist[rows, dl, (plan.interior - 1)[None, :]]
    right = hist[rows, dr, (plan.interior + 1)[None, :]]
    new = hist[:, 0].copy()  # Dirichlet endpoints carried over
    new[:, plan.interior] = (
        (1.0 - 2.0 * plan.r) * hist[:, 0, plan.interior]
        + plan.r * left
        + plan.r * right
    )
    out = np.empty_like(hist)
    out[:, 0] = new
    out[:, 1:] = hist[:, :-1]
    return out


def _ref_simulate_batch(cfg, seeds, snapshot_steps=()):
    aspec = cfg.aspec
    plan = _RefStencilPlan(aspec)
    runs = len(seeds)
    q, nn = aspec.buffer_len, plan.nn
    d = aspec.dim
    ramp = steady_state_profile(aspec.grid, cfg.bc)
    xss = np.tile(ramp, q)

    hist = np.tile(cfg.initial, (runs, q, 1))
    rngs = [np.random.default_rng(s) for s in seeds]
    cdf = cfg.dist.cdf

    steps = cfg.steps
    error_norms = np.empty((runs, steps + 1))
    inf_norms = np.empty((runs, steps + 1))
    sum_error = np.empty((steps + 1, d))
    sumsq_error = np.empty((steps + 1, d))
    snapshot_steps = set(snapshot_steps)
    snapshots = {}

    def record(k):
        err = hist.reshape(runs, d) - xss
        error_norms[:, k] = np.linalg.norm(err, axis=1)
        inf_norms[:, k] = np.abs(err).max(axis=1)
        sum_error[k] = err.sum(axis=0)
        sumsq_error[k] = (err**2).sum(axis=0)
        if k in snapshot_steps:
            snapshots[k] = hist[0, 0].copy()

    record(0)
    k = 0
    while k < steps:
        chunk = min(_REF_CHUNK_STEPS, steps - k)
        if plan.num_edges > 0:
            u = np.stack([rng.random((chunk, plan.num_edges)) for rng in rngs])
            delays = (u[..., None] >= cdf[None, None, :, :-1]).sum(axis=-1)
        else:
            delays = np.zeros((runs, chunk, 0), dtype=np.intp)
        for t in range(chunk):
            hist = _ref_advance(hist, delays[:, t], plan)
            k += 1
            record(k)
    return error_norms, inf_norms, sum_error, sumsq_error, snapshots


def _skewed_dist():
    """Per-edge rows that differ, one of them degenerate."""
    return ah.SwitchingDistribution(np.array([
        [0.55, 0.25, 0.12, 0.08],
        [0.0, 0.0, 0.0, 1.0],
        [0.1, 0.2, 0.3, 0.4],
        [0.25, 0.25, 0.25, 0.25],
        [0.7, 0.0, 0.3, 0.0],
        [0.05, 0.9, 0.0, 0.05],
    ]))


class TestEngineOracle:
    """The batch engine equals the reference engine bit for bit."""

    @pytest.mark.parametrize(
        "runs, workers",
        # 7 runs on 2 or 3 workers give uneven slices
        [(1, 1), (7, 1), (1, 2), (7, 2), (1, 3), (7, 3)],
        ids=["1", "7", "1-w2", "7-w2", "1-w3", "7-w3"],
    )
    @pytest.mark.parametrize(
        "kw, snaps",
        [
            (dict(num_pes=5, q=2, steps=50), (0, 25, 50)),
            (dict(num_pes=5, q=3, steps=0), (0,)),
            # the last fold window is a partial one
            (dict(num_pes=6, q=3, steps=3 * sim._FOLD_STEPS + 5, seed=9),
             (0, sim._FOLD_STEPS, 3 * sim._FOLD_STEPS + 5)),
            # 600 steps cross the 256-step sampling chunk boundary twice;
            # r != 0.5 makes the (1-2r)*u_i term, and so the operand
            # order of the update, visible in the last bits
            (dict(num_pes=6, q=3, steps=600, seed=41, r=0.4),
             (0, 256, 257, 600)),
            (dict(num_pes=8, q=1, steps=200), (200,)),
            (dict(num_pes=4, points_per_pe=4, q=4, steps=300, seed=3, r=0.3,
                  dist=_skewed_dist()), (0, 300)),
        ],
        ids=["N5q2", "N5q3-0", "N6q3-fold", "N6q3-600", "N8q1",
             "4x4q4-skewed"],
    )
    def test_matches_reference_engine(self, kw, snaps, runs, workers):
        cfg = make_config(**kw)
        seeds = [run_seed_sequence(cfg.seed, i) for i in range(runs)]
        got = sim._simulate_batch(cfg, seeds, snaps, workers)
        want = _ref_simulate_batch(cfg, seeds, snaps)
        for g, w in zip(got[:4], want[:4]):
            assert np.array_equal(g, w)
        assert got[4].keys() == want[4].keys() == set(snaps)
        for k in snaps:
            assert np.array_equal(got[4][k], want[4][k])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "fold, kw",
        [
            # _FOLD_BYTES = 0 gives window = 1: every step starts a window
            # and the carry of the q newest rows to the tail overlaps
            (dict(_FOLD_BYTES=0), dict(num_pes=6, q=3, steps=40)),
            # window 2 < q = 4: the carry overlaps too
            (dict(_FOLD_STEPS=2),
             dict(num_pes=4, points_per_pe=4, q=4, steps=61, seed=3, r=0.3,
                  dist=_skewed_dist())),
            # steps = 8 windows of 5: the last window holds one step
            (dict(_FOLD_STEPS=5), dict(num_pes=6, q=3, steps=40, seed=9)),
        ],
        ids=["window1", "window2-q4", "steps-multiple"],
    )
    def test_ring_wraps(self, monkeypatch, fold, kw, workers):
        """The latest-first ring wraps at every window size."""
        for name, value in fold.items():
            monkeypatch.setattr(sim, name, value)
        snaps = (0, 1, kw["steps"])
        self.test_matches_reference_engine(kw, snaps, 7, workers)


class TestWindowRecord:
    """The record at each window's end equals the reference engine's
    per-step record at every step, with a snapshot at every step."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "fold, kw",
        # 27 steps from step 0: windows of 2 and 5 leave a partial last one
        [
            (dict(_FOLD_BYTES=0), dict(num_pes=6, q=3, steps=26)),
            (dict(_FOLD_STEPS=2),
             dict(num_pes=4, points_per_pe=4, q=4, steps=26, seed=3, r=0.3,
                  dist=_skewed_dist())),
            (dict(_FOLD_STEPS=5), dict(num_pes=6, q=3, steps=26, seed=9,
                                       r=0.4)),
        ],
        ids=["window1", "window2-q4", "window5"],
    )
    def test_every_step_matches_reference(self, monkeypatch, fold, kw,
                                          workers):
        for name, value in fold.items():
            monkeypatch.setattr(sim, name, value)
        TestEngineOracle().test_matches_reference_engine(
            kw, range(kw["steps"] + 1), 7, workers
        )


class TestGatherLayouts:
    """Stencils without cross-PE edges, and with within-PE reads too."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "kw",
        [
            dict(num_pes=1, points_per_pe=7, q=3, steps=40, r=0.3),
            dict(num_pes=5, points_per_pe=2, q=3, steps=70, seed=5, r=0.4),
        ],
        ids=["one-pe", "two-points-per-pe"],
    )
    def test_matches_reference_engine(self, kw, workers):
        snaps = (0, 1, kw["steps"])
        TestEngineOracle().test_matches_reference_engine(kw, snaps, 7, workers)


# The stencil plans of TestStencilKernel: every interior read an edge,
# within-PE reads too, no edge at all, and a one-row history.
_KERNEL_PLANS = dict(
    all_edge=dict(num_pes=6, q=3),
    two_points_per_pe=dict(num_pes=4, points_per_pe=2, q=3),
    one_pe=dict(num_pes=1, points_per_pe=7, q=3),
    q1=dict(num_pes=6, q=1),
)


class TestStencilKernel:
    """``_advance``'s CSR product on a step-major ring, against the
    reference update, and the indices that the unchecked kernel reads."""

    runs, window = 5, 3

    @pytest.mark.parametrize("r", [0.5, 0.3])
    @pytest.mark.parametrize("kw", _KERNEL_PLANS.values(),
                             ids=_KERNEL_PLANS.keys())
    def test_matches_reference_bit_for_bit(self, kw, r):
        """Signed zeros count: at r = 1/2, (1-2r)*u is +0.0 or -0.0."""
        aspec = make_config(r=r, **kw).aspec
        q, nn = aspec.buffer_len, aspec.grid.total_points
        rows = self.window + q
        rng = np.random.default_rng(11)
        plan = sim._StencilPlan(aspec, self.runs, rows)
        ref = _RefStencilPlan(aspec)
        for row in range(self.window):
            ring = rng.standard_normal((rows, self.runs, nn))
            zeros = rng.random(ring.shape)
            ring[zeros < 0.4] = -0.0
            ring[zeros > 0.8] = 0.0
            delays = rng.integers(0, q, (self.runs, aspec.num_edges),
                                  dtype=np.uint8)
            hist = ring[row + 1:row + 1 + q].transpose(1, 0, 2)
            want = _ref_advance(hist, delays, ref)[:, 0]
            before = ring.copy()
            sim._advance(ring, row, delays, plan)
            assert np.array_equal(ring[row].view(np.uint64),
                                  want.view(np.uint64))
            # only row ``row`` is written
            others = np.arange(rows) != row
            assert np.array_equal(ring[others].view(np.uint64),
                                  before[others].view(np.uint64))

    @pytest.mark.parametrize("kw", _KERNEL_PLANS.values(),
                             ids=_KERNEL_PLANS.keys())
    def test_indices_stay_in_the_ring(self, kw):
        aspec = make_config(**kw).aspec
        q, nn = aspec.buffer_len, aspec.grid.total_points
        rows = self.window + q
        plan = sim._StencilPlan(aspec, self.runs, rows)
        stride = plan.stride
        assert stride == self.runs * nn
        assert plan.indices.dtype == plan.indptr.dtype == np.int32
        # two entries for each interior row, none for an endpoint
        per_row = np.full(nn, 2)
        per_row[[0, -1]] = 0
        assert np.array_equal(np.diff(plan.indptr),
                              np.tile(per_row, self.runs))
        # every delay-0 index, within-PE or an edge's, lies in one row
        within = np.ones(len(plan.indices), dtype=bool)
        within[slice(None) if plan.slots is None else plan.slots] = False
        for delay0 in (plan.indices[within], plan.base):
            assert ((0 <= delay0) & (delay0 < stride)).all()
        # so a read with delay q-1 from row r+1 stays in the ring for
        # every row r < window that a step writes
        oldest = (q - 1) * stride + plan.base
        for row in range(self.window):
            assert ((row + 1) * stride + oldest < rows * stride).all()
        ring = np.zeros((rows, self.runs, nn))
        delays = np.full((self.runs, aspec.num_edges), q - 1, dtype=np.uint8)
        sim._advance(ring, self.window - 1, delays, plan)
        assert np.array_equal(plan.edge_indices, oldest)
        assert plan.indices.min() >= 0
        assert plan.indices.max() < q * stride

    def test_index_dtype(self):
        """int32 while every index of the ring fits in it; nothing is
        allocated."""
        assert sim._index_dtype(2**31 - 1) is np.int32
        assert sim._index_dtype(2**31) is np.intp


class TestStreamedTables:
    """The per-step tables equal the reference engine's per-run arrays,
    reduced over the runs as whole arrays, byte for byte."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "kw",
        # TestEngineOracle's configurations
        [
            dict(num_pes=5, q=2, steps=50),
            dict(num_pes=5, q=3, steps=0),
            dict(num_pes=6, q=3, steps=3 * sim._FOLD_STEPS + 5, seed=9),
            dict(num_pes=6, q=3, steps=600, seed=41, r=0.4),
            dict(num_pes=8, q=1, steps=200),
            dict(num_pes=4, points_per_pe=4, q=4, steps=300, seed=3, r=0.3,
                 dist=_skewed_dist()),
        ],
        ids=["N5q2", "N5q3-0", "N6q3-fold", "N6q3-600", "N8q1",
             "4x4q4-skewed"],
    )
    def test_match_reference_arrays(self, monkeypatch, kw, workers, runs=7,
                                    batch_runs=3):
        monkeypatch.setattr(sim, "_BATCH_RUNS", batch_runs)
        cfg = make_config(epsilons=(1e-3, 0.05, 1.0), **kw)
        steps = cfg.steps
        kept = sorted({0, steps // 2, steps})
        res = ah.run_ensemble(cfg, runs, workers=workers, norm_steps=kept)
        seeds = [run_seed_sequence(cfg.seed, i) for i in range(runs)]
        norms, inf_norms, _, _, _ = _ref_simulate_batch(cfg, seeds)
        squared = norms**2
        assert np.array_equal(res.mean_sq_error, squared.mean(axis=0))
        assert np.array_equal(res.exceedance_table, np.stack(
            [(squared > e).mean(axis=0) for e in cfg.epsilons], axis=1
        ))
        assert np.array_equal(res.max_inf_error, inf_norms.max(axis=0))
        for k in kept:
            assert np.array_equal(res.norms_at[k], norms[:, k])
        # in row chunks, as np.linalg.norm computes each row
        assert np.array_equal(
            res.mean_error_norm, np.linalg.norm(res.mean_error, axis=1)
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_step_windows_keep_run_order(self, monkeypatch, workers):
        """Windows of one step fold 20-run slices, where a plain axis-0
        sum over the runs would go pairwise."""
        monkeypatch.setattr(sim, "_FOLD_BYTES", 0)
        self.test_match_reference_arrays(
            monkeypatch, dict(num_pes=6, q=3, steps=30, seed=4), workers,
            runs=45, batch_runs=40,
        )


class TestFoldPair:
    """A caller's reduce/fold pair sees every window of per-run norms:
    reduce on each slice, then fold in run order."""

    @pytest.mark.parametrize("first", [0, 5])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    # _FOLD_BYTES = 0 gives window = 1; the default gives a partial last
    # window
    @pytest.mark.parametrize("fold_bytes", [sim._FOLD_BYTES, 0],
                             ids=["windows", "window1"])
    def test_fourth_powers_sum_in_run_order(self, monkeypatch, fold_bytes,
                                            workers, first, runs=7):
        monkeypatch.setattr(sim, "_FOLD_BYTES", fold_bytes)
        cfg = make_config(num_pes=6, q=3, steps=3 * sim._FOLD_STEPS + 5,
                          seed=9)
        steps, q = cfg.steps, cfg.aspec.buffer_len
        seeds = [run_seed_sequence(cfg.seed, first + i) for i in range(runs)]
        sums = np.zeros((2, steps + q, cfg.aspec.grid.total_points))
        fourth = np.zeros(steps + 1)
        folded = []  # (first run, last run + 1, step) of every fold

        def reduce(done, mine, norms, maxima):
            shape = (mine.stop - mine.start, done.stop - done.start)
            assert norms.shape == maxima.shape == shape
            return mine, np.square(np.square(norms))

        def fold(done, part):
            mine, powers = part
            folded.extend((mine.start, mine.stop, k)
                          for k in range(done.start, done.stop))
            for row in powers:
                fourth[done] += row

        sim._simulate_batch(cfg, seeds, (), workers, (sums, reduce, fold),
                            first)
        want = np.zeros(steps + 1)
        for row in _ref_simulate_batch(cfg, seeds)[0]:
            want += np.square(np.square(row))
        assert np.array_equal(fourth, want)
        bounds = [first + runs * i // workers for i in range(workers + 1)]
        assert sorted(folded) == [
            (lo, hi, k) for lo, hi in zip(bounds, bounds[1:])
            for k in range(steps + 1)
        ]


class TestBlockZeroViews:
    """mean_error and var_error are read-only views of block-0 rows."""

    @pytest.mark.parametrize(
        "kw, runs, batch_runs",
        [
            (dict(num_pes=6, q=3, steps=40), 7, 512),
            (dict(num_pes=6, q=1, steps=40), 7, 512),
            (dict(num_pes=6, q=3, steps=0), 7, 512),
            (dict(num_pes=6, q=3, steps=40), 7, 3),
            (dict(num_pes=6, q=3, steps=40), 1, 512),
        ],
        ids=["q3", "q1", "steps0", "batches-of-3", "one-run"],
    )
    def test_views_hold_the_merged_block0_sums(self, monkeypatch, kw, runs,
                                               batch_runs):
        monkeypatch.setattr(sim, "_BATCH_RUNS", batch_runs)
        cfg = make_config(**kw)
        res = ah.run_ensemble(cfg, runs)
        q, nn = cfg.aspec.buffer_len, cfg.aspec.grid.total_points
        for stat in (res.mean_error, res.var_error):
            assert stat.shape == (cfg.steps + 1, cfg.aspec.dim)
            # rows overlap, so a write would change other steps
            assert not stat.flags.writeable
            with pytest.raises(ValueError):
                stat[-1, 0] = 1.0
            for k in range(cfg.steps + 1):
                blocks = [stat[max(k - b, 0), :nn] for b in range(q)]
                assert np.array_equal(stat[k], np.concatenate(blocks))
        # the bytes of one whole-run sum, whatever the batches, and then
        # of (sumsq - n*mean**2) / (n-1) out of place
        seeds = [run_seed_sequence(cfg.seed, i) for i in range(runs)]
        _, _, total, total_sq, _ = _ref_simulate_batch(cfg, seeds)
        mean = total / runs
        if runs > 1:
            var = (total_sq - runs * mean**2) / (runs - 1)
            var = np.maximum(var, 0.0)
        else:
            var = np.zeros_like(mean)
        assert np.array_equal(res.mean_error, mean)
        assert np.array_equal(res.var_error, var)


class TestSyncReference:
    @pytest.mark.parametrize("r", [0.5, 0.4])
    def test_error_matches_matrix_powers(self, r):
        """Each row of A summed in grid-position order, as the simulator
        sums it."""
        cfg = make_config(num_pes=6, q=2, steps=30, r=r)
        traj = ah.run_sync_reference(cfg)
        a = ah.build_sync_matrix(cfg.aspec.grid)
        ramp = ah.steady_state_profile(cfg.aspec.grid, cfg.bc)
        u = cfg.initial.copy()
        for k in range(31):
            assert traj.error_norms[k] == np.linalg.norm(u - ramp)
            u = mode_product(a, u, 1)


# the sync reference at N=100, r = 0.4 under one OpenBLAS kernel: the
# sha256 of its states, of its inf norms and of its error norms
_KERNEL_RUN = """
import hashlib
import numpy as np
import asyncheat as ah
steps = 3000
spec = ah.GridSpec(num_pes=100, points_per_pe=1, dx=1.0, dt=0.4, alpha=1.0)
aspec = ah.AugmentedSpec(grid=spec, buffer_len=1)
cfg = ah.RunConfig(
    aspec=aspec, dist=ah.SwitchingDistribution.uniform(aspec),
    initial=ah.cos2_initial_condition(spec),
    bc=ah.BoundaryConditions(1.0, 0.0), steps=steps, seed=0)
sync = ah.run_sync_reference(cfg, snapshot_steps=range(steps + 1))
states = np.stack([sync.snapshots[k] for k in range(steps + 1)])
for a in (states, sync.inf_norms, sync.error_norms):
    print(hashlib.sha256(a.tobytes()).hexdigest())
"""

# kernels that every x86-64 CPU runs, and the one OpenBLAS picks itself
_CORETYPES = ("Prescott", "Nehalem", None)


def _openblas_dynamic_arch() -> bool:
    """Whether numpy reports an OpenBLAS that picks its kernels at run
    time, the only kind that reads OPENBLAS_CORETYPE."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 reports no dicts
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.fixture(scope="module")
def kernel_digests():
    """(states, inf norms, error norms) digests under each of
    ``_CORETYPES``, each from a fresh interpreter."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OPENBLAS_CORETYPE names x86-64 kernels")
    if not _openblas_dynamic_arch():
        pytest.skip("numpy reports no DYNAMIC_ARCH OpenBLAS")
    src = str(Path(ah.__file__).resolve().parents[1])
    digests = {}
    for coretype in _CORETYPES:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        run = subprocess.run([sys.executable, "-c", _KERNEL_RUN], env=env,
                             capture_output=True, text=True, check=True)
        digests[coretype] = tuple(run.stdout.split())
    return digests


def test_sync_states_do_not_depend_on_the_blas_kernel(kernel_digests):
    """The sync states and inf norms have the same bytes under every
    OpenBLAS kernel: no BLAS call computes them."""
    assert len({d[:2] for d in kernel_digests.values()}) == 1


@pytest.mark.xfail(strict=True, reason=(
    "the sync error norm is np.linalg.norm, a BLAS ddot whose kernels "
    "add in different orders; a BLAS-free norm changes the pinned "
    "sync_trajectory.csv goldens (the open half of ROADMAP item 25)"))
def test_sync_error_norms_do_not_depend_on_the_blas_kernel(kernel_digests):
    assert len({d[2] for d in kernel_digests.values()}) == 1
