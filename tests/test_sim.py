import sys
import threading
import tracemalloc

import numpy as np
import pytest

import asyncheat as ah
from asyncheat import sim
from asyncheat.grid import steady_state_profile
from asyncheat.sim import run_seed_sequence
from conftest import exact_spec


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


class TestState:
    def test_init_state_replicates(self):
        u = np.arange(5.0)
        state = ah.init_state(u, 3)
        assert state.history.shape == (3, 5)
        assert np.array_equal(state.augmented, np.tile(u, 3))
        assert np.array_equal(state.newest, u)
        assert state.step == 0

    def test_first_step_is_synchronous_for_any_delays(self):
        # all buffers start identical, so delayed reads see the same values
        spec = exact_spec(6, r=0.25)
        aspec = ah.AugmentedSpec(grid=spec, buffer_len=3)
        a = ah.build_sync_matrix(spec)
        u = np.random.default_rng(2).uniform(0, 1, 6)
        state = ah.init_state(u, 3)
        for delays in [(0,) * 8, (2,) * 8, (1, 0, 2, 1, 0, 2, 1, 0)]:
            nxt = ah.async_step(state, delays, aspec)
            assert np.array_equal(nxt.newest, a @ u)
            assert np.array_equal(nxt.history[1], u)
            assert nxt.step == 1

    def test_rejects_wrong_pattern_length(self):
        aspec = ah.AugmentedSpec(grid=exact_spec(4), buffer_len=2)
        state = ah.init_state(np.zeros(4), 2)
        with pytest.raises(ValueError):
            ah.async_step(state, (0,), aspec)

    def test_rejects_out_of_range_delays(self):
        aspec = ah.AugmentedSpec(grid=exact_spec(4), buffer_len=2)
        state = ah.init_state(np.zeros(4), 2)
        for delays in [(0, 2, 0, 0), (0, -1, 0, 0)]:
            with pytest.raises(ValueError):
                ah.async_step(state, delays, aspec)


class TestSampleDelays:
    def test_frequencies_match_probabilities(self):
        probs = np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
        dist = ah.SwitchingDistribution(probs)
        rng = np.random.default_rng(99)
        n = 100_000
        draws = np.stack([ah.sample_delays(rng, dist) for _ in range(n)])
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
            assert ah.sample_delays(rng, dist)[0] == 2


class TestTrajectory:
    def test_matches_per_step_reference_loop(self):
        """Chunked pre-sampling must reproduce the naive per-step loop."""
        cfg = make_config(num_pes=6, q=3, steps=600, seed=41)
        traj = ah.run_trajectory(cfg, snapshot_steps=(600,))

        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed))
        state = ah.init_state(cfg.initial, 3)
        ramp = ah.steady_state_profile(cfg.aspec.grid, cfg.bc)
        xss = np.tile(ramp, 3)
        norms = [np.linalg.norm(state.augmented - xss)]
        for _ in range(cfg.steps):
            delays = ah.sample_delays(rng, cfg.dist)
            state = ah.async_step(state, delays, cfg.aspec)
            norms.append(np.linalg.norm(state.augmented - xss))
        # states are bit-identical; the norm reduction differs by <= 2 ulp
        assert np.array_equal(traj.snapshots[600], state.newest)
        assert np.allclose(traj.error_norms, norms, rtol=1e-15, atol=0)

    def test_matches_mode_matrix_products(self):
        """The simulator is bit-identical to explicit matrix switching."""
        cfg = make_config(num_pes=5, q=2, steps=100, seed=13)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed))
        state = ah.init_state(cfg.initial, 2)
        x = state.augmented.copy()
        for _ in range(100):
            delays = ah.sample_delays(rng, cfg.dist)
            state = ah.async_step(state, delays, cfg.aspec)
            x = ah.build_mode_matrix(cfg.aspec, delays).w @ x
            assert np.array_equal(state.augmented, x)

    def test_q1_equals_sync_reference(self):
        cfg = make_config(num_pes=8, q=1, steps=200)
        traj = ah.run_trajectory(cfg, snapshot_steps=(200,))
        sync = ah.run_sync_reference(cfg, snapshot_steps=(200,))
        # with q = 1 the augmented error is the grid error; states are
        # bit-identical, the norm reduction path differs by <= 2 ulp
        assert np.array_equal(traj.snapshots[200], sync.snapshots[200])
        assert np.allclose(traj.error_norms, sync.error_norms, rtol=1e-15, atol=0)
        assert np.array_equal(traj.inf_norms, sync.inf_norms)

    def test_snapshots_recorded(self):
        cfg = make_config(steps=10)
        traj = ah.run_trajectory(cfg, snapshot_steps=(0, 5, 10))
        assert set(traj.snapshots) == {0, 5, 10}
        assert np.array_equal(traj.snapshots[0], cfg.initial)
        for snap in traj.snapshots.values():
            assert snap.shape == (5,)
            assert snap[0] == 1.0 and snap[-1] == 0.0

    def test_zero_steps(self):
        cfg = make_config(steps=0)
        traj = ah.run_trajectory(cfg)
        assert traj.error_norms.shape == (1,)

    def test_error_decreases_in_the_long_run(self):
        cfg = make_config(num_pes=10, q=3, steps=2000, seed=5)
        traj = ah.run_trajectory(cfg)
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

    def test_batch_size_and_workers_invariance(self):
        cfg = make_config(steps=60, epsilons=(1e-4, 1e-2, 1.0))
        ref = ah.run_ensemble(cfg, 10, batch_size=512, norm_steps=(0, 60))
        small = ah.run_ensemble(cfg, 10, batch_size=3, norm_steps=(0, 60))
        # the tables fold the runs in run order, across batches too
        for batch_size in (3, 512):
            for workers in (1, 2, 4):
                other = ah.run_ensemble(cfg, 10, batch_size=batch_size,
                                        workers=workers, norm_steps=(0, 60))
                for name in TABLES:
                    assert np.array_equal(
                        getattr(ref, name), getattr(other, name)
                    ), (name, batch_size, workers)
                for k in (0, 60):
                    assert np.array_equal(ref.norms_at[k], other.norms_at[k])
                assert np.allclose(
                    ref.mean_error, other.mean_error, rtol=0, atol=1e-15
                )
                # the cross-batch sum depends on the partition, not on
                # the workers
                same = small if batch_size == 3 else ref
                assert np.array_equal(same.mean_error, other.mean_error)
                assert np.array_equal(same.var_error, other.var_error)

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
            if ring.shape[0] == slice_rows[failing]:
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

    def test_memory_does_not_grow_with_runs(self):
        """Ten times the runs add only the kept per-run norms."""
        steps, kept = 1000, (0, 500, 1000)
        cfg = make_config(num_pes=40, q=3, steps=steps, epsilons=(0.01, 1.0))
        peaks = {}
        for runs in (64, 640):
            tracemalloc.start()
            try:
                ah.run_ensemble(cfg, runs, batch_size=64, norm_steps=kept)
                _, peaks[runs] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        columns = len(kept) * (640 - 64) * 8
        # a second batch needs the spare block-0 sums (2, steps+q, Nn)
        spare = 2 * (steps + 3) * cfg.aspec.grid.total_points * 8
        assert peaks[640] - peaks[64] < columns + spare + (64 << 10)

    def test_tables_are_computed_once_and_read_only(self):
        cfg = make_config(num_pes=6, q=3, steps=30, epsilons=(0.01, 1.0))
        res = ah.run_ensemble(cfg, 9, norm_steps=(30,))
        assert res.mean_error_norm is res.mean_error_norm
        for table in (*(getattr(res, name) for name in TABLES),
                      res.mean_error_norm, res.norms_at[30]):
            assert not table.flags.writeable
        assert np.array_equal(
            res.exceedance_table,
            np.stack([res.exceedance(e) for e in cfg.epsilons], axis=1),
        )

    def test_exceedance_needs_a_configured_epsilon(self):
        res = ah.run_ensemble(make_config(steps=10, epsilons=(0.01,)), 3)
        assert res.exceedance(0.01).shape == (11,)
        for eps in (0.5, 0.010000000000000002):
            with pytest.raises(ValueError, match="configured"):
                res.exceedance(eps)
        no_eps = ah.run_ensemble(make_config(steps=10), 3)
        assert no_eps.exceedance_table.shape == (11, 0)
        with pytest.raises(ValueError):
            no_eps.exceedance(0.01)

    def test_mean_error_agrees_with_direct_average(self):
        cfg = make_config(num_pes=4, q=2, steps=15)
        res = ah.run_ensemble(cfg, 5)
        ramp = ah.steady_state_profile(cfg.aspec.grid, cfg.bc)
        xss = np.tile(ramp, 2)
        # replay each run individually and average the final errors
        finals = []
        for i in range(5):
            rng = np.random.default_rng(run_seed_sequence(cfg.seed, i))
            state = ah.init_state(cfg.initial, 2)
            for _ in range(15):
                state = ah.async_step(
                    state, ah.sample_delays(rng, cfg.dist), cfg.aspec
                )
            finals.append(state.augmented - xss)
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
        edge_index = {edge: e for e, edge in enumerate(aspec.edges)}
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
    def test_match_reference_arrays(self, kw, workers, runs=7,
                                    batch_size=3):
        cfg = make_config(epsilons=(1e-3, 0.05, 1.0), **kw)
        steps = cfg.steps
        kept = sorted({0, steps // 2, steps})
        res = ah.run_ensemble(cfg, runs, workers=workers,
                              batch_size=batch_size, norm_steps=kept)
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
            dict(num_pes=6, q=3, steps=30, seed=4), workers, runs=45,
            batch_size=40,
        )


class TestBlockZeroViews:
    """mean_error and var_error are read-only views of block-0 rows."""

    @pytest.mark.parametrize(
        "kw, runs, batch_size",
        [
            (dict(num_pes=6, q=3, steps=40), 7, 512),
            (dict(num_pes=6, q=1, steps=40), 7, 512),
            (dict(num_pes=6, q=3, steps=0), 7, 512),
            (dict(num_pes=6, q=3, steps=40), 7, 3),
            (dict(num_pes=6, q=3, steps=40), 1, 512),
        ],
        ids=["q3", "q1", "steps0", "batches-of-3", "one-run"],
    )
    def test_views_hold_the_merged_block0_sums(self, kw, runs, batch_size):
        cfg = make_config(**kw)
        res = ah.run_ensemble(cfg, runs, batch_size=batch_size)
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
        # the bytes of adding whole batch sums and then computing
        # (sumsq - n*mean**2) / (n-1) out of place
        seeds = [run_seed_sequence(cfg.seed, i) for i in range(runs)]
        batches = [
            _ref_simulate_batch(cfg, seeds[lo:lo + batch_size])
            for lo in range(0, runs, batch_size)
        ]
        mean = sum(b[2] for b in batches) / runs
        if runs > 1:
            var = (sum(b[3] for b in batches) - runs * mean**2) / (runs - 1)
            var = np.maximum(var, 0.0)
        else:
            var = np.zeros_like(mean)
        assert np.array_equal(res.mean_error, mean)
        assert np.array_equal(res.var_error, var)


class TestSyncReference:
    def test_error_matches_matrix_powers(self):
        cfg = make_config(num_pes=6, q=2, steps=30)
        traj = ah.run_sync_reference(cfg)
        a = ah.build_sync_matrix(cfg.aspec.grid)
        ramp = ah.steady_state_profile(cfg.aspec.grid, cfg.bc)
        u = cfg.initial.copy()
        for k in range(31):
            assert traj.error_norms[k] == np.linalg.norm(u - ramp)
            u = a @ u
