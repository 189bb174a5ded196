import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asyncheat as ah
from asyncheat.grid import GridSpec
from conftest import exact_spec
from oracles import enumerated_expected_matrix, init_state


def paper_example_modes(r=0.5):
    """The four 6x6 mode matrices of the N=3, n=1, q=2 system."""
    shift = np.zeros((6, 6))
    shift[3:, :3] = np.eye(3)

    def top(row1):
        m = shift.copy()
        m[0, 0] = 1.0
        m[2, 2] = 1.0
        m[1] = row1
        return m

    w1 = top([r, 1 - 2 * r, r, 0, 0, 0])
    w2 = top([0, 1 - 2 * r, r, r, 0, 0])
    w3 = top([r, 1 - 2 * r, 0, 0, 0, r])
    w4 = top([0, 1 - 2 * r, 0, r, 0, r])
    return [w1, w2, w3, w4]


@pytest.fixture
def aspec32():
    return ah.AugmentedSpec(grid=exact_spec(3), buffer_len=2)


def mode_stack(aspec):
    """All of ``aspec``'s mode matrices, one chunk of ``mode_batches``."""
    return next(ah.modes.mode_batches(aspec, aspec.mode_count))[1]


@pytest.fixture
def modes32(aspec32):
    """The (4, 6, 6) stack of the N=3, q=2 modes."""
    return mode_stack(aspec32)


class TestEnumerateModes:
    def test_matches_paper_example_as_set(self, modes32):
        ours = modes32
        expected = paper_example_modes()
        assert len(ours) == 4
        matched = [
            any(np.array_equal(w, e) for w in ours) for e in expected
        ]
        assert all(matched)
        assert np.array_equal(ours[0], expected[0])   # all-zero delays first
        assert np.array_equal(ours[-1], expected[-1])  # all-max delays last

    def test_q1_single_synchronous_mode(self):
        aspec = ah.AugmentedSpec(grid=exact_spec(5), buffer_len=1)
        ms = mode_stack(aspec)
        assert len(ms) == 1
        assert np.array_equal(ms[0], ah.build_sync_matrix(aspec.grid))

    def test_81_distinct_modes(self):
        aspec = ah.AugmentedSpec(grid=exact_spec(4), buffer_len=3)
        ms = mode_stack(aspec)
        assert len(ms) == 81
        for a, b in itertools.combinations(ms, 2):
            assert not np.array_equal(a, b)

    def test_cap_refused_with_count(self):
        aspec = ah.AugmentedSpec(grid=exact_spec(12), buffer_len=4)
        with pytest.raises(ah.ModeCountError, match=str(aspec.mode_count)):
            next(ah.modes.mode_batches(aspec, cap=1000))


BATCH_SHAPES = [(1, 4, 3), (3, 1, 1), (4, 4, 2), (6, 1, 3)]


class TestModeBatches:
    """The streamed chunks equal the per-pattern construction, in order."""

    @pytest.mark.parametrize("num_pes, points_per_pe, q", BATCH_SHAPES)
    def test_matches_product_order(self, num_pes, points_per_pe, q):
        aspec = ah.AugmentedSpec(
            grid=exact_spec(num_pes, points_per_pe), buffer_len=q
        )
        chunks = list(ah.modes.mode_batches(aspec, aspec.mode_count))
        patterns = [tuple(d) for delays, _ in chunks for d in delays.tolist()]
        assert patterns == list(
            itertools.product(range(q), repeat=aspec.num_edges)
        )
        sizes = [len(w) for _, w in chunks]
        assert len(sizes) == -(-aspec.mode_count // ah.modes._CHUNK_MODES)
        assert set(sizes[:-1]) <= {ah.modes._CHUNK_MODES}
        for delays, w in chunks:
            assert delays.dtype == np.intp
            assert w.shape == (len(delays), aspec.dim, aspec.dim)
            for d, wi in zip(delays, w):
                assert np.array_equal(wi, ah.build_mode_matrix(aspec, d))

    @pytest.mark.parametrize("num_pes, points_per_pe, q", BATCH_SHAPES)
    def test_stacked_eigenstructure_equals_per_mode(
        self, num_pes, points_per_pe, q
    ):
        aspec = ah.AugmentedSpec(
            grid=exact_spec(num_pes, points_per_pe), buffer_len=q
        )
        proj = ah.build_projector(aspec)
        w = next(ah.modes.mode_batches(aspec, aspec.mode_count))[1][:100]
        w[::3] *= 1.01  # every third matrix fails the check
        stacked = ah.verify_eigenstructure(w, proj)
        singles = [ah.verify_eigenstructure(wi, proj) for wi in w]
        assert not stacked.passed[0] and stacked.passed[1:3].all()
        for field in ("right_residuals", "left_residuals", "top_moduli"):
            for j, entry in enumerate(getattr(stacked, field)):
                assert entry.shape == (len(w),)
                assert np.array_equal(
                    entry, [getattr(r, field)[j] for r in singles]
                )
        for field in ("inf_norm", "passed"):
            assert np.array_equal(
                getattr(stacked, field), [getattr(r, field) for r in singles]
            )
            assert np.ndim(getattr(singles[0], field)) == 0

    @pytest.mark.parametrize("num_pes, points_per_pe, q", BATCH_SHAPES)
    def test_block_probability_equals_rows(self, num_pes, points_per_pe, q):
        aspec = ah.AugmentedSpec(
            grid=exact_spec(num_pes, points_per_pe), buffer_len=q
        )
        rng = np.random.default_rng(num_pes * 100 + points_per_pe * 10 + q)
        probs = rng.random((aspec.num_edges, q))
        probs /= probs.sum(axis=1, keepdims=True)
        dist = ah.SwitchingDistribution(probs)
        delays = next(ah.modes.mode_batches(aspec, aspec.mode_count))[0]
        block = ah.mode_probability(delays, dist)
        assert block.shape == (len(delays),)
        assert np.array_equal(
            block, [ah.mode_probability(d, dist) for d in delays]
        )
        if aspec.num_edges == 0:
            assert ah.mode_probability((), dist) == 1.0
            assert np.array_equal(block, [1.0])


class TestBuildModeMatrix:
    def test_zero_pattern_top_row_is_sync(self, aspec32):
        m = ah.build_mode_matrix(aspec32, (0, 0))
        a = ah.build_sync_matrix(aspec32.grid)
        assert np.array_equal(m[:3, :3], a)
        assert np.array_equal(m[:3, 3:], np.zeros((3, 3)))

    def test_left_delay_matches_paper_w2(self, aspec32):
        m = ah.build_mode_matrix(aspec32, (1, 0))
        assert np.array_equal(m, paper_example_modes()[1])

    def test_delay_out_of_range(self, aspec32):
        with pytest.raises(ValueError):
            ah.build_mode_matrix(aspec32, (2, 0))
        with pytest.raises(ValueError):
            ah.build_mode_matrix(aspec32, (0,))

    def test_matches_buffered_update_oracle(self):
        aspec = ah.AugmentedSpec(grid=exact_spec(5), buffer_len=3)
        rng = np.random.default_rng(11)
        for _ in range(50):
            delays = rng.integers(0, 3, aspec.num_edges)
            mode = ah.build_mode_matrix(aspec, delays)
            state = rng.standard_normal((3, 5))
            stepped = ah.async_step(state, delays, aspec).ravel()
            assert np.array_equal(stepped, mode @ state.ravel())

    def test_edge_layout_general_n(self):
        # 2 PEs x 3 points: only the PE boundary reads are delayed
        aspec = ah.AugmentedSpec(
            grid=exact_spec(2, points_per_pe=3), buffer_len=2
        )
        rows, nbs = aspec.edge_arrays
        assert rows.tolist() == [2, 3] and nbs.tolist() == [3, 2]
        m = ah.build_mode_matrix(aspec, (1, 1))
        r = aspec.grid.r
        nn = 6
        assert m[2, nn + 3] == r and m[2, 1] == r       # delayed right read
        assert m[3, nn + 2] == r and m[3, 4] == r       # delayed left read
        assert m[1, 0] == r and m[1, 2] == r            # within-PE reads


# Reference construction: the per-point edge loop, the loop-assembled mode
# matrix and the edge-patched expected matrix that the scatters onto
# ``AugmentedSpec.base`` replaced. The scatters must reproduce them bit for
# bit. Verbatim apart from reading the edge list from ``ref_edges`` and
# returning the bare matrix.
def ref_edges(aspec):
    g = aspec.grid
    out = []
    for i in range(1, g.total_points - 1):
        for nb in (i - 1, i + 1):
            if g.pe_of(nb) != g.pe_of(i):
                out.append((i, nb))
    return tuple(out)


def ref_build_mode_matrix(aspec, delays):
    edges = ref_edges(aspec)
    delays = tuple(int(d) for d in np.asarray(delays, dtype=int).ravel())
    q = aspec.buffer_len
    g = aspec.grid
    nn = g.total_points
    r = g.r
    w = np.zeros((aspec.dim, aspec.dim))
    for b in range(1, q):
        w[b * nn:(b + 1) * nn, (b - 1) * nn:b * nn] = np.eye(nn)
    w[0, 0] = 1.0
    w[nn - 1, nn - 1] = 1.0
    cross = set(edges)
    for i in range(1, nn - 1):
        w[i, i] = 1.0 - 2.0 * r
        for nb in (i - 1, i + 1):
            if (i, nb) not in cross:
                w[i, nb] = r
    for d, (i, nb) in zip(delays, edges):
        w[i, d * nn + nb] = r
    return w


def ref_expected_matrix(aspec, dist, proj):
    edges = ref_edges(aspec)
    nn = aspec.grid.total_points
    r = aspec.grid.r
    ew = ref_build_mode_matrix(aspec, (0,) * len(edges)).copy()
    for e, (i, nb) in enumerate(edges):
        ew[i, nb] = 0.0  # remove the zero-delay placement
        for d in range(aspec.buffer_len):
            ew[i, d * nn + nb] += r * dist.probs[e, d]
    return ew - proj.psi


class TestScatterOracle:
    """Mode matrices and Lambda equal the loop construction bit for bit."""

    @pytest.mark.parametrize("r", [0.5, 0.3])
    @pytest.mark.parametrize(
        "num_pes, points_per_pe, q",
        [(3, 2, 2), (5, 1, 3), (7, 1, 3), (4, 4, 4), (100, 1, 3),
         (10, 3, 2), (6, 2, 1)],
    )
    def test_matches_loop_construction(self, num_pes, points_per_pe, q, r):
        aspec = ah.AugmentedSpec(
            grid=exact_spec(num_pes, points_per_pe, r), buffer_len=q
        )
        edges = ref_edges(aspec)
        assert tuple(zip(*(a.tolist() for a in aspec.edge_arrays))) == edges
        assert aspec.num_edges == len(edges)
        rng = np.random.default_rng(num_pes * 100 + points_per_pe * 10 + q)
        patterns = [rng.integers(0, q, len(edges)) for _ in range(5)]
        patterns.append((q - 1,) * len(edges))
        for delays in patterns:
            got = ah.build_mode_matrix(aspec, delays)
            want = ref_build_mode_matrix(aspec, delays)
            assert np.array_equal(got, want)
        worst = ref_build_mode_matrix(aspec, (q - 1,) * len(edges))
        assert np.array_equal(ah.worst_case_mode(aspec), worst)
        proj = ah.build_projector(aspec)
        probs = rng.random((len(edges), q))
        probs /= probs.sum(axis=1, keepdims=True)
        dist = ah.SwitchingDistribution(probs)
        assert np.array_equal(
            ah.expected_matrix(aspec, dist, proj),
            ref_expected_matrix(aspec, dist, proj),
        )


class TestEdgeLayout:
    def test_computed_once_and_read_only(self):
        aspec = ah.AugmentedSpec(grid=exact_spec(5, 2), buffer_len=3)
        rows, nbs = aspec.edge_arrays
        assert aspec.edge_arrays is aspec.edge_arrays
        assert aspec.base is aspec.base
        for array in (aspec.base, rows, nbs):
            with pytest.raises(ValueError):
                array[0] = 1
        # a mode matrix is a writable copy that leaves the base intact
        base = aspec.base.copy()
        ah.build_mode_matrix(aspec, (2,) * aspec.num_edges)[0, 0] = 7.0
        assert np.array_equal(aspec.base, base)

    def test_no_edge_rederivation_per_mode(self, monkeypatch):
        calls = []
        real = GridSpec.pe_of

        def counted(self, point):
            calls.append(1)
            return real(self, point)

        monkeypatch.setattr(GridSpec, "pe_of", counted)
        aspec = ah.AugmentedSpec(grid=exact_spec(6), buffer_len=2)
        rng = np.random.default_rng(3)
        ah.build_mode_matrix(aspec, (0,) * aspec.num_edges)
        first = len(calls)
        assert first > 0
        for _ in range(1000):
            ah.build_mode_matrix(aspec, rng.integers(0, 2, aspec.num_edges))
        assert len(calls) == first

    @pytest.mark.parametrize(
        "delays",
        [(0, 0, 0), (0, 0, 0, 0, 0), (0, 2, 0, 0), (0, -1, 0, 0),
         (0, 0.5, 0, 0)],
        ids=["short", "long", "q", "minus-one", "fraction"],
    )
    def test_one_check_for_both_callers(self, delays):
        aspec = ah.AugmentedSpec(grid=exact_spec(4), buffer_len=2)
        state = init_state(np.zeros(4), 2)
        with pytest.raises(ValueError) as from_modes:
            ah.build_mode_matrix(aspec, delays)
        with pytest.raises(ValueError) as from_sim:
            ah.async_step(state, delays, aspec)
        assert str(from_modes.value) == str(from_sim.value)


class TestProjector:
    def test_selectors(self, aspec32):
        proj = ah.build_projector(aspec32)
        x = np.random.default_rng(5).standard_normal(6)
        assert proj.s1 @ x == x[0]
        assert proj.s2 @ x == x[2]

    def test_idempotent(self, aspec32):
        proj = ah.build_projector(aspec32)
        assert np.abs(proj.psi @ proj.psi - proj.psi).max() < 1e-15

    def test_projects_to_repeated_ramp(self, aspec32):
        proj = ah.build_projector(aspec32)
        x0 = np.array([2.0, 7.0, 5.0, 2.0, 7.0, 5.0])
        assert np.array_equal(
            proj.psi @ x0, [2.0, 3.5, 5.0, 2.0, 3.5, 5.0]
        )

    def test_commutes_with_every_mode(self, aspec32, modes32):
        proj = ah.build_projector(aspec32)
        for mode in modes32:
            assert np.abs(proj.psi @ mode - proj.psi).max() < 1e-12
            assert np.abs(mode @ proj.psi - proj.psi).max() < 1e-12


class TestDeflate:
    def test_annihilates_common_eigenvectors(self, aspec32, modes32):
        proj = ah.build_projector(aspec32)
        for mode in modes32:
            wt = ah.deflate(mode, proj)
            assert np.abs(wt @ proj.v1).max() < 1e-14
            assert np.abs(wt @ proj.v2).max() < 1e-14
            assert np.abs(proj.s1 @ wt).max() < 1e-14
            assert np.abs(proj.s2 @ wt).max() < 1e-14

    def test_spectrum_replaces_units_with_zeros(self, aspec32, modes32):
        proj = ah.build_projector(aspec32)
        w1 = modes32[0]
        before = np.sort(np.abs(np.linalg.eigvals(w1)))
        after = np.sort(np.abs(np.linalg.eigvals(ah.deflate(w1, proj))))
        # the two unit eigenvalues become zeros; the rest is unchanged
        assert before[-1] == pytest.approx(1.0, abs=1e-12)
        assert before[-2] == pytest.approx(1.0, abs=1e-12)
        survivors = before[:-2]
        kept = np.sort(after)[2:]
        assert np.allclose(np.sort(survivors), kept, atol=1e-10)
        assert after[0] < 1e-10 and after[1] < 1e-10

    def test_certificate_refuses_a_zero_psi(self, aspec32, modes32):
        # deflate only subtracts; the certificate is the stability gate,
        # and W - 0 keeps both unit eigenvalues
        proj = ah.build_projector(aspec32)
        bad = ah.SteadyStateProjector(
            psi=np.zeros((6, 6)), v1=proj.v1, v2=proj.v2, s1=proj.s1, s2=proj.s2
        )
        with pytest.raises(ah.analysis.LyapunovError):
            ah.solve_discrete_lyapunov(ah.deflate(modes32[0], bad))

    def test_spectral_radius_of_large_non_normal_matrix(self):
        # highly non-normal: the norms of its powers grow long before
        # they decay, so they say little about rho = 0.5
        m = np.diag(np.full(600, 0.5)) + np.diag(np.full(599, 2.0), 1)
        assert ah.analysis.spectral_radius(m) == pytest.approx(0.5, abs=1e-12)


class TestExpectedMatrix:
    def test_q1_degenerate(self):
        aspec = ah.AugmentedSpec(grid=exact_spec(4), buffer_len=1)
        proj = ah.build_projector(aspec)
        dist = ah.SwitchingDistribution.uniform(aspec)
        lam = ah.expected_matrix(aspec, dist, proj)
        assert np.array_equal(
            lam, ah.build_sync_matrix(aspec.grid) - proj.psi
        )

    def test_uniform_average_of_four_modes(self, aspec32, modes32):
        proj = ah.build_projector(aspec32)
        dist = ah.SwitchingDistribution.uniform(aspec32)
        lam = ah.expected_matrix(aspec32, dist, proj)
        avg = sum(0.25 * (m - proj.psi) for m in modes32)
        assert np.abs(lam - avg).max() < 1e-15

    def test_enumerated_refuses_above_cap(self):
        aspec = ah.AugmentedSpec(grid=exact_spec(6), buffer_len=3)
        dist = ah.SwitchingDistribution.uniform(aspec)
        with pytest.raises(ah.ModeCountError, match=str(aspec.mode_count)):
            enumerated_expected_matrix(aspec, dist, cap=100)

    def test_factorized_equals_enumerated_6561_modes(self):
        aspec = ah.AugmentedSpec(grid=exact_spec(6), buffer_len=3)
        assert aspec.mode_count == 6561
        rng = np.random.default_rng(17)
        probs = rng.random((aspec.num_edges, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        dist = ah.SwitchingDistribution(probs)
        fact = ah.expected_matrix(aspec, dist, ah.build_projector(aspec))
        enum = enumerated_expected_matrix(aspec, dist)
        assert np.abs(fact - enum).max() < 1e-12

    def test_lambda_is_singular(self, aspec32):
        dist = ah.SwitchingDistribution.uniform(aspec32)
        lam = ah.expected_matrix(aspec32, dist, ah.build_projector(aspec32))
        assert np.linalg.svd(lam, compute_uv=False)[-1] < 1e-10


class TestEigenstructure:
    def test_sync_mode_passes(self, aspec32, modes32):
        proj = ah.build_projector(aspec32)
        report = ah.verify_eigenstructure(modes32[0], proj)
        assert report.passed
        assert report.top_moduli[2] < 1.0

    def test_q1_three_point_spectrum(self):
        aspec = ah.AugmentedSpec(grid=exact_spec(3), buffer_len=1)
        proj = ah.build_projector(aspec)
        report = ah.verify_eigenstructure(mode_stack(aspec)[0], proj)
        assert report.passed
        assert report.top_moduli == pytest.approx((1.0, 1.0, 0.0), abs=1e-12)

    def test_all_four_modes_pass(self, aspec32, modes32):
        proj = ah.build_projector(aspec32)
        for mode in modes32:
            report = ah.verify_eigenstructure(mode, proj)
            assert report.passed
            assert report.inf_norm == 1.0


class TestSwitchingDistribution:
    def test_rejects_bad_sums(self):
        with pytest.raises(ValueError):
            ah.SwitchingDistribution(np.array([[0.5, 0.4]]))
        with pytest.raises(ValueError):
            ah.SwitchingDistribution(np.array([[1.5, -0.5]]))
        with pytest.raises(ValueError):
            ah.SwitchingDistribution(np.array([[np.nan, np.nan]]))

    def test_mode_probability_uniform(self, aspec32):
        dist = ah.SwitchingDistribution.uniform(aspec32)
        assert ah.mode_probability((0, 1), dist) == 0.25

    @pytest.mark.parametrize(
        "delays", [(-1, 0), (2, 0), (1.7, 0), (np.nan, 0), [[0, 1], [1, -1]]],
        ids=["minus-one", "q", "fraction", "nan", "block"],
    )
    def test_mode_probability_refuses_bad_delays(self, delays):
        """A delay outside [0, q-1] is refused, not wrapped or truncated."""
        dist = ah.SwitchingDistribution(np.array([[0.9, 0.1], [0.9, 0.1]]))
        with pytest.raises(ValueError, match=r"integers in \[0, 1\]"):
            ah.mode_probability(delays, dist)

    def test_mode_probability_q1(self):
        aspec = ah.AugmentedSpec(grid=exact_spec(4), buffer_len=1)
        dist = ah.SwitchingDistribution.uniform(aspec)
        assert ah.mode_probability((0,) * aspec.num_edges, dist) == 1.0

    def test_probabilities_sum_to_one(self):
        aspec = ah.AugmentedSpec(grid=exact_spec(4), buffer_len=2)
        rng = np.random.default_rng(23)
        probs = rng.random((aspec.num_edges, 2))
        probs /= probs.sum(axis=1, keepdims=True)
        dist = ah.SwitchingDistribution(probs)
        total = sum(
            ah.mode_probability(p, dist)
            for p in itertools.product(range(2), repeat=aspec.num_edges)
        )
        assert abs(total - 1.0) < 1e-12


@given(
    n=st.integers(min_value=3, max_value=8),
    q=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_mode_invariants_hold_for_random_patterns(n, q, seed):
    aspec = ah.AugmentedSpec(grid=exact_spec(n), buffer_len=q)
    proj = ah.build_projector(aspec)
    rng = np.random.default_rng(seed)
    delays = rng.integers(0, q, aspec.num_edges)
    mode = ah.build_mode_matrix(aspec, delays)
    assert np.abs(mode).sum(axis=1).max() == 1.0
    assert np.abs(mode @ proj.v1 - proj.v1).max() < 1e-12
    assert np.abs(mode @ proj.v2 - proj.v2).max() < 1e-12
    assert np.abs(proj.s1 @ mode - proj.s1).max() < 1e-12
    assert np.abs(proj.s2 @ mode - proj.s2).max() < 1e-12
    # marginal stability of the augmented update
    x = rng.uniform(-1, 1, aspec.dim)
    assert np.abs(mode @ x).max() <= np.abs(x).max() + 1e-12
