import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asyncheat as ah
from asyncheat import analysis
from asyncheat.analysis import (
    HorizonExhaustedError,
    LyapunovError,
    TailConstants,
    _top_singular_value,
)
from conftest import exact_spec
import oracles


def random_stable(n, rho, seed):
    """Random matrix rescaled to the requested spectral radius."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m * (rho / max(abs(np.linalg.eigvals(m))))


def paper_worst_deflated(num_pes=3, q=2, points_per_pe=1):
    aspec = ah.AugmentedSpec(grid=exact_spec(num_pes, points_per_pe),
                             buffer_len=q)
    proj = ah.build_projector(aspec)
    return ah.deflate(ah.worst_case_mode(aspec), proj)


class TestSpectralNorm:
    def test_diagonal(self):
        assert ah.spectral_norm(np.diag([3.0, -5.0, 1.0])) == 5.0

    def test_rank_one(self):
        u = np.array([3.0, 4.0])
        assert ah.spectral_norm(np.outer(u, u)) == pytest.approx(25.0, rel=1e-14)

    def test_orthogonal(self):
        th = 0.7
        q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert ah.spectral_norm(q) == pytest.approx(1.0, rel=1e-14)


class TestSolveDiscreteLyapunov:
    def test_zero_matrix_gives_identity(self):
        cert = ah.solve_discrete_lyapunov(np.zeros((4, 4)))
        assert np.allclose(cert.p, np.eye(4), rtol=0, atol=1e-14)
        assert cert.rate == 0.0
        assert cert.k_const == pytest.approx(1.0)

    def test_scalar_contraction_closed_form(self):
        # W~ = aI  =>  P = I/(1-a^2)
        a = 0.8
        cert = ah.solve_discrete_lyapunov(a * np.eye(3))
        want = 1.0 / (1.0 - a**2)
        assert cert.lambda_max == pytest.approx(want, rel=1e-12)
        assert cert.lambda_min == pytest.approx(want, rel=1e-12)
        assert cert.rate == pytest.approx(a**2, rel=1e-12)

    def test_matches_series_oracle(self):
        for n, seed in [(5, 0), (20, 1), (50, 2)]:
            m = random_stable(n, 0.9, seed)
            cert = ah.solve_discrete_lyapunov(m)
            series = oracles.lyapunov_series(m)
            assert np.allclose(cert.p, series, rtol=1e-9, atol=1e-9)

    @staticmethod
    def assert_matches_references(m, rtol):
        """P and lambda_max(P) agree with scipy's bilinear solve and, where
        its guard allows, with the dense Kronecker solve."""
        cert = ah.solve_discrete_lyapunov(m)
        refs = [oracles.lyapunov_bilinear(m)]
        if len(m) <= oracles._KRONECKER_DIM_GUARD:
            refs.append(oracles.lyapunov_kronecker(m))
        for ref in refs:
            ref = 0.5 * (ref + ref.T)
            gap = np.linalg.norm(cert.p - ref) / np.linalg.norm(ref)
            assert gap <= rtol
            assert cert.lambda_max == pytest.approx(
                np.linalg.eigvalsh(ref)[-1], rel=rtol
            )

    def test_matches_direct_references_random_stable(self):
        for n, rho, seed in [(5, 0.5, 0), (12, 0.9, 1), (30, 0.999, 2),
                             (60, 0.95, 3)]:
            self.assert_matches_references(random_stable(n, rho, seed), 1e-10)

    def test_large_transient_closed_form(self):
        # W~^k = [[a^k, k a^(k-1) b], [0, a^k]], and its series sums in
        # closed form; lambda_max(P) = 2.5e23, ||W~^k|| peaks near 3.7e8
        a, b = 0.999999, 1e3
        g = (1.0 - a) * (1.0 + a)  # 1 - a^2 without cancellation
        p12 = b * a / g**2
        want = np.array([[1.0 / g, p12],
                         [p12, b * b * (1.0 + a * a) / g**3 + 1.0 / g]])
        m = np.array([[a, b], [0.0, a]])
        cert = ah.solve_discrete_lyapunov(m)
        assert np.allclose(cert.p, want, rtol=1e-11, atol=0)
        self.assert_matches_references(m, 1e-9)

    def test_matches_direct_references_large_transients(self):
        # triangular and rotated-triangular 6x6 with strictly upper
        # entries of scale 3: lambda_max(P) from 1.4e3 to 5.1e6; the
        # Kronecker solve's error grows with it
        for seed in range(6):
            rng = np.random.default_rng(seed)
            m = (np.triu(3.0 * rng.standard_normal((6, 6)), 1)
                 + np.diag(rng.uniform(-0.95, 0.95, 6)))
            rot, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            self.assert_matches_references(m, 1e-8)
            self.assert_matches_references(rot @ m @ rot.T, 1e-8)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_strongly_non_normal_refused_or_right(self, seed):
        # as above at scale 10: Smith's rounding grows with the transient
        # peak of ||W~^k|| (~1e5), past the residual gate; the solve may
        # refuse, but a certificate it returns must be the right one
        rng = np.random.default_rng(seed)
        m = (np.triu(10.0 * rng.standard_normal((6, 6)), 1)
             + np.diag(rng.uniform(-0.95, 0.95, 6)))
        rot, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        m = rot @ m @ rot.T
        try:
            cert = ah.solve_discrete_lyapunov(m)
        except LyapunovError:
            return
        ref = oracles.lyapunov_bilinear(m)
        ref = 0.5 * (ref + ref.T)
        assert np.linalg.norm(cert.p - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_matches_direct_references_paper_modes(self):
        for num_pes, q, points in [(3, 2, 1), (6, 3, 1), (4, 3, 2),
                                   (10, 3, 1)]:
            self.assert_matches_references(
                paper_worst_deflated(num_pes, q, points), 1e-10
            )

    def test_flagship_accuracy(self, paper_certificates):
        # P = I + a PSD sum, so lambda_min(P) >= 1 in exact arithmetic
        cert = paper_certificates[0]
        assert cert.residual <= 1e-14
        assert cert.lambda_min - 1.0 >= -1e-11

    def test_overflow_raises(self):
        # spectral radius 0.5, but W~'W~ overflows at the first doubling
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LyapunovError, match="overflow"):
                ah.solve_discrete_lyapunov(np.array([[0.5, 1e200],
                                                     [0.0, 0.5]]))

    def test_doubling_cap_raises(self, monkeypatch):
        # 0.99^(2^3) is far from negligible after three doublings
        monkeypatch.setattr(analysis, "_SMITH_DOUBLINGS", 3)
        with pytest.raises(LyapunovError, match="3 doublings"):
            ah.solve_discrete_lyapunov(0.99 * np.eye(2))

    def test_rejects_unstable(self):
        with pytest.raises(LyapunovError):
            ah.solve_discrete_lyapunov(np.eye(3))
        with pytest.raises(LyapunovError):
            ah.solve_discrete_lyapunov(random_stable(4, 1.3, 3))

    def test_quadratic_form_contracts_at_certified_rate(self):
        m = random_stable(8, 0.95, 7)
        cert = ah.solve_discrete_lyapunov(m)
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.standard_normal(8)
            v_now = x @ cert.p @ x
            v_next = (m @ x) @ cert.p @ (m @ x)
            assert v_next <= cert.rate * v_now * (1 + 1e-10)

    def test_paper_example_certificate(self):
        cert = ah.solve_discrete_lyapunov(paper_worst_deflated())
        assert 0.0 < cert.rate < 1.0
        assert cert.k_const >= 1.0
        assert cert.residual <= 1e-8


class TestConvergenceRateBound:
    def test_dominates_actual_decay(self):
        m = random_stable(10, 0.9, 11)
        cert = ah.solve_discrete_lyapunov(m)
        e0 = np.random.default_rng(12).standard_normal(10)
        bound = ah.convergence_rate_bound(
            cert, np.linalg.norm(e0), 60, cert.k_const
        )
        e = e0.copy()
        for k in range(61):
            assert np.linalg.norm(e) <= bound[k] * (1 + 1e-12)
            e = m @ e

    def test_prefactor_override(self):
        cert = ah.solve_discrete_lyapunov(0.5 * np.eye(2))
        b1 = ah.convergence_rate_bound(cert, 2.0, 5, k_const=1.0)
        b4 = ah.convergence_rate_bound(cert, 2.0, 5, k_const=4.0)
        assert np.allclose(b4, 2.0 * b1, rtol=1e-14)
        assert b1[0] == 2.0

    def test_geometric_shape(self):
        cert = ah.solve_discrete_lyapunov(0.6 * np.eye(3))
        bound = ah.convergence_rate_bound(cert, 1.0, 10, k_const=1.0)
        ratio = bound[1:] / bound[:-1]
        assert np.allclose(ratio, np.sqrt(cert.rate), rtol=1e-12)


class TestExactMeanCurve:
    def test_diagonal_analytic(self):
        lam = np.diag([0.5, -0.25])
        e0 = np.array([4.0, 8.0])
        vectors, norms = ah.exact_mean_curve(lam, e0, 3)
        assert np.array_equal(vectors[1], [2.0, -2.0])
        assert np.array_equal(vectors[3], [0.5, -0.125])
        assert norms[0] == np.linalg.norm(e0)

    def test_zero_steps(self):
        vectors, norms = ah.exact_mean_curve(np.eye(2), np.ones(2), 0)
        assert vectors.shape == (1, 2)


class TestVerifyMeanContraction:
    def test_identity_weight_passes_for_small_lambda(self):
        cert = ah.solve_discrete_lyapunov(0.9 * np.eye(3))
        report = ah.verify_mean_contraction(0.3 * np.eye(3), cert)
        assert report.passed
        assert report.margin <= 0
        assert report.k_const == 1.0

    def test_fallback_produces_valid_prefactor(self):
        # Lambda contracts but not within the worst-case mode's rate
        cert = ah.solve_discrete_lyapunov(0.1 * np.eye(4))
        lam = random_stable(4, 0.8, 21)
        report = ah.verify_mean_contraction(lam, cert)
        assert not report.passed
        assert report.margin > 0
        assert report.k_const >= 1.0
        # the fallback bound must still dominate the actual decay
        lam_cert = ah.solve_discrete_lyapunov(lam)
        e0 = np.random.default_rng(22).standard_normal(4)
        bound = ah.convergence_rate_bound(
            lam_cert, np.linalg.norm(e0), 40, k_const=report.k_const
        )
        _, norms = ah.exact_mean_curve(lam, e0, 40)
        assert (norms <= bound * (1 + 1e-10)).all()

    def test_reports_smallest_singular_value(self):
        cert = ah.solve_discrete_lyapunov(0.9 * np.eye(2))
        lam = np.diag([0.2, 0.0])
        report = ah.verify_mean_contraction(lam, cert)
        assert report.smallest_singular_value == 0.0


class TestTailConstants:
    def test_contraction_from_first_power(self):
        tc = ah.tail_constants(0.9 * np.eye(3))
        assert tc.k0 == 1
        assert tc.c0 == 1.0
        assert tc.c1 == pytest.approx(0.9**4, rel=1e-12)
        assert tc.lifted_lambda_max_bound == pytest.approx(
            1.0 / (1.0 - 0.9**4), rel=1e-12
        )
        assert tc.second_moment_rate == pytest.approx(1.0 - (1.0 - 0.9**4))

    def test_transient_growth(self):
        m = np.array([[0.5, 10.0], [0.0, 0.5]])
        tc = ah.tail_constants(m)
        assert tc.k0 > 1
        assert tc.c0 > 1.0  # the transient pushes ||W~^k|| above 1
        assert tc.c1 < 1.0
        # c0 and c1 really do bound the walked powers
        p = np.eye(2)
        for k in range(tc.k0):
            assert ah.spectral_norm(p) ** 4 <= tc.c0 * (1 + 1e-12)
            p = p @ m
        assert ah.spectral_norm(p) ** 4 == pytest.approx(tc.c1, rel=1e-9)

    def test_horizon_exhausted_for_marginally_stable(self):
        with pytest.raises(HorizonExhaustedError, match=r"1\.0, computed"):
            ah.tail_constants(np.eye(3), horizon=50)

    def test_horizon_message_gives_a_true_lower_bound(self):
        """A skipped power reports ||W~^k u||^4, at most its true value."""
        m = np.zeros((3, 3))
        m[0, 0] = 1.0
        m[1:, 1:] = [[0.5, 10.0], [0.0, 0.5]]
        with pytest.raises(HorizonExhaustedError) as caught:
            ah.tail_constants(m, horizon=5)
        found = re.search(r"at least (\S+), a lower bound", str(caught.value))
        assert found
        smallest = min(
            ah.spectral_norm(np.linalg.matrix_power(m, k)) ** 4
            for k in range(1, 6)
        )
        assert float(found.group(1)) <= smallest

    def test_paper_example(self):
        tc = ah.tail_constants(paper_worst_deflated())
        assert 0 < tc.second_moment_rate < 1
        assert tc.lifted_lambda_max_bound > 1


def dense_tail_constants(w_tilde, horizon=100_000):
    """Oracle: the walk with the dense right product, kept verbatim."""
    w_tilde = np.asarray(w_tilde, dtype=float)
    c0 = 1.0
    smallest = np.inf
    m = np.eye(w_tilde.shape[0])
    u = None  # warm start for the singular-vector iteration
    for k in range(horizon + 1):
        norm_k, u = _top_singular_value(m, u)
        fourth = norm_k**4
        if fourth < 1.0:
            # confirm against the full SVD before committing to k0
            fourth = ah.spectral_norm(m) ** 4
            if fourth < 1.0:
                return TailConstants(k0=k, c0=c0, c1=fourth)
        smallest = min(smallest, fourth)
        c0 = max(c0, fourth)
        m = m @ w_tilde
    raise HorizonExhaustedError(
        f"||W~^k||^4 never dropped below 1 within {horizon} powers "
        f"(smallest seen: {smallest})"
    )


class TestTailWalkOracle:
    """The sparse walk finds the dense walk's constants above dim 64."""

    @pytest.mark.parametrize(
        "w_tilde",
        [
            pytest.param(lambda: paper_worst_deflated(25, 3), id="N25-q3"),
            pytest.param(lambda: paper_worst_deflated(20, 4), id="N20-q4"),
            pytest.param(lambda: random_stable(70, 0.9, 51), id="dense70"),
        ],
    )
    def test_matches_dense_walk(self, w_tilde):
        w_tilde = w_tilde()
        assert w_tilde.shape[0] > 64
        want = dense_tail_constants(w_tilde)
        got = ah.tail_constants(w_tilde)
        assert want.k0 > 1
        assert got.k0 == want.k0
        assert got.c0 == pytest.approx(want.c0, rel=1e-12, abs=0)
        assert got.c1 == pytest.approx(want.c1, rel=1e-12, abs=0)

    def test_steps_are_bit_identical_to_stepping_by_w_tilde(self):
        """The walk drops W~'s columns that meet its zero rows (Psi's
        dense columns among them); that drops only a*0.0 terms."""
        import scipy.sparse

        w_tilde = paper_worst_deflated(25, 3)
        assert not w_tilde.any(axis=1).all()
        step = scipy.sparse.csr_array(w_tilde)
        want = np.eye(w_tilde.shape[0])
        for k, m, _ in analysis._walk(w_tilde, 200):
            assert m.tobytes() == want.tobytes(), k
            want = step @ want

    def test_norm_checks_are_pruned(self, monkeypatch):
        """Powers that can change neither k0 nor c0 skip the iteration:
        37 of the 598 powers at N25-q3."""
        w_tilde = paper_worst_deflated(25, 3)
        calls = []

        def counted(m, u0=None):
            calls.append(1)
            return _top_singular_value(m, u0)

        monkeypatch.setattr(analysis, "_top_singular_value", counted)
        tc = ah.tail_constants(w_tilde)
        assert tc.k0 == 597
        assert len(calls) <= 40


def perturbed_shift():
    """An augmented mode (N=6, q=3) one of whose buffer-shift entries
    reads 0.5, not 1.0."""
    w_tilde = paper_worst_deflated(6, 3)
    assert w_tilde[6 + 2, 2] == 1.0  # block 1, point 2, from block 0
    w_tilde[6 + 2, 2] = 0.5
    return w_tilde


# (matrix, rows a step makes anew): the grid size at augmented modes, and
# the whole dimension where there is no exact buffer shift
WALKS = [
    pytest.param(lambda: paper_worst_deflated(8, 2), 8, id="N8-q2"),
    pytest.param(lambda: paper_worst_deflated(6, 4), 6, id="N6-q4"),
    pytest.param(lambda: paper_worst_deflated(5, 3, points_per_pe=2), 10,
                 id="5x2-q3"),
    pytest.param(lambda: paper_worst_deflated(6, 1), 6, id="N6-q1"),
    pytest.param(perturbed_shift, 18, id="perturbed-shift"),
    pytest.param(lambda: random_stable(70, 0.9, 51), 70, id="dense70"),
]


class TestPowerRing:
    """The walk makes only each power's new head rows, into a ring."""

    @pytest.mark.parametrize("w_tilde, head", WALKS)
    def test_powers_are_bit_identical_to_stepping_by_w_tilde(self, w_tilde,
                                                             head):
        import scipy.sparse

        w_tilde = w_tilde()
        step = scipy.sparse.csr_array(w_tilde)
        want = np.eye(w_tilde.shape[0])
        # long enough to wrap the ring five times
        horizon = 5 * analysis._RING_HEADS + 2
        walked = 0
        for k, m, _ in analysis._walk(w_tilde, horizon):
            assert k == walked
            assert m.tobytes() == want.tobytes(), k
            want = step @ want
            walked += 1
        assert walked == horizon + 1

    @pytest.mark.parametrize("w_tilde, head", WALKS)
    def test_head_size_is_found_from_the_matrix(self, w_tilde, head):
        w_tilde = w_tilde()
        dim = w_tilde.shape[0]
        news = [new for _, _, new in analysis._walk(w_tilde, 4)]
        assert news == [dim, dim, head, head, head]

    @pytest.mark.parametrize(
        "w_tilde",
        [
            pytest.param(lambda: paper_worst_deflated(25, 3), id="N25-q3"),
            pytest.param(lambda: paper_worst_deflated(12, 4, points_per_pe=2),
                         id="12x2-q4"),
        ],
    )
    def test_norm_checks_match_whole_power_sums(self, monkeypatch, w_tilde):
        """The per-row terms skip exactly the powers that sums over whole
        powers skip: the iteration sees the same powers, in order."""
        w_tilde = w_tilde()
        norms = []

        def recorded(m, u0=None):
            norm, u = _top_singular_value(m, u0)
            norms.append(norm)
            return norm, u

        want, c0, u = [], 1.0, None
        for _, m, _ in analysis._walk(w_tilde, 100_000):
            if u is not None and np.einsum("ij,ij->", m, m) ** 2 <= c0:
                if np.linalg.norm(m @ u) >= 1.0:
                    continue
            norm, u = _top_singular_value(m, u)
            want.append(norm)
            if norm**4 < 1.0 and ah.spectral_norm(m) ** 4 < 1.0:
                break
            c0 = max(c0, norm**4)
        monkeypatch.setattr(analysis, "_top_singular_value", recorded)
        ah.tail_constants(w_tilde)
        assert len(want) > 10
        assert norms == want


class TestSecondMomentBound:
    def test_chain_on_paper_example(self):
        report = oracles.second_moment_bound_check(paper_worst_deflated())
        assert report.chain_holds
        assert (
            report.lifted_lambda_max
            < report.truncated_sum
            <= report.tail_bound
        )

    def test_chain_on_random_contraction(self):
        report = oracles.second_moment_bound_check(random_stable(4, 0.7, 31))
        assert report.chain_holds

    def test_dim_guard(self):
        with pytest.raises(ValueError):
            oracles.second_moment_bound_check(np.eye(60))


class TestErrorProbabilityBound:
    def test_monotone_in_step_and_epsilon(self):
        tc = ah.tail_constants(0.8 * np.eye(4))
        e0 = np.array([1.0, -2.0, 0.5, 0.0])
        small = ah.error_probability_bound(tc, e0, 0.01, 100)
        large = ah.error_probability_bound(tc, e0, 1.0, 100)
        assert (np.diff(small) <= 1e-15).all()
        assert (large <= small + 1e-15).all()
        assert small.max() <= 1.0

    def test_closed_form_value(self):
        tc = ah.tail_constants(0.5 * np.eye(2))
        e0 = np.array([0.1, 0.0])
        curve = ah.error_probability_bound(tc, e0, 1.0, 4)
        rate = tc.second_moment_rate
        want = np.sqrt(2.0) * rate ** (np.arange(5) / 2.0) * 0.01
        assert np.allclose(curve, np.minimum(1.0, want), rtol=1e-13)

    def test_rejects_bad_epsilon(self):
        tc = ah.tail_constants(0.5 * np.eye(2))
        with pytest.raises(ValueError):
            ah.error_probability_bound(tc, np.ones(2), 0.0, 10)
        with pytest.raises(ValueError):
            ah.error_probability_bound(tc, np.ones(2), np.nan, 10)

    def test_dominates_empirical_exceedance_small_system(self):
        """End-to-end: Markov curve sits above the Monte Carlo exceedance."""
        spec = exact_spec(4)
        aspec = ah.AugmentedSpec(grid=spec, buffer_len=2)
        dist = ah.SwitchingDistribution.uniform(aspec)
        cfg = ah.RunConfig(
            aspec=aspec,
            dist=dist,
            initial=ah.cos2_initial_condition(spec),
            bc=ah.BoundaryConditions(1.0, 0.0),
            steps=200,
            seed=314,
            epsilons=(0.01,),
        )
        res = ah.run_ensemble(cfg, 200)
        proj = ah.build_projector(aspec)
        wt = ah.deflate(ah.worst_case_mode(aspec), proj)
        tc = ah.tail_constants(wt)
        ramp = ah.steady_state_profile(spec, cfg.bc)
        e0 = np.tile(cfg.initial, 2) - np.tile(ramp, 2)
        curve = ah.error_probability_bound(tc, e0, 0.01, 200)
        assert (res.exceedance_table[:, 0] <= curve + 1e-12).all()


class TestKronNormIdentity:
    def test_identity_holds(self):
        m = random_stable(5, 0.9, 41)
        for k in (1, 2, 5, 10):
            report = oracles.kron_norm_identity_check(m, k)
            assert report.difference <= 1e-10 * max(1.0, report.squared_norm)

    def test_guard(self):
        with pytest.raises(ValueError):
            oracles.kron_norm_identity_check(np.eye(60), 2)


@given(
    n=st.integers(min_value=2, max_value=12),
    rho=st.floats(min_value=0.05, max_value=0.97),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_certificate_invariants_random_stable(n, rho, seed):
    m = random_stable(n, rho, seed)
    cert = ah.solve_discrete_lyapunov(m)
    assert cert.lambda_min >= 1.0 - 1e-9  # P >= I always
    assert 0.0 <= cert.rate < 1.0
    assert cert.rate >= rho**2 - 1e-9  # rate can't beat the spectral radius
    assert cert.k_const >= 1.0
