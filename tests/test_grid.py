import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asyncheat as ah
from conftest import exact_spec


def stencil_oracle(spec, u):
    """Direct elementwise evaluation of the explicit update rule."""
    r = spec.r
    out = u.copy()
    for i in range(1, len(u) - 1):
        out[i] = r * u[i + 1] + (1 - 2 * r) * u[i] + r * u[i - 1]
    return out


class TestBuildSyncMatrix:
    def test_three_point_half_r(self):
        a = ah.build_sync_matrix(exact_spec(3))
        expected = np.array([[1, 0, 0], [0.5, 0, 0.5], [0, 0, 1.0]])
        assert np.array_equal(a, expected)

    def test_constant_vector_is_fixed(self):
        spec = exact_spec(7, r=0.25)
        a = ah.build_sync_matrix(spec)
        c = 3.25 * np.ones(7)
        assert np.allclose(a @ c, c, rtol=0, atol=1e-15)

    def test_matches_stencil_oracle(self):
        spec = exact_spec(4, r=0.25)
        a = ah.build_sync_matrix(spec)
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.standard_normal(4)
            assert np.allclose(
                a @ u, stencil_oracle(spec, u), rtol=1e-14, atol=1e-14
            )

    def test_rejects_bad_r(self):
        with pytest.raises(ah.InvalidGridError):
            ah.GridSpec(num_pes=4, points_per_pe=1, dx=0.1, dt=0.1, alpha=1.0)
        with pytest.raises(ah.InvalidGridError):
            ah.GridSpec(num_pes=4, points_per_pe=1, dx=1.0, dt=1.0, alpha=-1.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ah.InvalidGridError):
            ah.GridSpec(num_pes=2, points_per_pe=1, dx=1.0, dt=0.5, alpha=1.0)

    @given(
        n=st.integers(min_value=3, max_value=40),
        r_num=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_inf_norm_one_for_dyadic_r(self, n, r_num):
        # r = r_num/16 is exactly representable, so row sums are exact
        a = ah.build_sync_matrix(exact_spec(n, r=r_num / 16))
        assert np.abs(a).sum(axis=1).max() == 1.0
        diag_zeros = (n - 2) if r_num == 8 else 0  # 1-2r == 0 at r = 0.5
        assert np.count_nonzero(a) == 2 + 3 * (n - 2) - diag_zeros


class TestSyncStep:
    def test_ramp_is_fixed_point(self):
        spec = exact_spec(10, r=0.375)
        bc = ah.BoundaryConditions(2.0, -1.0)
        ramp = ah.steady_state_profile(spec, bc)
        a = ah.build_sync_matrix(spec)
        assert np.allclose(a @ ramp, ramp, rtol=0, atol=1e-14)

    def test_cos2_flattens_to_ramp(self):
        spec = exact_spec(100)
        a = ah.build_sync_matrix(spec)
        u = ah.cos2_initial_condition(spec)
        u[0], u[-1] = 1.0, 0.0
        for _ in range(10_000):
            u = a @ u
        ramp = ah.steady_state_profile(spec, ah.BoundaryConditions(1.0, 0.0))
        assert np.abs(u - ramp).max() < 1e-3

    def test_matches_oracle_single_step(self):
        spec = exact_spec(6, r=0.4375)
        a = ah.build_sync_matrix(spec)
        u = np.random.default_rng(3).standard_normal(6)
        assert np.allclose(
            a @ u, stencil_oracle(spec, u), rtol=1e-15, atol=1e-15
        )

    @given(st.integers(min_value=3, max_value=30), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_preserves_min_max(self, n, seed):
        spec = exact_spec(n, r=0.5)
        a = ah.build_sync_matrix(spec)
        u = np.random.default_rng(seed).uniform(-5, 5, n)
        v = a @ u
        assert v.min() >= u.min() - 1e-12
        assert v.max() <= u.max() + 1e-12


class TestCos2InitialCondition:
    # 22-digit reference evaluations, N=100, n=1
    REFERENCE = {
        1: 0.9977359612865423023631,
        25: 0.1381329809474649191801,
        50: 0.5237909579118711487249,
        100: 0.002264038713457697636872,
    }

    def test_reference_values(self):
        u = ah.cos2_initial_condition(exact_spec(100))
        for i, want in self.REFERENCE.items():
            assert u[i - 1] == pytest.approx(want, rel=1e-15)

    def test_cosine_zero_node(self):
        # at i = Nn-1 the argument is exactly 3*pi/2
        u = ah.cos2_initial_condition(exact_spec(100))
        assert abs(u[98]) < 1e-30

    def test_first_entry(self):
        u = ah.cos2_initial_condition(exact_spec(100))
        assert u[0] == pytest.approx(np.cos(3 * np.pi / 198) ** 2, rel=1e-15)


class TestSteadyStateProfile:
    def test_three_points(self):
        ramp = ah.steady_state_profile(
            exact_spec(3), ah.BoundaryConditions(1.0, 0.0)
        )
        assert np.array_equal(ramp, [1.0, 0.5, 0.0])

    def test_equal_boundaries_constant(self):
        ramp = ah.steady_state_profile(
            exact_spec(9), ah.BoundaryConditions(4.5, 4.5)
        )
        assert np.array_equal(ramp, np.full(9, 4.5))

    def test_fixed_point_of_sync_matrix(self):
        spec = exact_spec(100)
        ramp = ah.steady_state_profile(spec, ah.BoundaryConditions(1.0, 0.0))
        a = ah.build_sync_matrix(spec)
        assert np.abs(a @ ramp - ramp).max() < 1e-14
