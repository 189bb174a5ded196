"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line via ``_report`` so the suite doubles
as a human-readable checklist. Criterion 8 is split: the dominance and
sweep clauses hold, while the analytic tail bound is too conservative at
the flagship scale to drop below 1e-3 within 1e4 steps (the certified
second-moment rate is 1 - O(1e-12) there); that clause is expected to
fail and is kept honest rather than weakened.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

import asyncheat as ah
from asyncheat.cli import _fmt
from asyncheat.cli import main as cli_main
from asyncheat.modes import mode_product
from conftest import exact_spec
import oracles
from oracles import enumerated_expected_matrix


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {status}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_01_four_mode_example():
    """N=3, q=2 enumeration gives exactly the four known matrices."""
    start = time.perf_counter()
    r = 0.5
    shift = np.zeros((6, 6))
    shift[3:, :3] = np.eye(3)

    def top(row1):
        m = shift.copy()
        m[0, 0] = 1.0
        m[2, 2] = 1.0
        m[1] = row1
        return m

    expected = [
        top([r, 0.0, r, 0, 0, 0]),
        top([0, 0.0, r, r, 0, 0]),
        top([r, 0.0, 0, 0, 0, r]),
        top([0, 0.0, 0, r, 0, r]),
    ]
    aspec = ah.AugmentedSpec(grid=exact_spec(3), buffer_len=2)
    ours = next(ah.modes.mode_batches(aspec, aspec.mode_count))[1]
    ok = len(ours) == 4 and all(
        any(np.array_equal(w, e) for w in ours) for e in expected
    )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: N=3 q=2 enumeration matches the 4 reference matrices",
        ok and elapsed < 1.0,
        f"{len(ours)} modes, {elapsed:.3f}s",
    )


def test_criterion_02_eigenstructure_suite():
    """Every mode at small (N, q) has the common eigenstructure."""
    start = time.perf_counter()
    worst = 0.0
    count = 0
    ok = True
    for n, q in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        aspec = ah.AugmentedSpec(grid=exact_spec(n), buffer_len=q)
        proj = ah.build_projector(aspec)
        for _, stack in ah.modes.mode_batches(aspec, aspec.mode_count):
            for mode in stack:
                count += 1
                rep = ah.verify_eigenstructure(mode, proj)
                if rep.inf_norm != 1.0:
                    ok = False
                if max(rep.right_residuals + rep.left_residuals) >= 1e-12:
                    ok = False
                if abs(rep.top_moduli[0] - 1) > 1e-10 or abs(rep.top_moduli[1] - 1) > 1e-10:
                    ok = False
                if rep.top_moduli[2] >= 1.0:
                    ok = False
                worst = max(
                    worst, max(rep.right_residuals + rep.left_residuals)
                )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2: eigenstructure holds for every enumerated mode",
        ok and elapsed < 10.0,
        f"{count} modes, worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_every_trajectory_converges(paper_problem, paper_ensemble):
    """All 300 flagship runs reach the ramp below 1e-3 in the inf norm."""
    final_inf = paper_ensemble.max_inf_error[-1]
    sync = ah.run_sync_reference(paper_problem)
    ok = final_inf < 1e-3 and sync.inf_norms[-1] < 1e-3
    _report(
        "criterion 3: all 300 async runs and the sync reference reach the "
        "ramp within 1e-3",
        ok,
        f"max async inf error {final_inf:.2e}, "
        f"sync {sync.inf_norms[-1]:.2e}",
    )


def test_criterion_04_mean_error_oracle():
    """Empirical mean error tracks the expected-matrix power curve."""
    start = time.perf_counter()
    spec = exact_spec(4)
    aspec = ah.AugmentedSpec(grid=spec, buffer_len=2)
    dist = ah.SwitchingDistribution.uniform(aspec)
    bc = ah.BoundaryConditions(1.0, 0.0)
    cfg = ah.RunConfig(
        aspec=aspec,
        dist=dist,
        initial=ah.cos2_initial_condition(spec),
        bc=bc,
        steps=50,
        seed=918273,
    )
    proj = ah.build_projector(aspec)
    lam = ah.expected_matrix(aspec, dist, proj)
    lam_enum = enumerated_expected_matrix(aspec, dist, proj)
    lam_agree = float(np.max(np.abs(lam - lam_enum)))

    res = ah.run_ensemble(cfg, 10_000, workers=os.cpu_count() or 1)
    ramp = ah.steady_state_profile(spec, bc)
    e0 = np.tile(cfg.initial, 2) - np.tile(ramp, 2)
    vectors, _ = ah.exact_mean_curve(lam, e0, 50)

    ok = lam_agree < 1e-12
    worst_z = 0.0
    for k in (1, 5, 10, 50):
        gap = np.abs(res.mean_error[k] - vectors[k])
        # zero-variance components (Dirichlet rows, deterministic first
        # step) get an absolute floor against pure roundoff
        allowed = 3.0 * res.stderr_error[k] + 1e-12
        worst_z = max(worst_z, float((gap / allowed).max()))
        if (gap > allowed).any():
            ok = False
    elapsed = time.perf_counter() - start
    _report(
        "criterion 4: 10k-run mean error within 3 standard errors of the "
        "expected-matrix curve",
        ok and elapsed < 60.0,
        f"Lambda agreement {lam_agree:.1e}, worst z {worst_z:.2f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_05_rate_bound_dominates(
    paper_problem, paper_ensemble, paper_certificates, paper_initial_error
):
    """The Lyapunov rate bound sits above the empirical mean error norm."""
    cert, contraction, _ = paper_certificates
    e0_norm = float(np.linalg.norm(paper_initial_error))
    if not contraction.passed:
        # fallback prefactor is valid only when the worst-case rate still
        # applies to the mean dynamics
        assert contraction.lambda_max_p <= cert.lambda_max
    bound = ah.convergence_rate_bound(
        cert, e0_norm, paper_problem.steps, k_const=contraction.k_const
    )
    empirical = paper_ensemble.mean_error_norm
    ok = bool((empirical <= bound + 1e-12).all())
    gap = float((bound - empirical).min())
    _report(
        "criterion 5: certified mean-error bound dominates the 300-run "
        "empirical curve at every step",
        ok,
        f"min bound-empirical gap {gap:.3e}, K {contraction.k_const:.4g}",
    )


def test_criterion_06_lyapunov_ordering():
    """lambda_max(P_j) > 1 always; the all-max-delay mode maximizes it."""
    ok = True
    warnings = []
    for n, q in [(3, 2), (4, 2), (4, 3)]:
        aspec = ah.AugmentedSpec(grid=exact_spec(n), buffer_len=q)
        proj = ah.build_projector(aspec)
        worst = ah.worst_case_mode(aspec)
        lam_max_m = ah.solve_discrete_lyapunov(
            ah.deflate(worst, proj)
        ).lambda_max
        for delays, stack in ah.modes.mode_batches(aspec, aspec.mode_count):
            for d, mode in zip(delays.tolist(), stack):
                cert = ah.solve_discrete_lyapunov(ah.deflate(mode, proj))
                if not cert.lambda_max > 1.0:
                    ok = False
                if cert.lambda_max > lam_max_m * (1 + 1e-10):
                    # dominance of the all-max-delay mode is an unproved
                    # conjecture: log, don't fail
                    warnings.append(
                        f"(N={n}, q={q}) delays {tuple(d)}: "
                        f"{cert.lambda_max} > {lam_max_m}"
                    )
    for w in warnings:
        print(f"[acceptance] WARN criterion 6: {w}")
    _report(
        "criterion 6: every per-mode lambda_max(P) exceeds 1; worst-case "
        "mode maximizes it",
        ok,
        f"{len(warnings)} ordering warnings",
    )


def test_criterion_07_second_moment_chain():
    """Lifted Lyapunov chain and Kronecker norm identity at N=3, q=2."""
    start = time.perf_counter()
    aspec = ah.AugmentedSpec(grid=exact_spec(3), buffer_len=2)
    proj = ah.build_projector(aspec)
    wt = ah.deflate(ah.worst_case_mode(aspec), proj)
    rep = oracles.second_moment_bound_check(wt, horizon=500)
    ok = (
        rep.lifted_lambda_max < rep.truncated_sum
        and rep.truncated_sum <= rep.tail_bound
    )
    worst_diff = 0.0
    for k in (1, 2, 5):
        kn = oracles.kron_norm_identity_check(wt, k)
        worst_diff = max(worst_diff, kn.difference)
        if kn.difference >= 1e-12:
            ok = False
    elapsed = time.perf_counter() - start
    _report(
        "criterion 7: lifted Lyapunov chain strict and Kronecker norm "
        "identity within 1e-12",
        ok and elapsed < 10.0,
        f"{rep.lifted_lambda_max:.4f} < {rep.truncated_sum:.4f} <= "
        f"{rep.tail_bound:.4f}, worst identity diff {worst_diff:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_08a_tail_bound_dominance_and_sweep(
    paper_problem, paper_ensemble, paper_certificates, paper_initial_error
):
    """min(1, beta(k)) dominates the empirical exceedance; sweep monotone."""
    _, _, tc = paper_certificates
    ok = True
    for j, eps in enumerate(paper_problem.epsilons):
        curve = ah.error_probability_bound(
            tc, paper_initial_error, eps, paper_problem.steps
        )
        empirical = paper_ensemble.exceedance_table[:, j]
        if not (empirical <= curve + 1e-12).all():
            ok = False
        if not bool((empirical[-1] == 0.0)):
            ok = False
    # epsilon sweep at a late step: all three curves non-increasing
    k_fix = 9000
    sq = paper_ensemble.norms_at[k_fix] ** 2
    eps_grid = np.logspace(-3, 1, 9)
    emp = [(sq > e).mean() for e in eps_grid]
    bnd = [
        ah.error_probability_bound(
            tc, paper_initial_error, e, k_fix
        )[k_fix]
        for e in eps_grid
    ]
    if not all(a >= b for a, b in zip(emp, emp[1:])):
        ok = False
    if not all(a >= b - 1e-15 for a, b in zip(bnd, bnd[1:])):
        ok = False
    _report(
        "criterion 8a: analytic tail bound dominates the empirical "
        "exceedance; empirical reaches 0; eps-sweep non-increasing",
        ok,
        f"empirical(1e4) = 0, sweep over {len(eps_grid)} epsilons",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The certified second-moment rate at N=100, q=3 is 1 - O(1e-12) "
        "(k0 ~ 1.4e4, c0 ~ 2e4), so the analytic tail bound cannot fall "
        "below 1e-3 within 1e4 steps; even the un-certifiable ideal "
        "constants give beta(1e4) >> 1e-3. Kept as an honest failure."
    ),
)
def test_criterion_08b_tail_bound_reaches_zero(
    paper_problem, paper_certificates, paper_initial_error
):
    """beta(1e4) < 1e-3 for both epsilons at the flagship scale."""
    _, _, tc = paper_certificates
    ok = True
    finals = []
    for eps in (0.01, 1.0):
        curve = ah.error_probability_bound(
            tc, paper_initial_error, eps, paper_problem.steps
        )
        finals.append(curve[-1])
        if not curve[-1] < 1e-3:
            ok = False
    _report(
        "criterion 8b: analytic tail bound falls below 1e-3 by step 1e4",
        ok,
        f"final bounds {finals[0]:.3e} (eps=0.01), {finals[1]:.3e} (eps=1)",
    )


def test_flagship_tail_constants_match_committed_certificate(
    paper_certificates,
):
    """(k0, c0, c1) reproduce results/flagship/certificate.json."""
    _, _, tc = paper_certificates
    path = os.path.join(
        os.path.dirname(__file__), "..", "results", "flagship",
        "certificate.json",
    )
    with open(path) as fh:
        golden = json.load(fh)
    rel = max(
        abs(tc.c0 - golden["c0"]) / golden["c0"],
        abs(tc.c1 - golden["c1"]) / golden["c1"],
    )
    _report(
        "flagship tail constants: k0 exact, c0 and c1 within 1e-9 "
        "relative of the committed certificate",
        tc.k0 == golden["k0"] and rel <= 1e-9,
        f"k0 {tc.k0} vs {golden['k0']}, worst relative gap {rel:.1e}",
    )


def test_flagship_ensemble_matches_committed_csv(paper_problem, paper_ensemble):
    """The session ensemble reproduces results/flagship/async_ensemble.csv.

    The fixture runs on every core, so this pins the split batch's bytes.
    """
    path = os.path.join(
        os.path.dirname(__file__), "..", "results", "flagship",
        "async_ensemble.csv",
    )
    with open(path, encoding="utf-8") as fh:
        golden = fh.read().splitlines()
    ens = paper_ensemble
    columns = (
        ens.mean_error_norm, ens.mean_sq_error, ens.max_inf_error
    )
    rows = ["step,mean_error_norm,mean_sq_error,max_inf_error"] + [
        ",".join([str(k), *(_fmt(c[k]) for c in columns)])
        for k in range(paper_problem.steps + 1)
    ]
    differing = sum(a != b for a, b in zip(rows, golden))
    _report(
        "flagship ensemble: async_ensemble.csv reproduced string for string",
        len(rows) == len(golden) and differing == 0,
        f"{differing} of {len(golden)} lines differ, "
        f"{len(rows)} rows against {len(golden)}",
    )


def test_criterion_09_solver_oracles():
    """Squared-Smith Lyapunov solves agree with scipy's bilinear solve,
    which shares no step with them, on 100 cases."""
    rng = np.random.default_rng(777)
    worst_rel = 0.0
    worst_res = 0.0
    ok = True
    for i in range(100):
        n = int(rng.integers(2, 51))
        m = rng.standard_normal((n, n))
        rho = float(max(abs(np.linalg.eigvals(m))))
        m *= rng.uniform(0.05, 0.97) / rho
        cert = ah.solve_discrete_lyapunov(m)
        ref = oracles.lyapunov_bilinear(m)
        rel = float(np.linalg.norm(cert.p - ref) / np.linalg.norm(ref))
        worst_rel = max(worst_rel, rel)
        worst_res = max(worst_res, cert.residual)
        if rel >= 1e-8 or cert.residual >= 1e-8:
            ok = False
    _report(
        "criterion 9: Smith-vs-bilinear Lyapunov agreement and residuals "
        "below 1e-8 on 100 random stable matrices",
        ok,
        f"worst relative gap {worst_rel:.2e}, worst residual {worst_res:.2e}",
    )


def test_criterion_10_simulator_matrix_equivalence(tmp_path):
    """Simulator equals matrix products exactly; CSVs are byte-stable."""
    ok = True
    for n, q in [(3, 2), (5, 3)]:
        aspec = ah.AugmentedSpec(grid=exact_spec(n), buffer_len=q)
        dist = ah.SwitchingDistribution.uniform(aspec)
        rng = np.random.default_rng(1000 * n + q)
        state = oracles.init_state(rng.uniform(0, 1, aspec.grid.total_points), q)
        x = state.ravel().copy()
        for _ in range(100):
            delays = oracles.sample_delays(rng, dist)
            state = ah.async_step(state, delays, aspec)
            x = mode_product(ah.build_mode_matrix(aspec, delays), x, q)
            if not np.array_equal(state.ravel(), x):
                ok = False
                break

    config = {
        "num_pes": 5,
        "dx": 1.0,
        "dt": 0.5,
        "alpha": 1.0,
        "buffer_len": 3,
        "steps": 50,
        "seed": 424242,
        "ensemble_size": 30,
        "epsilons": [0.01, 1.0],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli_main(
            ["simulate", "--config", str(cfg_path), "--out", str(out)]
        )
        if code != 0:
            ok = False
        digests.append(
            {
                name: (out / name).read_bytes()
                for name in sorted(os.listdir(out))
            }
        )
    if digests[0] != digests[1]:
        ok = False
    _report(
        "criterion 10: bit-exact simulator/matrix equivalence and "
        "byte-identical repeated CSV output",
        ok,
        "100 steps x 2 shapes, 6 artifacts compared",
    )
