"""Command-line interface: JSON experiment config in, CSV artifacts out.

Commands (one or more per call, run in order over one ``Pipeline``, so
each stage is computed at most once per call):
  simulate  seeded ensemble + synchronous reference -> trajectory CSVs
  analyze   Lyapunov certificate and bounds from the worst-case mode only
  verify    enumeration-based cross checks (small systems)
  compare   empirical exceedance vs Markov curve vs analytic bound

Exit codes: 0 success, 2 config error, 3 numerical-verification failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import analysis, grid, modes, sim

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class VerificationFailure(RuntimeError):
    """A numerical cross-check failed."""


_REQUIRED_KEYS = {"num_pes", "dx", "dt", "alpha", "buffer_len", "steps", "seed"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (mirrors the JSON schema)."""

    num_pes: int
    points_per_pe: int
    dx: float
    dt: float
    alpha: float
    buffer_len: int
    steps: int
    seed: int
    initial: object
    u_left: float
    u_right: float
    ensemble_size: int
    epsilons: tuple[float, ...]
    delay_probs: tuple[float, ...] | None
    snapshot_steps: tuple[int, ...]
    sweep_step: int
    sweep_epsilons: tuple[float, ...]
    mode_cap: int
    output_dir: str | None


_OPTIONAL_KEYS = {f.name for f in fields(ExperimentConfig)} - _REQUIRED_KEYS


def load_config(path: str) -> ExperimentConfig:
    """Parse and strictly validate a JSON experiment config."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(raw)
    if missing:
        raise ConfigError(f"missing required config keys: {sorted(missing)}")

    steps = int(raw["steps"])
    snapshot_steps = raw.get("snapshot_steps")
    if snapshot_steps is None:
        snapshot_steps = sorted({0, steps // 2, steps})
    epsilons = tuple(float(e) for e in raw.get("epsilons", (0.01, 1.0)))
    sweep_eps = raw.get("sweep_epsilons")
    cfg = ExperimentConfig(
        num_pes=int(raw["num_pes"]),
        points_per_pe=int(raw.get("points_per_pe", 1)),
        dx=float(raw["dx"]),
        dt=float(raw["dt"]),
        alpha=float(raw["alpha"]),
        buffer_len=int(raw["buffer_len"]),
        steps=steps,
        seed=int(raw["seed"]),
        initial=raw.get("initial", "cos2"),
        u_left=float(raw.get("u_left", 1.0)),
        u_right=float(raw.get("u_right", 0.0)),
        ensemble_size=int(raw.get("ensemble_size", 300)),
        epsilons=epsilons,
        delay_probs=(
            tuple(float(p) for p in raw["delay_probs"])
            if raw.get("delay_probs") is not None
            else None
        ),
        snapshot_steps=tuple(int(s) for s in snapshot_steps),
        sweep_step=int(raw.get("sweep_step", min(9000, steps))),
        sweep_epsilons=(
            tuple(float(e) for e in sweep_eps)
            if sweep_eps is not None
            else epsilons
        ),
        mode_cap=int(raw.get("mode_cap", 100_000)),
        output_dir=raw.get("output_dir"),
    )
    if cfg.sweep_step < 0:
        raise ConfigError("sweep_step must be >= 0")
    # fail fast on module-level invariants
    build_problem(cfg)
    return cfg


def build_problem(cfg: ExperimentConfig):
    """Construct the domain objects, mapping validation to ConfigError."""
    try:
        spec = grid.GridSpec(
            num_pes=cfg.num_pes,
            points_per_pe=cfg.points_per_pe,
            dx=cfg.dx,
            dt=cfg.dt,
            alpha=cfg.alpha,
        )
        aspec = modes.AugmentedSpec(grid=spec, buffer_len=cfg.buffer_len)
        if cfg.delay_probs is None:
            dist = modes.SwitchingDistribution.uniform(aspec)
        else:
            dist = modes.SwitchingDistribution.from_delay_probs(
                aspec, cfg.delay_probs
            )
        bc = grid.BoundaryConditions(u_left=cfg.u_left, u_right=cfg.u_right)
        if cfg.initial == "cos2":
            u0 = grid.cos2_initial_condition(spec)
        elif cfg.initial == "ramp":
            u0 = grid.steady_state_profile(spec, bc)
        elif isinstance(cfg.initial, (list, tuple)):
            u0 = np.asarray(cfg.initial, dtype=float)
        else:
            raise ConfigError(
                f"initial must be 'cos2', 'ramp' or a vector, got {cfg.initial!r}"
            )
        run_cfg = sim.RunConfig(
            aspec=aspec,
            dist=dist,
            initial=u0,
            bc=bc,
            steps=cfg.steps,
            seed=cfg.seed,
            epsilons=cfg.epsilons,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return run_cfg


class Pipeline:
    """The stages of one CLI call, each computed on first use and kept.

    The commands of one call are writers over the same stages, so
    ``simulate analyze compare`` runs one ensemble and one tail walk.
    """

    def __init__(self, cfg: ExperimentConfig, workers: int):
        self.cfg = cfg
        self.workers = workers
        self.run_cfg = build_problem(cfg)
        self.aspec = self.run_cfg.aspec

    @cached_property
    def sync(self) -> sim.Trajectory:
        return sim.run_sync_reference(
            self.run_cfg, snapshot_steps=self.cfg.snapshot_steps
        )

    @cached_property
    def ensemble(self) -> sim.EnsembleResult:
        return sim.run_ensemble(
            self.run_cfg, self.cfg.ensemble_size, workers=self.workers,
            norm_steps=(self.sweep_step,),
        )

    @property
    def sweep_step(self) -> int:
        """The step of ``comparison_sweep.csv``."""
        return min(self.cfg.sweep_step, self.cfg.steps)

    @cached_property
    def e0(self) -> np.ndarray:
        """e(0) = X(0) - psi X(0) in the augmented space."""
        q = self.aspec.buffer_len
        ramp = grid.steady_state_profile(self.aspec.grid, self.run_cfg.bc)
        return np.tile(self.run_cfg.initial, q) - np.tile(ramp, q)

    @cached_property
    def proj(self) -> modes.SteadyStateProjector:
        return modes.build_projector(self.aspec)

    @cached_property
    def certificate(self):
        """(Lyapunov certificate of W~_m, mean contraction, tail constants)."""
        wtm = modes.deflate(modes.worst_case_mode(self.aspec), self.proj)
        cert = analysis.solve_discrete_lyapunov(wtm)
        lam = modes.expected_matrix(self.aspec, self.run_cfg.dist, self.proj)
        contraction = analysis.verify_mean_contraction(lam, cert)
        return cert, contraction, analysis.tail_constants(wtm)

    def error_bound(self, eps: float, steps: int) -> np.ndarray:
        return analysis.error_probability_bound(
            self.certificate[2], self.e0, eps, steps, dim=self.aspec.dim
        ).values

    @cached_property
    def error_bounds(self) -> list[np.ndarray]:
        """The bound on Pr(||e(k)||^2 > eps) over all steps, per epsilon."""
        return [self.error_bound(e, self.cfg.steps) for e in self.cfg.epsilons]


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(outdir: str, name: str, header, rows) -> None:
    with open(os.path.join(outdir, name), "w", encoding="utf-8",
              newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _step_rows(steps: int, *columns):
    """Rows ``[k, column[k]...]`` for k = 0..steps."""
    return ([k, *(_fmt(c[k]) for c in columns)] for k in range(steps + 1))


def _eps_rows(steps: int, epsilons, *curves):
    """Rows ``[k, eps_j, curve[j][k]...]``, epsilon-major."""
    return (
        [k, _fmt(eps), *(_fmt(c[j][k]) for c in curves)]
        for j, eps in enumerate(epsilons)
        for k in range(steps + 1)
    )


_COMPARE_HEADER = ["step", "epsilon", "empirical_probability",
                   "empirical_markov", "analytic_bound"]


def cmd_simulate(pipe: Pipeline, outdir: str) -> int:
    cfg, sync, ens = pipe.cfg, pipe.sync, pipe.ensemble
    _write_csv(outdir, "sync_trajectory.csv",
               ["step", "error_norm", "inf_error"],
               _step_rows(cfg.steps, sync.error_norms, sync.inf_norms))
    if sync.snapshots:
        _write_csv(
            outdir, "sync_snapshots.csv", ["step", "point", "value"],
            (
                [k, i + 1, _fmt(v)]
                for k in sorted(sync.snapshots)
                for i, v in enumerate(sync.snapshots[k])
            ),
        )
    mean_norm = ens.mean_error_norm
    _write_csv(
        outdir, "async_ensemble.csv",
        ["step", "mean_error_norm", "mean_sq_error", "max_inf_error"],
        _step_rows(cfg.steps, mean_norm, ens.mean_sq_error,
                   ens.max_inf_error),
    )
    _write_csv(outdir, "exceedance.csv",
               ["step", "epsilon", "empirical_probability"],
               _eps_rows(cfg.steps, cfg.epsilons, ens.exceedance_table.T))
    print(
        f"simulate: {cfg.ensemble_size} runs x {cfg.steps} steps, "
        f"final mean error norm {mean_norm[-1]:.3e}"
    )
    return EXIT_OK


def cmd_analyze(pipe: Pipeline, outdir: str) -> int:
    cfg = pipe.cfg
    cert, contraction, tc = pipe.certificate
    # the rate comes from P_m and the prefactor from Lambda's own P
    if contraction.lambda_max_p > cert.lambda_max:
        raise VerificationFailure(
            f"mean-rate premise fails: lambda_max(P) of Lambda "
            f"{contraction.lambda_max_p!r} > lambda_max(P_m) "
            f"{cert.lambda_max!r}"
        )
    e0_norm = float(np.linalg.norm(pipe.e0))
    bound = analysis.convergence_rate_bound(
        cert, e0_norm, cfg.steps, k_const=contraction.k_const
    )
    _write_csv(outdir, "rate_bound.csv", ["step", "mean_error_bound"],
               _step_rows(cfg.steps, bound))
    _write_csv(outdir, "prob_bound.csv", ["step", "epsilon", "bound"],
               _eps_rows(cfg.steps, cfg.epsilons, pipe.error_bounds))
    certificate = {
        "dim": pipe.aspec.dim,
        "lambda_max_p_m": cert.lambda_max,
        "lambda_min_p_m": cert.lambda_min,
        "lyapunov_residual": cert.residual,
        "mean_rate": cert.rate,
        "mean_k_const": contraction.k_const,
        "mean_contraction_margin": contraction.margin,
        "mean_contraction_passed": contraction.passed,
        "lambda_smallest_singular_value": contraction.smallest_singular_value,
        "k0": tc.k0,
        "c0": tc.c0,
        "c1": tc.c1,
        "second_moment_rate": tc.second_moment_rate,
        "initial_error_norm": e0_norm,
    }
    with open(
        os.path.join(outdir, "certificate.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(certificate, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"analyze: rate {cert.rate:.10f}, K {contraction.k_const:.6g}, "
        f"k0 {tc.k0}, c0 {tc.c0:.6g}, c1 {tc.c1:.6g}"
    )
    return EXIT_OK


def cmd_verify(pipe: Pipeline, outdir: str) -> int:
    aspec, dist, proj = pipe.aspec, pipe.run_cfg.dist, pipe.proj
    cap = pipe.cfg.mode_cap
    failures = []
    prob_sum = 0.0
    for delays, w in modes.mode_batches(aspec, cap):
        report = modes.verify_eigenstructure(w, proj)
        failures += [f"eigenstructure failed for delays {tuple(d)}"
                     for d in delays[~report.passed].tolist()]
        failures += [f"inf norm != 1 for delays {tuple(d)}"
                     for d in delays[report.inf_norm != 1.0].tolist()]
        prob_sum += modes.mode_probability(delays, dist).sum()

    lam_fact = modes.expected_matrix(aspec, dist, proj)
    lam_enum = modes.enumerated_expected_matrix(aspec, dist, proj, cap=cap)
    lam_diff = float(np.max(np.abs(lam_fact - lam_enum)))
    if lam_diff > 1e-12:
        failures.append(f"factorized vs enumerated Lambda differ by {lam_diff}")
    if abs(prob_sum - 1.0) > 1e-12:
        failures.append(f"mode probabilities sum to {prob_sum}")

    rng = np.random.default_rng(pipe.cfg.seed)
    q, nn = aspec.buffer_len, aspec.grid.total_points
    for _ in range(20):
        state = sim.AsyncSimState(history=rng.standard_normal((q, nn)))
        mode = modes.build_mode_matrix(aspec, np.unravel_index(
            rng.integers(aspec.mode_count), (q,) * aspec.num_edges))
        stepped = sim.async_step(state, mode.delays, aspec).augmented
        direct = mode.w @ state.augmented
        if not np.array_equal(stepped, direct):
            failures.append(
                f"simulator/matrix mismatch for delays {mode.delays}"
            )
            break

    print(f"verify: {aspec.mode_count} modes, Lambda diff {lam_diff:.3e}, "
          f"probability sum {prob_sum:.15f}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return EXIT_NUMERICAL
    print("verify: all checks passed")
    return EXIT_OK


def cmd_compare(pipe: Pipeline, outdir: str) -> int:
    cfg, ens = pipe.cfg, pipe.ensemble
    mean_sq = ens.mean_sq_error
    _write_csv(
        outdir, "comparison.csv", _COMPARE_HEADER,
        _eps_rows(cfg.steps, cfg.epsilons, ens.exceedance_table.T,
                  [np.minimum(1.0, mean_sq / eps) for eps in cfg.epsilons],
                  pipe.error_bounds),
    )
    k_fix = pipe.sweep_step
    sq_norms = ens.norms_at[k_fix] ** 2
    _write_csv(
        outdir, "comparison_sweep.csv", _COMPARE_HEADER,
        (
            [k_fix, _fmt(eps), _fmt((sq_norms > eps).mean()),
             _fmt(min(1.0, mean_sq[k_fix] / eps)),
             _fmt(pipe.error_bound(eps, k_fix)[k_fix])]
            for eps in cfg.sweep_epsilons
        ),
    )
    print(f"compare: wrote comparison curves for {len(cfg.epsilons)} epsilons "
          f"and a sweep at step {k_fix}")
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "compare": cmd_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asyncheat",
        description=(
            "Asynchronous heat-equation simulation and switched-system "
            "analysis"
        ),
    )
    parser.add_argument(
        "commands", nargs="+", choices=COMMANDS, metavar="command",
        help=f"one or more of {', '.join(COMMANDS)}; run in order over "
             "one shared pipeline",
    )
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--workers", type=int, default=os.cpu_count() or 1,
        help="threads that split each ensemble batch's runs (>= 1)",
    )
    parser.add_argument(
        "--cap", type=int, default=None,
        help="mode-enumeration cap (verify only)",
    )
    return parser


def _error(kind: str, exc: Exception, code: int) -> int:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        return _error("config", exc, EXIT_CONFIG)
    if args.workers < 1:
        return _error(
            "config", ConfigError("--workers must be >= 1"), EXIT_CONFIG
        )

    outdir = args.out or cfg.output_dir or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        return _error("io", exc, EXIT_IO)

    if args.cap is not None:
        cfg = replace(cfg, mode_cap=args.cap)
    pipe = Pipeline(cfg, args.workers)
    try:
        for command in args.commands:
            code = COMMANDS[command](pipe, outdir)
            if code != EXIT_OK:
                return code
        return EXIT_OK
    except modes.ModeCountError as exc:
        return _error("config", exc, EXIT_CONFIG)
    except (
        analysis.LyapunovError,
        analysis.HorizonExhaustedError,
        modes.DeflationError,
        VerificationFailure,
    ) as exc:
        return _error("numerical", exc, EXIT_NUMERICAL)
    except OSError as exc:
        return _error("io", exc, EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
